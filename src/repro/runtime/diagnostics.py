"""The diagnostic pass: ``tracePrint`` (paper §III-C/D and Fig 4).

Invoked wherever the user placed ``#pragma xpl diagnostic`` (Python
workloads just call :func:`trace_print`).  It walks the shadow memory
table (live blocks plus the graveyard of allocations freed since the last
diagnostic), extracts the Fig 4 counters for each named allocation, runs
the anti-pattern analyses, optionally snapshots access maps for figures,
then resets the epoch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import IO, Sequence

import numpy as np

from ..memsim import Allocation, MemoryKind

from .access_map import AccessMap
from .alloc_data import XplAllocData
from .shadow import (CATEGORIES, AccessCounts, ShadowBlock, category_rows,
                     tally)
from .tracer import Tracer

__all__ = ["AllocationReport", "DiagnosticResult", "trace_print"]

#: Default low-access-density threshold (paper: "e.g., 50%").
DENSITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class AllocationReport:
    """Per-allocation diagnostic record (one Fig 4 table block)."""

    name: str
    alloc: Allocation
    counts: AccessCounts
    alternating: int
    freed: bool
    maps: dict[str, AccessMap] = field(default_factory=dict)
    #: Top ``(site label, word-access count)`` pairs for this epoch, when
    #: the tracer carries a heat store (empty otherwise).
    hot_sites: tuple[tuple[str, int], ...] = ()

    @property
    def density_pct(self) -> int:
        """Access density in percent, floored like the paper's output."""
        return int(self.counts.density * 100)

    @property
    def touched(self) -> bool:
        """Whether anything accessed this allocation during the epoch."""
        return self.counts.accessed_words > 0


@dataclass
class DiagnosticResult:
    """Everything one diagnostic call produced."""

    epoch: int
    reports: list[AllocationReport]

    def __iter__(self):
        return iter(self.reports)

    def named(self, name: str) -> AllocationReport:
        """Report for allocation ``name`` (exact match)."""
        for r in self.reports:
            if r.name == name:
                return r
        raise KeyError(name)


def _report_blocks(picked: Sequence[tuple[ShadowBlock, str]], *,
                   include_maps: bool, heat=None,
                   sample: int = 1) -> list[AllocationReport]:
    """One :class:`AllocationReport` per ``(block, name)`` pair.

    Every block's Fig 4 counters, alternating words and (with
    ``include_maps``) category masks come from one pass over the
    concatenated shadows (:func:`~repro.runtime.shadow.tally`).  Under
    ``Tracer(sample=N)`` each recorded word stands for ~N words, so the
    counters are scaled by N and clamped to the block size.
    """
    if not picked:
        return []
    shadows = [block.shadow for block, _ in picked]
    edges = [0, *accumulate(map(len, shadows))]
    flat = np.concatenate(shadows)
    counts = tally(flat, edges)
    if sample > 1:
        counts = np.minimum(counts * sample, np.diff(edges)[:, None])
    masks = category_rows(flat) if include_maps else None
    reports = []
    for i, ((block, name), row) in enumerate(zip(picked, counts.tolist())):
        lo, hi = edges[i], edges[i + 1]
        maps: dict[str, AccessMap] = {}
        if masks is not None:
            maps = {cat: AccessMap(name, cat, masks[c, lo:hi])
                    for c, cat in enumerate(CATEGORIES)}
        hot_sites: tuple[tuple[str, int], ...] = ()
        if heat is not None:
            alloc_heat = heat.peek(block.alloc)
            if alloc_heat is not None:
                hot_sites = tuple((site.label, n) for site, n
                                  in alloc_heat.current_top_sites(3))
        reports.append(AllocationReport(
            name=name,
            alloc=block.alloc,
            counts=AccessCounts(*row[:7], total_words=hi - lo),
            alternating=row[7],
            freed=block.freed_epoch is not None,
            maps=maps,
            hot_sites=hot_sites,
        ))
    return reports


def trace_print(
    tracer: Tracer,
    descriptors: Sequence[XplAllocData] | None = None,
    out: IO[str] | None = None,
    *,
    include_maps: bool = False,
    include_unnamed: bool = False,
    reset: bool = True,
) -> DiagnosticResult:
    """Analyze recorded accesses and (optionally) print a Fig 4-style report.

    :param descriptors: ``XplAllocData`` records naming allocations (from
        :func:`~repro.runtime.alloc_data.expand_object`); ``None`` reports
        every traced allocation under its label.
    :param out: stream for the textual report; ``None`` suppresses output
        (the structured :class:`DiagnosticResult` is always returned).
    :param include_maps: snapshot per-category access maps before reset.
    :param include_unnamed: with descriptors, also report allocations that
        no descriptor names.
    :param reset: close the epoch afterwards (paper behaviour).  Figures
        that need cumulative maps pass ``False``.
    """
    from .report import format_text  # local import to avoid a cycle

    tracer.flush_trace()  # apply any pending coalesced interval first
    blocks = tracer.smt.live_and_dead()
    by_base = {b.alloc.base: b for b in blocks}

    picked: list[tuple[ShadowBlock, str]] = []
    claimed: set[int] = set()
    if descriptors is not None:
        for desc in descriptors:
            block = by_base.get(desc.alloc.base if desc.alloc else desc.addr)
            if block is None:
                block = tracer.smt.lookup(desc.addr)
            if block is None:
                continue
            picked.append((block, desc.name))
            claimed.add(block.alloc.base)
    if descriptors is None or include_unnamed:
        for block in blocks:
            if block.alloc.base in claimed:
                continue
            label = block.alloc.label or f"alloc@{block.alloc.base:#x}"
            picked.append((block, label))
    reports = _report_blocks(picked, include_maps=include_maps,
                             heat=tracer.heat, sample=tracer.sample)

    result = DiagnosticResult(epoch=tracer.epoch, reports=reports)
    for hook in tuple(tracer.diagnostic_hooks):
        hook(result)
    if out is not None:
        out.write(format_text(result))
    if reset:
        tracer.advance_epoch()
    return result
