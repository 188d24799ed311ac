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
from typing import IO, Sequence

from ..memsim import Allocation, MemoryKind

from .access_map import AccessMap
from .alloc_data import XplAllocData
from .shadow import AccessCounts, ShadowBlock
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


def _scale_counts(counts: AccessCounts, alternating: int,
                  sample: int) -> tuple[AccessCounts, int]:
    """Scale sampled counters back up (``Tracer(sample=N)`` estimates).

    Each recorded word stands for ~``sample`` words, so every counter is
    multiplied by the sampling factor and clamped to the block size.
    """
    total = counts.total_words
    scale = lambda n: min(total, n * sample)  # noqa: E731
    return AccessCounts(
        cpu_written=scale(counts.cpu_written),
        gpu_written=scale(counts.gpu_written),
        read_cc=scale(counts.read_cc),
        read_cg=scale(counts.read_cg),
        read_gc=scale(counts.read_gc),
        read_gg=scale(counts.read_gg),
        accessed_words=scale(counts.accessed_words),
        total_words=total,
    ), scale(alternating)


def _report_block(block: ShadowBlock, name: str, *, include_maps: bool,
                  heat=None, sample: int = 1) -> AllocationReport:
    maps: dict[str, AccessMap] = {}
    if include_maps:
        maps = {
            cat: AccessMap(name, cat, mask)
            for cat, mask in block.category_masks().items()
        }
    hot_sites: tuple[tuple[str, int], ...] = ()
    if heat is not None:
        alloc_heat = heat.peek(block.alloc)
        if alloc_heat is not None:
            hot_sites = tuple((site.label, n) for site, n
                              in alloc_heat.current_top_sites(3))
    counts = block.counts()
    alternating = block.alternating_words()
    if sample > 1:
        counts, alternating = _scale_counts(counts, alternating, sample)
    return AllocationReport(
        name=name,
        alloc=block.alloc,
        counts=counts,
        alternating=alternating,
        freed=block.freed_epoch is not None,
        maps=maps,
        hot_sites=hot_sites,
    )


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

    reports: list[AllocationReport] = []
    claimed: set[int] = set()
    if descriptors is not None:
        for desc in descriptors:
            block = by_base.get(desc.alloc.base if desc.alloc else desc.addr)
            if block is None:
                block = tracer.smt.lookup(desc.addr)
            if block is None:
                continue
            reports.append(_report_block(block, desc.name,
                                         include_maps=include_maps,
                                         heat=tracer.heat,
                                         sample=tracer.sample))
            claimed.add(block.alloc.base)
    if descriptors is None or include_unnamed:
        for block in blocks:
            if block.alloc.base in claimed:
                continue
            label = block.alloc.label or f"alloc@{block.alloc.base:#x}"
            reports.append(_report_block(block, label,
                                         include_maps=include_maps,
                                         heat=tracer.heat,
                                         sample=tracer.sample))

    result = DiagnosticResult(epoch=tracer.epoch, reports=reports)
    for hook in tuple(tracer.diagnostic_hooks):
        hook(result)
    if out is not None:
        out.write(format_text(result))
    if reset:
        tracer.advance_epoch()
    return result
