"""The XPlacer tracer: the runtime half of the instrumentation API.

Two entry paths feed the same shadow memory:

* **Observer path** -- the tracer subscribes to a simulated
  :class:`~repro.cudart.CudaRuntime`, which publishes every view access,
  CUDA call and kernel launch (how the Python workloads are traced).
* **Direct path** -- the paper's Table I API (:meth:`Tracer.traceR`,
  :meth:`Tracer.traceW`, :meth:`Tracer.traceRW`, and the ``trc*`` wrappers)
  used by instrumented mini-CUDA programs, where *every* call performs an
  SMT address lookup exactly as the paper describes.

Besides shadow updates, the tracer records explicit transfers (for the
unnecessary-transfer analysis), applied advice (so detectors can check
"existing hints do not match access characteristics"), and kernel launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cudart.advice import cudaMemcpyKind, cudaMemoryAdvise
from ..cudart.observer import ObserverBase
from ..memsim import Allocation, MemoryKind, Processor

from .batch import KIND_READ, KIND_RMW, KIND_WRITE, TraceBatcher
from .shadow import ShadowBlock
from .smt import ShadowMemoryTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cudart.api import CudaRuntime
    from ..heatmap.store import HeatStore, SourceSite

__all__ = ["Tracer", "TransferRecord", "AdviceRecord", "KernelRecord"]

#: Unset-advice -> the set-advice it cancels (advice-state folding).
_UNSET_OF = {
    cudaMemoryAdvise.cudaMemAdviseUnsetReadMostly:
        cudaMemoryAdvise.cudaMemAdviseSetReadMostly,
    cudaMemoryAdvise.cudaMemAdviseUnsetPreferredLocation:
        cudaMemoryAdvise.cudaMemAdviseSetPreferredLocation,
    cudaMemoryAdvise.cudaMemAdviseUnsetAccessedBy:
        cudaMemoryAdvise.cudaMemAdviseSetAccessedBy,
}


@dataclass(frozen=True)
class TransferRecord:
    """One explicit ``cudaMemcpy`` leg touching traced memory."""

    alloc: Allocation
    offset: int
    nbytes: int
    direction: str  #: ``"H2D"`` or ``"D2H"``
    epoch: int


@dataclass(frozen=True)
class AdviceRecord:
    """One ``cudaMemAdvise`` application."""

    alloc: Allocation
    advice: cudaMemoryAdvise
    offset: int
    nbytes: int
    device_id: int
    epoch: int


@dataclass(frozen=True)
class KernelRecord:
    """One kernel launch."""

    name: str
    grid: int
    block: int
    epoch: int


class Tracer(ObserverBase):
    """Records heap accesses into shadow memory (paper §III-C)."""

    def __init__(self, *, enabled: bool = True,
                 heat: "HeatStore | None" = None,
                 batch: bool = True,
                 sample: "int | str | None" = None,
                 auto_stride: int = 8,
                 auto_hot: int = 2,
                 phase_threshold: float | None = None) -> None:
        self.smt = ShadowMemoryTable()
        self.enabled = enabled
        #: Optional access-count heat recorder (off by default; the shadow
        #: memory itself only keeps boolean per-word masks per epoch).
        self.heat = heat
        self.epoch = 0
        self.transfers: list[TransferRecord] = []
        self.advice: list[AdviceRecord] = []
        self.kernels: list[KernelRecord] = []
        #: Called with the number of the epoch that just closed whenever
        #: :meth:`advance_epoch` runs (telemetry epoch markers).
        self.epoch_hooks: list = []
        #: Called with each :class:`~repro.runtime.diagnostics.DiagnosticResult`
        #: *before* the diagnostic resets the epoch -- live state (shadow,
        #: open heat accumulators) is still inspectable.  The interactive
        #: debugger hangs anti-pattern breakpoints here.
        self.diagnostic_hooks: list = []
        #: Sampled shadow mode: record 1-in-N words (strided over spans,
        #: 1-in-N calls for sub-stride accesses).  Diagnostics scale the
        #: counts back up; results are *estimates* -- see EXPERIMENTS.md.
        #:
        #: ``sample="auto"`` is the signature-guided adaptive mode: the
        #: stride starts at 1 (full rate), and at each epoch boundary an
        #: online :class:`~repro.signature.phases.PhaseDetector` over the
        #: open heat accumulators (heat records full-rate regardless of
        #: shadow sampling, so the signal never degrades) decides the
        #: *next* epoch's stride -- full rate for ``auto_hot`` epochs after
        #: every detected phase change, ``auto_stride`` in steady state.
        #: Requires a heat store; without one the tracer stays full-rate.
        if sample == "auto":
            self.sample = 1
            self.sample_mode = "auto"
        elif sample and int(sample) > 1:
            self.sample = int(sample)
            self.sample_mode = "fixed"
        else:
            self.sample = 1
            self.sample_mode = "off"
        #: Steady-state stride of ``sample="auto"``.
        self.auto_stride = max(2, int(auto_stride))
        #: Full-rate epochs traced after each detected phase change.
        self.auto_hot = max(1, int(auto_hot))
        #: Phase changes the adaptive sampler has reacted to.
        self.auto_changes = 0
        self._phase_threshold = phase_threshold
        self._auto_detector = None
        self._auto_hot_left = 0
        self._sample_tick = 0
        #: Shadow words seen / actually recorded across closed epochs
        #: (the open epoch's tallies live in the ``_epoch_*`` pair until
        #: :meth:`advance_epoch` folds them in).  ``recorded < seen`` only
        #: under sampling; the ratio is the *measured* sampling rate that
        #: report and telemetry headers surface via :meth:`sampling_info`.
        self.words_seen = 0
        self.words_recorded = 0
        self._epoch_seen = 0
        self._epoch_recorded = 0
        #: Per-epoch ``{"epoch", "seen", "recorded", "sample"}`` records
        #: (the stride in effect while that epoch was traced).
        self.epoch_rates: list[dict] = []
        #: Coalesces consecutive same-(alloc, proc, kind) accesses into one
        #: vectorized shadow update (see :mod:`repro.runtime.batch`).
        #: ``Tracer(batch=False)`` restores the one-update-per-call path
        #: (differential testing); diagnostics are identical either way.
        self.batcher: TraceBatcher | None = \
            TraceBatcher(self._apply_range) if batch else None
        #: Folded per-allocation advice state (see :meth:`advice_for`).
        self._advice_state: dict[int, set[cudaMemoryAdvise]] = {}
        self._runtime: "CudaRuntime | None" = None
        #: Requested execution backend (set by the interpreter): one of
        #: ``interp``/``codegen``/``codegen-vec``/``auto``.  Reports and
        #: JSONL headers surface it via :meth:`backend_info` so fidelity
        #: numbers are attributable to the backend that produced them.
        self.backend = "interp"
        #: Launch counts by the backend that actually executed them.
        self.backend_launches: dict[str, int] = {}
        #: Total tiers dropped across launches (vec -> codegen -> interp).
        self.backend_fallbacks = 0
        #: Host functions by the tier that runs them; ``interp`` entries
        #: are host fallbacks (a static bail, or a tracer subclass).
        self.host_functions: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # wiring

    def attach(self, runtime: "CudaRuntime") -> "Tracer":
        """Subscribe to ``runtime`` (idempotent); returns self."""
        runtime.subscribe(self)
        self._runtime = runtime
        return self

    def bind(self, runtime: "CudaRuntime") -> "Tracer":
        """Bind to ``runtime`` for processor context *without* subscribing.

        Used by the mini-CUDA pipeline, where only the instrumented
        ``trace*`` calls feed the tracer (as in the paper's compiled
        workflow) but device/host attribution still follows the runtime's
        execution context.
        """
        self._runtime = runtime
        return self

    def detach(self) -> None:
        """Unsubscribe from the runtime."""
        if self._runtime is not None:
            self._runtime.unsubscribe(self)
            self._runtime = None

    @property
    def current_proc(self) -> Processor:
        """Processor executing right now (CPU unless inside a kernel)."""
        return self._runtime.current_proc if self._runtime else Processor.CPU

    # ------------------------------------------------------------------ #
    # shadow application (batch sink; sampling lives here)

    def _apply_range(self, block: ShadowBlock, proc: Processor, kind: int,
                     lo: int, hi: int) -> None:
        """Apply one (possibly coalesced) word interval to the shadow.

        With ``sample=N`` spans of at least N words record every N-th word,
        strided on the block's own word grid (multiples of N) so that
        overlapping accesses mark the *same* representative words and the
        scaled-up estimate stays faithful under overlap; narrower accesses
        record fully on every N-th call.
        """
        n = self.sample
        step = 1
        seen = hi - lo
        if n > 1:
            if seen >= n:
                step = n
                lo = -(-lo // n) * n  # first grid word inside the span
            else:
                self._sample_tick += 1
                if self._sample_tick % n:
                    self._epoch_seen += seen
                    return
        self._epoch_seen += seen
        self._epoch_recorded += (hi - lo + step - 1) // step \
            if lo < hi else 0
        if kind == KIND_READ:
            block.record_read(proc, lo, hi, step=step)
        elif kind == KIND_WRITE:
            block.record_write(proc, lo, hi, step=step)
        else:
            block.record_rmw(proc, lo, hi, step=step)

    def _trace_span(self, block: ShadowBlock, proc: Processor, kind: int,
                    lo: int, hi: int) -> None:
        """Route one span access through the batcher (or apply directly)."""
        b = self.batcher
        if b is not None:
            b.add(block, proc, kind, lo, hi)
        else:
            self._apply_range(block, proc, kind, lo, hi)

    def flush_trace(self) -> None:
        """Apply any pending coalesced interval (diagnostic-safe point)."""
        if self.batcher is not None:
            self.batcher.flush()

    def _apply_words(self, block: ShadowBlock, proc: Processor, kind: int,
                     idx, count: int | None = None) -> None:
        """Apply one batched per-word update (vectorized backend sink).

        ``idx`` is an int array of shadow word indices, one entry per
        traced word per lane (duplicates legal: the shadow ORs bits, and
        heat counts each entry, exactly like the per-thread calls the
        batch replaces).  Only valid at full rate (the vectorized backend
        requires ``sample_mode == "off"``), so every counted word is both
        seen and recorded.  ``count`` overrides the ``len(idx)`` tally
        (pass 0 when the launch accounts its words once via
        :meth:`note_words` instead of per update).
        """
        n = len(idx) if count is None else count
        self._epoch_seen += n
        self._epoch_recorded += n
        if kind == KIND_READ:
            block.record_read(proc, 0, 0, idx=idx)
        elif kind == KIND_WRITE:
            block.record_write(proc, 0, 0, idx=idx)
        else:
            block.record_rmw(proc, 0, 0, idx=idx)

    def note_words(self, n: int) -> None:
        """Account ``n`` logical shadow words for a batched launch.

        The interpreter's :class:`~repro.runtime.batch.TraceBatcher`
        tallies *post-merge interval widths*, not trace calls, so a
        vectorized launch computes the identical figure up front
        (:meth:`repro.codegen.gridexec.VecRun._batcher_seen`) and books
        it here in one step.
        """
        self._epoch_seen += n
        self._epoch_recorded += n

    def note_launch(self, used: str, fallbacks: int = 0) -> None:
        """Record which backend executed a kernel launch (and how many
        tiers it fell through to get there)."""
        self.backend_launches[used] = self.backend_launches.get(used, 0) + 1
        self.backend_fallbacks += fallbacks

    def note_host(self, used: str) -> None:
        """Record which tier runs one host function (once per function)."""
        self.host_functions[used] = self.host_functions.get(used, 0) + 1

    def backend_info(self) -> dict | None:
        """Backend attribution for report/JSONL headers, or ``None``.

        ``None`` when running the plain interpreter (the historical
        default, so existing artifacts are byte-identical); otherwise the
        requested backend, per-backend launch counts, the total number of
        per-launch fallbacks, and host functions by tier (``host``).
        """
        if self.backend == "interp":
            return None
        return {
            "backend": self.backend,
            "launches": {k: self.backend_launches[k]
                         for k in sorted(self.backend_launches)},
            "fallbacks": self.backend_fallbacks,
            "host": {k: self.host_functions[k]
                     for k in sorted(self.host_functions)},
        }

    # ------------------------------------------------------------------ #
    # direct tracing API (paper Table I)

    def traceR(self, addr: int, size: int = 4,
               site: "SourceSite | None" = None) -> int:
        """``const T& traceR(const T&)``: record a read, return the address."""
        if self.enabled:
            block = self.smt.lookup(addr)
            if block is not None:
                lo, hi = block.word_range(addr - block.alloc.base, size)
                self._trace_span(block, self.current_proc, KIND_READ, lo, hi)
                if self.heat is not None:
                    self.heat.record(block.alloc, self.current_proc,
                                     is_write=False, lo=lo, hi=hi, site=site)
        return addr

    def traceW(self, addr: int, size: int = 4,
               site: "SourceSite | None" = None) -> int:
        """``T& traceW(T&)``: record a write, return the address."""
        if self.enabled:
            block = self.smt.lookup(addr)
            if block is not None:
                lo, hi = block.word_range(addr - block.alloc.base, size)
                self._trace_span(block, self.current_proc, KIND_WRITE, lo, hi)
                if self.heat is not None:
                    self.heat.record(block.alloc, self.current_proc,
                                     is_write=True, lo=lo, hi=hi, site=site)
        return addr

    def traceRW(self, addr: int, size: int = 4,
                site: "SourceSite | None" = None) -> int:
        """``T& traceRW(T&)``: record a read-modify-write, return the address."""
        if self.enabled:
            block = self.smt.lookup(addr)
            if block is not None:
                lo, hi = block.word_range(addr - block.alloc.base, size)
                self._trace_span(block, self.current_proc, KIND_RMW, lo, hi)
                if self.heat is not None:
                    proc = self.current_proc
                    self.heat.record(block.alloc, proc, is_write=False,
                                     lo=lo, hi=hi, site=site)
                    self.heat.record(block.alloc, proc, is_write=True,
                                     lo=lo, hi=hi, site=site)
        return addr

    # ------------------------------------------------------------------ #
    # allocation wrappers (``#pragma xpl replace`` targets)

    def trc_register(self, alloc: Allocation) -> ShadowBlock:
        """``trcMalloc``/``trcMallocManaged`` bookkeeping for ``alloc``."""
        return self.smt.insert(alloc, self.epoch)

    def trc_free(self, alloc: Allocation) -> None:
        """``trcFree``: payload goes now, shadow parks until next diagnostic."""
        self.flush_trace()
        self.smt.remove(alloc.base, self.epoch)

    # ------------------------------------------------------------------ #
    # observer callbacks (the Python-workload path)

    def on_alloc(self, alloc: Allocation) -> None:  # noqa: D102
        if self.enabled:
            self.trc_register(alloc)

    def on_free(self, alloc: Allocation) -> None:  # noqa: D102
        if self.enabled:
            self.trc_free(alloc)

    def on_access(self, proc, alloc, byte_offset, elem_size, count,
                  is_write, indices, is_rmw) -> None:  # noqa: D102
        if not self.enabled:
            return
        block = self.smt.lookup(alloc.base)
        if block is None:
            return
        if indices is None:
            lo, hi = block.word_range(byte_offset, count * elem_size)
            idx = None
            kind = KIND_RMW if is_rmw else (KIND_WRITE if is_write else KIND_READ)
            self._trace_span(block, proc, kind, lo, hi)
        else:
            lo = hi = 0
            idx = block.word_indices(byte_offset, elem_size, indices)
            # Scattered accesses bypass the batcher but must still respect
            # program order against any pending interval.
            self.flush_trace()
            self._epoch_seen += len(idx)
            self._epoch_recorded += len(idx)
            if is_rmw:
                block.record_rmw(proc, lo, hi, idx)
            elif is_write:
                block.record_write(proc, lo, hi, idx)
            else:
                block.record_read(proc, lo, hi, idx)
        if self.heat is not None:
            if is_rmw:
                self.heat.record(alloc, proc, is_write=False,
                                 lo=lo, hi=hi, idx=idx)
                self.heat.record(alloc, proc, is_write=True,
                                 lo=lo, hi=hi, idx=idx)
            else:
                self.heat.record(alloc, proc, is_write=is_write,
                                 lo=lo, hi=hi, idx=idx)

    def on_memcpy(self, dst, dst_off, src, src_off, nbytes, kind) -> None:  # noqa: D102
        if not self.enabled:
            return
        self.flush_trace()
        # Paper §III-C: H2D transfers are recorded as CPU writes of the
        # destination; D2H transfers as CPU reads of the source.
        if dst is not None:
            block = self.smt.lookup(dst.base)
            if block is not None:
                lo, hi = block.word_range(dst_off, nbytes)
                block.record_write(Processor.CPU, lo, hi)
                self._epoch_seen += hi - lo
                self._epoch_recorded += hi - lo
                if self.heat is not None:
                    self.heat.record(dst, Processor.CPU, is_write=True,
                                     lo=lo, hi=hi)
                if dst.kind is MemoryKind.DEVICE:
                    self.transfers.append(TransferRecord(
                        dst, dst_off, nbytes, "H2D", self.epoch))
        if src is not None:
            block = self.smt.lookup(src.base)
            if block is not None:
                lo, hi = block.word_range(src_off, nbytes)
                block.record_read(Processor.CPU, lo, hi)
                self._epoch_seen += hi - lo
                self._epoch_recorded += hi - lo
                if self.heat is not None:
                    self.heat.record(src, Processor.CPU, is_write=False,
                                     lo=lo, hi=hi)
                if src.kind is MemoryKind.DEVICE:
                    self.transfers.append(TransferRecord(
                        src, src_off, nbytes, "D2H", self.epoch))

    def on_kernel_launch(self, name: str, grid: int, block: int) -> None:  # noqa: D102
        if self.enabled:
            self.flush_trace()
            self.kernels.append(KernelRecord(name, grid, block, self.epoch))

    def on_kernel_complete(self, name: str, grid: int, block: int,
                           duration: float) -> None:  # noqa: D102
        if self.enabled:
            self.flush_trace()

    def on_advice(self, alloc, advice, byte_offset, nbytes, device_id) -> None:  # noqa: D102
        if self.enabled:
            self.flush_trace()
            self.advice.append(AdviceRecord(
                alloc, advice, byte_offset, nbytes, device_id, self.epoch))
            state = self._advice_state.setdefault(alloc.base, set())
            unset = _UNSET_OF.get(advice)
            if unset is not None:
                state.discard(unset)
            else:
                state.add(advice)

    # ------------------------------------------------------------------ #
    # epoch management (driven by diagnostics)

    def advance_epoch(self) -> int:
        """Close the current epoch: reset live shadows, drop parked ones."""
        self.flush_trace()
        self.smt.reset_all()
        self.smt.flush_graveyard()
        closed = self.epoch
        self.epoch += 1
        self.words_seen += self._epoch_seen
        self.words_recorded += self._epoch_recorded
        self.epoch_rates.append({"epoch": closed,
                                 "seen": self._epoch_seen,
                                 "recorded": self._epoch_recorded,
                                 "sample": self.sample})
        self._epoch_seen = 0
        self._epoch_recorded = 0
        if self.sample_mode == "auto" and self.heat is not None:
            # Decide the *next* epoch's stride from the epoch that just
            # closed, before the heat store freezes (and, when streaming,
            # releases) its open accumulators.
            self._auto_update(closed)
        if self.heat is not None:
            self.heat.advance_epoch(closed)
        for hook in tuple(self.epoch_hooks):
            hook(closed)
        return self.epoch

    def _auto_update(self, closed: int) -> None:
        """Adaptive-sampling step: phase-detect, then pick the next stride.

        Full rate while the detector sees a phase transition (and for
        ``auto_hot`` epochs after it), ``auto_stride`` once the pattern is
        steady.  The heat store records every word regardless of shadow
        sampling, so the detector's signal is full-fidelity even while
        the shadow is strided.
        """
        from ..signature.phases import PhaseDetector
        from ..signature.vector import combine_vectors, epoch_vector

        det = self._auto_detector
        if det is None:
            det = self._auto_detector = PhaseDetector(
                *(() if self._phase_threshold is None
                  else (self._phase_threshold,)))
        pairs = []
        for heat in self.heat._allocs.values():
            total = int(heat._counts.sum())
            if total:
                pairs.append((epoch_vector(heat._counts), total))
        vec, weight = combine_vectors(pairs)
        if weight <= 0:
            return
        first = not det.started
        _, changed = det.update(closed, vec, weight)
        if first or changed:
            if changed:
                self.auto_changes += 1
            self._auto_hot_left = self.auto_hot
            self.sample = 1
        else:
            if self._auto_hot_left > 0:
                self._auto_hot_left -= 1
            self.sample = 1 if self._auto_hot_left > 0 else self.auto_stride

    def describe(self) -> dict:
        """Live description of the tracer: mode, strides, true rates.

        Unlike :attr:`sample` (the *configured* stride), the word counters
        report what actually happened: ``words_seen`` is every shadow word
        the instrumented program presented, ``words_recorded`` how many
        the shadow actually kept, and ``measured_rate`` their ratio --
        the effective sampling rate even under ``sample="auto"``, where
        the stride varies per epoch (see :attr:`epoch_rates`).
        """
        seen = self.words_seen + self._epoch_seen
        recorded = self.words_recorded + self._epoch_recorded
        return {
            "enabled": self.enabled,
            "epoch": self.epoch,
            "mode": self.sample_mode,
            "sample": self.sample,
            "auto_stride": self.auto_stride,
            "phase_changes": self.auto_changes,
            "words_seen": seen,
            "words_recorded": recorded,
            "measured_rate": round(recorded / seen, 6) if seen else 1.0,
            "kernels": len(self.kernels),
            "transfers": len(self.transfers),
            "epochs": [dict(r) for r in self.epoch_rates],
            "backend": self.backend,
            "backend_launches": {k: self.backend_launches[k]
                                 for k in sorted(self.backend_launches)},
            "backend_fallbacks": self.backend_fallbacks,
        }

    def sampling_info(self) -> dict | None:
        """Effective sampling rate + estimated fidelity, or ``None``.

        ``None`` for full-rate tracers (every word recorded); otherwise a
        dict telemetry and report headers embed verbatim so sampled runs
        are visibly labeled as sampled:

        * ``sample`` -- the stride N (1-in-N words; the steady-state
          stride in adaptive mode);
        * ``mode`` -- ``"fixed"`` or ``"auto"``;
        * ``effective_rate`` -- fraction of words recorded: ``1/N`` for a
          fixed stride, the measured ratio under ``auto``;
        * ``measured_rate`` -- recorded/seen words so far (the *true*
          rate; absent until anything was traced);
        * ``estimated_fidelity`` -- conservative estimate of how closely
          scaled-up counts track a full trace.  Dense full-span patterns
          are exact (the fidelity suite pins this); the estimate decays
          with the effective stride to cover partial-coverage patterns,
          matching the relative-error bounds measured in
          ``tests/perf/test_sampled_fidelity.py``.
        """
        if self.sample_mode == "off":
            return None
        import math
        seen = self.words_seen + self._epoch_seen
        recorded = self.words_recorded + self._epoch_recorded
        measured = round(recorded / seen, 6) if seen else None
        if self.sample_mode == "auto":
            stride = (seen / recorded) if seen and recorded else 1.0
            info = {"sample": self.auto_stride,
                    "mode": "auto",
                    "effective_rate": measured if measured is not None
                    else 1.0,
                    "estimated_fidelity": round(
                        max(0.5, 1.0 - 0.05 * math.log2(max(1.0, stride))),
                        3),
                    "phase_changes": self.auto_changes}
        else:
            n = self.sample
            info = {"sample": n,
                    "mode": "fixed",
                    "effective_rate": round(1.0 / n, 6),
                    "estimated_fidelity": round(
                        max(0.5, 1.0 - 0.05 * math.log2(n)), 3)}
        if measured is not None:
            info["measured_rate"] = measured
        return info

    def advice_for(self, alloc: Allocation) -> set[cudaMemoryAdvise]:
        """Advice currently applied to ``alloc`` (set/unset pairs folded).

        Folded incrementally in :meth:`on_advice` -- O(1) per query instead
        of rescanning the whole advice history (which the anti-pattern
        detectors query once per allocation per diagnostic).  The record
        list itself is untouched and still exported verbatim.
        """
        state = self._advice_state.get(alloc.base)
        return set(state) if state else set()
