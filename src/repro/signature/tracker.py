"""Live phase tracking: phase events in the run's causal event stream.

:class:`PhaseTracker` wires the online :class:`~.phases.PhaseDetector`
into a traced session: it listens to every frozen epoch snapshot
(:attr:`HeatStore.epoch_listeners`, which fires *before* a streaming
store releases the snapshot to disk), folds them into one run-level
vector per epoch, and -- whenever the detector declares a change-point --
records ``phase_begin`` / ``phase_end`` :class:`~repro.memsim.events.Event`
markers with cause links:

* a ``phase_begin``'s parent is the ``phase_end`` it follows (so Perfetto
  flow arrows chain phases);
* a ``phase_end``'s parent is its own ``phase_begin`` (begin/end pair).

Because the markers are ordinary events they ride every existing rail
for free: telemetry JSONL/Perfetto, stream segments, merge, and the
``repro-why`` blame rollups (which group by the markers' positions in
the id-ordered stream).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..memsim import Processor
from ..memsim.events import CauseLink, Event, EventKind, EventLog
from .phases import DEFAULT_THRESHOLD, Phase, PhaseDetector
from .vector import combine_vectors, snapshot_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..heatmap.store import AllocationHeat, EpochHeat, HeatStore
    from ..runtime.tracer import Tracer

__all__ = ["PhaseTracker"]


class PhaseTracker:
    """Detect phases live and mark them in the event log.

    :param log: event log to record ``phase_begin``/``phase_end`` markers
        into (``None`` tracks phases without emitting events).
    :param threshold: cosine-distance change-point threshold.
    :param clock: simulated-time source for the markers (defaults to 0.0
        so untimed pipelines stay deterministic).
    """

    def __init__(self, *, log: EventLog | None = None,
                 threshold: float = DEFAULT_THRESHOLD,
                 clock: Callable[[], float] | None = None) -> None:
        self.detector = PhaseDetector(threshold)
        self.log = log
        self.clock = clock or (lambda: 0.0)
        #: Change-points seen so far (phase transitions, not counting
        #: the initial phase 0 begin).
        self.changes = 0
        #: Epoch of the most recent detector update.
        self.last_epoch = -1
        self._pending: list[tuple[np.ndarray, int]] = []
        self._begin_id = -1
        self._last_end_id = -1
        self._tracer: "Tracer | None" = None
        self._heat: "HeatStore | None" = None
        self._finished = False

    # ------------------------------------------------------------------ #
    # wiring

    def attach(self, tracer: "Tracer",
               heat: "HeatStore | None" = None) -> "PhaseTracker":
        """Subscribe to ``tracer``'s epoch stream (and its heat store)."""
        heat = heat if heat is not None else tracer.heat
        if heat is None:
            raise ValueError("phase tracking needs a heat store")
        heat.epoch_listeners.append(self._on_freeze)
        tracer.epoch_hooks.append(self._on_epoch)
        self._tracer = tracer
        self._heat = heat
        return self

    def detach(self) -> None:
        """Unsubscribe (no-op when never attached)."""
        if self._heat is not None and \
                self._on_freeze in self._heat.epoch_listeners:
            self._heat.epoch_listeners.remove(self._on_freeze)
        if self._tracer is not None and \
                self._on_epoch in self._tracer.epoch_hooks:
            self._tracer.epoch_hooks.remove(self._on_epoch)

    # ------------------------------------------------------------------ #
    # epoch stream

    def _on_freeze(self, heat: "AllocationHeat", snap: "EpochHeat") -> None:
        self._pending.append((snapshot_vector(snap), snap.total))

    def _on_epoch(self, closed: int) -> None:
        vec, weight = combine_vectors(self._pending)
        self._pending.clear()
        if weight <= 0:
            return
        first = not self.detector.started
        dist, changed = self.detector.update(closed, vec, weight)
        self.last_epoch = closed
        if first:
            self._emit_begin(0, closed, 0.0)
        elif changed:
            self.changes += 1
            self._emit_end(self.detector.phases[-1])
            self._emit_begin(len(self.detector.phases), closed, dist)

    def finish(self) -> list[Phase]:
        """Close the open phase, emit its ``phase_end``, return all phases.

        Idempotent; call before the event sink (stream spiller, telemetry
        writer) drains so the final marker lands in the artifacts.
        """
        if self._finished:
            return self.detector.phases
        self._finished = True
        phases = self.detector.finish()
        if phases and self._begin_id >= 0:
            self._emit_end(phases[-1])
        return phases

    # ------------------------------------------------------------------ #
    # queries

    @property
    def current_phase(self) -> int:
        """Index of the phase currently open (0 before any heat)."""
        return self.detector.current_phase

    def rollup(self) -> dict:
        """Compact live-state dict for stream manifests / ``repro-top``."""
        return {"current": self.current_phase,
                "epoch": self.last_epoch,
                "changes": self.changes}

    # ------------------------------------------------------------------ #
    # event emission

    def _emit_begin(self, phase: int, epoch: int, dist: float) -> None:
        if self.log is None:
            return
        event = self.log.record(Event(
            kind=EventKind.PHASE, time=self.clock(), device=Processor.CPU,
            detail=(f"phase_begin phase={phase} epoch={epoch} "
                    f"dist={round(float(dist), 6)}"),
            cause=CauseLink(api="phase", parent=self._last_end_id)))
        self._begin_id = event.id

    def _emit_end(self, closed: Phase) -> None:
        if self.log is None:
            return
        event = self.log.record(Event(
            kind=EventKind.PHASE, time=self.clock(), device=Processor.CPU,
            detail=(f"phase_end phase={closed.index} "
                    f"epochs={closed.epochs} total={closed.total}"),
            cause=CauseLink(api="phase", parent=self._begin_id)))
        self._last_end_id = event.id
        self._begin_id = -1
