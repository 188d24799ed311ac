"""Spill-and-merge collection: bounded memory, everything on disk.

Two pieces turn the in-memory observability stores into streaming ones:

* :class:`SpillingHeatStore` -- a :class:`~repro.heatmap.store.HeatStore`
  whose epoch snapshots are handed to a sink as they freeze and (by
  default) immediately released, so heat memory stays flat no matter how
  many epochs a run closes.
* :class:`StreamSpiller` -- wires one session into a
  :class:`~repro.stream.segments.SegmentWriter`: the event log's ring
  retention becomes *evict-to-disk* (the :attr:`EventLog.spill` sink),
  frozen heat epochs buffer up, and every closed tracing epoch -- or an
  event-buffer watermark, whichever comes first -- flushes one framed
  segment and republishes the manifest rollup that ``repro-top`` tails.

Because ring eviction is FIFO and the final flush drains the still-
retained tail in order, the concatenated segments contain *every* driver
event exactly once, in recording order -- the property the merge algebra
(:mod:`repro.stream.merge`) relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from ..cudart.observer import ObserverBase
from ..heatmap.store import CHANNELS, AllocationHeat, EpochHeat, HeatStore, SourceSite
from ..memsim import Event
from ..telemetry.events_jsonl import encode_driver_event

from .segments import SegmentWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.base import Session

__all__ = ["SpillingHeatStore", "StreamSpiller",
           "encode_heat_epoch", "decode_heat_epoch", "encode_alloc_meta"]


def encode_alloc_meta(heat: AllocationHeat) -> dict[str, Any]:
    """Geometry record for one allocation (written before its heat)."""
    return {"type": "alloc_meta", "label": heat.label, "base": heat.base,
            "serial": heat.serial, "size": heat.size,
            "nwords": heat.nwords, "nbuckets": heat.nbuckets}


def encode_heat_epoch(heat: AllocationHeat, snap: EpochHeat) -> dict[str, Any]:
    """One frozen epoch of one allocation as a segment record."""
    return {
        "type": "heat_epoch",
        "base": heat.base,
        "serial": heat.serial,
        "label": heat.label,
        "epoch": snap.epoch,
        "counts": snap.counts.tolist(),
        "sites": [[s.file, s.line, s.func, vec.tolist()]
                  for s, vec in snap.sites.items()],
    }


def decode_heat_epoch(rec: Mapping[str, Any], nbuckets: int) -> EpochHeat:
    """Rebuild an :class:`EpochHeat` from its segment record."""
    import numpy as np

    counts = np.asarray(rec["counts"], np.int64)
    if counts.shape != (len(CHANNELS), nbuckets):
        raise ValueError(
            f"heat_epoch counts shape {counts.shape} != "
            f"({len(CHANNELS)}, {nbuckets})")
    sites = {SourceSite(file, int(line), func): np.asarray(vec, np.int64)
             for file, line, func, vec in rec.get("sites", ())}
    return EpochHeat(epoch=int(rec["epoch"]), counts=counts, sites=sites)


class SpillingHeatStore(HeatStore):
    """A heat store whose frozen epochs stream out instead of piling up.

    :param sink: called as ``sink(alloc_heat, epoch_heat)`` for every
        snapshot frozen by :meth:`advance_epoch`; installed by
        :meth:`StreamSpiller.attach` when created standalone.
    :param retain: also keep the snapshots in memory (diagnostic runs
        that want both the stream and the in-process renderers).  Off by
        default: spilled epochs are released and memory stays flat.
    """

    def __init__(self, *, sink=None, retain: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sink = sink
        self.retain = retain
        self.epochs_spilled = 0

    def advance_epoch(self, closed_epoch: int) -> None:
        """Freeze accumulators, stream the snapshots, release the memory."""
        for heat in self._allocs.values():
            snap = heat.freeze(closed_epoch)
            if snap is None:
                continue
            # Live listeners (phase tracking) see every snapshot before
            # the store releases it to the spill sink.
            if self.epoch_listeners:
                for listener in tuple(self.epoch_listeners):
                    listener(heat, snap)
            if self.sink is not None:
                self.sink(heat, snap)
                self.epochs_spilled += 1
                if not self.retain:
                    heat.epochs.pop()
        self.epochs_closed.append(closed_epoch)


class StreamSpiller(ObserverBase):
    """Bridges one live session onto an on-disk segment stream.

    :param out_dir: stream directory to write (see :mod:`.segments`).
    :param shard: shard identity (unique per concurrent process).
    :param workload: manifest metadata.
    :param platform: manifest metadata (preset name).
    :param config: manifest metadata.
    :param watermark_events: buffered-event count that forces an early
        segment flush between epoch boundaries (the memory watermark).
    """

    def __init__(self, out_dir, *, shard: str = "shard-0",
                 workload: str = "", platform: str = "",
                 config: Mapping[str, Any] | None = None,
                 watermark_events: int = 16384) -> None:
        self.writer = SegmentWriter(out_dir, shard=shard, workload=workload,
                                    platform=platform, config=config)
        self.writer.publish()  # tailable before the first segment lands
        self.watermark_events = max(1, watermark_events)
        self.heat: SpillingHeatStore | None = None
        self.segments_written = 0
        self.events_spilled = 0
        self.heat_epochs_spilled = 0
        self._pending: list[dict[str, Any]] = []
        self._pending_events = 0
        self._meta_written: set[tuple[int, int]] = set()
        self._alloc_totals: dict[str, int] = {}
        self._session: "Session | None" = None
        self._prev_spill = None
        self._epoch_hook = None
        self._closed = False
        #: Optional :class:`~repro.signature.tracker.PhaseTracker`; when
        #: set, its live state rides the manifest rollup (``repro-top``'s
        #: phase line) and its markers land in the event stream like any
        #: other driver event.
        self.phase_source = None

    # ------------------------------------------------------------------ #
    # wiring

    def attach(self, session: "Session",
               heat: SpillingHeatStore | None = None) -> "StreamSpiller":
        """Wire into ``session``: event-log spill sink, epoch hook, heat.

        The session's event log keeps its configured retention; what the
        ring would have dropped now lands in the stream instead.  Returns
        self.
        """
        if self._session is not None:
            raise RuntimeError("StreamSpiller is already attached")
        self._session = session
        log = session.platform.events
        self._prev_spill = log.spill
        log.spill = self._spill_event
        session.runtime.subscribe(self)
        if heat is not None:
            self.heat = heat
        if self.heat is not None and self.heat.sink is None:
            self.heat.sink = self._on_heat_epoch
        tracer = session.tracer
        if tracer is not None:
            if self.heat is not None and tracer.heat is None:
                tracer.heat = self.heat

            def epoch_hook(closed: int) -> None:
                self._on_epoch(closed)

            self._epoch_hook = epoch_hook
            tracer.epoch_hooks.append(epoch_hook)
        return self

    def close(self) -> dict[str, Any]:
        """Drain retained state, finalize the manifest, unwire.

        Residual heat that never saw a diagnostic reset is frozen first;
        the events still held by the ring flush in order after everything
        the ring already evicted, so the stream ends complete.  Returns
        the final manifest dict.
        """
        if self._closed:
            return self.writer.manifest()
        session = self._session
        if session is not None:
            if self.heat is not None:
                self.heat.flush_current()
            log = session.platform.events
            for event in log:
                self._append(encode_driver_event(event))
                self.events_spilled += 1
            if self.heat is not None and self.heat.sink == self._on_heat_epoch:
                info = _sampling_info(session)
                if info is not None:
                    self._append(info)
            if self._pending:
                # Published below, with the completed manifest.
                self.writer.append_segment(self._pending)
                self.segments_written += 1
                self._pending = []
            log.spill = self._prev_spill
            session.runtime.unsubscribe(self)
            tracer = session.tracer
            if tracer is not None and self._epoch_hook in tracer.epoch_hooks:
                tracer.epoch_hooks.remove(self._epoch_hook)
        self.writer.finalize(self._rollup())
        self._closed = True
        self._session = None
        return self.writer.manifest()

    # ------------------------------------------------------------------ #
    # sinks

    def _append(self, record: dict[str, Any]) -> None:
        self._pending.append(record)

    def _spill_event(self, event: Event) -> None:
        """EventLog evict-to-disk sink (replaces silent ring drops)."""
        self._append(encode_driver_event(event))
        self.events_spilled += 1
        self._pending_events += 1
        if self._pending_events >= self.watermark_events:
            self._flush_segment()

    def _on_heat_epoch(self, heat: AllocationHeat, snap: EpochHeat) -> None:
        key = (heat.base, heat.serial)
        if key not in self._meta_written:
            self._meta_written.add(key)
            self._append(encode_alloc_meta(heat))
        self._append(encode_heat_epoch(heat, snap))
        self.heat_epochs_spilled += 1
        self._alloc_totals[heat.label] = \
            self._alloc_totals.get(heat.label, 0) + snap.total

    def _on_epoch(self, closed: int) -> None:
        """Tracer epoch hook: every closed epoch lands one segment.

        The heat store froze (and sank) this epoch's snapshots before the
        hooks fired, so the marker always follows its epoch's heat.
        """
        t = self._session.platform.clock.now if self._session else 0.0
        self._append({"type": "epoch", "epoch": closed, "t": t})
        self._flush_segment()

    def on_alloc(self, alloc) -> None:  # noqa: D102 (observer callback)
        self._append({"type": "alloc", "label": alloc.label,
                      "base": alloc.base, "bytes": alloc.size,
                      "kind": alloc.kind.value,
                      "site": getattr(alloc, "site", "")})

    # ------------------------------------------------------------------ #
    # segment output

    def _flush_segment(self) -> None:
        if not self._pending:
            # No new records, but republish the rollup so tailing
            # monitors still see counter movement through quiet epochs.
            self.writer.publish_rollup(self._rollup())
            return
        self.writer.write_segment(self._pending, rollup=self._rollup())
        self.segments_written += 1
        self._pending = []
        self._pending_events = 0

    def _rollup(self) -> dict[str, Any]:
        session = self._session
        rollup: dict[str, Any] = {
            "events_spilled": self.events_spilled,
            "heat_epochs_spilled": self.heat_epochs_spilled,
            "segments": len(self.writer.segments),
            "allocs": [{"label": label, "total": total}
                       for label, total in sorted(self._alloc_totals.items())],
        }
        if self.heat is not None:
            rollup["epochs_closed"] = len(self.heat.epochs_closed)
            rollup["heat_records"] = self.heat.records
        if session is not None:
            log = session.platform.events
            rollup["summary"] = {k: float(v) if isinstance(v, float) else int(v)
                                 for k, v in log.summary().items()}
            rollup["events_dropped"] = log.dropped_total
            rollup["sim_time"] = session.platform.clock.now
            rollup["gpu_pages_in_use"] = session.platform.um.gpu_pages_in_use
            info = _sampling_info(session)
            if info is not None:
                rollup["sampling"] = {k: v for k, v in info.items()
                                      if k != "type"}
        if self.phase_source is not None:
            rollup["phase"] = self.phase_source.rollup()
        return rollup


def _sampling_info(session: "Session") -> dict[str, Any] | None:
    tracer = session.tracer
    if tracer is None:
        return None
    info = tracer.sampling_info()
    if info is None:
        return None
    return {"type": "sampling", **info}
