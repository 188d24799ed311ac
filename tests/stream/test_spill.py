"""Spill path: EventLog overflow routing, SpillingHeatStore, StreamSpiller."""

import numpy as np
import pytest

from repro.cudart import CudaRuntime
from repro.memsim import PAGE_SIZE, Event, EventKind, EventLog, Processor, intel_pascal
from repro.stream.segments import iter_shard_records, load_manifest
from repro.stream.spill import SpillingHeatStore, StreamSpiller
from repro.telemetry import StringJsonl, TelemetryRecorder
from repro.workloads.base import make_session


def _event(i: int) -> Event:
    return Event(kind=EventKind.PAGE_FAULT, time=float(i),
                 device=Processor.GPU, pages=1)


class TestEventLogOverflow:
    def test_ring_eviction_goes_to_spill_sink_fifo(self):
        log = EventLog(capacity=3, ring=True)
        spilled = []
        log.spill = spilled.append
        for i in range(8):
            log.record(_event(i))
        assert [e.id for e in spilled] == [0, 1, 2, 3, 4]
        assert [e.id for e in log] == [5, 6, 7]
        assert log.dropped_total == 0  # spilled, not lost

    def test_spilled_plus_retained_is_complete_and_ordered(self):
        log = EventLog(capacity=4, ring=True)
        spilled = []
        log.spill = spilled.append
        for i in range(11):
            log.record(_event(i))
        ids = [e.id for e in spilled] + [e.id for e in log]
        assert ids == list(range(11))

    def test_without_sink_drops_are_counted_and_announced(self):
        log = EventLog(capacity=2, ring=True)
        seen = []
        log.add_drop_listener(seen.append)
        for i in range(5):
            log.record(_event(i))
        assert log.dropped_total == 3
        assert log.dropped[EventKind.PAGE_FAULT] == 3
        assert [e.id for e in seen] == [0, 1, 2]
        log.remove_drop_listener(seen.append)

    def test_non_ring_overflow_also_routed(self):
        log = EventLog(capacity=2, ring=False)
        spilled = []
        log.spill = spilled.append
        for i in range(5):
            log.record(_event(i))
        assert [e.id for e in log] == [0, 1]     # oldest window retained
        assert [e.id for e in spilled] == [2, 3, 4]

    def test_configure_retention_shrink_routes_overflow(self):
        log = EventLog()  # default large capacity
        for i in range(6):
            log.record(_event(i))
        spilled = []
        log.spill = spilled.append
        log.configure_retention(capacity=2, ring=True)
        assert [e.id for e in spilled] == [0, 1, 2, 3]  # ring keeps newest
        assert [e.id for e in log] == [4, 5]
        log.record(_event(6))
        assert [e.id for e in spilled] == [0, 1, 2, 3, 4]

    def test_configure_retention_preserves_counters_and_ids(self):
        log = EventLog()
        for i in range(4):
            log.record(_event(i))
        before = log.summary()
        log.configure_retention(capacity=1, ring=True)
        assert log.summary() == before
        assert log.record(_event(99)).id == 4

    def test_kind_index_rebuilt(self):
        log = EventLog()
        log.record(_event(0))
        log.record(Event(kind=EventKind.MIGRATION, time=0.5,
                         device=Processor.GPU, pages=4))
        log.configure_retention(capacity=1, ring=True)
        assert [e.kind for e in log.of_kind(EventKind.MIGRATION)] \
            == [EventKind.MIGRATION]
        assert log.of_kind(EventKind.PAGE_FAULT) == []


def _heat_session(sample=None):
    return make_session("intel-pascal", trace=True, sample=sample)


def _touch(session, label="v", pages=4):
    rt = session.runtime
    v = rt.malloc_managed(pages * PAGE_SIZE, label=label).typed(np.float32)
    v.write(0, np.zeros(len(v), np.float32))
    rt.launch(lambda ctx, d: d.read(0, len(d)), 8, 128, v, name="reader")
    return v


class TestSpillingHeatStore:
    def test_spilled_epochs_are_released(self):
        sunk = []
        heat = SpillingHeatStore(nbuckets=8,
                                 sink=lambda h, s: sunk.append((h.label, s.epoch)))
        session = _heat_session()
        session.tracer.heat = heat
        _touch(session)
        session.tracer.advance_epoch()
        _touch(session, label="w")
        session.tracer.advance_epoch()
        assert heat.epochs_spilled == len(sunk) >= 2
        assert {label for label, _ in sunk} == {"v", "w"}
        # released: no per-epoch snapshots retained in memory
        assert all(not h.epochs for h in heat.allocations())
        assert heat.epochs_closed == [0, 1]

    def test_retain_keeps_snapshots_too(self):
        heat = SpillingHeatStore(nbuckets=8, sink=lambda h, s: None, retain=True)
        session = _heat_session()
        session.tracer.heat = heat
        _touch(session)
        session.tracer.advance_epoch()
        assert any(h.epochs for h in heat.allocations())


class TestStreamSpiller:
    def _run(self, tmp_path, *, log_capacity=4, epochs=3, sample=None):
        session = _heat_session(sample=sample)
        session.platform.events.configure_retention(capacity=log_capacity,
                                                    ring=True)
        heat = SpillingHeatStore(nbuckets=8)
        spiller = StreamSpiller(tmp_path, shard="t0", workload="unit",
                                platform="intel-pascal", watermark_events=64)
        spiller.attach(session, heat=heat)
        for i in range(epochs):
            _touch(session, label=f"a{i}")
            session.tracer.advance_epoch()
        total_events = len(session.platform.events)
        manifest = spiller.close()
        return session, spiller, manifest, total_events

    def test_stream_contains_every_event_once_in_order(self, tmp_path):
        _, spiller, manifest, total = self._run(tmp_path)
        records = list(iter_shard_records(tmp_path, strict=True))
        ids = [r["id"] for r in records if r["type"] == "driver_event"]
        assert ids == sorted(ids) and len(ids) == len(set(ids)) == total
        assert spiller.events_spilled == total
        assert manifest["complete"] is True

    def test_epoch_markers_follow_their_heat(self, tmp_path):
        self._run(tmp_path, epochs=2)
        records = list(iter_shard_records(tmp_path, strict=True))
        for marker in (r for r in records if r["type"] == "epoch"):
            heats = [r for r in records if r["type"] == "heat_epoch"
                     and r["epoch"] == marker["epoch"]]
            assert heats, f"epoch {marker['epoch']} has no heat before it"
            assert records.index(heats[-1]) < records.index(marker)

    def test_alloc_meta_written_once_per_allocation(self, tmp_path):
        self._run(tmp_path, epochs=2)
        records = list(iter_shard_records(tmp_path, strict=True))
        metas = [(r["base"], r["serial"]) for r in records
                 if r["type"] == "alloc_meta"]
        assert len(metas) == len(set(metas)) >= 2

    def test_rollup_counters(self, tmp_path):
        _, spiller, manifest, total = self._run(tmp_path)
        rollup = manifest["rollup"]
        assert rollup["events_spilled"] == total
        assert rollup["events_dropped"] == 0
        assert rollup["heat_epochs_spilled"] == spiller.heat_epochs_spilled > 0
        assert rollup["summary"]["fault_groups"] > 0
        assert rollup["sim_time"] > 0

    def test_sampling_recorded_when_sampled(self, tmp_path):
        _, _, manifest, _ = self._run(tmp_path, sample=4)
        assert manifest["rollup"]["sampling"]["sample"] == 4
        records = list(iter_shard_records(tmp_path, strict=True))
        sampling = [r for r in records if r["type"] == "sampling"]
        assert sampling and sampling[0]["effective_rate"] == 0.25

    def test_close_unwires_and_is_idempotent(self, tmp_path):
        session, spiller, _, _ = self._run(tmp_path)
        assert session.platform.events.spill is None
        assert spiller._epoch_hook not in session.tracer.epoch_hooks
        again = spiller.close()
        assert again["complete"] is True

    def test_close_publishes_final_segment_with_complete_manifest(
            self, tmp_path, monkeypatch):
        from repro.stream import segments

        session = _heat_session()
        spiller = StreamSpiller(tmp_path, shard="t0")
        assert load_manifest(tmp_path)["seq"] == 0  # tailable at once
        spiller.attach(session, heat=SpillingHeatStore(nbuckets=8))
        _touch(session, label="a")  # residual heat + retained events
        published = []
        write = segments.write_manifest
        monkeypatch.setattr(segments, "write_manifest",
                            lambda d, m: published.append(m) or write(d, m))
        manifest = spiller.close()
        assert len(published) == 1 and published[0] == manifest
        assert manifest["complete"] is True
        assert manifest["seq"] == 1 and manifest["rollup"]["segments"] == 1
        assert list(iter_shard_records(tmp_path, strict=True))

    def test_attach_twice_rejected(self, tmp_path):
        session = _heat_session()
        spiller = StreamSpiller(tmp_path / "s")
        spiller.attach(session)
        with pytest.raises(RuntimeError):
            spiller.attach(session)
        spiller.close()


class TestDroppedTelemetry:
    """Satellite: repro_events_dropped_total via the recorder drop listener."""

    def test_counter_counts_unspilled_ring_losses(self):
        rt = CudaRuntime(intel_pascal())
        rt.platform.events.configure_retention(capacity=2, ring=True)
        rec = TelemetryRecorder(jsonl=StringJsonl())
        rec.attach(rt)
        v = rt.malloc_managed(4 * PAGE_SIZE, label="v").typed(np.float32)
        v.write(0, np.zeros(len(v), np.float32))
        rt.launch(lambda ctx, d: d.read(0, len(d)), 8, 128, v, name="reader")
        assert rec.events_dropped_total == rt.platform.events.dropped_total > 0
        text = rec.metrics.to_prometheus()
        assert "repro_events_dropped_total" in text  # bare contract name
        assert "xplacer_repro_events_dropped_total" not in text
        rec.detach()

    def test_counter_is_zero_valued_before_any_drop(self):
        rec = TelemetryRecorder()
        assert "repro_events_dropped_total 0" in rec.metrics.to_prometheus()
        assert rec.events_dropped_total == 0
