"""Bench: spill-to-disk streaming overhead over plain in-memory capture.

The streaming path (SpillingHeatStore + ring event log + segment writer)
replaces unbounded in-memory retention with bounded memory and on-disk
segments.  Its acceptance bar is <= 1.5x the in-memory run: the spill
work is JSON encoding plus one framed write per epoch, amortised across
a workload that is itself dominated by interpreter-level simulation.

The ratio is the median of per-pair ratios over interleaved runs; it
lands in ``BENCH_stream.json`` and is guarded by the conftest
perf-regression check (a >25% ratio regression fails the run).
"""

import statistics
import time

from repro.heatmap.cli import REPORT_RUNNERS
from repro.heatmap.store import HeatStore
from repro.stream.merge import merge_shards
from repro.stream.shard import run_streaming, split_stream
from repro.workloads.base import make_session

WORKLOAD = "lulesh"
#: Interleaved (in-memory, streaming) pairs; the first is a warm-up.
PAIRS = 16


def _in_memory() -> None:
    session = make_session("intel-pascal", trace=True)
    session.platform.um.track_causes = True
    heat = HeatStore(nbuckets=64, attribute=True)
    session.tracer.heat = heat
    REPORT_RUNNERS[WORKLOAD](session)


def _paired(memory, streaming) -> tuple[list[float], list[float]]:
    """Time ``memory`` and ``streaming`` back to back, alternating which
    goes first, so a CPU-speed swing hits both halves of a pair."""
    times: tuple[list[float], list[float]] = ([], [])
    for i in range(PAIRS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for k in order:
            t0 = time.perf_counter()
            (memory, streaming)[k]()
            if i:
                times[k].append(time.perf_counter() - t0)
    return times


def test_spill_overhead_under_1_5x(tmp_path, once, bench_record):
    runs = iter(range(PAIRS))

    def streaming():
        run_streaming(WORKLOAD, "pcie", tmp_path / f"s{next(runs)}",
                      log_capacity=32)

    memory, spill = once(lambda: _paired(_in_memory, streaming))
    # The median of per-pair ratios: one slow run moves it at most one
    # rank, where a ratio of two separate minima took the noise whole.
    ratio = statistics.median(s / m for s, m in zip(spill, memory))
    memory_s = statistics.median(memory)
    spill_s = statistics.median(spill)

    # Merge throughput rides along as an informational number.
    shards = split_stream(tmp_path / "s0", tmp_path / "shards", 4)
    t0 = time.perf_counter()
    merged = merge_shards(shards)
    merge_s = time.perf_counter() - t0

    print(f"\n{WORKLOAD}: in-memory {memory_s * 1e3:.0f}ms, "
          f"streaming {spill_s * 1e3:.0f}ms ({ratio:.2f}x), "
          f"4-shard merge {merge_s * 1e3:.0f}ms "
          f"({len(merged.events)} events)")
    bench_record("stream_spill_lulesh", file="stream",
                 spill_vs_memory_x=round(ratio, 3),
                 in_memory_s=round(memory_s, 4),
                 streaming_s=round(spill_s, 4),
                 merge_4shard_s=round(merge_s, 4),
                 merged_events=len(merged.events))
    assert ratio <= 1.5, f"spill overhead {ratio:.2f}x exceeds 1.5x bar"
