"""The overhead ladder: what does observing a run cost us?

The paper's Table III reports the wall-clock overhead of XPlacer's
compiled instrumentation (5x-20x, ~15x average).  This module reproduces
the *shape* of that measurement for the Python stack: each workload runs
under a ladder of named observation configurations (:data:`RUNGS`), and
each ratio in :data:`RATIOS` divides one rung's time by a named base
rung.  :func:`measure_adaptive_fidelity` scores signature-guided
adaptive sampling against a fixed stride.

Usage::

    python -m repro.telemetry.overhead --repeats 3
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time
from functools import partial
from typing import Callable

import numpy as np

from ..heatmap.store import HeatStore
from ..memsim import AddressSpace, MemoryKind, Processor
from ..memsim.events import EventLog
from ..runtime import Tracer
from ..signature.tracker import PhaseTracker
from ..signature.vector import signature_from_store
from ..workloads.base import Session, make_session
from ..workloads.registry import OVERHEAD_WORKLOADS, Runner

from .events_jsonl import StringJsonl
from .recorder import TelemetryRecorder

__all__ = ["RUNGS", "RATIOS", "measure_overhead",
           "measure_adaptive_fidelity", "format_rows", "main"]


def _session(platform: str, trace: bool = True) -> Session:
    return make_session(platform, trace=trace, materialize=False)


def _plain(run: Runner, platform: str, name: str) -> None:
    run(_session(platform, trace=False))


def _traced(run: Runner, platform: str, name: str) -> None:
    run(_session(platform))


def _recorded(run: Runner, platform: str, name: str, *,
              causes: bool = False, sites: bool = True) -> None:
    session = _session(platform)
    recorder = TelemetryRecorder(jsonl=StringJsonl())
    recorder.attach(session.runtime, session.tracer, track_causes=causes)
    session.platform.um.blame_sites = sites
    try:
        run(session)
    finally:
        recorder.detach()


def _heat(run: Runner, platform: str, name: str) -> None:
    session = _session(platform)
    session.tracer.heat = HeatStore()
    run(session)


def _detached(run: Runner, platform: str, name: str) -> None:
    session = _session(platform, trace=False)
    recorder = TelemetryRecorder(jsonl=None)
    recorder.attach(session.runtime)
    recorder.detach()
    run(session)


def _heat_noattr(run: Runner, platform: str, name: str, *,
                 phases: bool = False) -> None:
    session = _session(platform)
    heat = HeatStore(nbuckets=64, attribute=False)
    session.tracer.heat = heat
    if phases:
        tracker = PhaseTracker(log=EventLog()).attach(session.tracer, heat)
    run(session)
    if phases:
        tracker.finish()
        heat.flush_current()
        signature_from_store(heat, workload=name, platform=platform)


#: rung name -> run(runner, platform, workload name), in timing order.
RUNGS: dict[str, Callable[[Runner, str, str], None]] = {
    # no tracer, no recorder
    "plain": _plain,
    # XPlacer tracer (the paper's Table III column)
    "traced": _traced,
    # tracer plus a full TelemetryRecorder (metrics, timeline, JSONL)
    "telemetry": _recorded,
    # tracer plus a heat store with attribution (repro-report)
    "heat": _heat,
    # a recorder attached and detached before an untraced run
    "detached": _detached,
    # tracer plus a 64-bucket heat store without attribution
    "heat_noattr": _heat_noattr,
    # heat_noattr plus a live PhaseTracker and the end-of-run signature
    "signature": partial(_heat_noattr, phases=True),
    # telemetry with causal provenance and site stack walks (repro-why)
    "causes": partial(_recorded, causes=True),
    # causal provenance without the per-API stack walk
    "causes_no_sites": partial(_recorded, causes=True, sites=False),
}

#: ratio key -> (numerator rung, base rung).
RATIOS: dict[str, tuple[str, str]] = {
    "traced_x": ("traced", "plain"),
    "telemetry_x": ("telemetry", "plain"),
    "heat_x": ("heat", "plain"),
    "heat_vs_traced_x": ("heat", "traced"),
    "detached_x": ("detached", "plain"),
    "signature_x": ("signature", "heat_noattr"),
    "causes_x": ("causes", "telemetry"),
    "causes_no_sites_x": ("causes_no_sites", "telemetry"),
}


def _timed(run: Callable[[], None], repeats: int) -> float:
    run()  # warm-up: imports, allocator pools, bytecode caches
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_overhead(
    workloads: tuple[str, ...] = ("sw", "lulesh"),
    *,
    rungs: tuple[str, ...] = tuple(RUNGS),
    platform: str = "intel-pascal",
    repeats: int = 3,
) -> list[dict]:
    """Time each workload on the named rungs (best of ``repeats``).

    Returns one row per workload: ``<rung>_s`` for every timed rung, and
    every :data:`RATIOS` entry whose numerator and base were both timed.
    """
    unknown = sorted(set(rungs) - set(RUNGS))
    if unknown:
        raise ValueError(f"unknown rung(s) {unknown}; known: {list(RUNGS)}")
    rows: list[dict] = []
    for name in workloads:
        runner = OVERHEAD_WORKLOADS[name]
        row: dict = {"workload": name}
        for rung, config in RUNGS.items():
            if rung in rungs:
                row[f"{rung}_s"] = _timed(
                    lambda: config(runner, platform, name), repeats)
        for key, (num, base) in RATIOS.items():
            if f"{num}_s" in row and f"{base}_s" in row:
                base_s = row[f"{base}_s"]
                row[key] = row[f"{num}_s"] / base_s if base_s else float("inf")
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render each rung's time per workload, then each ratio's mean."""
    if not rows:
        return ""
    out = io.StringIO()
    out.write(f"{'rung':16s}"
              + "".join(f"{row['workload']:>10s}" for row in rows) + "\n")
    for rung in RUNGS:
        if f"{rung}_s" in rows[0]:
            out.write(f"{rung:16s}" + "".join(
                f"{row[f'{rung}_s']:9.3f}s" for row in rows) + "\n")
    for key, (num, base) in RATIOS.items():
        if key not in rows[0]:
            continue
        mean = sum(row[key] for row in rows) / len(rows)
        per = " ".join(f"{row['workload']} {row[key]:.2f}x" for row in rows)
        label = f"average {num} overhead vs {base}"
        out.write(f"{label:46s}{mean:7.2f}x  ({per})\n")
    return out.getvalue()


# --------------------------------------------------------------------- #
# adaptive-fidelity measurement

_WORDS = 4096
_QUARTER = _WORDS // 4
_REGIMES = 4
_EPOCHS_PER_REGIME = 8


def _phased_program() -> list[list[tuple[Processor, bool, int, int]]]:
    """Each regime repeats one deterministic pattern in its own quarter."""
    program = []
    for r in range(_REGIMES):
        base = r * _QUARTER
        epoch = [(Processor.GPU, False, base, base + _QUARTER)]
        for i in range(16):
            lo = base + (i * 61) % (_QUARTER - 16)
            epoch.append((Processor.CPU, True, lo, lo + 16))
        program.extend([epoch] * _EPOCHS_PER_REGIME)
    return program


def _replay(tracer: Tracer) -> list[np.ndarray]:
    space = AddressSpace()
    alloc = space.allocate(_WORDS * 4, MemoryKind.MANAGED, label="m")
    tracer.trc_register(alloc)
    snapshots = []
    for epoch in _phased_program():
        for proc, is_write, lo, hi in epoch:
            tracer.on_access(proc, alloc, lo * 4, 4, hi - lo,
                             is_write=is_write, indices=None, is_rmw=False)
        tracer.flush_trace()
        snapshots.append(tracer.smt.lookup(alloc.base).shadow.copy())
        tracer.advance_epoch()
    return snapshots


def _phase_fidelity(snapshots: list[np.ndarray],
                    reference: list[np.ndarray]) -> float:
    scores = []
    for r in range(_REGIMES):
        lo = r * _EPOCHS_PER_REGIME
        chunk = snapshots[lo:lo + _EPOCHS_PER_REGIME]
        union = np.bitwise_or.reduce(np.stack(chunk), axis=0)
        scores.append(float(np.mean(union == reference[lo])))
    return sum(scores) / len(scores)


def measure_adaptive_fidelity(*, auto_stride: int = 8, auto_hot: int = 2,
                              fixed_stride: int = 2) -> dict:
    """Score ``sample="auto"`` against a fixed stride at >= equal budget.

    The phased synthetic program repeats one deterministic access pattern
    per regime, each in its own region.  Fidelity is per-word agreement
    between the per-phase union of recorded shadow states and an
    unsampled run's shadow.
    """
    reference = _replay(Tracer())

    auto_tracer = Tracer(sample="auto", auto_stride=auto_stride,
                         auto_hot=auto_hot)
    auto_tracer.heat = HeatStore(nbuckets=32, attribute=False)
    auto_snaps = _replay(auto_tracer)

    fixed_tracer = Tracer(sample=fixed_stride)
    fixed_snaps = _replay(fixed_tracer)

    auto_desc, fixed_desc = auto_tracer.describe(), fixed_tracer.describe()
    return {
        "auto_recorded": auto_desc["words_recorded"],
        "fixed_recorded": fixed_desc["words_recorded"],
        "words_seen": auto_desc["words_seen"],
        "phase_changes": auto_tracer.auto_changes,
        "auto_fidelity": _phase_fidelity(auto_snaps, reference),
        "fixed_fidelity": _phase_fidelity(fixed_snaps, reference),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.telemetry.overhead``)."""
    parser = argparse.ArgumentParser(
        prog="repro-trace-overhead",
        description="Time every rung of the overhead ladder (paper "
                    "Table III shape) and score adaptive sampling.")
    parser.add_argument("--workloads", nargs="*",
                        default=["sw", "lulesh"],
                        choices=sorted(OVERHEAD_WORKLOADS),
                        help="workloads to time")
    parser.add_argument("--platform", default="intel-pascal",
                        help="platform preset (default: intel-pascal)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per rung")
    args = parser.parse_args(argv)
    rows = measure_overhead(tuple(args.workloads), platform=args.platform,
                            repeats=args.repeats)
    sys.stdout.write(format_rows(rows))
    fid = measure_adaptive_fidelity()
    sys.stdout.write(
        f"adaptive fidelity {fid['auto_fidelity']:.3f} vs fixed "
        f"{fid['fixed_fidelity']:.3f} at {fid['auto_recorded']} vs "
        f"{fid['fixed_recorded']} recorded words\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
