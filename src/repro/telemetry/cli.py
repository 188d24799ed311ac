"""``repro-trace``: replay any workload with full telemetry enabled.

One command turns a simulated run into a set of machine-readable run
artifacts::

    repro-trace --workload pathfinder --platform pcie --out /tmp/t

drops into ``/tmp/t``:

* ``timeline.json``  -- Chrome trace-event timeline (open in Perfetto or
  ``chrome://tracing``),
* ``events.jsonl``   -- structured event stream, manifest first,
* ``metrics.prom``   -- Prometheus text exposition of all counters.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from ..analysis import diagnose
from ..workloads.base import Session, WorkloadRun, make_session

from . import context
from .events_jsonl import JsonlWriter
from .recorder import TelemetryRecorder

__all__ = ["main", "WORKLOADS", "PLATFORM_ALIASES", "run_traced"]

#: Friendly platform spellings accepted by ``--platform``.
PLATFORM_ALIASES = {
    "pcie": "intel-pascal",
    "pcie-pascal": "intel-pascal",
    "pcie-volta": "intel-volta",
    "nvlink": "power9-volta",
    "intel-pascal": "intel-pascal",
    "intel-volta": "intel-volta",
    "power9-volta": "power9-volta",
}


def _pathfinder(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Pathfinder
    return Pathfinder(session, cols=8192, rows=40, pyramid_height=8).run()


def _pathfinder_opt(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import OverlappedPathfinder
    return OverlappedPathfinder(session, cols=8192, rows=40,
                                pyramid_height=8).run()


def _lulesh(session: Session) -> WorkloadRun:
    from ..workloads.lulesh import Lulesh
    return Lulesh(session, 8).run(6)


def _sw(session: Session) -> WorkloadRun:
    from ..workloads.smithwaterman import SmithWaterman
    return SmithWaterman(session, 192).run()


def _sw_rotated(session: Session) -> WorkloadRun:
    from ..workloads.smithwaterman import RotatedSmithWaterman
    return RotatedSmithWaterman(session, 192).run()


def _sw_advised(session: Session) -> WorkloadRun:
    from ..workloads.smithwaterman import AdvisedSmithWaterman
    return AdvisedSmithWaterman(session, 192).run()


def _backprop(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Backprop
    return Backprop(session, input_size=4096).run()


def _cfd(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Cfd
    return Cfd(session, cells=2048).run()


def _gaussian(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Gaussian
    return Gaussian(session, size=64).run()


def _lud(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Lud
    return Lud(session, size=64).run()


def _nn(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import NearestNeighbor
    return NearestNeighbor(session, records=4096).run()


def _spatter_stride(session: Session) -> WorkloadRun:
    from ..workloads.spatter import SpatterWorkload, uniform_stride
    return SpatterWorkload(session, uniform_stride(8, count=64)).run()


def _spatter_indirect(session: Session) -> WorkloadRun:
    from ..workloads.spatter import SpatterWorkload, indirection
    return SpatterWorkload(session, indirection(length=256,
                                                spread=65536)).run()


#: name -> runner(session) -> WorkloadRun, at diagnosis-friendly sizes.
WORKLOADS: dict[str, Callable[[Session], WorkloadRun]] = {
    "pathfinder": _pathfinder,
    "pathfinder-opt": _pathfinder_opt,
    "lulesh": _lulesh,
    "sw": _sw,
    "sw-rotated": _sw_rotated,
    "sw-advised": _sw_advised,
    "backprop": _backprop,
    "cfd": _cfd,
    "gaussian": _gaussian,
    "lud": _lud,
    "nn": _nn,
    "spatter-stride": _spatter_stride,
    "spatter-indirect": _spatter_indirect,
}


def mini_cuda_workloads() -> tuple[str, ...]:
    """Names of the interpreted mini-CUDA catalogue programs (``mc-*``)."""
    from ..workloads.minicuda import CATALOG
    return tuple(CATALOG)


def _run_mini_cuda(workload: str, preset: str, recorder: TelemetryRecorder,
                   *, backend: str) -> None:
    """Run one mini-CUDA catalogue program with telemetry attached.

    The interpreter path wires differently from sessions: the tracer is
    *bound* (not subscribed) by the interpreter itself, so the recorder
    must attach to the interpreter's runtime/tracer pair after
    construction and before the program runs.
    """
    from ..instrument import instrument as _instrument, parse
    from ..interp.interpreter import Interpreter
    from ..memsim import PLATFORMS
    from ..runtime import Tracer
    from ..workloads.minicuda import CATALOG

    unit = parse(CATALOG[workload]())
    _instrument(unit)
    interp = Interpreter(unit, platform=PLATFORMS[preset](), tracer=Tracer(),
                         source_name=f"{workload}.cu", backend=backend)
    recorder.attach(interp.runtime, interp.tracer, label=workload)
    interp.run("main")
    recorder.record_diagnosis(
        diagnose(interp.tracer, include_unnamed=True))
    recorder.detach()
    sys.stdout.write(interp.stdout)


def run_traced(workload: str, platform: str, out_dir: str | Path,
               *, materialize: bool = True,
               backend: str = "auto") -> dict[str, Path]:
    """Run ``workload`` on ``platform`` with telemetry; write artifacts.

    ``backend`` selects the execution backend for mini-CUDA (``mc-*``)
    workloads -- ``auto`` vectorizes when provable, else per-thread
    codegen, else the tree-walking interpreter; Session workloads run
    native Python and ignore it.  Returns the artifact paths
    (``timeline``, ``metrics``, ``events``).
    """
    preset = PLATFORM_ALIASES.get(platform, platform)
    mini = workload in mini_cuda_workloads()
    if not mini:
        runner = WORKLOADS[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"))
    recorder.workload = workload
    recorder.config = {"platform": preset, "materialize": materialize}
    if mini:
        recorder.config["backend"] = backend
        _run_mini_cuda(workload, preset, recorder, backend=backend)
        paths = recorder.flush(out)
        for name, path in sorted(paths.items()):
            print(f"  {name:9s} {path}")
        return paths
    context.install(recorder)
    try:
        session = make_session(preset, trace=True, materialize=materialize)
        run = runner(session)
        if session.tracer is not None:
            recorder.record_diagnosis(
                diagnose(session.tracer, include_unnamed=True))
        recorder.detach()
    finally:
        context.uninstall()
    paths = recorder.flush(out)
    summary = {k: v for k, v in run.stats.items()
               if isinstance(v, (int, float))}
    print(f"{workload} on {preset}: sim_time={run.sim_time:.6f}s "
          f"fault_groups={summary.get('fault_groups', 0):.0f} "
          f"migrated_pages={summary.get('migrated_pages', 0):.0f}")
    for name, path in sorted(paths.items()):
        print(f"  {name:9s} {path}")
    return paths


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-trace`` / ``python -m repro.telemetry``."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Replay a workload on the simulated stack with unified "
                    "telemetry (Perfetto timeline, JSONL events, metrics).")
    parser.add_argument("--workload", default="pathfinder",
                        choices=sorted(WORKLOADS) + sorted(
                            mini_cuda_workloads()),
                        help="workload to replay (default: pathfinder); "
                             "mc-* names run interpreted mini-CUDA programs")
    from ..codegen import BACKENDS
    parser.add_argument("--backend", default="auto", choices=BACKENDS,
                        help="execution backend for mc-* workloads: auto "
                             "(default) vectorizes when provable, falling "
                             "back to per-thread codegen, then interp")
    parser.add_argument("--platform", default="pcie",
                        help="platform preset or alias: "
                             + ", ".join(sorted(PLATFORM_ALIASES)))
    parser.add_argument("--out", metavar="DIR",
                        help="directory for timeline.json / events.jsonl / "
                             "metrics.prom (required unless --list)")
    parser.add_argument("--footprint", action="store_true",
                        help="footprint-only allocations (no numpy backing)")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and platform aliases, then exit")
    args = parser.parse_args(argv)

    if args.list:
        print("workloads: " + ", ".join(sorted(WORKLOADS)))
        print("mini-cuda: " + ", ".join(sorted(mini_cuda_workloads())))
        print("platforms: " + ", ".join(
            f"{alias}->{name}" for alias, name in sorted(PLATFORM_ALIASES.items())))
        return 0
    if args.out is None:
        parser.error("--out is required (unless --list)")
    preset = PLATFORM_ALIASES.get(args.platform, args.platform)
    if preset not in {"intel-pascal", "intel-volta", "power9-volta"}:
        print(f"unknown platform {args.platform!r}; known: "
              + ", ".join(sorted(PLATFORM_ALIASES)), file=sys.stderr)
        return 2
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    run_traced(args.workload, preset, args.out,
               materialize=not args.footprint, backend=args.backend)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
