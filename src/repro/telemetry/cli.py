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

from ..analysis import diagnose
from ..workloads.base import make_session
from ..workloads.registry import (PLATFORM_ALIASES, WORKLOADS,
                                  UnknownNameError, resolve_platform,
                                  runner_for)

from . import context
from .events_jsonl import JsonlWriter
from .recorder import TelemetryRecorder

__all__ = ["main", "WORKLOADS", "PLATFORM_ALIASES", "run_traced"]


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
    from ..workloads.minicuda import CATALOG

    preset = resolve_platform(platform)
    mini = workload in CATALOG
    if not mini:
        runner = runner_for(workload)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"))
    recorder.workload = workload
    recorder.config = {"platform": preset, "materialize": materialize}
    if mini:
        recorder.config["backend"] = backend
        _run_mini_cuda(workload, preset, recorder, backend=backend)
    else:
        context.install(recorder)
        try:
            session = make_session(preset, trace=True,
                                   materialize=materialize)
            run = runner(session)
            if session.tracer is not None:
                recorder.record_diagnosis(
                    diagnose(session.tracer, include_unnamed=True))
            recorder.detach()
        finally:
            context.uninstall()
        summary = {k: v for k, v in run.stats.items()
                   if isinstance(v, (int, float))}
        print(f"{workload} on {preset}: sim_time={run.sim_time:.6f}s "
              f"fault_groups={summary.get('fault_groups', 0):.0f} "
              f"migrated_pages={summary.get('migrated_pages', 0):.0f}")
    paths = recorder.flush(out)
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
                        help="workload to replay (default: pathfinder; "
                             "see --list); mc-* names run interpreted "
                             "mini-CUDA programs")
    from ..backends import BACKENDS
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
    from ..workloads.minicuda import CATALOG

    if args.list:
        print("workloads: " + ", ".join(sorted(WORKLOADS)))
        print("mini-cuda: " + ", ".join(sorted(CATALOG)))
        print("platforms: " + ", ".join(
            f"{alias}->{name}" for alias, name in sorted(PLATFORM_ALIASES.items())))
        return 0
    if args.out is None:
        parser.error("--out is required (unless --list)")
    try:
        preset = resolve_platform(args.platform)
        if args.workload not in CATALOG:
            runner_for(args.workload)
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (UnknownNameError, OSError) as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    run_traced(args.workload, preset, args.out,
               materialize=not args.footprint, backend=args.backend)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
