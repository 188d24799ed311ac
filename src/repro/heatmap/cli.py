"""``repro-report``: run a workload and emit a heat-profiled run report.

Builds on ``repro-trace``: the same telemetry artifacts plus per-epoch
access heat, and renders everything into a single self-contained
``report.html`` (plus ``heat.csv`` / ``heat.npz`` exports)::

    repro-report --workload pathfinder --platform pcie --out /tmp/r

``--ansi`` additionally prints the terminal heatmap (honours ``NO_COLOR``;
``--epoch N`` scrubs to one epoch).

Where ``repro-trace`` diagnoses once at the end, the report prefers the
registry's per-epoch variants (:data:`REPORT_RUNNERS`), which diagnose
*every iteration* so each epoch freezes its own heat row -- that
per-epoch sequence is the temporal axis of the heatmaps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..analysis import diagnose
from ..signature.tracker import PhaseTracker
from ..telemetry import context
from ..telemetry.events_jsonl import JsonlWriter
from ..telemetry.recorder import TelemetryRecorder
from ..workloads.base import make_session
from ..workloads.registry import (PLATFORM_ALIASES, REPORT_RUNNERS,
                                  WORKLOADS, UnknownNameError,
                                  resolve_platform, runner_for)

from .ansi import render_store, supports_color
from .html import build_report
from .store import HeatStore

__all__ = ["main", "REPORT_RUNNERS", "run_report"]


def run_report(workload: str, platform: str, out_dir: str | Path, *,
               buckets: int = 64, attribute: bool = True,
               materialize: bool = True, why: bool = False,
               sample: int | str | None = None) -> dict[str, Path]:
    """Run ``workload`` with heat recording and write the report bundle.

    Returns artifact paths: ``report`` (HTML) plus everything
    :meth:`TelemetryRecorder.flush` wrote (timeline, metrics, events,
    heat_csv, heat_npz), plus ``signature.json`` (the run's
    access-pattern signature; its detected phases render as the report's
    phase lane).  The :class:`HeatStore` rides along under the
    ``"store"`` key for programmatic callers (``--ansi``, tests).

    With ``why=True`` the run is captured with causal provenance: the
    report gains the causal-blame section and ``causes.json`` is written
    next to the other artifacts.

    With ``sample=N`` the tracer records 1-in-N words (``sample="auto"``
    enables signature-guided adaptive sampling); the effective rate and
    estimated fidelity land in the telemetry stream and as a report
    banner (results are estimates).  If any driver events fell out of
    retention un-spilled, the report leads with a data-loss warning.
    """
    preset = resolve_platform(platform)
    runner = runner_for(workload, per_epoch=True)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    heat = HeatStore(nbuckets=buckets, attribute=attribute)
    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"),
                                 heat=heat)
    recorder.workload = workload
    recorder.config = {"platform": preset, "materialize": materialize,
                       "heat_buckets": buckets, "causes": why,
                       "sample": sample or 1}
    context.install(recorder, track_causes=why)
    try:
        session = make_session(preset, trace=True, materialize=materialize,
                               sample=sample)
        # Live phase tracking: markers land in the event log (and so in
        # events.jsonl / the Perfetto timeline / the causal rollups).
        tracker = PhaseTracker(
            log=session.platform.events,
            clock=lambda: session.platform.clock.now,
        ).attach(session.tracer, heat)
        run = runner(session)
        diagnoses = list(run.diagnoses)
        if session.tracer is not None:
            final = diagnose(session.tracer, include_unnamed=True)
            recorder.record_diagnosis(final)
            diagnoses.append(final)
        tracker.finish()
        recorder.detach()
    finally:
        context.uninstall()
    paths = recorder.flush(out)

    from ..signature.vector import signature_from_store

    heat.flush_current()
    sig = signature_from_store(heat, workload=workload, platform=preset)
    paths["signature"] = sig.save(out / "signature.json")

    causes = None
    if why:
        from ..causes.capture import build_report as build_causes
        from ..jsonfmt import dumps

        causes = build_causes(out)
        (out / "causes.json").write_text(dumps(causes, indent=2) + "\n")
        paths["causes"] = out / "causes.json"

    stats = {k: v for k, v in run.stats.items()
             if isinstance(v, (int, float))}
    stats.setdefault("sim_time", run.sim_time)
    dropped = int(recorder.events_dropped_total)
    # The tracer's own sampling_info is preferred over the recorder's
    # attach-time snapshot: with sample="auto" the stride moves during
    # the run and only the tracer knows the measured rate.
    sampling = (session.tracer.sampling_info()
                if session.tracer is not None else recorder.sampling)
    backend = (session.tracer.backend_info()
               if session.tracer is not None else None)
    report = build_report(workload=workload, platform=preset, store=heat,
                          diagnoses=diagnoses,
                          metrics=recorder.metrics.snapshot(), stats=stats,
                          causes=causes,
                          stream={"events_dropped": dropped} if dropped
                          else None,
                          sampling=sampling,
                          backend=backend,
                          phases=sig.phases)
    report_path = out / "report.html"
    report_path.write_text(report)
    paths["report"] = report_path
    paths["store"] = heat  # type: ignore[assignment]
    return paths


def _sample_arg(value: str) -> "int | str":
    """``--sample`` accepts an integer stride or the literal ``auto``."""
    if value == "auto":
        return value
    return int(value)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-report`` / ``python -m repro.heatmap``."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Replay a workload with temporal heat profiling and "
                    "render a self-contained HTML run report.")
    parser.add_argument("--workload", default="pathfinder",
                        help="workload to replay (default: pathfinder; "
                             "see --list)")
    parser.add_argument("--platform", default="pcie",
                        help="platform preset or alias: "
                             + ", ".join(sorted(PLATFORM_ALIASES)))
    parser.add_argument("--out", metavar="DIR",
                        help="run directory for report.html + artifacts")
    parser.add_argument("--buckets", type=int, default=64,
                        help="word buckets per allocation (default: 64)")
    parser.add_argument("--no-attribution", action="store_true",
                        help="skip source-line attribution (lower overhead)")
    parser.add_argument("--footprint", action="store_true",
                        help="footprint-only allocations (no numpy backing)")
    parser.add_argument("--why", action="store_true",
                        help="capture causal provenance: adds the causal-"
                             "blame report section and writes causes.json")
    parser.add_argument("--sample", type=_sample_arg, default=None,
                        metavar="N|auto",
                        help="sampled tracing: record 1-in-N words, or "
                             "'auto' for signature-guided adaptive "
                             "sampling (full rate around phase changes, "
                             "strided in steady state); results are "
                             "estimates, flagged in the report")
    parser.add_argument("--ansi", action="store_true",
                        help="also print the terminal heatmap to stdout")
    parser.add_argument("--epoch", type=int, default=None,
                        help="with --ansi: show only this epoch (scrub)")
    parser.add_argument("--no-color", action="store_true",
                        help="with --ansi: force the plain ASCII ramp")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and platform aliases, then exit")
    args = parser.parse_args(argv)

    if args.list:
        print("workloads: " + ", ".join(sorted(WORKLOADS)))
        print("per-iteration heat: " + ", ".join(sorted(REPORT_RUNNERS)))
        print("platforms: " + ", ".join(
            f"{alias}->{name}"
            for alias, name in sorted(PLATFORM_ALIASES.items())))
        return 0
    if args.out is None:
        parser.error("--out is required (unless --list)")
    try:
        preset = resolve_platform(args.platform)
        runner_for(args.workload)
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (UnknownNameError, OSError) as exc:
        print(f"repro-report: {exc}", file=sys.stderr)
        return 2

    paths = run_report(args.workload, preset, args.out,
                       buckets=args.buckets,
                       attribute=not args.no_attribution,
                       materialize=not args.footprint,
                       why=args.why, sample=args.sample)
    store: HeatStore = paths.pop("store")  # type: ignore[assignment]
    if args.ansi:
        color = False if args.no_color else supports_color()
        print(render_store(store, color=color, epoch=args.epoch))
    print(f"{args.workload} on {preset}: "
          f"{len(store.allocations())} allocation(s), "
          f"{len(store.epochs_closed)} epoch(s), "
          f"{store.total} word-accesses recorded")
    for name, path in sorted(paths.items()):
        print(f"  {name:9s} {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
