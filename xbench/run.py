"""End-to-end benchmark of the XPlacer reproduction.

    python3 xbench/run.py --workload mc-host --seed 1 --seconds 26 --trace 0

Runs one workload (``mc-host``, ``mc-kernel``, ``report-why``,
``stream-merge``; see ``xbench/README.md``) from the root of a checkout:

* ``--trace 0`` measures the end-to-end metrics over a ``--seconds``
  window: in-process warm iterations (``warm_s_p50``, ``warm_s_p90``),
  each with a fresh session and output directory, with cold children
  spawned one at a time at even intervals (``setup_s``, ``cold_s_p50``,
  ``peak_rss_mb``).  Timings are scaled to a reference machine speed
  (see ``calib.py``).
* ``--trace 1`` measures the per-layer metrics: an ``-X importtime``
  child, an untraced warm phase, a traced warm phase with spans at the
  layer boundaries (written as Chrome trace JSON under
  ``.xbench_work/``), and the observer-configuration ladder behind the
  ``*.onpath_s`` differences.

Every iteration's outputs are checked against a reference computed once
per invocation outside the timed region; a mismatch, exception or
non-zero child exit counts as a failed iteration.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import calib  # noqa: E402
import wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".xbench_work"

#: Cold children measured per run (after one unmeasured primer).
COLD_SAMPLES = 8
#: A child that has not exited after this long is killed (and fails).
CHILD_TIMEOUT_S = 120.0
#: Share of ``--seconds`` for the untraced / traced / ladder phases of a
#: traced run.
TRACE_SPLIT = (0.35, 0.35, 0.30)

END_TO_END = {
    "setup_s": "s", "cold_s_p50": "s", "warm_s_p50": "s",
    "warm_s_p90": "s", "peak_rss_mb": "MB",
}

#: Packages whose ``-X importtime`` self time is reported.
IMPORT_PACKAGES = ("numpy", "instrument", "interp", "codegen", "cudart",
                   "runtime", "memsim", "analysis", "telemetry", "heatmap",
                   "signature", "causes", "stream", "workloads")

PER_LAYER = {
    **{f"setup.import.{pkg}_s": "s" for pkg in IMPORT_PACKAGES},
    "codegen.warmup_s": "s", "codegen.cache_entries": "count",
    "instrument.parse_s": "s", "instrument.instrument_s": "s",
    "instrument.tokens": "count", "instrument.source_bytes": "bytes",
    "interp.host_s": "s", "interp.host_share": "ratio",
    "cudart.launch_s": "s", "cudart.launches": "count",
    "cudart.memcpy_s": "s", "cudart.memcpys": "count",
    "codegen.launches_vec": "count", "codegen.launches_scalar": "count",
    "codegen.launches_interp": "count", "codegen.fallbacks": "count",
    "codegen.vec_ratio": "ratio",
    "runtime.words_seen": "count", "runtime.words_recorded": "count",
    "runtime.traced_s": "s",
    "workloads.run_s": "s",
    "memsim.um_s": "s", "memsim.um_calls": "count",
    "memsim.faults": "count", "memsim.migrated_pages": "count",
    "memsim.evicted_pages": "count", "memsim.bytes_moved": "bytes",
    "memsim.sim_time_s": "s",
    "analysis.diagnose_s": "s", "analysis.findings": "count",
    "telemetry.onpath_s": "s", "telemetry.flush_s": "s",
    "telemetry.events": "count", "telemetry.bytes": "bytes",
    "heatmap.onpath_s": "s", "heatmap.render_s": "s",
    "heatmap.epochs": "count", "heatmap.report_bytes": "bytes",
    "signature.onpath_s": "s", "signature.compute_s": "s",
    "signature.phases": "count",
    "causes.onpath_s": "s", "causes.build_s": "s", "causes.bytes": "bytes",
    "stream.run_s": "s", "stream.split_s": "s", "stream.merge_s": "s",
    "stream.write_s": "s", "stream.segments": "count",
    "stream.bytes_written": "bytes",
    "bench.self_s": "s",
    "bench.trace_overhead_x": "x", "bench.observe_x": "x",
}

#: Span-derived per-layer metrics: metric -> span name (self time per
#: iteration, or calls per iteration for ``count`` units).
SPAN_METRICS = {
    "instrument.parse_s": "instrument.parse",
    "instrument.instrument_s": "instrument.instrument",
    "interp.host_s": "interp.run",
    "cudart.launch_s": "cudart.launch", "cudart.launches": "cudart.launch",
    "cudart.memcpy_s": "cudart.memcpy", "cudart.memcpys": "cudart.memcpy",
    "workloads.run_s": "workloads.run",
    "analysis.diagnose_s": "analysis.diagnose",
    "telemetry.flush_s": "telemetry.flush",
    "heatmap.render_s": "heatmap.render",
    "signature.compute_s": "signature.compute",
    "causes.build_s": "causes.build",
    "stream.run_s": "stream.run", "stream.split_s": "stream.split",
    "stream.merge_s": "stream.merge", "stream.write_s": "stream.write",
    "bench.self_s": "bench.iteration",
}

#: Ladder rung differences: metric -> (rung, rung it adds to).
ONPATH = {
    "runtime.traced_s": ("traced", "plain"),
    "telemetry.onpath_s": ("telemetry", "traced"),
    "heatmap.onpath_s": ("heatmap", "telemetry"),
    "signature.onpath_s": ("signature", "heatmap"),
    "causes.onpath_s": ("causes", "signature"),
}

#: A deterministic count > 0 implies one of these boundaries recorded
#: calls in the traced run; otherwise a wrap silently missed its layer.
IMPLIES = (
    ("instrument.tokens", ("instrument.parse",)),
    ("runtime.kernels", ("cudart.launch",)),
    ("memsim.faults", ("memsim.um",)),
    ("analysis.findings", ("analysis.diagnose",)),
    ("telemetry.events", ("telemetry.flush", "stream.write")),
    ("heatmap.epochs", ("heatmap.render",)),
    ("signature.phases", ("signature.compute",)),
    ("causes.bytes", ("causes.build",)),
    ("stream.segments", ("stream.run",)),
)


def boundaries():
    """``(owner, attribute, span name, hot)`` for every layer boundary the
    traced run wraps -- each where the pipelines look it up."""
    import repro.analysis
    import repro.causes.capture
    import repro.heatmap.cli
    import repro.heatmap.html
    import repro.instrument
    import repro.signature
    import repro.signature.vector
    import repro.stream.merge
    import repro.stream.shard
    import repro.workloads.smithwaterman.sw as sw
    from repro.cudart import CudaRuntime
    from repro.interp.interpreter import Interpreter
    from repro.memsim.unified_memory import UnifiedMemoryDriver
    from repro.telemetry.recorder import TelemetryRecorder

    return (
        (repro.instrument, "parse", "instrument.parse", False),
        (repro.instrument, "instrument", "instrument.instrument", False),
        (Interpreter, "run", "interp.run", False),
        (CudaRuntime, "launch", "cudart.launch", False),
        (CudaRuntime, "memcpy", "cudart.memcpy", False),
        (sw.SmithWaterman, "run", "workloads.run", False),
        (repro.analysis, "diagnose", "analysis.diagnose", False),
        (repro.heatmap.cli, "diagnose", "analysis.diagnose", False),
        (sw, "diagnose", "analysis.diagnose", False),
        (TelemetryRecorder, "flush", "telemetry.flush", False),
        (repro.heatmap.cli, "build_report", "heatmap.render", False),
        (repro.heatmap.html, "build_report", "heatmap.render", False),
        (repro.signature.vector, "signature_from_store",
         "signature.compute", False),
        (repro.signature, "signature_from_store", "signature.compute", False),
        (repro.causes.capture, "build_report", "causes.build", False),
        (repro.stream.merge.MergedRun, "causes_report", "causes.build",
         False),
        (repro.heatmap.cli, "run_report", "heatmap.run_report", False),
        (repro.stream.shard, "run_streaming", "stream.run", False),
        (repro.stream.shard, "split_stream", "stream.split", False),
        (repro.stream.merge, "merge_shards", "stream.merge", False),
        (repro.stream.merge.MergedRun, "write", "stream.write", False),
        (UnifiedMemoryDriver, "access", "memsim.um", True),
        (UnifiedMemoryDriver, "access_bytes", "memsim.um", True),
    )


# --------------------------------------------------------------------- #
# bookkeeping


class Tally:
    """Iterations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(what)


def p90(samples: list[float]) -> float:
    """90th percentile (needs >= 100 samples for 10 beyond it)."""
    return statistics.quantiles(samples, n=10)[-1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child puts src/ on its own path
    return env


def spawn(command: Callable[[float], list[str]],
          log: Path) -> tuple[int, float, float]:
    """Run one child to completion; ``(exit code, seconds, peak RSS MB)``.
    ``command(t0)`` builds the command line from the spawn time."""
    with log.open("w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(command(t0), stdout=fh, stderr=fh, cwd=ROOT,
                                env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def child_args(workload: str, seed: int, out: Path, result: Path, *,
               flags: tuple[str, ...] = (), trailing: tuple[str, ...] = ()):
    """The child's command line, built once the spawn time is known."""
    def build(t0: float) -> list[str]:
        return [sys.executable, *flags, str(HERE / "child.py"), workload,
                str(seed), repr(t0), str(out), str(result), *trailing]
    return build


# --------------------------------------------------------------------- #
# phases


def cold_child(name: str, seed: int, ref: str, run_dir: Path,
               tally: Tally) -> tuple[float, float, float] | None:
    """One verified cold child: raw ``(setup_s, cold_s, peak_rss_mb)``, or
    ``None`` if it failed (counted)."""
    out = fresh(run_dir / "cold")
    result = run_dir / "cold.json"
    result.unlink(missing_ok=True)
    code, elapsed, rss = spawn(child_args(name, seed, out, result),
                               run_dir / "cold.log")
    ok, why = code == 0 and result.exists(), f"cold child exit {code}"
    if ok:
        report = json.loads(result.read_text())
        ok, why = report["observation"] == ref, "cold output != reference"
    return (report["setup_s"], elapsed, rss) if tally.record(ok, why) \
        else None


def iteration(bench, ref: str, run_dir: Path, tally: Tally, spans=None):
    """One verified iteration into a fresh directory.

    Returns ``(seconds, result, out)``, or ``None`` if it raised or its
    observation differs from the reference (either counts as failed).
    Verification runs after the clock stops.
    """
    out = fresh(run_dir / "warm")
    try:
        start = time.perf_counter()
        if spans is None:
            result = bench.iterate(out)
        else:
            result = spans.call("bench.iteration", bench.iterate, out)
        elapsed = time.perf_counter() - start
        observed = wl.digest(bench.observe(result, out))
    except Exception as exc:  # counted, not fatal
        tally.record(False, f"iteration raised {type(exc).__name__}: {exc}")
        return None
    if not tally.record(observed == ref, "output != reference"):
        return None
    return elapsed, result, out


def warm_phase(bench, ref: str, run_dir: Path, seconds: float, tally: Tally,
               *, spans=None, on_result=None, interleave=None,
               interleaved: int = 0) -> list[tuple[float, float]]:
    """Verified iterations for ``seconds``; ``(scaled, raw)`` samples.

    ``interleave(scaler)`` runs ``interleaved`` times, spread evenly over
    the window (any left over run after it).
    """
    samples: list[tuple[float, float]] = []
    scaler = calib.Scaler()
    start = time.perf_counter()
    extra = 0
    while True:
        elapsed = time.perf_counter() - start
        if extra < interleaved and elapsed >= extra * seconds / interleaved:
            interleave(scaler)
            extra += 1
            continue
        if elapsed >= seconds:
            break
        if spans is not None:
            spans.start_iteration(len(samples))
        done = iteration(bench, ref, run_dir, tally, spans)
        factor = scaler.factor()
        if done is not None:
            samples.append((done[0] * factor, done[0]))
            if on_result is not None:
                on_result(*done[1:])
    return samples


def import_breakdown(name: str, seed: int, run_dir: Path) -> dict[str, float]:
    """Per-package self import time of one ``-X importtime`` child."""
    log = run_dir / "importtime.log"
    spawn(child_args(name, seed, run_dir, run_dir / "unused.json",
                     flags=("-X", "importtime"), trailing=("--setup-only",)),
          log)
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        parts = fields[2].strip().split(".")
        pkg = parts[1] if parts[0] == "repro" and len(parts) > 1 \
            else parts[0]
        if pkg in totals:
            totals[pkg] += self_us / 1e6
    return {f"setup.import.{pkg}_s": v for pkg, v in totals.items()}


def ladder_phase(bench, seconds: float) -> dict[str, float]:
    """Median scaled seconds of each observer configuration, interleaved."""
    rungs = bench.ladder()
    times: dict[str, list[float]] = {name: [] for name in rungs}
    scaler = calib.Scaler()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        for name, run in rungs.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            times[name].append(elapsed * scaler.factor())
        rounds += 1
    return {name: median(v) for name, v in times.items()}


# --------------------------------------------------------------------- #
# modes


def plain_run(bench, ref: str, run_dir: Path, seconds: float,
              tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, plus a ``(n=..., raw ...)`` note per metric.

    ``COLD_SAMPLES`` cold children are spread evenly through a ``seconds``
    window of warm iterations, so both sample the same machine states.
    """
    cold: dict[str, list] = {"setup": [], "cold": [], "rss": []}
    cold_scaler = calib.Scaler(calib.measure_cold_start,
                               calib.REFERENCE_COLD_S)

    def cold_sample(warm_scaler) -> None:
        child = cold_child(bench.name, bench.seed, ref, run_dir, tally)
        factor = cold_scaler.factor()
        warm_scaler.restart()
        if child is not None:
            setup, elapsed, rss = child
            cold["setup"].append((setup * factor, setup))
            cold["cold"].append((elapsed * factor, elapsed))
            cold["rss"].append(rss)

    # A primer child (fills the page cache) and a warm-up iteration are
    # verified but are not samples.
    cold_child(bench.name, bench.seed, ref, run_dir, tally)
    iteration(bench, ref, run_dir, tally)
    warm = warm_phase(bench, ref, run_dir, seconds, tally,
                      interleave=cold_sample, interleaved=COLD_SAMPLES)
    stats = {
        "setup_s": (median, cold["setup"]),
        "cold_s_p50": (median, cold["cold"]),
        "warm_s_p50": (median, warm),
        "warm_s_p90": (p90, warm),
    }
    metrics, details = {}, {}
    for name, (stat, pairs) in stats.items():
        if len(pairs) < 2:  # the run has failed; nothing to summarise
            metrics[name], details[name] = 0.0, f"(n={len(pairs)})"
            continue
        metrics[name] = stat([scaled for scaled, _ in pairs])
        raw = stat([r for _, r in pairs])
        details[name] = f"(n={len(pairs)}; raw {raw:.6g} s)"
    metrics["peak_rss_mb"] = median(cold["rss"])
    details["peak_rss_mb"] = f"(n={len(cold['rss'])})"
    return metrics, details


def traced_run(bench, ref: str, run_dir: Path, seconds: float,
               tally: Tally) -> tuple[dict, dict, list[str]]:
    from spans import Spans

    untimed, timed, ladder_s = (seconds * s for s in TRACE_SPLIT)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(import_breakdown(bench.name, bench.seed, run_dir))

    # Untraced: the first in-process iteration, then the warm loop.
    scaler = calib.Scaler()
    first = iteration(bench, ref, run_dir, tally)
    if first is None:
        raise RuntimeError("the first iteration failed")
    first_s = first[0] * scaler.factor()
    tiers = bench.tiers(first[1])
    untraced = warm_phase(bench, ref, run_dir, untimed, tally)

    # Traced: spans at every boundary, same verification plus tiers.
    spans = Spans()
    last: dict = {}

    def keep(result, out) -> None:
        if bench.tiers(result) != tiers:
            tally.fail(f"traced tiers {bench.tiers(result)} != {tiers}")
        last["counts"] = bench.counts(result, out)

    for owner, attr, name, hot in boundaries():
        (spans.count if hot else spans.wrap)(owner, attr, name)
    try:
        traced = warm_phase(bench, ref, run_dir, timed, tally, spans=spans,
                            on_result=keep)
    finally:
        spans.restore()
    rungs = ladder_phase(bench, ladder_s)

    counts = last.get("counts", {})
    table = spans.per_iteration()
    iterations = sorted(table)
    names = {name for row in table.values() for name in row}

    def per_iteration(name: str, field: int) -> float:
        return median(table[i].get(name, (0, 0.0, 0.0))[field]
                      for i in iterations)

    # Span times are raw; scale them like the traced iterations they sit
    # in, so every per-layer second is at the reference speed.
    p50_untraced = median(scaled for scaled, _ in untraced)
    p50_traced = median(scaled for scaled, _ in traced)
    factor = p50_traced / median(raw for _, raw in traced)
    calls = {name: per_iteration(name, 0) for name in names}
    selfs = {name: per_iteration(name, 1) * factor for name in names}
    um = [spans.iter_counters.get(i, {}).get("memsim.um", (0, 0))
          for i in iterations]
    hot = {"memsim.um": (median(c for c, _ in um),
                         median(ns for _, ns in um) / 1e9 * factor)}
    for metric, span in SPAN_METRICS.items():
        unit = PER_LAYER[metric]
        metrics[metric] = calls.get(span, 0) if unit == "count" \
            else selfs.get(span, 0.0)
    metrics["memsim.um_calls"], metrics["memsim.um_s"] = hot["memsim.um"]
    metrics["interp.host_share"] = median(
        table[i].get("interp.run", (0, 0.0))[1]
        / table[i]["bench.iteration"][2] for i in iterations)
    metrics["codegen.warmup_s"] = first_s - p50_untraced
    metrics["bench.trace_overhead_x"] = p50_traced / p50_untraced \
        if p50_untraced else 0.0
    metrics["bench.observe_x"] = p50_untraced / rungs["plain"]
    for metric, (rung, base) in ONPATH.items():
        metrics[metric] = rungs[rung] - rungs[base] \
            if rung in rungs and base in rungs else 0.0
    for metric in PER_LAYER:
        if metric in counts:
            metrics[metric] = counts[metric]

    # Every boundary a deterministic count says ran must have recorded.
    recorded = dict(calls)
    recorded["memsim.um"] = hot["memsim.um"][0]
    for count, names in IMPLIES:
        if counts.get(count, 0) > 0 and not any(
                recorded.get(n, 0) > 0 for n in names):
            tally.fail(f"{count}={counts[count]} but no {'/'.join(names)} "
                       "calls were recorded")

    trace_path = WORK / f"trace-{bench.name}-seed{bench.seed}.json"
    trace_path.write_text(json.dumps(spans.chrome_trace(
        label=f"xbench {bench.name} seed {bench.seed}")))
    notes = layer_notes(bench.name, metrics, selfs, rungs, p50_untraced,
                        calls, counts)
    notes.append(f"trace: {trace_path.relative_to(ROOT)} "
                 f"({len(spans.records)} spans, {len(iterations)} traced "
                 f"iterations, untraced n={len(untraced)}, "
                 f"traced n={len(traced)})")
    notes.append("ladder medians: " + ", ".join(
        f"{k}={v * 1e3:.2f} ms" for k, v in rungs.items()))
    return metrics, {}, notes


def layer_notes(name: str, metrics: dict, selfs: dict, rungs: dict,
                iteration_s: float, calls: dict, counts: dict) -> list[str]:
    """The layer table plus the workload's stress expectations."""
    notes = ["layer self time per iteration (traced):"]
    for span, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
        notes.append(f"  {span:24s} {secs * 1e3:9.3f} ms "
                     f"{calls.get(span, 0):6.0f} calls")
    top = max((s for s in selfs if s != "bench.iteration"),
              key=lambda s: selfs[s], default="")
    expect: list[tuple[str, bool]] = []
    if name == "mc-host":
        expect.append(("interp.host_s is the largest self time",
                       top == "interp.run"))
    if name == "mc-kernel":
        expect += [
            ("interp.host_s < 1/5 of the iteration",
             metrics["interp.host_share"] < 0.2),
            ("cudart.launch_s is the largest self time",
             top == "cudart.launch"),
            ("codegen.fallbacks == 0", counts.get("codegen.fallbacks") == 0),
        ]
    if name == "report-why":
        observers = sum(metrics[m] for m in (
            "telemetry.onpath_s", "heatmap.onpath_s", "signature.onpath_s",
            "causes.onpath_s", "telemetry.flush_s", "heatmap.render_s",
            "signature.compute_s", "causes.build_s"))
        expect += [
            ("no instrument.* or interp.* spans",
             not any(s.startswith(("instrument.", "interp.")) for s in calls)),
            (f"observer+render+flush {observers * 1e3:.1f} ms is the "
             f"majority of {iteration_s * 1e3:.1f} ms",
             observers > 0.5 * iteration_s),
        ]
    has_stream = any(s.startswith("stream.") for s in calls)
    expect.append(("stream.* spans only on stream-merge",
                   has_stream == (name == "stream-merge")))
    for what, ok in expect:
        notes.append(f"expect: {what}: {'yes' if ok else 'NO'}")
    launches = counts.get("codegen.launches_total", 0)
    notes.append(f"codegen.vec_ratio base: {launches:.0f} launches; "
                 f"*.onpath_s base: ladder rungs "
                 + ", ".join(f"{r}" for r in rungs))
    return notes


# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(wl.WORKLOADS), file=sys.stderr)
        return 2
    run_dir = fresh(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")

    bench = wl.WORKLOADS[args.workload](args.seed)
    print(f"workload {bench.name}: {bench.why}")
    print(f"seed {args.seed}  input sha256 {bench.input_digest()}")
    tally = Tally()
    units = PER_LAYER if args.trace else END_TO_END
    metrics, details, notes = dict.fromkeys(units, 0.0), {}, []
    try:
        bench.setup()
        ref = wl.digest(bench.reference(fresh(run_dir / "ref")))
        if args.trace:
            metrics, details, notes = traced_run(bench, ref, run_dir,
                                                 args.seconds, tally)
        else:
            metrics, details = plain_run(bench, ref, run_dir, args.seconds,
                                         tally)
    except Exception:  # a broken program fails the run, with the cause
        traceback.print_exc()
        tally.record(False, "the run aborted (traceback on stderr)")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for note in notes:
        print(note)
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit} "
              f"{details.get(name, '')}".rstrip())
    print(f"  {'error_rate':28s} {error_rate:.6g} ratio "
          f"(n={tally.attempted})")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
