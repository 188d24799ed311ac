"""The four benchmark workloads: generated inputs, one iteration, oracle.

Each workload derives its input from the benchmark seed, runs one
iteration of a repo pipeline through its public entry points into a
fresh output directory, and exposes an *observation* of the result (the
program-visible outputs plus artifact digests) that must equal the
observation of an independent reference run:

* ``mc-host`` / ``mc-kernel`` -- generated mini-CUDA programs run under
  backend ``auto``; the oracle is the same program under ``interp``.
* ``report-why`` -- the ``run_report(..., why=True)`` pipeline over a
  seeded Smith-Waterman session; the oracle is the same pipeline with
  the UM fast path and trace batching switched off.
* ``stream-merge`` -- the same session through ``run_streaming`` ->
  ``split_stream`` -> ``merge_shards`` -> ``MergedRun.write``; the
  oracle is the in-memory ``report-why`` bundle on the same seed.

Repo modules are imported in :meth:`Workload.setup` (that import cost is
the benchmark's ``setup_s``) and every repo function is called through
its module, so the traced run can wrap it where it is looked up.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable

PLATFORM = "intel-pascal"

#: Registry name the seeded Smith-Waterman runner is published under.
SW_NAME = "xbench-sw"

#: Smith-Waterman string length of the session workloads.
SW_N = 8

#: Shards the stream workload splits its run into.
SHARDS = 4


def sha(data: bytes | str) -> str:
    """Hex SHA-256 of ``data``."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def canon(obj: Any) -> Any:
    """A JSON-able, order-independent rendering of observed state."""
    if isinstance(obj, dict):
        return sorted([str(k), canon(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return canon(obj.item())
    return repr(obj)


def digest(obj: Any) -> str:
    """Stable digest of an observation."""
    return sha(json.dumps(canon(obj)))


def dir_bytes(*dirs: Path) -> int:
    """Total size of the regular files under ``dirs``."""
    return sum(p.stat().st_size for d in dirs if d.exists()
               for p in d.rglob("*") if p.is_file())


def prom_value(path: Path, name: str) -> float:
    """Sum of one unlabelled or labelled Prometheus series in ``path``."""
    total = 0.0
    for line in path.read_text().splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def runtime_counts(tracer, platform) -> dict[str, float]:
    """Tracer and UM-driver counts of a finished run."""
    described = tracer.describe()
    summary = platform.events.summary()
    return {
        "runtime.kernels": described["kernels"],
        "runtime.words_seen": described["words_seen"],
        "runtime.words_recorded": described["words_recorded"],
        "memsim.faults": summary["fault_groups"],
        "memsim.migrated_pages": summary["migrated_pages"],
        "memsim.evicted_pages": summary["evicted_pages"],
        "memsim.bytes_moved": summary["transfer_bytes"],
        "memsim.sim_time_s": platform.clock.now,
    }


def telemetry_counts(bundle: Path) -> dict[str, float]:
    """Findings and telemetry volume of one artifact directory."""
    files = [bundle / n for n in ("timeline.json", "metrics.prom",
                                  "events.jsonl") if (bundle / n).exists()]
    return {
        "analysis.findings": prom_value(bundle / "metrics.prom",
                                        "xplacer_findings_total"),
        "telemetry.events": len((bundle / "events.jsonl").read_text()
                                .splitlines()),
        "telemetry.bytes": sum(p.stat().st_size for p in files),
    }


def _events_without_backend(path: Path) -> str:
    """events.jsonl minus the backend-attribution records (which exist to
    tell the backends apart), re-serialised per line."""
    lines = []
    for raw in path.read_text().splitlines():
        rec = json.loads(raw)
        if rec.get("type") == "backend":
            continue
        if rec.get("type") == "manifest":
            rec.get("config", {}).pop("backend", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines)


def _metrics_without_backend(path: Path) -> str:
    return "\n".join(line for line in path.read_text().splitlines()
                     if "backend_fallbacks" not in line)


class Workload:
    """One named workload; subclasses fill in the pipeline."""

    name = ""
    why = ""
    #: alias -> repo module: every module an iteration uses, including the
    #: ones its pipeline imports lazily, so that importing them is the
    #: whole of this workload's set-up.
    modules: dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Import the repo modules this workload needs."""
        import importlib

        self.mod = {alias: importlib.import_module(name)
                    for alias, name in self.modules.items()}

    def input_digest(self) -> str:
        raise NotImplementedError

    def iterate(self, out: Path) -> dict:
        """One timed iteration writing its artifacts under ``out``."""
        raise NotImplementedError

    def observe(self, result: dict, out: Path) -> dict:
        """What must equal the reference (computed after the clock stops)."""
        raise NotImplementedError

    def tiers(self, result: dict) -> Any:
        """Backend tiers used (traced and untraced runs must agree)."""
        return None

    def reference(self, work: Path) -> dict:
        """The oracle observation (computed once, outside timing)."""
        raise NotImplementedError

    def counts(self, result: dict, out: Path) -> dict[str, float]:
        """Deterministic per-layer counts of one finished iteration."""
        raise NotImplementedError

    def ladder(self) -> dict[str, Callable[[], None]]:
        """Observer configurations, cheapest first, for ``*.onpath_s``."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# mini-CUDA workloads

_HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""


class MiniCuda(Workload):
    """parse -> instrument -> Interpreter (auto) -> diagnose -> flush."""

    modules = {"instrument": "repro.instrument",
               "interpreter": "repro.interp.interpreter",
               "backend": "repro.codegen.backend",
               "memsim": "repro.memsim", "runtime": "repro.runtime",
               "analysis": "repro.analysis",
               "recorder": "repro.telemetry.recorder",
               "events_jsonl": "repro.telemetry.events_jsonl"}
    backend = "auto"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.source = self.program()

    def program(self) -> str:
        raise NotImplementedError

    def input_digest(self) -> str:
        return sha(self.source)

    def _run(self, out: Path | None, *, backend: str,
             instrumented: bool = True, telemetry: bool = True) -> dict:
        m = self.mod
        unit = m["instrument"].parse(self.source)
        if instrumented:
            m["instrument"].instrument(unit)
        interp = m["interpreter"].Interpreter(
            unit, platform=m["memsim"].PLATFORMS[PLATFORM](),
            tracer=m["runtime"].Tracer(),
            source_name=f"{self.name}.cu", backend=backend)
        recorder = None
        if telemetry:
            target = out / "events.jsonl" if out is not None else _NullIO()
            recorder = m["recorder"].TelemetryRecorder(
                jsonl=m["events_jsonl"].JsonlWriter(target))
            recorder.workload = self.name
            recorder.config = {"platform": PLATFORM, "materialize": True,
                               "backend": backend}
            recorder.attach(interp.runtime, interp.tracer, label=self.name)
        interp.run("main")
        if not instrumented:
            return {"interp": interp}
        diag = m["analysis"].diagnose(interp.tracer, include_unnamed=True)
        if recorder is not None:
            recorder.record_diagnosis(diag)
            recorder.detach()
            if out is not None:
                recorder.flush(out)
        return {"interp": interp, "diagnosis": diag}

    def iterate(self, out: Path) -> dict:
        return self._run(out, backend=self.backend)

    def observe(self, result: dict, out: Path) -> dict:
        from repro.analysis import format_findings

        tracer = result["interp"].tracer
        described = tracer.describe()
        for key in ("backend", "backend_launches", "backend_fallbacks"):
            described.pop(key, None)
        diag = result["diagnosis"]
        return {
            "stdout": result["interp"].stdout,
            "diagnosis": [format_findings(diag.findings),
                          [(r.name, r.counts, r.alternating, r.density_pct,
                            r.freed) for r in diag.result.reports]],
            "describe": described,
            "artifacts": {
                "events.jsonl": sha(_events_without_backend(
                    out / "events.jsonl")),
                "metrics.prom": sha(_metrics_without_backend(
                    out / "metrics.prom")),
                "timeline.json": sha((out / "timeline.json").read_bytes()),
            },
        }

    def tiers(self, result: dict) -> Any:
        return result["interp"].tracer.backend_info()

    def reference(self, work: Path) -> dict:
        out = work / "reference"
        return self.observe(self._run(out, backend="interp"), out)

    def counts(self, result: dict, out: Path) -> dict[str, float]:
        from repro.codegen import emitter, vectorize
        from repro.instrument import tokenize

        interp = result["interp"]
        info = interp.tracer.backend_info() or {"launches": {},
                                                "fallbacks": 0}
        launches = info["launches"]
        total = sum(launches.values())
        return {
            **runtime_counts(interp.tracer, interp.platform),
            **telemetry_counts(out),
            "codegen.cache_entries": len(emitter._SCALAR_CACHE)
            + len(vectorize._VEC_CACHE),
            "instrument.tokens": len(tokenize(self.source)),
            "instrument.source_bytes": len(self.source.encode()),
            "codegen.launches_vec": launches.get("codegen-vec", 0),
            "codegen.launches_scalar": launches.get("codegen", 0),
            "codegen.launches_interp": launches.get("interp", 0),
            "codegen.fallbacks": info["fallbacks"],
            "codegen.vec_ratio": launches.get("codegen-vec", 0) / total
            if total else 0.0,
            "codegen.launches_total": total,
        }

    def ladder(self) -> dict[str, Callable[[], None]]:
        return {
            "plain": lambda: self._run(None, backend=self.backend,
                                       instrumented=False, telemetry=False),
            "traced": lambda: self._run(None, backend=self.backend,
                                        telemetry=False),
            "telemetry": lambda: self._run(None, backend=self.backend),
        }


class _NullIO:
    """A text sink that discards everything (ladder rungs keep the JSONL
    encoding cost on the path but write nothing to disk)."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class McHost(MiniCuda):
    """Pathfinder-style program with a large interpreted host set-up."""

    name = "mc-host"
    why = ("Pathfinder-style mini-CUDA program whose interpreted host loops "
           "dominate: host-code lowering and front-end work show here")
    cols, rows = 256, 12

    def program(self) -> str:
        mul = self.rng.randrange(1001, 9999, 2)
        add = self.rng.randrange(0, 100)
        mod = self.rng.choice((89, 97, 101, 103, 107, 109, 113))
        cols, rows = self.cols, self.rows
        grid = -(-cols // 64)
        return f"""\
{_HEADER}
__global__ void relax(int* dst, int* src, int* wall, int row, int cols) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < cols) {{
        int best = src[i];
        if (i > 0) {{
            int left = src[i - 1];
            best = left < best ? left : best;
        }}
        if (i < cols - 1) {{
            int right = src[i + 1];
            best = right < best ? right : best;
        }}
        dst[i] = wall[row * cols + i] + best;
    }}
}}

int main() {{
    int cols = {cols};
    int rows = {rows};
    int* wall;
    int* a;
    int* b;
    cudaMallocManaged((void**)&wall, rows * cols * sizeof(int));
    cudaMallocManaged((void**)&a, cols * sizeof(int));
    cudaMallocManaged((void**)&b, cols * sizeof(int));
    for (int i = 0; i < rows * cols; i++) {{
        wall[i] = (i * {mul} + {add}) % {mod};
    }}
    for (int i = 0; i < cols; i++) {{ a[i] = wall[i]; b[i] = 0; }}
    for (int row = 1; row < rows; row++) {{
        if (row % 2 == 1) {{
            relax<<<{grid}, 64>>>(b, a, wall, row, cols);
        }} else {{
            relax<<<{grid}, 64>>>(a, b, wall, row, cols);
        }}
    }}
    cudaDeviceSynchronize();
    int* last = rows % 2 == 0 ? b : a;
    int best = last[0];
    for (int i = 1; i < cols; i++) {{
        if (last[i] < best) {{ best = last[i]; }}
    }}
    printf("best=%d\\n", best);
    tracePrint(XplAllocData(wall, "wall", rows * cols * 4),
               XplAllocData(a, "a", cols * 4),
               XplAllocData(b, "b", cols * 4));
    return 0;
}}
"""


class McKernel(MiniCuda):
    """LULESH-style leapfrog: many launches, a small host part."""

    name = "mc-kernel"
    why = ("LULESH-style leapfrog with many launches and little host code: "
           "kernel tiers and the batched tracer span path show here")
    nelem, steps = 128, 50

    def program(self) -> str:
        mul = self.rng.randrange(3, 61, 2)
        mod = self.rng.choice((13, 17, 19, 23, 29))
        dt = self.rng.choice((0.0078125, 0.015625, 0.03125, 0.0625))
        n, steps = self.nelem, self.steps
        grid = -(-n // 64)
        return f"""\
{_HEADER}
__global__ void force(double* f, double* x, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        double fi = 0.0 - x[i] * 0.5;
        if (i > 0) {{ fi += x[i - 1] * 0.25; }}
        if (i < n - 1) {{ fi += x[i + 1] * 0.25; }}
        f[i] = fi;
    }}
}}

__global__ void integrate(double* x, double* xd, double* f, double dt,
                          int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        xd[i] += f[i] * dt;
        x[i] += xd[i] * dt;
    }}
}}

int main() {{
    int n = {n};
    double* x;
    double* xd;
    double* f;
    cudaMallocManaged((void**)&x, n * sizeof(double));
    cudaMallocManaged((void**)&xd, n * sizeof(double));
    cudaMallocManaged((void**)&f, n * sizeof(double));
    for (int i = 0; i < n; i++) {{
        x[i] = (i * {mul}) % {mod};
        xd[i] = 0.0;
        f[i] = 0.0;
    }}
    for (int step = 0; step < {steps}; step++) {{
        force<<<{grid}, 64>>>(f, x, n);
        integrate<<<{grid}, 64>>>(x, xd, f, {dt!r}, n);
    }}
    cudaDeviceSynchronize();
    double sum = 0.0;
    for (int i = 0; i < n; i++) {{ sum += x[i]; }}
    printf("sum=%g\\n", sum);
    tracePrint(XplAllocData(x, "x", n * 8), XplAllocData(xd, "xd", n * 8),
               XplAllocData(f, "f", n * 8));
    return 0;
}}
"""


# --------------------------------------------------------------------- #
# Smith-Waterman session workloads


class SwSession(Workload):
    """A seeded Smith-Waterman session behind the report registries."""

    modules = {"cli": "repro.heatmap.cli",
               "telemetry_cli": "repro.telemetry.cli",
               "context": "repro.telemetry.context",
               "recorder": "repro.telemetry.recorder",
               "events_jsonl": "repro.telemetry.events_jsonl",
               "store": "repro.heatmap.store",
               "tracker": "repro.signature.tracker",
               "vector": "repro.signature.vector",
               "capture": "repro.causes.capture",
               "base": "repro.workloads.base",
               "sw": "repro.workloads.smithwaterman",
               "runtime": "repro.runtime"}
    #: Report artifacts compared by the stream workload.
    SHARED = ("causes.json", "heat.csv", "signature.json")

    def setup(self) -> None:
        super().setup()
        sw_cls = self.mod["sw"].SmithWaterman
        seed = self.seed

        def runner(session):
            return sw_cls(session, SW_N, diagnose_each_iteration=True,
                          seed=seed).run()

        # run_report and run_streaming take a registry name, so the seeded
        # runner is published under one (run_streaming looks in both).
        self.mod["cli"].REPORT_RUNNERS[SW_NAME] = runner
        self.mod["telemetry_cli"].WORKLOADS[SW_NAME] = runner
        self.runner = runner
        # Capture the sessions the pipelines build (for fingerprints and
        # per-layer counts) where each pipeline looks make_session up.
        self.sessions: list = []
        self._slow = False
        for owner in (self.mod["cli"], self.mod["base"]):
            owner.make_session = self._capturing(owner.make_session)

    def _capturing(self, make: Callable) -> Callable:
        def make_session(*args, **kwargs):
            session = make(*args, **kwargs)
            if self._slow:
                session.platform.um.fast_path = False
                session.tracer.batcher = None
            self.sessions.append(session)
            return session

        return make_session

    def input_digest(self) -> str:
        from repro.workloads.smithwaterman.sw import random_strings

        a, b = random_strings(SW_N, SW_N, self.seed)
        return sha(a.tobytes() + b"|" + b.tobytes())

    def report(self, out: Path) -> dict:
        """The in-memory ``repro-report --why`` pipeline."""
        self.sessions.clear()
        paths = self.mod["cli"].run_report(SW_NAME, PLATFORM, out, why=True)
        return {"store": paths.pop("store"), "session": self.sessions.pop()}

    @staticmethod
    def fingerprint(session) -> dict:
        """Everything observable about a finished traced session (the
        fast-path equivalence suite's fingerprint)."""
        from repro.runtime import trace_print

        result = trace_print(session.tracer, reset=False)
        log = session.platform.events
        return {
            "reports": {r.name: (r.counts, r.alternating, r.density_pct,
                                 r.freed) for r in result.reports},
            "transfers": [(t.alloc.label, t.offset, t.nbytes, t.direction,
                           t.epoch) for t in session.tracer.transfers],
            "kernels": session.tracer.kernels,
            "event_counts": dict(log.counts),
            "event_pages": dict(log.pages),
            "event_bytes": dict(log.bytes),
            "sim_time": session.sim_time,
        }

    @staticmethod
    def bundle_counts(session, bundle: Path) -> dict[str, float]:
        """Per-layer counts of a finished session and its report bundle."""
        sig = json.loads((bundle / "signature.json").read_text())
        return {
            **runtime_counts(session.tracer, session.platform),
            **telemetry_counts(bundle),
            "heatmap.report_bytes": (bundle / "report.html").stat().st_size,
            "signature.phases": len(sig.get("phases", ())),
            "causes.bytes": (bundle / "causes.json").stat().st_size,
        }

    def ladder(self) -> dict[str, Callable[[], None]]:
        """Session configurations adding one observer at a time."""
        m = self.mod
        ctx, rec_mod = m["context"], m["recorder"]

        def rung(*, trace: bool, telemetry: bool = False, heat: bool = False,
                 phases: bool = False, causes: bool = False):
            def run() -> None:
                store = (m["store"].HeatStore(nbuckets=64)
                         if heat else None)
                if telemetry:
                    recorder = rec_mod.TelemetryRecorder(
                        jsonl=m["events_jsonl"].JsonlWriter(_NullIO()),
                        heat=store)
                    ctx.install(recorder, track_causes=causes)
                try:
                    session = m["base"].make_session(PLATFORM, trace=trace)
                    if phases:
                        m["tracker"].PhaseTracker(
                            log=session.platform.events,
                            clock=lambda: session.platform.clock.now,
                        ).attach(session.tracer, store)
                    self.runner(session)
                    self.sessions.clear()
                    if telemetry:
                        recorder.detach()
                finally:
                    if telemetry:
                        ctx.uninstall()
            return run

        return {
            "plain": rung(trace=False),
            "traced": rung(trace=True),
            "telemetry": rung(trace=True, telemetry=True),
            "heatmap": rung(trace=True, telemetry=True, heat=True),
            "signature": rung(trace=True, telemetry=True, heat=True,
                              phases=True),
            "causes": rung(trace=True, telemetry=True, heat=True,
                           phases=True, causes=True),
        }


class ReportWhy(SwSession):
    """``run_report(..., why=True)``: tracer, UM driver, every observer,
    signature, causes, HTML render and flush, all in memory."""

    name = "report-why"
    why = ("seeded Smith-Waterman session through run_report(why=True): "
           "observer fan-out, UM faults and rendering; no front end or codegen")

    def iterate(self, out: Path) -> dict:
        return self.report(out)

    def observe(self, result: dict, out: Path) -> dict:
        return {"fingerprint": self.fingerprint(result["session"]),
                "artifacts": {p.name: sha(p.read_bytes())
                              for p in sorted(out.iterdir())}}

    def reference(self, work: Path) -> dict:
        """The slow path: UM fast path off, per-call shadow updates."""
        out = work / "reference"
        self._slow = True
        try:
            result = self.report(out)
        finally:
            self._slow = False
        return self.observe(result, out)

    def counts(self, result: dict, out: Path) -> dict[str, float]:
        return {**self.bundle_counts(result["session"], out),
                "heatmap.epochs": len(result["store"].epochs_closed)}


class StreamMerge(SwSession):
    """The ``repro-agg`` lifecycle: spill, split into shards, merge, write."""

    name = "stream-merge"
    why = ("the same session spilled to disk, split into 4 shards and merged "
           "back: the stream layer and on-disk heat/causes/render paths")
    modules = {**SwSession.modules, "shard": "repro.stream.shard",
               "merge": "repro.stream.merge"}

    def iterate(self, out: Path) -> dict:
        shard, merge = self.mod["shard"], self.mod["merge"]
        self.sessions.clear()
        manifest = shard.run_streaming(SW_NAME, PLATFORM,
                                       out / "stream")["manifest"]
        dirs = shard.split_stream(out / "stream", out / "shards", SHARDS)
        merged = merge.merge_shards(dirs)
        merged.write(out / "merged")
        return {"manifest": manifest, "merged": merged,
                "session": self.sessions.pop()}

    def observe(self, result: dict, out: Path) -> dict:
        return {"artifacts": {name: sha((out / "merged" / name).read_bytes())
                              for name in self.SHARED}}

    def reference(self, work: Path) -> dict:
        """The in-memory ``report-why`` bundle on the same seed (manifest,
        metrics and events legitimately carry shard ids; not compared)."""
        out = work / "reference"
        self.report(out)
        return {"artifacts": {name: sha((out / name).read_bytes())
                              for name in self.SHARED}}

    def counts(self, result: dict, out: Path) -> dict[str, float]:
        bundle = out / "merged"
        return {**self.bundle_counts(result["session"], bundle),
                "heatmap.epochs": len(result["merged"].store.epochs_closed),
                "stream.segments": len(result["manifest"]["segments"]),
                "stream.bytes_written": dir_bytes(out / "stream",
                                                  out / "shards", bundle)}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (McHost, McKernel, ReportWhy, StreamMerge)}
