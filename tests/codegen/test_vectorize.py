"""Vectorizer: varying analysis, provability bails, runtime fallbacks."""

import pytest

from repro.codegen import CodegenBail
from repro.codegen.emitter import resolve_kernel
from repro.codegen.vectorize import analyze_kernel, compile_vec
from repro.instrument import instrument, parse
from repro.interp import run_program
from repro.runtime import Tracer

from .test_emitter import HEADER, _describe_no_backend, _kernel

GUARDED_LOOP = HEADER + """
__global__ void smooth(float* dst, float* src, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= 2 && i < n - 2) {
        float acc = 0.0;
        for (int k = 0 - 2; k <= 2; k++) {
            acc += src[i + k];
        }
        dst[i] = acc / 5;
    }
}
int main() { return 0; }
"""


def _analyze(source: str, name: str):
    fn = _kernel(source, name)
    res = resolve_kernel(fn)
    has_live = analyze_kernel(fn, res)
    by_name = {}
    for sym in res.symbols:
        by_name.setdefault(sym.name, sym)
    return fn, res, by_name, has_live


class TestVaryingAnalysis:
    def test_guarded_uniform_loop_counter_stays_uniform(self):
        """``k`` lives under a varying guard but every active lane runs
        the identical trip count -- the canonical shape the depth rule
        must keep vectorizable (Pathfinder/stencil inner loops)."""
        _, _, syms, _ = _analyze(GUARDED_LOOP, "smooth")
        assert syms["i"].varying
        assert not syms["k"].varying
        assert syms["acc"].varying  # accumulates per-lane heap values

    def test_uniform_write_at_decl_depth_stays_uniform(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int t = 5;
        t = t + 1;
        a[i] = t;
    }
}
int main() { return 0; }
"""
        _, _, syms, _ = _analyze(src, "k")
        assert not syms["t"].varying

    def test_write_above_decl_depth_goes_varying(self):
        """A symbol declared outside a varying branch but written inside
        it diverges: some lanes write, some keep the old value."""
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int t = 0;
    if (i < n) { t = 1; }
    a[i] = t;
}
int main() { return 0; }
"""
        _, _, syms, _ = _analyze(src, "k")
        assert syms["t"].varying

    def test_masked_early_return_sets_live(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) { return; }
    a[i] = i;
}
int main() { return 0; }
"""
        _, _, _, has_live = _analyze(src, "k")
        assert has_live
        compile_vec(_kernel(src, "k"))  # still provable


class TestProvabilityBails:
    def _bail(self, source: str, name: str) -> str:
        with pytest.raises(CodegenBail) as exc:
            compile_vec(_kernel(source, name))
        return exc.value.reason

    def test_divergent_loop_condition_bails(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < i; j++) { a[j] = i; }
}
int main() { return 0; }
"""
        assert "divergent loop" in self._bail(src, "k")

    def test_divergent_break_bails(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 8; j++) {
        if (i > j) { break; }
        a[j] = i;
    }
}
int main() { return 0; }
"""
        assert "divergent break" in self._bail(src, "k")

    def test_value_return_bails(self):
        src = "int f(int x) { return x; }\nint main() { return 0; }"
        assert "return with a value" in self._bail(src, "f")

    def test_guarded_loop_vectorizes(self):
        ck = compile_vec(_kernel(GUARDED_LOOP, "smooth"))
        assert ck.source.startswith("def _kernel(")
        assert compile_vec(_kernel(GUARDED_LOOP, "smooth")) is ck  # memoized


CONFLICT = HEADER + """
__global__ void clash(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    a[0] = i;
}
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    clash<<<1, 8>>>(a, 16);
    cudaDeviceSynchronize();
    printf("a0=%d\\n", a[0]);
    tracePrint(XplAllocData(a, "a", 64));
    return 0;
}
"""

SHARED_READ = HEADER + """
__global__ void bcast(int* dst, int* src, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { dst[i] = src[0] + i; }
}
int main() {
    int* src;
    int* dst;
    cudaMallocManaged((void**)&src, 16 * sizeof(int));
    cudaMallocManaged((void**)&dst, 16 * sizeof(int));
    src[0] = 7;
    bcast<<<1, 16>>>(dst, src, 16);
    cudaDeviceSynchronize();
    printf("d5=%d\\n", dst[5]);
    tracePrint(XplAllocData(src, "src", 64), XplAllocData(dst, "dst", 64));
    return 0;
}
"""


class TestRuntimeFallback:
    def test_conflicting_scatter_falls_back_and_matches(self):
        """All lanes write word 0 with different values: the alias check
        cannot prove last-wins order, so the launch re-runs scalar."""
        it_i = run_program(CONFLICT, tracer=Tracer(), backend="interp")
        it_v = run_program(CONFLICT, tracer=Tracer(), backend="codegen-vec")
        assert it_i.stdout == it_v.stdout
        assert (_describe_no_backend(it_i.tracer)
                == _describe_no_backend(it_v.tracer))
        info = it_v.tracer.backend_info()
        assert info["launches"] == {"codegen": 1}
        assert info["fallbacks"] == 1

    def test_shared_read_word_is_fine(self):
        """All lanes *reading* one word is not a conflict."""
        it_i = run_program(SHARED_READ, tracer=Tracer(), backend="interp")
        it_v = run_program(SHARED_READ, tracer=Tracer(),
                           backend="codegen-vec")
        assert it_i.stdout == it_v.stdout
        assert (_describe_no_backend(it_i.tracer)
                == _describe_no_backend(it_v.tracer))
        info = it_v.tracer.backend_info()
        assert info["launches"] == {"codegen-vec": 1}
        assert info["fallbacks"] == 0

    def test_sampling_demotes_vec_to_scalar(self):
        """Batched shadow updates cannot reproduce 1-in-N word sampling;
        explicit codegen-vec demotes (and counts it), auto stays silent."""
        explicit = run_program(SHARED_READ, tracer=Tracer(sample=4),
                               backend="codegen-vec")
        info = explicit.tracer.backend_info()
        assert info["launches"] == {"codegen": 1}
        assert info["fallbacks"] == 1

        auto = run_program(SHARED_READ, tracer=Tracer(sample=4),
                           backend="auto")
        info = auto.tracer.backend_info()
        assert info["launches"] == {"codegen": 1}
        assert info["fallbacks"] == 0

    def test_vec_runtime_error_reproduced_per_thread(self):
        """A lane-level division by zero bails the vectorized attempt;
        the scalar re-run raises the authentic per-thread error."""
        src = HEADER + """
__global__ void crash(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int z = n - n;
    a[i] = i / z;
}
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    crash<<<1, 4>>>(a, 16);
    return 0;
}
"""
        errors = {}
        for backend in ("interp", "codegen-vec"):
            with pytest.raises(Exception) as exc:
                run_program(src, tracer=Tracer(), backend=backend)
            errors[backend] = (type(exc.value), str(exc.value))
        assert errors["interp"] == errors["codegen-vec"]

    def test_debug_tracer_subclass_forces_scalar_fallback(self):
        """A tracer overriding trace hooks would miss batched updates;
        the ladder must not hand it to a compiled trace path."""

        class Spy(Tracer):
            def __init__(self):
                super().__init__()
                self.hits = 0

            def traceR(self, addr, size=4, site=None):
                self.hits += 1
                return super().traceR(addr, size, site)

        spy = Spy()
        it = run_program(SHARED_READ, tracer=spy, backend="auto")
        info = it.tracer.backend_info()
        assert info["launches"] == {"interp": 1}  # no compiled trace path
        assert spy.hits > 0


# --------------------------------------------------------------------- #
# launch-geometry reuse across repeat launches

def _observe(source: str, backend: str, out, heat: bool = False):
    """Run ``source`` under ``backend`` with telemetry (and optionally
    heat); return the interpreter and everything that must byte-match
    the ``interp`` oracle."""
    from repro.heatmap.store import HeatStore
    from repro.interp import Interpreter
    from repro.telemetry.events_jsonl import JsonlWriter
    from repro.telemetry.recorder import TelemetryRecorder

    from .test_differential import (_filtered_events, _filtered_metrics,
                                    _heat_bytes)

    store = HeatStore() if heat else None
    unit = parse(source)
    instrument(unit)
    it = Interpreter(unit, tracer=Tracer(heat=store), source_name="loop.cu",
                     backend=backend)
    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"))
    recorder.workload = "loop"
    recorder.attach(it.runtime, it.tracer, label="loop")
    it.run("main")
    recorder.detach()
    paths = recorder.flush(out)
    return it, {
        "stdout": it.stdout,
        "describe": _describe_no_backend(it.tracer),
        "heat": _heat_bytes(store) if heat else None,
        "events": _filtered_events(paths["events"]),
        "metrics": _filtered_metrics(paths["metrics"]),
        "timeline": paths["timeline"].read_text(),
    }


def _vec_matches_interp(source: str, tmp_path, heat: bool = False) -> dict:
    """Byte-compare ``codegen-vec`` against ``interp``; returns the
    vectorized run's ``backend_info()``."""
    _, ref = _observe(source, "interp", tmp_path / "interp", heat)
    it, got = _observe(source, "codegen-vec", tmp_path / "vec", heat)
    assert got == ref
    return it.tracer.backend_info()


SWAP = HEADER + """
__global__ void bump(int* dst, int* src, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { dst[i] = src[i] + i; }
}
int main() {
    int n = 64;
    int* a;
    int* b;
    cudaMallocManaged((void**)&a, n * sizeof(int));
    cudaMallocManaged((void**)&b, n * sizeof(int));
    for (int i = 0; i < n; i++) { a[i] = i % 5; b[i] = 0; }
    for (int step = 0; step < 6; step++) {
        if (step % 4 < 2) {
            bump<<<2, 32>>>(b, a, n);
        } else {
            bump<<<2, 32>>>(a, b, n);
        }
    }
    cudaDeviceSynchronize();
    printf("a7=%d b7=%d\\n", a[7], b[7]);
    tracePrint(XplAllocData(a, "a", n * 4), XplAllocData(b, "b", n * 4));
    return 0;
}
"""

SHIFT = HEADER + """
__global__ void shift(int* a, int k, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i + k] = a[i] + 1; }
}
int main() {
    int n = 32;
    int* a;
    cudaMallocManaged((void**)&a, (n + 1) * sizeof(int));
    for (int i = 0; i <= n; i++) { a[i] = i; }
    shift<<<1, 32>>>(a, 0, n);
    shift<<<1, 32>>>(a, 1, n);
    shift<<<1, 32>>>(a, 0, n);
    cudaDeviceSynchronize();
    printf("a0=%d a9=%d a32=%d\\n", a[0], a[9], a[32]);
    tracePrint(XplAllocData(a, "a", (n + 1) * 4));
    return 0;
}
"""

REINDEX = HEADER + """
__global__ void gather(int* dst, int* src, int* idx, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { dst[i] = src[idx[i]]; }
}
__global__ void scatter(int* dst, int* src, int* idx, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { dst[idx[i]] += src[i]; }
}
int main() {
    int n = 32;
    int* src;
    int* dst;
    int* idx;
    cudaMallocManaged((void**)&src, n * sizeof(int));
    cudaMallocManaged((void**)&dst, n * sizeof(int));
    cudaMallocManaged((void**)&idx, n * sizeof(int));
    for (int i = 0; i < n; i++) { src[i] = i * 3; idx[i] = i; }
    gather<<<1, 32>>>(dst, src, idx, n);
    scatter<<<1, 32>>>(dst, src, idx, n);
    for (int i = 0; i < n; i++) { idx[i] = (i * 7) % n; }
    gather<<<1, 32>>>(dst, src, idx, n);
    gather<<<1, 32>>>(dst, src, idx, n);
    for (int i = 0; i < n; i++) { idx[i] = i / 2; }
    scatter<<<1, 32>>>(dst, src, idx, n);
    cudaDeviceSynchronize();
    printf("d5=%d d9=%d\\n", dst[5], dst[9]);
    tracePrint(XplAllocData(src, "src", n * 4), XplAllocData(dst, "dst", n * 4),
               XplAllocData(idx, "idx", n * 4));
    return 0;
}
"""

REALLOC = HEADER + """
__global__ void scale(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = a[i] * 2.0; }
}
int main() {
    int n = 48;
    float* a;
    cudaMallocManaged((void**)&a, n * sizeof(float));
    for (int i = 0; i < n; i++) { a[i] = i; }
    scale<<<1, 64>>>(a, n);
    float first = a[5];
    cudaFree(a);
    cudaMallocManaged((void**)&a, n * sizeof(float));
    for (int i = 0; i < n; i++) { a[i] = i + 1; }
    scale<<<1, 64>>>(a, n);
    scale<<<1, 64>>>(a, n);
    cudaDeviceSynchronize();
    printf("first=%g a5=%g\\n", first, a[5]);
    tracePrint(XplAllocData(a, "a", n * 4));
    return 0;
}
"""

LEAPFROG = HEADER + """
__global__ void force(double* f, double* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        double fi = 0.0 - x[i] * 0.5;
        if (i > 0) { fi += x[i - 1] * 0.25; }
        if (i < n - 1) { fi += x[i + 1] * 0.25; }
        f[i] = fi;
    }
}
__global__ void integrate(double* x, double* f, double dt, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] += f[i] * dt; }
}
int main() {
    int n = 40;
    double* x;
    double* f;
    cudaMallocManaged((void**)&x, n * sizeof(double));
    cudaMallocManaged((void**)&f, n * sizeof(double));
    for (int i = 0; i < n; i++) { x[i] = (i * 7) % 11; f[i] = 0.0; }
    for (int step = 0; step < 5; step++) {
        force<<<2, 32>>>(f, x, n);
        integrate<<<2, 32>>>(x, f, 0.125 * step, n);
    }
    cudaDeviceSynchronize();
    printf("x3=%g\\n", x[3]);
    tracePrint(XplAllocData(x, "x", n * 8), XplAllocData(f, "f", n * 8));
    return 0;
}
"""

RESHAPE = HEADER + """
__global__ void fill(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = a[i] + blockIdx.x; }
}
int main() {
    int n = 64;
    int* a;
    cudaMallocManaged((void**)&a, n * sizeof(int));
    for (int i = 0; i < n; i++) { a[i] = 0; }
    fill<<<2, 32>>>(a, n);
    fill<<<4, 16>>>(a, n);
    fill<<<4, 16>>>(a, n);
    fill<<<1, 64>>>(a, n);
    cudaDeviceSynchronize();
    printf("a20=%d a63=%d\\n", a[20], a[63]);
    tracePrint(XplAllocData(a, "a", n * 4));
    return 0;
}
"""


class TestGeometryReuse:
    """A repeat launch reuses its kernel's previous geometry only when
    every access's address/mask bytes and allocation are unchanged;
    anything else takes the full path, byte-identically."""

    def test_swapped_pointers_invalidate(self, tmp_path):
        info = _vec_matches_interp(SWAP, tmp_path)
        # Launches alternate in pairs: (b,a) (b,a) (a,b) (a,b) (b,a) (b,a).
        assert info["launches"] == {"codegen-vec": 6}
        assert info["reused"] == 3

    def test_scalar_argument_that_creates_a_dependence_still_bails(
            self, tmp_path):
        info = _vec_matches_interp(SHIFT, tmp_path)
        assert info["launches"] == {"codegen-vec": 2, "codegen": 1}
        assert info["fallbacks"] == 1
        # The bailed launch recorded nothing: launch 3 reuses launch 1.
        assert info["reused"] == 1

    def test_rewritten_index_buffer_invalidates(self, tmp_path):
        info = _vec_matches_interp(REINDEX, tmp_path)
        # The colliding scatter after the second rewrite must still bail.
        assert info["launches"] == {"codegen-vec": 4, "codegen": 1}
        assert info["fallbacks"] == 1
        assert info["reused"] == 1

    def test_free_and_fresh_allocation_invalidate(self, tmp_path):
        info = _vec_matches_interp(REALLOC, tmp_path)
        assert info["launches"] == {"codegen-vec": 3}
        assert info["reused"] == 1

    def test_heat_on(self, tmp_path):
        info = _vec_matches_interp(LEAPFROG, tmp_path, heat=True)
        assert info["launches"] == {"codegen-vec": 10}
        assert info["fallbacks"] == 0
        assert info["reused"] == 8

    def test_grid_block_change_invalidates(self, tmp_path):
        info = _vec_matches_interp(RESHAPE, tmp_path)
        assert info["launches"] == {"codegen-vec": 4}
        assert info["reused"] == 1

    def test_one_record_per_kernel(self):
        """200 launches, each at a new offset: every launch misses and
        replaces the record, so the interpreter still holds one."""
        src = HEADER + """
__global__ void add(int* a, int off, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i + off] = a[i + off] + off; }
}
int main() {
    int n = 32;
    int* a;
    cudaMallocManaged((void**)&a, (n + 200) * sizeof(int));
    for (int off = 0; off < 200; off++) { add<<<1, 32>>>(a, off, n); }
    cudaDeviceSynchronize();
    printf("a100=%d\\n", a[100]);
    return 0;
}
"""
        it = run_program(src, tracer=Tracer(), backend="codegen-vec")
        info = it.tracer.backend_info()
        assert info["launches"] == {"codegen-vec": 200}
        assert info["reused"] == 0
        kernel = it.unit.function("add")
        records = [key for key in it._compiled if key[1] == "vec-geometry"]
        assert records == [(id(kernel), "vec-geometry")]
