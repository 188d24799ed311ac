"""Scalar codegen: digest memoization, bail caching, oracle equality."""

import pytest

from repro.codegen import CodegenBail, compile_scalar, kernel_digest
from repro.codegen.emitter import _SCALAR_CACHE
from repro.instrument import instrument, parse
from repro.interp import run_program
from repro.runtime import Tracer

HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""

SAXPY = HEADER + """
__global__ void saxpy(float* y, float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = y[i] + a * x[i];
    }
}

int main() {
    int n = 96;
    float* x;
    float* y;
    cudaMallocManaged((void**)&x, n * sizeof(float));
    cudaMallocManaged((void**)&y, n * sizeof(float));
    for (int i = 0; i < n; i++) { x[i] = i % 7; y[i] = i % 5; }
    saxpy<<<2, 64>>>(y, x, 2.0, n);
    saxpy<<<2, 64>>>(y, x, 0.5, n);
    cudaDeviceSynchronize();
    float sum = 0.0;
    for (int i = 0; i < n; i++) { sum += y[i]; }
    printf("sum=%g\\n", sum);
    tracePrint(XplAllocData(x, "x", n * 4), XplAllocData(y, "y", n * 4));
    return 0;
}
"""


def _kernel(source: str, name: str):
    unit = parse(source)
    instrument(unit)
    return unit.function(name)


def _describe_no_backend(tracer):
    d = tracer.describe()
    for key in ("backend", "backend_launches", "backend_fallbacks"):
        d.pop(key, None)
    return d


class TestDigest:
    def test_digest_stable_across_parses(self):
        a = kernel_digest(_kernel(SAXPY, "saxpy"))
        b = kernel_digest(_kernel(SAXPY, "saxpy"))
        assert a == b

    def test_digest_changes_with_body(self):
        changed = SAXPY.replace("a * x[i]", "a + x[i]")
        assert (kernel_digest(_kernel(SAXPY, "saxpy"))
                != kernel_digest(_kernel(changed, "saxpy")))


class TestMemoization:
    def test_repeat_compiles_hit_the_cache(self):
        fn = _kernel(SAXPY, "saxpy")
        first = compile_scalar(fn, heat_on=False)
        again = compile_scalar(_kernel(SAXPY, "saxpy"), heat_on=False)
        assert again is first

    def test_heat_flag_is_part_of_the_key(self):
        fn = _kernel(SAXPY, "saxpy")
        assert compile_scalar(fn, False) is not compile_scalar(fn, True)

    def test_bails_are_cached_too(self):
        src = HEADER + """
__global__ void bad(int* a) {
    helper(a);
}
int main() { return 0; }
"""
        fn = _kernel(src, "bad")
        with pytest.raises(CodegenBail) as first:
            compile_scalar(fn, heat_on=False)
        key = (kernel_digest(fn), False)
        assert isinstance(_SCALAR_CACHE[key], CodegenBail)
        with pytest.raises(CodegenBail) as second:
            compile_scalar(fn, heat_on=False)
        assert second.value is first.value  # one analysis, not one per launch

    @pytest.mark.parametrize("backend", ["codegen", "codegen-vec", "auto"])
    def test_each_function_is_digested_once_per_interpreter(
            self, backend, monkeypatch):
        from repro.codegen import emitter, host, vectorize

        digested = []
        real = emitter.kernel_digest

        def counting(fn):
            digested.append(fn.name)
            return real(fn)

        for module in (emitter, vectorize, host):
            monkeypatch.setattr(module, "kernel_digest", counting)
        src = HEADER + """
__global__ void push(float* x, float* v, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = x[i] + v[i]; }
}
__global__ void pull(float* x, float* v, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { v[i] = v[i] - x[i] * 0.5; }
}
int main() {
    float* x;
    float* v;
    cudaMallocManaged((void**)&x, 64 * sizeof(float));
    cudaMallocManaged((void**)&v, 64 * sizeof(float));
    for (int i = 0; i < 64; i++) { x[i] = i; v[i] = 1.0; }
    for (int step = 0; step < 50; step++) {
        push<<<1, 64>>>(x, v, 64);
        pull<<<1, 64>>>(x, v, 64);
    }
    return 0;
}
"""
        it = run_program(src, tracer=Tracer(), backend=backend)
        assert sum(it.tracer.backend_launches.values()) == 100
        kernels = [name for name in digested if name != "main"]
        assert sorted(kernels) == ["pull", "push"]
        assert digested.count("main") == 1

    def test_compiled_shape(self):
        ck = compile_scalar(_kernel(SAXPY, "saxpy"), heat_on=True)
        assert ck.source.startswith("def _kernel(_bx, _tx, _bd, _gd")
        assert ck.sites  # trace calls carry source lines for heat sites
        assert ck.heat_on


class TestScalarOracle:
    def test_matches_interp_stdout_and_shadow(self):
        it_a = run_program(SAXPY, tracer=Tracer(), backend="interp")
        it_b = run_program(SAXPY, tracer=Tracer(), backend="codegen")
        assert it_a.stdout == it_b.stdout
        assert (_describe_no_backend(it_a.tracer)
                == _describe_no_backend(it_b.tracer))
        assert it_b.tracer.backend_info() == {
            "backend": "codegen", "launches": {"codegen": 2}, "fallbacks": 0,
            "host": {"codegen": 1}}

    def test_runtime_errors_match_interp(self):
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
        for backend in ("interp", "codegen"):
            with pytest.raises(Exception) as exc:
                run_program(src, tracer=Tracer(), backend=backend)
            errors[backend] = (type(exc.value), str(exc.value))
        assert errors["interp"] == errors["codegen"]

    def test_kernel_printf_matches_interp(self):
        src = HEADER + """
__global__ void speak(int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i == 0) { printf("hello %d\\n", n); }
}
int main() {
    speak<<<1, 4>>>(42);
    cudaDeviceSynchronize();
    return 0;
}
"""
        outs = {b: run_program(src, tracer=Tracer(), backend=b).stdout
                for b in ("interp", "codegen")}
        assert outs["interp"] == outs["codegen"] == "hello 42\n"
