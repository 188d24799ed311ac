"""Bench: compiled backends vs. the tree-walking interpreter.

Three kernel-loop-dominated mini-CUDA programs -- the Pathfinder
wavefront, the LULESH leapfrog, and a Spatter-style LCG-indirection
gather (the index stream computed on device, as in Spatter's CUDA
backend) -- run under all three backends.  The acceptance bars come
from the codegen issue: the vectorized grid executor must clear >=10x
over the interpreter on the Pathfinder and LULESH kernel loops and
>=3x on the LCG gather, whose scattered addressing exercises the
gather/take path rather than dense slices.

stdout (including the diagnosis tables) must byte-match across
backends and the vectorizer must run fallback-free: a silent demotion
to the scalar tier would otherwise still pass the 3x bar.

A fourth row, ``codegen_host_pathfinder``, times the catalogue
Pathfinder end to end (``run_program``, host loops included) under
``auto`` vs ``interp``: with host functions compiled too, it must clear
1.5x.

Ratios land in ``BENCH_codegen.json`` as ``*_vs_interp_x`` overhead
fractions (compiled time / interpreter time, smaller is better) so the
conftest guard fails the run if a committed ratio regresses >25%.
"""

import time

from repro.interp import run_program
from repro.runtime import Tracer
from repro.workloads.minicuda import CATALOG, lulesh_source

_HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""


def pathfinder_loop_source(cols: int = 2048, rows: int = 8,
                           iters: int = 48) -> str:
    """Pathfinder's relax kernel iterated over a fixed wall.

    Unlike the catalogue builder (one kernel row per wall row), the
    wavefront loop cycles a small wall so the kernel-launch count grows
    independently of the host-side init -- the measured region is the
    kernel loop, not the interpreted setup.
    """
    grid = max(1, -(-cols // 64))
    return _HEADER + f"""
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
    int* wall;
    int* a;
    int* b;
    cudaMallocManaged((void**)&wall, {rows} * cols * sizeof(int));
    cudaMallocManaged((void**)&a, cols * sizeof(int));
    cudaMallocManaged((void**)&b, cols * sizeof(int));
    for (int i = 0; i < {rows} * cols; i++) {{
        wall[i] = (i * 7919 + 13) % 97;
    }}
    for (int i = 0; i < cols; i++) {{ a[i] = wall[i]; b[i] = 0; }}
    for (int t = 1; t < {iters}; t++) {{
        if (t % 2 == 1) {{
            relax<<<{grid}, 64>>>(b, a, wall, t % {rows}, cols);
        }} else {{
            relax<<<{grid}, 64>>>(a, b, wall, t % {rows}, cols);
        }}
    }}
    cudaDeviceSynchronize();
    int* last = {iters} % 2 == 0 ? b : a;
    int best = last[0];
    for (int i = 1; i < cols; i++) {{
        if (last[i] < best) {{ best = last[i]; }}
    }}
    printf("best=%d\\n", best);
    tracePrint(XplAllocData(wall, "wall", {rows} * cols * 4),
               XplAllocData(a, "a", cols * 4),
               XplAllocData(b, "b", cols * 4));
    return 0;
}}
"""


def spatter_lcg_loop_source(n: int = 4096, spread: int = 8192,
                            iters: int = 12) -> str:
    """Spatter LCG indirection with the index computed on device.

    The catalogue's ``mc-spatter-lcg`` embeds its index stream as host
    statements (capped at 512), so at benchmark scale the gather is
    generated in-kernel: every lane reads ``data`` through an LCG-
    scrambled index, the access pattern the vectorizer must lower to a
    numpy ``take`` rather than a dense slice.
    """
    grid = max(1, -(-n // 256))
    return _HEADER + f"""
__global__ void lcg_gather(int* res, int* data, int n, int spread) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        int x = (i * 12345 + 6789) % spread;
        res[i] = res[i] + data[x];
    }}
}}
int main() {{
    int n = {n};
    int* data;
    int* res;
    cudaMallocManaged((void**)&data, {spread} * sizeof(int));
    cudaMallocManaged((void**)&res, n * sizeof(int));
    for (int i = 0; i < {spread}; i++) {{ data[i] = i % 911; }}
    for (int i = 0; i < n; i++) {{ res[i] = 0; }}
    for (int t = 0; t < {iters}; t++) {{
        lcg_gather<<<{grid}, 256>>>(res, data, n, {spread});
    }}
    cudaDeviceSynchronize();
    int s = 0;
    for (int i = 0; i < n; i++) {{ s += res[i]; }}
    printf("s=%d\\n", s);
    tracePrint(XplAllocData(data, "data", {spread} * 4),
               XplAllocData(res, "res", n * 4));
    return 0;
}}
"""


def _run(source: str, backend: str, name: str):
    tracer = Tracer()
    t0 = time.perf_counter()
    it = run_program(source, tracer=tracer, backend=backend,
                     source_name=f"{name}.cu")
    return time.perf_counter() - t0, it


def _measure(source: str, name: str) -> dict:
    times, stdout = {}, {}
    for backend in ("interp", "codegen", "codegen-vec"):
        dt, it = _run(source, backend, name)
        times[backend] = dt
        stdout[backend] = it.stdout
        if backend == "codegen-vec":
            info = it.tracer.backend_info()
            assert info["fallbacks"] == 0, (
                f"{name}: vectorizer fell back: {info}")
    assert stdout["codegen"] == stdout["interp"], f"{name}: scalar drift"
    assert stdout["codegen-vec"] == stdout["interp"], f"{name}: vec drift"
    return times


def _report(name, times, once, bench_record, vec_bar):
    vec_x = times["interp"] / times["codegen-vec"]
    scalar_x = times["interp"] / times["codegen"]
    print(f"\n{name}: interp {times['interp']:.2f}s, "
          f"scalar {times['codegen']:.2f}s ({scalar_x:.1f}x), "
          f"vec {times['codegen-vec']:.3f}s ({vec_x:.1f}x)")
    bench_record(
        f"codegen_{name}", file="codegen",
        vec_vs_interp_x=round(times["codegen-vec"] / times["interp"], 4),
        scalar_vs_interp_x=round(times["codegen"] / times["interp"], 4),
        vec_speedup=round(vec_x, 1),
        scalar_speedup=round(scalar_x, 1),
        interp_s=round(times["interp"], 3))
    assert vec_x >= vec_bar, (
        f"{name}: vectorized speedup {vec_x:.1f}x below the "
        f"{vec_bar:.0f}x bar")


def _measure_host(source: str, name: str, repeats: int = 3) -> dict:
    """Best-of-``repeats`` whole-program time under ``interp`` vs
    ``auto``; ``auto`` must compile ``main`` with no host fallback."""
    times, stdout = {}, {}
    for backend in ("interp", "auto"):
        best = None
        for _ in range(repeats):
            dt, it = _run(source, backend, name)
            best = dt if best is None else min(best, dt)
        times[backend] = best
        stdout[backend] = it.stdout
    assert stdout["auto"] == stdout["interp"], f"{name}: host drift"
    assert it.tracer.backend_info()["host"] == {"codegen": 1}, (
        f"{name}: host code fell back: {it.tracer.backend_info()}")
    return times


def test_host_pathfinder_end_to_end_1_5x(once, bench_record):
    """End to end (host loops included) on the catalogue Pathfinder:
    compiled host code plus vectorized kernels vs the interpreter."""
    source = CATALOG["mc-pathfinder"]()
    times = once(lambda: _measure_host(source, "mc-pathfinder"))
    speedup = times["interp"] / times["auto"]
    print(f"\nhost_pathfinder: interp {times['interp']:.3f}s, "
          f"auto {times['auto']:.3f}s ({speedup:.1f}x)")
    bench_record(
        "codegen_host_pathfinder", file="codegen",
        auto_vs_interp_x=round(times["auto"] / times["interp"], 4),
        auto_speedup=round(speedup, 1),
        interp_s=round(times["interp"], 3))
    assert speedup >= 1.5, (
        f"end-to-end speedup {speedup:.1f}x below the 1.5x bar")


def test_pathfinder_kernel_loop_10x(once, bench_record):
    source = pathfinder_loop_source()
    times = once(lambda: _measure(source, "pathfinder"))
    _report("pathfinder", times, once, bench_record, vec_bar=10.0)


def test_lulesh_kernel_loop_10x(once, bench_record):
    source = lulesh_source(nelem=2048, steps=16)
    times = once(lambda: _measure(source, "lulesh"))
    _report("lulesh", times, once, bench_record, vec_bar=10.0)


def test_spatter_lcg_indirection_3x(once, bench_record):
    source = spatter_lcg_loop_source()
    times = once(lambda: _measure(source, "spatter_lcg"))
    _report("spatter_lcg", times, once, bench_record, vec_bar=3.0)
