"""Compiled host functions byte-match the tree-walking interpreter.

Under every compiled backend, host functions (``main`` and its helpers)
run through the host lowering of the scalar emitter
(:mod:`repro.codegen.host`).  Each program below stresses one thing that
lowering must reproduce exactly: memory-backed address-taken locals, the
host-cell allocation order (so ``new``/``malloc`` addresses are
unchanged), calls and recursion, ``break``/``continue``, pointer
ternaries, heat sites of traced loop conditions, and located runtime
errors.  The interpreter is the oracle for stdout, the tracer's
``describe()``, heat and the UM event log.
"""

import pytest

from repro.analysis import diagnose
from repro.codegen import set_default_backend
from repro.codegen.backend import default_backend
from repro.heatmap.store import HeatStore, SourceSite
from repro.instrument import instrument, parse
from repro.interp import Interpreter, InterpError, run_program
from repro.runtime import Tracer
from repro.telemetry.events_jsonl import JsonlWriter
from repro.telemetry.recorder import TelemetryRecorder

from .test_differential import (
    _describe_no_backend,
    _filtered_events,
    _filtered_metrics,
    _heat_bytes,
)

BACKENDS = ("interp", "codegen", "codegen-vec", "auto")

HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""

HELPERS = """
__global__ void scale(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = a[i] * 2; }
}

int sum_to(int* a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    return s;
}

int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}

void bump(int* p, int by) {
    *p = *p + by;
}
"""

PROGRAMS = {
    "address-taken": """
int main() {
    int x = 5;
    int* p = &x;
    *p += 2;
    bump(&x, 3);
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    for (int i = 0; i < 16; i++) { a[i] = i + x; }
    scale<<<1, 16>>>(a, 16);
    cudaDeviceSynchronize();
    printf("x=%d sum=%d p=%p\\n", x, sum_to(a, 16), p);
    tracePrint(XplAllocData(a, "a", 64));
    return 0;
}
""",
    "heap-addresses": """
int main() {
    for (int i = 0; i < 4; i++) {
        int t = i * 3;
        double d = t * 0.5;
        if (d > 2.0) { int u = t; }
    }
    int* p = new int[8];
    int* q = (int*)malloc(32);
    int* r = new int(7);
    printf("%p %p %p %d\\n", p, q, r, *r);
    for (int i = 0; i < 8; i++) { p[i] = i; q[i] = p[i] * 2; }
    printf("%d %d\\n", sum_to(p, 8), sum_to(q, 8));
    tracePrint(XplAllocData(p, "p", 32), XplAllocData(q, "q", 32));
    free(q);
    return 0;
}
""",
    "calls-and-recursion": """
int main() {
    int total = 0;
    for (int k = 0; k < 10; k++) { total += fib(k); }
    bump(&total, 1);
    printf("total=%d fib12=%d\\n", total, fib(12));
    return total;
}
""",
    "break-continue": """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64 * sizeof(int));
    int n = 0;
    for (int i = 0; i < 64; i++) {
        if (i % 3 == 0) { continue; }
        if (i > 50) { break; }
        a[n] = i;
        n++;
    }
    int j = 0;
    while (1) {
        j++;
        if (j % 2) { continue; }
        if (j > 10) { break; }
        a[j] += 1;
    }
    do {
        j--;
        if (j == 5) { continue; }
        if (j < 3) { break; }
        a[j] -= 1;
    } while (j > 0);
    printf("n=%d j=%d sum=%d\\n", n, j, sum_to(a, 64));
    tracePrint(XplAllocData(a, "a", 256));
    return 0;
}
""",
    "pointer-ternary": """
int main() {
    int* a;
    int* b;
    cudaMallocManaged((void**)&a, 8 * sizeof(int));
    cudaMallocManaged((void**)&b, 8 * sizeof(int));
    for (int i = 0; i < 8; i++) {
        int* t = i % 2 ? a : b;
        t[i] = i + 1;
    }
    int* last = a[1] > b[0] ? a : b;
    printf("%d %d\\n", last[3], a[1] > b[2] ? a[1] : b[2]);
    tracePrint(XplAllocData(a, "a", 32), XplAllocData(b, "b", 32));
    return 0;
}
""",
    "loop-condition-trace": """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 32 * sizeof(int));
    for (int i = 0; i < 32; i++) { a[i] = 32 - i; }
    a[20] = 0;
    int i = 0;
    while (a[i] > 0) {
        i++;
    }
    int s = 0;
    for (int k = 0; a[k] != 0; k++) { s += a[k]; }
    int j = 0;
    do {
        j++;
    } while (a[j] > 5);
    scale<<<1, 32>>>(a, 32);
    for (int k = 0; a[k] > 2; k++) { s += 1; }
    printf("i=%d s=%d j=%d\\n", i, s, j);
    tracePrint(XplAllocData(a, "a", 128));
    return 0;
}
""",
}

FAULTY = HEADER + """
int deref(int* p) {
    int v = *p;
    return v;
}

int main() {
    int* a;
    cudaMallocManaged((void**)&a, 4 * sizeof(int));
    a[0] = 1;
    int* bad = a + 100000;
    printf("before\\n");
    return deref(bad);
}
"""


def _run(source, backend, out):
    """Run ``source`` with heat and telemetry; the observed state."""
    unit = parse(source)
    instrument(unit)
    heat = HeatStore()
    it = Interpreter(unit, tracer=Tracer(heat=heat), backend=backend,
                     source_name="host.cu")
    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"))
    recorder.attach(it.runtime, it.tracer, label="host")
    it.run()
    recorder.record_diagnosis(diagnose(it.tracer, include_unnamed=True))
    recorder.detach()
    paths = recorder.flush(out)
    return it, {
        "stdout": it.stdout,
        "describe": _describe_no_backend(it.tracer),
        "heat": _heat_bytes(heat),
        "events": _filtered_events(paths["events"]),
        "metrics": _filtered_metrics(paths["metrics"]),
        "timeline": paths["timeline"].read_text(),
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_host_lowering_byte_matches_interp(name, tmp_path):
    source = HEADER + HELPERS + PROGRAMS[name]
    _, oracle = _run(source, "interp", tmp_path / "interp")
    assert oracle["stdout"]
    for backend in BACKENDS[1:]:
        it, observed = _run(source, backend, tmp_path / backend)
        assert observed == oracle, f"{name}: {backend} drifted"
        host = it.tracer.backend_info()["host"]
        assert set(host) == {"codegen"}, f"{name}: host fell back {host}"


@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_runtime_error_in_lowered_host_code_matches_interp(backend):
    def failure(b):
        unit = parse(FAULTY)
        instrument(unit)
        it = Interpreter(unit, tracer=Tracer(), backend=b,
                         source_name="host.cu")
        with pytest.raises(InterpError) as info:
            it.run()
        exc = info.value
        return str(exc), exc.site, exc.stack, exc.thread, it.stdout

    expected = failure("interp")
    assert expected[0].startswith("dereference of invalid address")
    assert expected[1:] == (SourceSite("host.cu", 7), ("main", "deref"),
                            None, "before\n")
    assert failure(backend) == expected


def test_host_fallback_is_counted():
    """A host function the emitter cannot lower (a struct local) is
    tree-walked and shows up as an ``interp`` host entry."""
    source = """
struct P { int x; int y; };

int area(int w, int h) { return w * h; }

int main() {
    struct P p;
    p.x = 3;
    p.y = 4;
    printf("%d\\n", area(p.x, p.y));
    return 0;
}
"""
    oracle = run_program(source, instrumented=False, backend="interp")
    it = run_program(source, instrumented=False, backend="codegen")
    assert it.stdout == oracle.stdout == "12\n"
    assert it.tracer.backend_info()["host"] == {"codegen": 1, "interp": 1}


def test_debugger_breakpoints_still_step_host_loops():
    """The debugger keeps tree-walking host code under every default
    backend, so a host-loop breakpoint fires once per statement run."""
    from repro.debug import DebugEngine

    source = HEADER + """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 256);
    int s = 0;
    for (int i = 0; i < 64; i++) {
        a[i] = i;
        s += a[i];
    }
    return s;
}
"""
    line = source.splitlines().index("        a[i] = i;") + 1
    previous = default_backend()
    hits = {}
    try:
        for backend in BACKENDS:
            set_default_backend(backend)
            engine = DebugEngine(source)
            bp = engine.breakpoints.add_line(line)
            assert engine.run() == sum(range(64))
            hits[backend] = bp.hits
    finally:
        set_default_backend(previous)
    assert hits == {b: 64 for b in BACKENDS}


def test_hooked_interpreters_tree_walk_host_code():
    """Any installed hooks (not only the debugger's tracer) keep host
    code on the tree-walker, so every statement is observed."""
    from repro.interp import InterpHooks

    class Count(InterpHooks):
        def __init__(self):
            self.stmts = 0

        def on_stmt(self, interp, stmt, env):
            self.stmts += 1

    source = HEADER + HELPERS + PROGRAMS["calls-and-recursion"]
    counts = {}
    for backend in BACKENDS:
        unit = parse(source)
        instrument(unit)
        it = Interpreter(unit, tracer=Tracer(), backend=backend)
        it.hooks = Count()
        it.run()
        counts[backend] = it.hooks.stmts
        assert backend == "interp" or it.tracer.backend_info()["host"] == {}
    assert len(set(counts.values())) == 1 and counts["interp"] > 100
