"""Generated host loops: the grid lowering byte-matches the interpreter.

Hypothesis draws mini-CUDA ``main`` programs around one host ``for``
loop.  Some loops qualify for the 1-D grid lowering of
:mod:`repro.codegen.host` (affine, stride-``c`` and LCG-gather
subscripts, guarded stores, read-modify-writes, body declarations,
conditional ones included).  Others do not, statically (a loop-carried
reduction) or at run time (an ``a[i+1] = a[i]`` dependence, a division
by zero).  Every program also touches the loop's words just before and
just after the loop, so the tracer's batched tally must carry across the
loop boundary, and prints a host heap address taken after the loop, so
the host-cell order must hold.

Each program runs on every backend; stdout, ``describe()``, heat,
events and metrics must equal the interpreter's byte for byte, and a
qualifying loop must report ``codegen-vec``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.instrument import instrument, parse
from repro.interp import Interpreter, InterpError
from repro.runtime import Tracer

from .test_differential import _describe_no_backend
from .test_host_lowering import BACKENDS, HEADER, _run

#: Words per array; loop indices stay in ``[0, 32)``.
N = 64

#: Subscript families: name -> (C expression of ``i``, collision-free).
SUBSCRIPTS = {
    "affine": "i",
    "offset": "i + 32",
    "stride": "2 * i",
    "lcg": "(i * 37 + 11) % 64",
}

VALUES = ("i * 3 + 1", "i % 5", "(i * 7) ^ 3", "r[i] * 2",
          "r[(i * 29 + 5) % 64] + i")


@st.composite
def loops(draw):
    """``(header, body lines, expected tier)`` of one host loop."""
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo + 8, 31))
    step = draw(st.sampled_from((1, 1, 2, 3)))
    form = draw(st.sampled_from(("up", "up-le", "down", "down-gt",
                                 "swapped", "bound-cell")))
    header = {
        "up": f"for (int i = {lo}; i < {hi}; i += {step})",
        "up-le": f"for (int i = {lo}; i <= {hi}; i++)",
        "down": f"for (int i = {hi}; i >= {lo}; i -= {step})",
        "down-gt": f"for (int i = {hi}; i > {lo}; i--)",
        "swapped": f"for (int i = {lo}; {hi} > i; ++i)",
        # n is address-taken: the bound is a host-cell load.
        "bound-cell": f"for (int i = {lo}; i < n; i += {step})",
    }[form]
    if form in ("up-le", "down-gt", "swapped"):
        step = 1
    first = hi if form.startswith("down") else lo
    kind = draw(st.sampled_from(("vec", "vec", "vec", "reduction",
                                 "dependence", "div-zero")))
    targets = draw(st.lists(st.sampled_from("abc"), min_size=1,
                            max_size=3))
    body = []
    subs = {}
    for k, t in enumerate(targets):
        sub = subs.setdefault(t, SUBSCRIPTS[draw(
            st.sampled_from(sorted(SUBSCRIPTS)))])
        value = draw(st.sampled_from(VALUES))
        shape = draw(st.sampled_from(("store", "rmw", "guard", "decl",
                                      "cond-decl", "masked-local",
                                      "double")))
        body += {
            "store": [f"{t}[{sub}] = {value};"],
            "rmw": [f"{t}[{sub}] += {value};"],
            "guard": [f"if (i % 3 == {k % 3}) {{ {t}[{sub}] = {value}; }}"],
            "decl": [f"int t{k} = {value};", f"{t}[{sub}] = t{k} + 1;"],
            "cond-decl": [f"if (i % 2 == {k % 2}) {{ int u{k} = {value}; "
                          f"{t}[{sub}] = u{k}; }}"],
            "masked-local": [f"int m{k} = 0;",
                             f"if (i > {lo + 1}) {{ m{k} = {value}; }}",
                             f"{t}[{sub}] -= m{k};"],
            "double": [f"double d{k} = i * 0.5;",
                       f"{t}[{sub}] = d{k} * 3.0 + {k};"],
        }[shape]
    if kind == "reduction":
        body.append("s += a[i];")
    elif kind == "dependence":
        body.append(f"a[i + {step}] = a[i] + 1;")
    elif kind == "div-zero":
        body.append(f"b[i] = 100 / (i - {first});")
    return header, body, "codegen-vec" if kind == "vec" else "codegen"


ACCESSES = ("a[{k}] = 5;", "a[{k}] += 2;", "s = s + a[{k}];", "b[{k}] = s;",
            "c[{k}] -= 1;")


@st.composite
def programs(draw):
    """``(source, expected tier of the drawn loop)``."""
    header, body, tier = draw(loops())
    pre = draw(st.lists(st.sampled_from(ACCESSES), max_size=2))
    post = draw(st.lists(st.sampled_from(ACCESSES), max_size=2))
    k = draw(st.integers(0, 33))
    lines = "\n        ".join(body)
    before = "\n    ".join(x.format(k=k) for x in pre)
    after = "\n    ".join(x.format(k=k) for x in post)
    source = HEADER + f"""
int main() {{
    int* a;
    int* b;
    int* c;
    int* r;
    cudaMallocManaged((void**)&a, {N} * sizeof(int));
    cudaMallocManaged((void**)&b, {N} * sizeof(int));
    cudaMallocManaged((void**)&c, {N} * sizeof(int));
    cudaMallocManaged((void**)&r, {N} * sizeof(int));
    for (int j = 0; j < {N}; j++) {{ r[j] = (j * 29 + 7) % 53; }}
    int n = 17;
    int* pn = &n;
    int s = 0;
    {before}
    {header} {{
        {lines}
    }}
    {after}
    int* h = (int*)malloc(16);
    int sum = 0;
    for (int j = 0; j < {N}; j++) {{ sum += a[j] + 3 * b[j] + 7 * c[j]; }}
    printf("sum=%d s=%d h=%p\\n", sum, s, h);
    tracePrint(XplAllocData(a, "a", {N * 4}), XplAllocData(b, "b", {N * 4}),
               XplAllocData(c, "c", {N * 4}), XplAllocData(r, "r", {N * 4}));
    return 0;
}}
"""
    return source, tier


def _failure(source, backend):
    unit = parse(source)
    instrument(unit)
    it = Interpreter(unit, tracer=Tracer(), backend=backend,
                     source_name="host.cu")
    try:
        it.run()
    except InterpError as exc:
        return str(exc), exc.site, exc.stack, it.stdout
    return None


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(programs())
def test_generated_host_loops_byte_match_interp(tmp_path_factory, program):
    source, tier = program
    expected = _failure(source, "interp")
    if expected is not None:
        assert "division by zero" in expected[0]
        for backend in BACKENDS[1:]:
            assert _failure(source, backend) == expected, backend
        return
    base = tmp_path_factory.mktemp("loops")
    _, oracle = _run(source, "interp", base / "interp")
    for backend in BACKENDS[1:]:
        it, observed = _run(source, backend, base / backend)
        assert observed == oracle, f"{backend} drifted"
        info = it.tracer.backend_info()
        assert info["host"] == {"codegen": 1}
        loops_run = info["host_loops"]
        if backend == "codegen":
            assert loops_run == {"codegen": 3}
        else:
            # The r[] init loop qualifies, the checksum loop does not.
            want = {"codegen-vec": 1, "codegen": 1}
            want[tier] += 1
            assert loops_run == want, (tier, loops_run)


BOUNDARY = HEADER + """
int main() {
    int* a;
    int* b;
    cudaMallocManaged((void**)&a, 64 * sizeof(int));
    cudaMallocManaged((void**)&b, 64 * sizeof(int));
    a[0] = 9;
    for (int i = 0; i < 32; i++) { a[i] = i; }
    a[7] = 1;
    int x = a[2];
    for (int i = 31; i >= 0; i--) { b[i] = a[i] + x; }
    b[0] = 4;
    for (int i = 0; i < 32; i++) { b[i] += 1; }
    b[32] += 1;
    for (int i = 0; i < 16; i++) { a[2 * i] = b[i]; }
    a[30] = 2;
    for (int i = 0; i < 16; i++) { b[i] = i; a[i + 32] = i; b[i] = 2 * i; }
    %s
    return 0;
}
"""


@pytest.mark.parametrize("tail", [
    "",
    'tracePrint(XplAllocData(a, "a", 256), XplAllocData(b, "b", 256));',
])
def test_pending_interval_crosses_the_loop_boundary(tail, tmp_path):
    """Each loop's first lane merges with the write just before it and
    its last lane's interval with the access just after it, as the
    interpreter's batcher merges them (the last loop's lanes also merge
    across lane boundaries while each lane writes ``b[i]`` twice);
    ``describe()`` matches also while an interval is still pending (no
    ``tracePrint``)."""
    source = BOUNDARY % tail
    _, oracle = _run(source, "interp", tmp_path / "interp")
    for backend in ("codegen-vec", "auto"):
        it, observed = _run(source, backend, tmp_path / backend)
        assert observed == oracle
        assert it.tracer.backend_info()["host_loops"] == {"codegen-vec": 5}

    def pending_state(backend):
        unit = parse(source)
        instrument(unit)
        it = Interpreter(unit, tracer=Tracer(), backend=backend)
        it.run()
        b = it.tracer.batcher
        return (it.tracer.describe()["words_seen"],
                b.block and b.block.alloc.label, b.kind, b.lo, b.hi)

    assert pending_state("codegen-vec") == pending_state("interp")


RMW_TAIL = HEADER + """
__global__ void fill(int* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { b[i] = i; }
}
__global__ void bump(int* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { b[i] += 1; }
}
int main() {
    int* b;
    cudaMallocManaged((void**)&b, 64 * sizeof(int));
    %s
    return 0;
}
"""


@pytest.mark.parametrize("body", [
    "for (int i = 0; i < 32; i++) { b[i] += 1; }",
    "bump<<<2, 16>>>(b, 32);",
    # GPU-origin words: applying the chain twice would add C>C reads.
    "fill<<<2, 16>>>(b, 32); for (int i = 0; i < 32; i++) { b[i] += 1; }",
    # The pending RMW on b[0] extends into the loop's chain.
    "b[0] += 1; for (int i = 1; i < 32; i++) { b[i] += 1; }",
    "for (int i = 31; i >= 0; i--) { b[i] += 1; b[i] += 2; }",
])
def test_final_rmw_chain_stays_pending(body):
    """A run ending in a read-modify-write chain leaves that chain in the
    batcher, as the interpreter does: ``describe()`` before any flush,
    the pending interval and the flushed shadow all match interp."""
    source = RMW_TAIL % body

    def observe(backend):
        unit = parse(source)
        instrument(unit)
        it = Interpreter(unit, tracer=Tracer(), backend=backend)
        it.run()
        tracer, b = it.tracer, it.tracer.batcher
        before = (_describe_no_backend(tracer),
                  b.block and b.block.alloc.label, b.kind, b.lo, b.hi)
        tracer.flush_trace()
        shadow = tracer.smt.live_and_dead()[0].shadow.tobytes()
        return before, _describe_no_backend(tracer)["words_seen"], shadow

    oracle = observe("interp")
    assert oracle[0][0]["words_seen"] < oracle[1]
    for backend in BACKENDS[1:]:
        assert observe(backend) == oracle, backend
