"""Tests for InterpError execution context (site, thread, stack)."""

import pytest

from repro.interp import InterpError, run_program

HOST_ERROR = """\
int main() {
    int x = 1;
    return x + bogus;
}
"""

KERNEL_ERROR = """\
__global__ void boom(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    a[i] = missing;
}

int main() {
    int a[4];
    boom<<<1, 4>>>(a, 4);
    return 0;
}
"""

NESTED_ERROR = """\
int inner(int v) {
    return v / oops;
}

int outer(int v) {
    return inner(v) + 1;
}

int main() {
    return outer(3);
}
"""


def error_from(source, *, source_name="prog.cu", backend=None):
    with pytest.raises(InterpError) as info:
        run_program(source, instrumented=False, source_name=source_name,
                    backend=backend)
    return info.value


class TestHostContext:
    def test_site_and_message_suffix(self):
        exc = error_from(HOST_ERROR)
        assert exc.site is not None
        assert (exc.site.file, exc.site.line) == ("prog.cu", 3)
        assert str(exc) == "undefined identifier 'bogus' (at prog.cu:3)"

    def test_host_errors_carry_no_thread(self):
        exc = error_from(HOST_ERROR)
        assert exc.thread is None
        assert exc.stack == ("main",)

    def test_source_name_flows_through(self):
        exc = error_from(HOST_ERROR, source_name="other.cu")
        assert exc.site.file == "other.cu"
        assert "(at other.cu:3)" in str(exc)


class TestKernelContext:
    def test_thread_coords_in_site_and_message(self):
        exc = error_from(KERNEL_ERROR)
        assert exc.site.line == 3
        assert exc.thread == (0, 0)  # the first thread fails first
        assert "(at prog.cu:3 [blockIdx.x=0 threadIdx.x=0])" in str(exc)

    def test_stack_names_the_kernel(self):
        exc = error_from(KERNEL_ERROR)
        assert exc.stack == ("main", "boom")


class TestNestedContext:
    def test_innermost_frame_wins(self):
        exc = error_from(NESTED_ERROR)
        assert exc.site.line == 2  # inside inner(), not the call sites
        assert exc.stack == ("main", "outer", "inner")

    def test_original_message_is_a_prefix(self):
        exc = error_from(NESTED_ERROR)
        assert str(exc).startswith("undefined identifier 'oops'")
        assert str(exc).endswith("(at prog.cu:2)")


BACKENDS = ("interp", "codegen", "codegen-vec", "auto")

HOST_DIV_ZERO = """\
int ratio(int a, int b) {
    int c = a / b;
    return c;
}

int main() {
    int b = 0;
    return ratio(7, b);
}
"""

HOST_MOD_ZERO = """\
int main() {
    int z = 0;
    for (int i = 0; i < 4; i++) {
        z = i % z;
    }
    return z;
}
"""

KERNEL_DIV_ZERO = """\
__global__ void split(int* a, int n, int z) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int c = a[i] / z;
        a[i] = c;
    }
}

int main() {
    int a[64];
    split<<<2, 32>>>(a, 64, 0);
    return 0;
}
"""


def context(exc):
    return str(exc), (exc.site.file, exc.site.line), exc.stack, exc.thread


class TestDivisionByZero:
    """A zero divisor raises the same located InterpError on every tier
    (compiled host code and compiled kernels included), never a bare
    ZeroDivisionError."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_host_division(self, backend):
        exc = error_from(HOST_DIV_ZERO, backend=backend)
        assert context(exc) == (
            "division by zero (at prog.cu:2)", ("prog.cu", 2),
            ("main", "ratio"), None)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_host_modulo_in_loop(self, backend):
        exc = error_from(HOST_MOD_ZERO, backend=backend)
        assert context(exc) == (
            "modulo by zero (at prog.cu:4)", ("prog.cu", 4), ("main",), None)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_division(self, backend):
        exc = error_from(KERNEL_DIV_ZERO, backend=backend)
        assert context(exc) == (
            "division by zero (at prog.cu:4 [blockIdx.x=0 threadIdx.x=0])",
            ("prog.cu", 4), ("main", "split"), (0, 0))
