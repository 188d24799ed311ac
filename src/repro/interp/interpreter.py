"""Tree-walking interpreter for (instrumented) mini-CUDA programs.

Executes a parsed translation unit against the simulated CUDA runtime and
the XPlacer tracer -- the stand-in for "compile with the backend compiler,
link the runtime library, run on the target system" (paper Fig 1).

Key properties:

* every variable is memory-backed (host stack allocations), so addresses
  flowing through ``traceR``/``traceW``/``traceRW`` are real simulated
  addresses the shadow memory table can resolve;
* ``cudaMallocManaged``/``cudaMalloc``/``new`` allocate through the
  simulated runtime; the ``trc*`` wrapper builtins additionally register
  shadow memory, exactly like the paper's replacement functions;
* kernel launches execute the kernel body once per thread on the GPU
  context (``blockIdx``/``threadIdx``/``blockDim``/``gridDim`` resolve as
  builtins), so device-side traces classify as GPU accesses.
"""

from __future__ import annotations

import io
from typing import Any

from ..cudart import CudaRuntime, DevicePtr, cudaMemcpyKind, cudaMemoryAdvise
from ..heatmap.store import SourceSite
from ..instrument import ast_nodes as A
from ..instrument.transform import TRACE_FNS
from ..instrument.typesys import Array, CType, Pointer, Primitive, StructType
from ..memsim import MemoryKind, Platform, intel_pascal
from ..runtime import Tracer, XplAllocData, trace_print
from .values import (
    _PRIM_DTYPES,
    _typed_view,
    BreakSignal,
    ContinueSignal,
    InterpError,
    LValue,
    ReturnSignal,
    load,
    numpy_dtype,
    printf,
    store,
)

__all__ = ["Interpreter", "InterpHooks", "run_program"]

_TRACE_NAMES = set(TRACE_FNS.values())

_MEMCPY_KINDS = {
    0: cudaMemcpyKind.cudaMemcpyHostToHost,
    1: cudaMemcpyKind.cudaMemcpyHostToDevice,
    2: cudaMemcpyKind.cudaMemcpyDeviceToHost,
    3: cudaMemcpyKind.cudaMemcpyDeviceToDevice,
    4: cudaMemcpyKind.cudaMemcpyDefault,
}

#: Names accepted as advice constants in interpreted source.
_ADVICE_NAMES = {a.name: a for a in cudaMemoryAdvise}


class InterpHooks:
    """Pause-capable observation points of one :class:`Interpreter`.

    The debugger (``repro.debug``) installs a subclass on
    ``Interpreter.hooks``; every callback runs synchronously on the
    interpreter's own stack, so a hook may block (run a command loop) and
    the program resumes exactly where it paused when the hook returns.
    The default implementations do nothing.
    """

    def on_stmt(self, interp: "Interpreter", stmt: A.Stmt, env) -> None:
        """Before each non-block statement executes.  ``interp._line`` is
        already the statement's source line."""

    def on_trace(self, interp: "Interpreter", fn: str, addr: int,
                 size: int, site: SourceSite | None) -> None:
        """After each instrumented ``trace*`` call completed (shadow and
        any driver work done), before the traced access's value is used."""

    def on_kernel_entry(self, interp: "Interpreter", fn: A.FunctionDef,
                        grid: int, block: int) -> None:
        """Before a kernel launch starts executing its thread loop."""


class _Env:
    """Lexical environment mapping names to typed memory cells."""

    def __init__(self, parent: "_Env | None" = None) -> None:
        self.parent = parent
        self.cells: dict[str, LValue] = {}

    def child(self) -> "_Env":
        return _Env(self)

    def declare(self, name: str, lv: LValue) -> None:
        self.cells[name] = lv

    def lookup(self, name: str) -> LValue | None:
        env: _Env | None = self
        while env is not None:
            lv = env.cells.get(name)
            if lv is not None:
                return lv
            env = env.parent
        return None


class Interpreter:
    """Executes one translation unit."""

    def __init__(
        self,
        unit: A.TranslationUnit,
        *,
        platform: Platform | None = None,
        tracer: Tracer | None = None,
        out: io.TextIOBase | None = None,
        source_name: str = "<mini-cuda>",
        backend: str | None = None,
    ) -> None:
        self.unit = unit
        self.source_name = source_name
        from ..codegen.backend import BACKENDS, default_backend
        self.backend = backend or default_backend()
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {', '.join(BACKENDS)}")
        #: Source line of the statement currently executing (parser-stamped;
        #: attributes instrumented trace calls without stack inspection).
        self._line = 0
        self.platform = platform or intel_pascal()
        self.runtime = CudaRuntime(self.platform, materialize=True)
        # The tracer is NOT attached as a runtime observer here: in the
        # mini-CUDA pipeline only the instrumented calls trace, exactly as
        # in the paper's compiled workflow.  It is *bound* for processor
        # context so device-side traces classify as GPU accesses.
        self._space = self.platform.address_space
        self.tracer = (tracer or Tracer()).bind(self.runtime)
        self.tracer.backend = self.backend
        #: Bound trace methods by wrapper name (one getattr per program,
        #: not one per instrumented access).
        self._trace_fns = {n: getattr(self.tracer, n) for n in _TRACE_NAMES}
        self.out = out or io.StringIO()
        self.functions = {f.name: f for f in unit.functions()}
        self.globals = _Env()
        self._thread: dict[str, int] = {}
        #: Optional :class:`InterpHooks` (the interactive debugger).
        self.hooks: InterpHooks | None = None
        #: ``(function name, call-site line)`` frames, outermost first.
        self.call_stack: list[tuple[str, int]] = []
        #: Size-keyed pool of recycled stack cells plus the stack of
        #: per-call frames feeding it (see :meth:`_alloc_local`).
        self._cell_pool: dict[int, list] = {}
        self._frames: list[list] = []
        #: Compiled lowerings (or the :class:`CodegenBail` that stopped
        #: them) keyed by ``(id(FunctionDef), kind)``: each function is
        #: digested and bound once per interpreter, not once per launch.
        self._compiled: dict[tuple[int, str], Any] = {}
        #: ``repro.codegen.host.bind_host`` once a host call needed it.
        self._bind_host = None
        self._init_globals()

    # ------------------------------------------------------------------ #
    # setup / entry

    def _init_globals(self) -> None:
        for item in self.unit.items:
            if isinstance(item, A.DeclStmt):
                for d in item.decls:
                    lv = self._alloc_local(d.name, d.ctype)
                    self.globals.declare(d.name, lv)
                    if d.init is not None:
                        value, _ = self.eval(d.init, self.globals)
                        store(self._space, lv, value)

    def run(self, entry: str = "main", args: list[Any] | None = None) -> Any:
        """Execute ``entry``; returns its return value."""
        return self.call_function(entry, args or [])

    @property
    def stdout(self) -> str:
        """Captured ``printf``/diagnostic output (StringIO sinks only)."""
        if isinstance(self.out, io.StringIO):
            return self.out.getvalue()
        raise InterpError("stdout capture needs a StringIO sink")

    # ------------------------------------------------------------------ #
    # functions

    def call_function(self, name: str, args: list[Any]) -> Any:
        fn = self.functions.get(name)
        if fn is None or fn.body is None:
            return self._call_builtin(name, args)
        return self._invoke(fn, args)

    def _invoke(self, fn: A.FunctionDef, args: list[Any]) -> Any:
        """Call an already-resolved function (kernel loops skip the name
        lookup this way).  Host functions run their compiled lowering
        when one is available (:meth:`_host_function`)."""
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name} expects {len(fn.params)} arguments, got {len(args)}")
        host = self._host_function(fn)
        space = self._space
        frame: list = []
        self._frames.append(frame)
        self.call_stack.append((fn.name, self._line))
        try:
            if host is not None:
                try:
                    return host(self, *args)
                except InterpError as exc:
                    self._decorate_error(exc)
                    raise
            env = self.globals.child()
            for param, value in zip(fn.params, args):
                lv = self._alloc_local(param.name, param.ctype)
                store(space, lv, value)
                env.declare(param.name, lv)
            try:
                self.exec_stmt(fn.body, env)
            except ReturnSignal as r:
                return r.value
            return None
        finally:
            self.call_stack.pop()
            self._frames.pop()
            pool = self._cell_pool
            for alloc in frame:
                pool.setdefault(alloc.size, []).append(alloc)

    def _host_function(self, fn: A.FunctionDef):
        """The compiled lowering of host function ``fn``, or ``None`` to
        tree-walk it: on the ``interp`` backend, inside kernels, and under
        hooks (the debugger needs per-statement control)."""
        if self._thread or self.hooks is not None or self.backend == "interp":
            return None
        if self._bind_host is None:
            from ..codegen.host import bind_host
            self._bind_host = bind_host
        return self._bind_host(self, fn)

    def _alloc_cell(self, name: str, size: int):
        """A zeroed host cell of ``size`` bytes in the current frame.

        Cells are pooled per size: a kernel runs its body once per simulated
        thread, and allocating a fresh host block per local per thread both
        leaks address space and pays a sorted-insert each time.  Cells
        allocated inside a function frame return to the pool when the frame
        exits (addresses escaping a returned frame are C undefined
        behaviour, so reuse is fair game).  Compiled host code calls this
        at every declaration too, so host addresses match the interpreter.
        """
        pool = self._cell_pool.get(size)
        if pool:
            alloc = pool.pop()
            alloc.data[:] = 0
        else:
            alloc = self._space.allocate(
                size, MemoryKind.HOST, label=f"stack:{name}")
        if self._frames:
            self._frames[-1].append(alloc)
        return alloc

    def _alloc_local(self, name: str, ctype: CType) -> LValue:
        """A zeroed host cell for one local/param (see :meth:`_alloc_cell`)."""
        alloc = self._alloc_cell(name, max(1, ctype.size))
        if type(ctype) is Pointer or (
                type(ctype) is Primitive and ctype.name in _PRIM_DTYPES):
            # Pre-resolve scalar cells: load/store skip the address lookup.
            return LValue(alloc.base, ctype,
                          view=_typed_view(alloc, numpy_dtype(ctype)))
        return LValue(alloc.base, ctype)

    # ------------------------------------------------------------------ #
    # statements

    def exec_stmt(self, s: A.Stmt, env: _Env) -> None:
        if s.line:
            self._line = s.line
        handler = _EXEC.get(s.__class__)
        if handler is None:
            handler = _mro_fallback(_EXEC, s.__class__)
            if handler is None:
                raise InterpError(f"cannot execute {type(s).__name__}")
        hooks = self.hooks
        if hooks is not None and handler is not _EXEC_BLOCK:
            hooks.on_stmt(self, s, env)
        try:
            handler(self, s, env)
        except InterpError as exc:
            self._decorate_error(exc)
            raise

    def _decorate_error(self, exc: InterpError) -> None:
        """Attach source/thread context to ``exc`` (innermost wins)."""
        if exc.site is not None:
            return
        exc.site = SourceSite(self.source_name, self._line)
        exc.stack = tuple(name for name, _ in self.call_stack)
        where = f"{self.source_name}:{self._line}"
        t = self._thread
        if t:
            exc.thread = (t.get("blockIdx_x", 0), t.get("threadIdx_x", 0))
            where += (f" [blockIdx.x={exc.thread[0]}"
                      f" threadIdx.x={exc.thread[1]}]")
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{exc.args[0]} (at {where})",) + exc.args[1:]

    def _exec_block(self, s: A.Block, env: _Env) -> None:
        inner = env.child()
        for x in s.stmts:
            self.exec_stmt(x, inner)

    def _exec_decl(self, s: A.DeclStmt, env: _Env) -> None:
        for d in s.decls:
            lv = self._alloc_local(d.name, d.ctype)
            env.declare(d.name, lv)
            if d.init is not None:
                value, _ = self.eval(d.init, env)
                if not isinstance(d.ctype, (StructType, Array)):
                    store(self._space, lv, value)

    def _exec_expr(self, s: A.ExprStmt, env: _Env) -> None:
        self.eval(s.expr, env)

    def _exec_if(self, s: A.If, env: _Env) -> None:
        cond, _ = self.eval(s.cond, env)
        if cond:
            self.exec_stmt(s.then, env)
        elif s.other is not None:
            self.exec_stmt(s.other, env)

    def _exec_while(self, s: A.While, env: _Env) -> None:
        while self.eval(s.cond, env)[0]:
            try:
                self.exec_stmt(s.body, env)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _exec_do_while(self, s: A.DoWhile, env: _Env) -> None:
        while True:
            try:
                self.exec_stmt(s.body, env)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if not self.eval(s.cond, env)[0]:
                break

    def _exec_for(self, s: A.For, env: _Env) -> None:
        inner = env.child()
        if s.init is not None:
            self.exec_stmt(s.init, inner)
        while s.cond is None or self.eval(s.cond, inner)[0]:
            try:
                self.exec_stmt(s.body, inner)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if s.step is not None:
                self.eval(s.step, inner)

    def _exec_return(self, s: A.Return, env: _Env) -> None:
        value = self.eval(s.value, env)[0] if s.value is not None else None
        raise ReturnSignal(value)

    def _exec_break(self, s: A.Break, env: _Env) -> None:
        raise BreakSignal()

    def _exec_continue(self, s: A.Continue, env: _Env) -> None:
        raise ContinueSignal()

    def _exec_nop(self, s: A.Stmt, env: _Env) -> None:
        pass  # pragmas/directives pass through; no runtime effect

    # ------------------------------------------------------------------ #
    # expressions

    def eval(self, e: A.Expr, env: _Env) -> tuple[Any, CType | None]:
        handler = _EVAL.get(e.__class__)
        if handler is None:
            handler = _mro_fallback(_EVAL, e.__class__)
            if handler is None:
                raise InterpError(f"cannot evaluate {type(e).__name__}")
        return handler(self, e, env)

    def _eval_int_lit(self, e: A.IntLit, env: _Env):
        return e.value, None

    def _eval_float_lit(self, e: A.FloatLit, env: _Env):
        return e.value, None

    def _eval_bool_lit(self, e: A.BoolLit, env: _Env):
        return int(e.value), None

    def _eval_null_lit(self, e: A.NullLit, env: _Env):
        return 0, None

    def _eval_char_lit(self, e: A.CharLit, env: _Env):
        body = e.text[1:-1].encode().decode("unicode_escape")
        return ord(body), None

    def _eval_string_lit(self, e: A.StringLit, env: _Env):
        return e.text[1:-1], None

    def _eval_raw(self, e: A.Raw, env: _Env):
        return e.text, None

    def _eval_ident(self, e: A.Ident, env: _Env):
        special = self._thread.get(e.name)
        if special is not None:
            return special, None
        lv = env.lookup(e.name)
        if lv is None:
            if e.name in self.functions:
                return self.functions[e.name], None
            raise InterpError(f"undefined identifier {e.name!r}")
        ctype = lv.ctype
        if type(ctype) is Array:
            return lv.addr, Pointer(ctype.element)  # decay
        if type(ctype) is StructType:
            return lv.addr, ctype  # struct value = its address here
        return load(self._space, lv), ctype

    def _eval_member(self, e: A.Member, env: _Env):
        if not e.arrow and isinstance(e.base, A.Ident) and e.base.name in (
                "threadIdx", "blockIdx", "blockDim", "gridDim"):
            value = self._thread_builtin(f"{e.base.name}_{e.name}")
            if value is None:
                raise InterpError(f"{e.base.name}.{e.name} used outside a kernel")
            return value, None
        return self._eval_place(e, env)

    def _eval_place(self, e: A.Expr, env: _Env):
        lv = self.lvalue(e, env)
        if isinstance(lv.ctype, (StructType, Array)):
            return lv.addr, lv.ctype
        return load(self._space, lv), lv.ctype

    def _eval_ternary(self, e: A.Ternary, env: _Env):
        cond, _ = self.eval(e.cond, env)
        return self.eval(e.then if cond else e.other, env)

    def _eval_cast(self, e: A.Cast, env: _Env):
        value, _ = self.eval(e.operand, env)
        if isinstance(e.ctype, Pointer):
            return int(value), e.ctype
        if isinstance(e.ctype, Primitive) and not e.ctype.is_float:
            return int(value), e.ctype
        return float(value), e.ctype

    def _eval_sizeof_type(self, e: A.SizeofType, env: _Env):
        return e.ctype.size, None

    def _eval_sizeof_expr(self, e: A.SizeofExpr, env: _Env):
        _, ctype = self._type_of(e.operand, env)
        if ctype is None:
            raise InterpError("cannot compute sizeof of untyped expression")
        return ctype.size, None

    def _eval_kernel_launch(self, e: A.KernelLaunch, env: _Env):
        self._launch(e, env)
        return None, None

    # -- lvalues -------------------------------------------------------- #

    def lvalue(self, e: A.Expr, env: _Env) -> LValue:
        """Resolve an expression to a typed memory location."""
        handler = _LVALUE.get(e.__class__)
        if handler is None:
            handler = _mro_fallback(_LVALUE, e.__class__)
            if handler is None:
                raise InterpError(f"not an l-value: {type(e).__name__}")
        return handler(self, e, env)

    def _lvalue_ident(self, e: A.Ident, env: _Env) -> LValue:
        lv = env.lookup(e.name)
        if lv is None:
            raise InterpError(f"undefined identifier {e.name!r}")
        return lv

    def _lvalue_unary(self, e: A.Unary, env: _Env) -> LValue:
        if e.op != "*":
            raise InterpError(f"not an l-value: {type(e).__name__}")
        addr, ctype = self.eval(e.operand, env)
        target = ctype.target if isinstance(ctype, Pointer) else None
        if target is None:
            raise InterpError("dereference of non-pointer value")
        return LValue(int(addr), target)

    def _lvalue_index(self, e: A.Index, env: _Env) -> LValue:
        base, ctype = self.eval(e.base, env)
        idx, _ = self.eval(e.index, env)
        if not isinstance(ctype, Pointer):
            raise InterpError("indexing a non-pointer value")
        return LValue(int(base) + int(idx) * ctype.target.size, ctype.target)

    def _lvalue_member(self, e: A.Member, env: _Env) -> LValue:
        if e.arrow:
            base, ctype = self.eval(e.base, env)
            if not isinstance(ctype, Pointer) or \
                    not isinstance(ctype.target, StructType):
                raise InterpError("'->' on a non-struct-pointer value")
            struct = ctype.target
            base_addr = int(base)
        else:
            base_lv = self.lvalue(e.base, env)
            if not isinstance(base_lv.ctype, StructType):
                raise InterpError("'.' on a non-struct value")
            struct = base_lv.ctype
            base_addr = base_lv.addr
        f = struct.field_named(e.name)
        return LValue(base_addr + f.offset, f.type)

    def _lvalue_call(self, e: A.Call, env: _Env) -> LValue:
        if isinstance(e.callee, A.Ident) and e.callee.name in _TRACE_NAMES:
            return self._trace_lvalue(e.callee.name, e.args[0], env)
        raise InterpError(f"not an l-value: {type(e).__name__}")

    def _lvalue_cast(self, e: A.Cast, env: _Env) -> LValue:
        return self.lvalue(e.operand, env)

    def _trace_lvalue(self, fn: str, inner: A.Expr, env: _Env) -> LValue:
        lv = self.lvalue(inner, env)
        size = max(1, lv.ctype.size)
        trace = self._trace_fns[fn]
        site = None
        if self.tracer.heat is not None:
            site = SourceSite(self.source_name, self._line)
            trace(lv.addr, size, site=site)
        else:
            trace(lv.addr, size)
        hooks = self.hooks
        if hooks is not None:
            hooks.on_trace(self, fn, lv.addr, size, site)
        return lv

    # -- operators ------------------------------------------------------ #

    def _eval_unary(self, e: A.Unary, env: _Env) -> tuple[Any, CType | None]:
        space = self._space
        if e.op == "&":
            lv = self.lvalue(e.operand, env)
            return lv.addr, Pointer(lv.ctype)
        if e.op == "*":
            lv = self.lvalue(e, env)
            if isinstance(lv.ctype, (StructType, Array)):
                return lv.addr, lv.ctype
            return load(space, lv), lv.ctype
        if e.op in ("++", "--"):
            lv = self.lvalue(e.operand, env)
            old = load(space, lv)
            step = lv.ctype.target.size if isinstance(lv.ctype, Pointer) else 1
            new = old + step if e.op == "++" else old - step
            store(space, lv, new)
            return (new if e.prefix else old), lv.ctype
        if e.op == "delete":
            addr, _ = self.eval(e.operand, env)
            self._free_addr(int(addr))
            return None, None
        value, ctype = self.eval(e.operand, env)
        if e.op == "-":
            return -value, ctype
        if e.op == "+":
            return value, ctype
        if e.op == "!":
            return int(not value), None
        if e.op == "~":
            return ~int(value), ctype
        raise InterpError(f"unsupported unary operator {e.op!r}")

    def _eval_binary(self, e: A.Binary, env: _Env) -> tuple[Any, CType | None]:
        if e.op == ",":
            self.eval(e.left, env)
            return self.eval(e.right, env)
        if e.op == "&&":
            left, _ = self.eval(e.left, env)
            if not left:
                return 0, None
            return int(bool(self.eval(e.right, env)[0])), None
        if e.op == "||":
            left, _ = self.eval(e.left, env)
            if left:
                return 1, None
            return int(bool(self.eval(e.right, env)[0])), None
        left, lt = self.eval(e.left, env)
        right, rt = self.eval(e.right, env)
        # pointer arithmetic
        if isinstance(lt, Pointer) and e.op in ("+", "-") and not isinstance(rt, Pointer):
            scale = lt.target.size
            return (left + right * scale if e.op == "+"
                    else left - right * scale), lt
        if isinstance(rt, Pointer) and e.op == "+":
            return right + left * rt.target.size, rt
        if isinstance(lt, Pointer) and isinstance(rt, Pointer) and e.op == "-":
            return (left - right) // lt.target.size, None
        fn = _BIN_OPS.get(e.op)
        if fn is None:
            raise InterpError(f"unsupported binary operator {e.op!r}")
        return fn(left, right), (lt if isinstance(lt, Pointer) else lt or rt)

    def _eval_assign(self, e: A.Assign, env: _Env) -> tuple[Any, CType | None]:
        space = self._space
        value, _ = self.eval(e.value, env)
        lv = self.lvalue(e.target, env)
        if e.op == "=":
            new = value
        else:
            old = load(space, lv)
            op = e.op[:-1]
            if isinstance(lv.ctype, Pointer) and op in ("+", "-"):
                value = value * lv.ctype.target.size
            new = _BIN_OPS[op](old, value)
        store(space, lv, new)
        return new, lv.ctype

    def _eval_new(self, e: A.NewExpr, env: _Env) -> tuple[Any, CType]:
        count = 1
        if e.count is not None:
            count = int(self.eval(e.count, env)[0])
        addr = self._heap_alloc(max(1, e.ctype.size * count), "new")
        if e.init is not None:
            value, _ = self.eval(e.init, env)
            store(self._space, LValue(addr, e.ctype), value)
        return addr, Pointer(e.ctype)

    def _heap_alloc(self, nbytes: int, label: str) -> int:
        """``new``/``malloc``: a traced host heap block's address."""
        ptr = self.runtime.host_malloc(nbytes, label=label)
        self.tracer.trc_register(ptr.alloc)  # heap memory is traced
        return ptr.addr

    # -- calls ---------------------------------------------------------- #

    def _eval_call(self, e: A.Call, env: _Env) -> tuple[Any, CType | None]:
        if not isinstance(e.callee, A.Ident):
            raise InterpError("only direct calls are supported")
        name = e.callee.name
        if name in _TRACE_NAMES:
            lv = self._trace_lvalue(name, e.args[0], env)
            if isinstance(lv.ctype, (StructType, Array)):
                return lv.addr, lv.ctype
            return load(self._space, lv), lv.ctype
        if name == "XplAllocData":
            args = [self.eval(e.args[i], env)[0] for i in range(3)]
            return self._alloc_data(*args), None
        fn = self.functions.get(name)
        if fn is not None and fn.body is not None:
            args = [self.eval(a, env)[0] for a in e.args]
            return self._invoke(fn, args), fn.return_type
        args = [self.eval(a, env)[0] for a in e.args]
        label = alloc_label(e.args) if name in _ALLOCATORS else "managed"
        return self._call_builtin(name, args, label), None

    def _alloc_data(self, addr, name, size) -> XplAllocData:
        """``XplAllocData(addr, name, size)``: one diagnostic descriptor."""
        alloc = self._space.find(int(addr))
        return XplAllocData(int(addr), str(name), int(size), alloc)

    def _thread_builtin(self, name: str) -> int | None:
        return self._thread.get(name)

    # -- kernels --------------------------------------------------------- #

    def _launch(self, e: A.KernelLaunch, env: _Env,
                traced_name: str | None = None) -> None:
        grid = int(self.eval(e.grid, env)[0])
        block = int(self.eval(e.block, env)[0])
        kernel = e.kernel
        if not isinstance(kernel, A.Ident):
            raise InterpError("kernel launch needs a direct kernel name")
        fn = self.functions.get(kernel.name)
        if fn is None or fn.body is None:
            raise InterpError(f"undefined kernel {kernel.name!r}")
        args = [self.eval(a, env)[0] for a in e.args]
        self._run_kernel(fn, grid, block, args)

    def _run_kernel(self, fn: A.FunctionDef, grid: int, block: int,
                    args: list[Any]) -> None:
        hooks = self.hooks
        if hooks is not None:
            hooks.on_kernel_entry(self, fn, grid, block)

        def interp_body() -> None:
            # One dict mutated per simulated thread: the builtins are read
            # through ``_thread.get`` so identity never leaks.
            thread = {
                "blockIdx_x": 0, "threadIdx_x": 0,
                "blockDim_x": block, "gridDim_x": grid,
            }
            self._thread = thread
            try:
                for b in range(grid):
                    thread["blockIdx_x"] = b
                    for t in range(block):
                        thread["threadIdx_x"] = t
                        self._invoke(fn, list(args))
            finally:
                self._thread = {}

        if self.backend != "interp" and hooks is None:
            from ..codegen.backend import run_compiled

            def body(ctx) -> None:
                run_compiled(self, fn, grid, block, args, interp_body)
        else:
            # Hooked runs (the debugger) need per-statement control; the
            # compiled tiers would bypass every breakpoint.
            def body(ctx) -> None:
                interp_body()

        self.runtime.launch(body, grid, block, name=fn.name,
                            work=grid * block)

    # -- builtins --------------------------------------------------------- #

    def _call_builtin(self, name: str, args: list[Any],
                      label: str = "managed") -> Any:
        """Run builtin ``name``; ``label`` names a CUDA allocation (see
        :func:`alloc_label`)."""
        rt = self.runtime
        space = self._space

        if name in ("cudaMallocManaged", "trcMallocManaged"):
            out_ptr, size = int(args[0]), int(args[1])
            ptr = rt.malloc_managed(size, label=label)
            store(space, LValue(out_ptr, Pointer(Primitive("size_t", 8))), ptr.addr)
            if name.startswith("trc"):
                self.tracer.trc_register(ptr.alloc)
            return 0
        if name in ("cudaMalloc", "trcMalloc"):
            out_ptr, size = int(args[0]), int(args[1])
            ptr = rt.malloc(size, label=label)
            store(space, LValue(out_ptr, Pointer(Primitive("size_t", 8))), ptr.addr)
            if name.startswith("trc"):
                self.tracer.trc_register(ptr.alloc)
            return 0
        if name in ("cudaFree", "trcFree", "free"):
            self._free_addr(int(args[0]), trace=name.startswith("trc"))
            return 0
        if name == "malloc":
            return self._heap_alloc(int(args[0]), "malloc")
        if name in ("cudaMemcpy", "trcMemcpy"):
            dst, src, nbytes = int(args[0]), int(args[1]), int(args[2])
            kind = _MEMCPY_KINDS[int(args[3])] if len(args) > 3 \
                else cudaMemcpyKind.cudaMemcpyDefault
            observers = rt.observers
            if name == "trcMemcpy" and self.tracer not in observers:
                rt.subscribe(self.tracer)
                rt.memcpy(self._as_ptr(dst), self._as_ptr(src), nbytes, kind)
                rt.unsubscribe(self.tracer)
            else:
                rt.memcpy(self._as_ptr(dst), self._as_ptr(src), nbytes, kind)
            return 0
        if name == "cudaMemAdvise":
            ptr, nbytes, advice, device = args
            advice_enum = (_ADVICE_NAMES[advice] if isinstance(advice, str)
                           else list(cudaMemoryAdvise)[int(advice) - 1])
            rt.mem_advise(self._as_ptr(int(ptr)), int(nbytes),
                          advice_enum, int(device))
            return 0
        if name == "cudaDeviceSynchronize":
            rt.device_synchronize()
            return 0
        if name in ("tracePrint", "trcPrn"):
            descriptors = [a for a in args if isinstance(a, XplAllocData)]
            trace_print(self.tracer, descriptors, self.out)
            return 0
        if name == "traceKernelLaunch":
            grid, block = int(args[0]), int(args[1])
            kernel = args[4]
            if not isinstance(kernel, A.FunctionDef):
                raise InterpError("traceKernelLaunch needs a kernel function")
            self.tracer.on_kernel_launch(kernel.name, grid, block)
            self._run_kernel(kernel, grid, block, list(args[5:]))
            return 0
        if name == "printf":
            return printf(self.out, *args)
        raise InterpError(f"unknown function {name!r}")

    def _as_ptr(self, addr: int) -> DevicePtr:
        alloc = self._space.find(addr)
        if alloc is None:
            raise InterpError(f"memcpy with invalid address {addr:#x}")
        return DevicePtr(self.runtime, alloc, addr - alloc.base)

    def _free_addr(self, addr: int, *, trace: bool = False) -> None:
        alloc = self._space.find(addr)
        if alloc is None or alloc.base != addr:
            raise InterpError(f"free of invalid address {addr:#x}")
        if trace:
            self.tracer.trc_free(alloc)
        else:
            self.tracer.smt.remove(addr, self.tracer.epoch)
        self.runtime.free(DevicePtr(self.runtime, alloc, 0))

    # -- typing helper ---------------------------------------------------- #

    def _type_of(self, e: A.Expr, env: _Env) -> tuple[Any, CType | None]:
        try:
            return self.eval(e, env)
        except InterpError:
            return None, None


#: Builtins whose allocation is labelled by :func:`alloc_label`.
_ALLOCATORS = frozenset(
    {"cudaMallocManaged", "trcMallocManaged", "cudaMalloc", "trcMalloc"})


def alloc_label(raw_args) -> str:
    """Label a CUDA allocation by its pointer expression, e.g.
    ``cudaMallocManaged((void**)&a, ...)`` -> ``"a"``."""
    if not raw_args:
        return "managed"
    arg = raw_args[0]
    while isinstance(arg, A.Cast):
        arg = arg.operand
    if isinstance(arg, A.Unary) and arg.op == "&":
        from ..instrument.unparse import unparse_expr
        return unparse_expr(arg.operand)
    return "managed"


def _cdiv(a, b):
    if not b:
        raise InterpError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _cmod(a, b):
    if not b:
        raise InterpError("modulo by zero")
    return a - _cdiv(a, b) * b


#: Non-short-circuit binary operators (also the compound-assignment cores).
_BIN_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _cdiv, "%": _cmod,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
    "&": lambda a, b: int(a) & int(b), "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << int(b), ">>": lambda a, b: int(a) >> int(b),
}

#: Per-node-class dispatch tables.  One dict probe replaces the isinstance
#: ladder ``exec_stmt``/``eval`` used to walk for every node executed --
#: the single hottest cost in interpreting a kernel body once per thread.
_EXEC = {
    A.Block: Interpreter._exec_block,
    A.DeclStmt: Interpreter._exec_decl,
    A.ExprStmt: Interpreter._exec_expr,
    A.If: Interpreter._exec_if,
    A.While: Interpreter._exec_while,
    A.DoWhile: Interpreter._exec_do_while,
    A.For: Interpreter._exec_for,
    A.Return: Interpreter._exec_return,
    A.Break: Interpreter._exec_break,
    A.Continue: Interpreter._exec_continue,
    A.Pragma: Interpreter._exec_nop,
    A.Directive: Interpreter._exec_nop,
}

#: Block handler identity: blocks carry no line of their own, so the
#: per-statement hook skips them (it fires for every *leaf* statement).
_EXEC_BLOCK = Interpreter._exec_block

_LVALUE = {
    A.Ident: Interpreter._lvalue_ident,
    A.Unary: Interpreter._lvalue_unary,
    A.Index: Interpreter._lvalue_index,
    A.Member: Interpreter._lvalue_member,
    A.Call: Interpreter._lvalue_call,
    A.Cast: Interpreter._lvalue_cast,
}

_EVAL = {
    A.IntLit: Interpreter._eval_int_lit,
    A.FloatLit: Interpreter._eval_float_lit,
    A.BoolLit: Interpreter._eval_bool_lit,
    A.NullLit: Interpreter._eval_null_lit,
    A.CharLit: Interpreter._eval_char_lit,
    A.StringLit: Interpreter._eval_string_lit,
    A.Raw: Interpreter._eval_raw,
    A.Ident: Interpreter._eval_ident,
    A.Member: Interpreter._eval_member,
    A.Index: Interpreter._eval_place,
    A.Unary: Interpreter._eval_unary,
    A.Binary: Interpreter._eval_binary,
    A.Assign: Interpreter._eval_assign,
    A.Ternary: Interpreter._eval_ternary,
    A.Call: Interpreter._eval_call,
    A.Cast: Interpreter._eval_cast,
    A.SizeofType: Interpreter._eval_sizeof_type,
    A.SizeofExpr: Interpreter._eval_sizeof_expr,
    A.KernelLaunch: Interpreter._eval_kernel_launch,
    A.NewExpr: Interpreter._eval_new,
}


def _mro_fallback(table: dict, klass: type):
    """Resolve a dispatch entry through ``klass``'s bases (subclassed AST
    nodes dispatch like their parents) and cache the result."""
    for base in klass.__mro__[1:]:
        handler = table.get(base)
        if handler is not None:
            table[klass] = handler
            return handler
    return None


def run_program(source: str, *, instrumented: bool = True,
                platform: Platform | None = None,
                tracer: Tracer | None = None,
                source_name: str = "<mini-cuda>",
                entry: str = "main",
                backend: str | None = None) -> Interpreter:
    """Parse (+instrument) and execute ``source``; returns the interpreter
    for inspection of tracer state and captured output."""
    from ..instrument import instrument as _instrument, parse

    unit = parse(source)
    if instrumented:
        _instrument(unit)
    interp = Interpreter(unit, platform=platform, tracer=tracer,
                         source_name=source_name, backend=backend)
    interp.run(entry)
    return interp
