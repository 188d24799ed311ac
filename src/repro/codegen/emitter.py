"""Scalar (per-thread) Python code generation for mini-CUDA kernels.

Lowers one instrumented kernel :class:`~repro.instrument.ast_nodes.FunctionDef`
to Python source that replicates the tree-walking interpreter's observable
behaviour *exactly* -- same trace-call sequence (addresses, sizes, heat
sites), same value semantics (C wraparound on stores, truncating division),
same ``printf`` output -- while paying none of the per-node dispatch cost.

The lowering is temp-based: every side-effecting subexpression (trace
calls, heap loads/stores, assignments, ``++``/``--``, short-circuit
operands, ternaries) becomes a statement assigning a ``_tN`` temporary, so
evaluation order is pinned to the interpreter's.  Locals become Python
variables holding *wrapped* values (the value a re-load of the backing
cell would produce), which keeps heap-trip semantics without memory-backed
cells.  Kernels the emitter cannot prove equivalent raise
:class:`CodegenBail` and the launch falls back to the interpreter.

Compilation is memoized module-wide by a structural AST digest (lines
included -- heat sites depend on them), including *negative* entries so a
bailing kernel is analyzed once, not once per launch.

:mod:`repro.codegen.host` subclasses :class:`ScalarEmitter` to lower host
functions with the same expression, loop and trace lowering.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields as _dataclass_fields

import numpy as np

from ..instrument import ast_nodes as A
from ..instrument.transform import TRACE_FNS
from ..instrument.typesys import (
    Array,
    CType,
    Pointer,
    Primitive,
    StructType,
)
from ..interp.values import InterpError, numpy_dtype

__all__ = [
    "CodegenBail",
    "CompiledKernel",
    "Symbol",
    "compile_scalar",
    "kernel_digest",
    "resolve_kernel",
]

_TRACE_NAMES = set(TRACE_FNS.values())

#: Emitted-code name for each bound trace method.
TRACE_PY = {"traceR": "_TRR", "traceW": "_TRW", "traceRW": "_TRX"}

#: Batch kinds for the vectorized executor (matches repro.runtime.batch).
TRACE_KIND = {"traceR": 0, "traceW": 1, "traceRW": 2}

_DIM_BASES = ("threadIdx", "blockIdx", "blockDim", "gridDim")

#: threadIdx.x-style builtins -> emitted parameter name.
DIM_PY = {
    "blockIdx_x": "_bx",
    "threadIdx_x": "_tx",
    "blockDim_x": "_bd",
    "gridDim_x": "_gd",
}


class CodegenBail(Exception):
    """The kernel cannot be compiled by this backend; fall back."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --------------------------------------------------------------------- #
# structural digest (memoization key)

_CTYPES = (Primitive, Pointer, Array, StructType)


def _serialize(obj, out: list) -> None:
    if obj is None:
        out.append("~")
    elif isinstance(obj, A.Node):
        out.append(type(obj).__name__)
        out.append(str(getattr(obj, "line", 0)))
        for f in _dataclass_fields(obj):
            _serialize(getattr(obj, f.name), out)
    elif isinstance(obj, _CTYPES):
        out.append(f"T{obj.spell()}:{obj.size}")
    elif isinstance(obj, (list, tuple)):
        out.append(f"L{len(obj)}")
        for x in obj:
            _serialize(x, out)
    elif isinstance(obj, (set, frozenset)):
        out.append("S" + ",".join(sorted(str(x) for x in obj)))
    else:
        out.append(repr(obj))


def kernel_digest(fn: A.FunctionDef) -> str:
    """Stable structural hash of a kernel (source lines included)."""
    out: list[str] = []
    _serialize(fn, out)
    return hashlib.sha1("\x1f".join(out).encode()).hexdigest()


# --------------------------------------------------------------------- #
# symbol resolution (shared by the scalar and vector emitters)


class Symbol:
    """One kernel-local variable (parameter or declaration)."""

    __slots__ = ("name", "pyname", "ctype", "is_param", "varying")

    def __init__(self, name: str, pyname: str, ctype: CType,
                 is_param: bool = False) -> None:
        self.name = name
        self.pyname = pyname
        self.ctype = ctype
        self.is_param = is_param
        #: Set by the vectorizer's fixpoint: does the value differ by lane?
        self.varying = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Symbol({self.name!r} as {self.pyname}, varying={self.varying})"


class Resolution:
    """Scope-resolved view of one kernel.

    ``map`` keys ``id(node)`` for every :class:`~ast_nodes.Ident` use and
    :class:`~ast_nodes.VarDecl`/:class:`~ast_nodes.Param` declaration the
    resolver could bind; unresolved identifiers (globals, function names)
    stay unmapped and make the emitters bail.
    """

    __slots__ = ("map", "symbols", "params")

    def __init__(self) -> None:
        self.map: dict[int, Symbol] = {}
        self.symbols: list[Symbol] = []
        self.params: list[Symbol] = []


def resolve_kernel(fn: A.FunctionDef) -> Resolution:
    """Bind identifier uses to symbols, mirroring the interpreter's
    environment chain (params scope -> block child scopes; ``for`` gets
    its own init scope; declarations bind before their initializer)."""
    res = Resolution()
    used: dict[str, int] = {}
    scopes: list[dict[str, Symbol]] = [{}]

    def mkname(name: str) -> str:
        n = used.get(name, 0) + 1
        used[name] = n
        return f"v_{name}" if n == 1 else f"v_{name}__{n}"

    def declare(name: str, ctype: CType, node, is_param: bool = False) -> Symbol:
        sym = Symbol(name, mkname(name), ctype, is_param)
        scopes[-1][name] = sym
        res.symbols.append(sym)
        res.map[id(node)] = sym
        return sym

    def look(name: str) -> Symbol | None:
        for sc in reversed(scopes):
            sym = sc.get(name)
            if sym is not None:
                return sym
        return None

    def expr(e) -> None:
        if e is None:
            return
        t = type(e)
        if t is A.Ident:
            sym = look(e.name)
            if sym is not None:
                res.map[id(e)] = sym
        elif t is A.Member:
            if not (not e.arrow and isinstance(e.base, A.Ident)
                    and e.base.name in _DIM_BASES):
                expr(e.base)
        elif t is A.Call:
            if not isinstance(e.callee, A.Ident):
                expr(e.callee)
            for a in e.args:
                expr(a)
        elif t is A.Unary:
            expr(e.operand)
        elif t is A.Binary:
            expr(e.left)
            expr(e.right)
        elif t is A.Assign:
            expr(e.value)
            expr(e.target)
        elif t is A.Ternary:
            expr(e.cond)
            expr(e.then)
            expr(e.other)
        elif t is A.Index:
            expr(e.base)
            expr(e.index)
        elif t is A.Cast:
            expr(e.operand)
        elif t is A.SizeofExpr:
            expr(e.operand)
        elif t is A.KernelLaunch:
            expr(e.grid)
            expr(e.block)
            for a in e.args:
                expr(a)
        elif t is A.NewExpr:
            expr(e.count)
            expr(e.init)

    def stmt(s) -> None:
        if s is None:
            return
        t = type(s)
        if t is A.Block:
            scopes.append({})
            for x in s.stmts:
                stmt(x)
            scopes.pop()
        elif t is A.DeclStmt:
            for d in s.decls:
                declare(d.name, d.ctype, d)
                if d.init is not None:
                    expr(d.init)
        elif t is A.ExprStmt:
            expr(s.expr)
        elif t is A.If:
            expr(s.cond)
            stmt(s.then)
            stmt(s.other)
        elif t is A.While:
            expr(s.cond)
            stmt(s.body)
        elif t is A.DoWhile:
            stmt(s.body)
            expr(s.cond)
        elif t is A.For:
            scopes.append({})
            stmt(s.init)
            expr(s.cond)
            stmt(s.body)
            expr(s.step)
            scopes.pop()
        elif t is A.Return:
            expr(s.value)
        # Break/Continue/Pragma/Directive: nothing to resolve

    for p in fn.params:
        res.params.append(declare(p.name, p.ctype, p, is_param=True))
    stmt(fn.body)
    return res


def dtype_key(ctype: CType) -> str:
    """``i4``/``u8``/``f4``-style key for a scalar ctype (pointers are
    ``u8``); raises :class:`CodegenBail` for aggregates."""
    try:
        dt = numpy_dtype(ctype)
    except InterpError:
        raise CodegenBail(f"unsupported value type {ctype.spell()}") from None
    return dt.kind + str(dt.itemsize)


#: dtype key -> numpy dtype (every key the emitters can produce).
DTYPES: dict[str, np.dtype] = {
    "i1": np.dtype(np.int8), "u1": np.dtype(np.uint8),
    "i2": np.dtype(np.int16),
    "i4": np.dtype(np.int32), "u4": np.dtype(np.uint32),
    "i8": np.dtype(np.int64), "u8": np.dtype(np.uint64),
    "f4": np.dtype(np.float32), "f8": np.dtype(np.float64),
}


def _int_wrap(bits: int, signed: bool):
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits

    def wrap(v):
        iv = int(v) & mask
        if signed and iv >= half:
            iv -= full
        return iv

    return wrap


def _wrap_f4(v) -> float:
    return float(np.float32(v))


#: dtype key -> scalar store-wrap (the value a reload of a memory cell of
#: that dtype would produce after ``repro.interp.values.store``).
WRAPS = {
    "i1": _int_wrap(8, True), "u1": _int_wrap(8, False),
    "i2": _int_wrap(16, True),
    "i4": _int_wrap(32, True), "u4": _int_wrap(32, False),
    "i8": _int_wrap(64, True), "u8": _int_wrap(64, False),
    "f4": _wrap_f4, "f8": float,
}


# --------------------------------------------------------------------- #
# scalar emitter


class CompiledKernel:
    """A function lowered to Python, ready to bind per interpreter.

    ``lines`` maps each emitted body line (Python line 2 onwards) to the
    source line it lowers, so a fault raised inside the compiled code can
    be located like the interpreter locates it.  ``entry`` names the
    emitted function; ``refs`` lists the program functions the code
    refers to as ``_F_<name>`` (host lowerings only).
    """

    __slots__ = ("name", "digest", "heat_on", "source", "code", "sites",
                 "param_keys", "lines", "entry", "refs")

    def __init__(self, name: str, digest: str, heat_on: bool, source: str,
                 sites: tuple[int, ...], param_keys: tuple[str, ...],
                 lines: tuple[int, ...] = (), entry: str = "_kernel",
                 refs: tuple[str, ...] = ()) -> None:
        self.name = name
        self.digest = digest
        self.heat_on = heat_on
        self.source = source
        self.sites = sites
        self.param_keys = param_keys
        self.lines = lines
        self.entry = entry
        self.refs = refs
        self.code = compile(source, f"<codegen:{name}>", "exec")

    def fault_line(self, exc: BaseException) -> int:
        """Source line of the innermost frame of this code in ``exc``'s
        traceback (0 when the fault was raised elsewhere)."""
        line = 0
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == self.code.co_filename:
                line = self.lines[tb.tb_lineno - 2]
            tb = tb.tb_next
        return line


class ScalarEmitter:
    """Emits the per-thread Python function for one kernel."""

    def __init__(self, fn: A.FunctionDef, res: Resolution,
                 heat_on: bool) -> None:
        self.fn = fn
        self.res = res
        self.heat_on = heat_on
        self.lines: list[str] = []
        #: Source line of each entry of ``lines``.
        self.line_of: list[int] = []
        self.depth = 1
        self.ntmp = 0
        self.sites: list[int] = []
        self.cur_line = 0
        self.loop_stack: list[dict] = []

    # -- writer helpers ------------------------------------------------- #

    def w(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)
        self.line_of.append(self.cur_line)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def bail(self, why: str):
        raise CodegenBail(why)

    def _key(self, ctype: CType) -> str:
        return dtype_key(ctype)

    def _site(self) -> int:
        if self.heat_on and not self.cur_line:
            self.bail("trace without source line (heat attribution)")
        i = len(self.sites)
        self.sites.append(self.cur_line)
        return i

    def site_arg(self) -> str:
        """Code for the heat-site argument of the next trace call."""
        return f"_S{self._site()}"

    # -- entry ----------------------------------------------------------- #

    def emit(self, digest: str) -> CompiledKernel:
        fn = self.fn
        param_keys = []
        for sym in self.res.params:
            param_keys.append(self._key(sym.ctype))
        self.stmt(fn.body)
        if not self.lines:
            self.w("pass")
        params = "".join(f", {s.pyname}" for s in self.res.params)
        header = f"def _kernel(_bx, _tx, _bd, _gd{params}):"
        source = header + "\n" + "\n".join(self.lines) + "\n"
        return CompiledKernel(fn.name, digest, self.heat_on,
                              source, tuple(self.sites), tuple(param_keys),
                              tuple(self.line_of))

    # -- statements ------------------------------------------------------ #

    def stmt(self, s: A.Stmt) -> None:
        if s.line:
            self.cur_line = s.line
        t = type(s)
        if t is A.Block:
            for x in s.stmts:
                self.stmt(x)
        elif t is A.ExprStmt:
            self.expr(s.expr)
        elif t is A.DeclStmt:
            self.decl(s)
        elif t is A.If:
            self.stmt_if(s)
        elif t is A.While:
            self.stmt_while(s)
        elif t is A.DoWhile:
            self.stmt_do_while(s)
        elif t is A.For:
            self.stmt_for(s)
        elif t is A.Return:
            if s.value is not None:
                self.expr(s.value)
            self.w("return")
        elif t is A.Break:
            self.emit_break()
        elif t is A.Continue:
            self.emit_continue()
        elif t in (A.Pragma, A.Directive):
            pass
        else:
            self.bail(f"cannot compile {t.__name__}")

    def decl(self, s: A.DeclStmt) -> None:
        for d in s.decls:
            sym = self.res.map.get(id(d))
            if sym is None:
                self.bail(f"unresolved declaration {d.name!r}")
            if isinstance(d.ctype, (StructType, Array)):
                self.bail("aggregate local variable")
            key = self._key(d.ctype)
            if d.init is not None:
                code, _ = self.expr(d.init)
                self.store_sym(sym, code)
            else:
                self.w(f"{sym.pyname} = " + ("0.0" if key[0] == "f" else "0"))

    def load_sym(self, sym: Symbol) -> str:
        """Code reading local ``sym``'s current value."""
        return sym.pyname

    def store_sym(self, sym: Symbol, code: str) -> None:
        """Assign ``code`` to local ``sym``, wrapped like a memory store."""
        self.w(f"{sym.pyname} = _w_{self._key(sym.ctype)}({code})")

    def _indented(self, body_fn) -> None:
        self.depth += 1
        mark = len(self.lines)
        body_fn()
        if len(self.lines) == mark:
            self.w("pass")
        self.depth -= 1

    def stmt_if(self, s: A.If) -> None:
        cond, _ = self.expr(s.cond)
        self.w(f"if {cond}:")
        self._indented(lambda: self.stmt(s.then))
        if s.other is not None:
            self.w("else:")
            self._indented(lambda: self.stmt(s.other))

    def _check_loop_expr(self, e) -> None:
        """Called right before a loop condition/step is lowered.

        Heat sites are compile-time line constants; the interpreter's
        line at loop-condition/step evaluation is the *last executed body
        statement's* line, which is iteration-dependent.  Bail rather than
        mis-attribute."""
        if self.heat_on and e is not None and _has_trace_call(e):
            self.bail("traced access in loop condition/step")

    def stmt_while(self, s: A.While) -> None:
        self.w("while True:")
        self.depth += 1
        self._check_loop_expr(s.cond)
        cond, _ = self.expr(s.cond)
        self.w(f"if not {cond}:")
        self.depth += 1
        self.w("break")
        self.depth -= 1
        self.loop_stack.append({"break": "break", "continue": "continue"})
        self.stmt(s.body)
        self.loop_stack.pop()
        self.depth -= 1

    def stmt_do_while(self, s: A.DoWhile) -> None:
        self.w("while True:")
        self.depth += 1
        self._tail_loop_body(s.body)
        self._check_loop_expr(s.cond)
        cond, _ = self.expr(s.cond)
        self.w(f"if not {cond}:")
        self.depth += 1
        self.w("break")
        self.depth -= 1
        self.depth -= 1

    def stmt_for(self, s: A.For) -> None:
        if s.init is not None:
            self.stmt(s.init)
        self.w("while True:")
        self.depth += 1
        if s.cond is not None:
            self._check_loop_expr(s.cond)
            cond, _ = self.expr(s.cond)
            self.w(f"if not {cond}:")
            self.depth += 1
            self.w("break")
            self.depth -= 1
        self._tail_loop_body(s.body)
        if s.step is not None:
            self._check_loop_expr(s.step)
            self.expr(s.step)
        self.depth -= 1

    def _tail_loop_body(self, body: A.Stmt) -> None:
        """Loop body whose ``continue`` must fall through to trailing
        statements (the ``for`` step / ``do-while`` condition): wrap in a
        run-once inner loop so ``continue`` lowers to ``break``."""
        has_break, has_continue = _scan_break_continue(body)
        if not has_continue:
            self.loop_stack.append({"break": "break", "continue": None})
            self.stmt(body)
            self.loop_stack.pop()
            return
        flag = self.tmp() if has_break else None
        if flag is not None:
            self.w(f"{flag} = 0")
        once = self.tmp()
        self.w(f"for {once} in (0,):")
        self.depth += 1
        mark = len(self.lines)
        self.loop_stack.append({"break": flag or "break", "continue": "break"})
        self.stmt(body)
        self.loop_stack.pop()
        if len(self.lines) == mark:
            self.w("pass")
        self.depth -= 1
        if flag is not None:
            self.w(f"if {flag}:")
            self.depth += 1
            self.w("break")
            self.depth -= 1

    def emit_break(self) -> None:
        if not self.loop_stack:
            self.bail("break outside loop")
        kind = self.loop_stack[-1]["break"]
        if kind == "break":
            self.w("break")
        else:  # flag variable: exit the run-once wrapper, then the loop
            self.w(f"{kind} = 1")
            self.w("break")

    def emit_continue(self) -> None:
        if not self.loop_stack:
            self.bail("continue outside loop")
        kind = self.loop_stack[-1]["continue"]
        if kind is None:
            self.bail("continue outside loop")
        self.w(kind)

    # -- expressions ----------------------------------------------------- #

    def expr(self, e: A.Expr) -> tuple[str, CType | None]:
        t = type(e)
        if t is A.IntLit:
            return repr(e.value), None
        if t is A.FloatLit:
            return repr(e.value), None
        if t is A.BoolLit:
            return str(int(e.value)), None
        if t is A.NullLit:
            return "0", None
        if t is A.CharLit:
            body = e.text[1:-1].encode().decode("unicode_escape")
            return str(ord(body)), None
        if t is A.StringLit:
            return repr(e.text[1:-1]), None
        if t is A.Ident:
            return self.e_ident(e)
        if t is A.Member:
            return self.e_member(e)
        if t is A.Index:
            return self.e_place(e)
        if t is A.Unary:
            return self.e_unary(e)
        if t is A.Binary:
            return self.e_binary(e)
        if t is A.Assign:
            return self.e_assign(e)
        if t is A.Ternary:
            return self.e_ternary(e)
        if t is A.Call:
            return self.e_call(e)
        if t is A.Cast:
            return self.e_cast(e)
        if t is A.SizeofType:
            return str(e.ctype.size), None
        return self.bail(f"cannot compile {t.__name__} expression")

    def e_ident(self, e: A.Ident) -> tuple[str, CType | None]:
        sym = self.res.map.get(id(e))
        if sym is None:
            self.bail(f"unresolved identifier {e.name!r}")
        if isinstance(sym.ctype, (StructType, Array)):
            self.bail("aggregate-typed identifier")
        return self.load_sym(sym), sym.ctype

    def e_member(self, e: A.Member) -> tuple[str, CType | None]:
        if not e.arrow and isinstance(e.base, A.Ident) \
                and e.base.name in _DIM_BASES:
            py = DIM_PY.get(f"{e.base.name}_{e.name}")
            if py is None:
                self.bail(f"{e.base.name}.{e.name} (only .x is modeled)")
            return py, None
        return self.bail("struct member access")

    def e_place(self, e: A.Expr) -> tuple[str, CType | None]:
        """Untraced heap read (``a[i]`` / ``*p`` outside instrumentation)."""
        addr, ct = self.addr_of(e)
        key = self._key(ct)
        t = self.tmp()
        self.w(f"{t} = _ld_{key}({addr})")
        return t, ct

    def e_unary(self, e: A.Unary) -> tuple[str, CType | None]:
        op = e.op
        if op == "&":
            return self.bail("address-of")
        if op == "*":
            return self.e_place(e)
        if op in ("++", "--"):
            return self.e_incdec(e)
        code, ct = self.expr(e.operand)
        if op == "-":
            return f"(-{code})", ct
        if op == "+":
            return code, ct
        if op == "!":
            return f"int(not {code})", None
        if op == "~":
            return f"(~int({code}))", ct
        return self.bail(f"unary operator {op!r}")

    def e_incdec(self, e: A.Unary) -> tuple[str, CType | None]:
        sign = "+" if e.op == "++" else "-"
        target = e.operand
        if isinstance(target, A.Ident):
            sym = self.res.map.get(id(target))
            if sym is None:
                self.bail(f"unresolved identifier {target.name!r}")
            ct = sym.ctype
            step = ct.target.size if isinstance(ct, Pointer) else 1
            cur = self.load_sym(sym)
            old = None
            if not e.prefix:
                old = self.tmp()
                self.w(f"{old} = {cur}")
            new = self.tmp()
            self.w(f"{new} = {cur} {sign} {step}")
            self.store_sym(sym, new)
            return (new if e.prefix else old), ct
        addr, ct = self.addr_of(target)
        key = self._key(ct)
        step = ct.target.size if isinstance(ct, Pointer) else 1
        old = self.tmp()
        self.w(f"{old} = _ld_{key}({addr})")
        new = self.tmp()
        self.w(f"{new} = {old} {sign} {step}")
        self.w(f"_st_{key}({addr}, {new})")
        return (new if e.prefix else old), ct

    def e_binary(self, e: A.Binary) -> tuple[str, CType | None]:
        op = e.op
        if op == ",":
            self.expr(e.left)
            return self.expr(e.right)
        if op == "&&":
            lc, _ = self.expr(e.left)
            t = self.tmp()
            self.w(f"if {lc}:")
            self.depth += 1
            rc, _ = self.expr(e.right)
            self.w(f"{t} = int(bool({rc}))")
            self.depth -= 1
            self.w("else:")
            self.depth += 1
            self.w(f"{t} = 0")
            self.depth -= 1
            return t, None
        if op == "||":
            lc, _ = self.expr(e.left)
            t = self.tmp()
            self.w(f"if {lc}:")
            self.depth += 1
            self.w(f"{t} = 1")
            self.depth -= 1
            self.w("else:")
            self.depth += 1
            rc, _ = self.expr(e.right)
            self.w(f"{t} = int(bool({rc}))")
            self.depth -= 1
            return t, None
        lc, lt = self.expr(e.left)
        rc, rt = self.expr(e.right)
        ltp = isinstance(lt, Pointer)
        rtp = isinstance(rt, Pointer)
        if ltp and op in ("+", "-") and not rtp:
            return f"({lc} {op} {rc} * {lt.target.size})", lt
        if rtp and op == "+":
            return f"({rc} + {lc} * {rt.target.size})", rt
        if ltp and rtp and op == "-":
            return f"(({lc} - {rc}) // {lt.target.size})", None
        code = self._binop(op, lc, rc)
        return code, (lt if ltp else (lt if lt is not None else rt))

    _CMP_OPS = ("==", "!=", "<", ">", "<=", ">=")
    _BIT_OPS = ("&", "|", "^", "<<", ">>")

    def _binop(self, op: str, a: str, b: str) -> str:
        if op in ("+", "-", "*"):
            return f"({a} {op} {b})"
        if op == "/":
            return f"_cdiv({a}, {b})"
        if op == "%":
            return f"_cmod({a}, {b})"
        if op in self._CMP_OPS:
            return f"int({a} {op} {b})"
        if op in self._BIT_OPS:
            return f"(int({a}) {op} int({b}))"
        return self.bail(f"binary operator {op!r}")

    def e_assign(self, e: A.Assign) -> tuple[str, CType | None]:
        vc, _ = self.expr(e.value)
        tv = self.tmp()
        self.w(f"{tv} = {vc}")
        target = e.target
        if isinstance(target, A.Ident):
            sym = self.res.map.get(id(target))
            if sym is None:
                self.bail(f"unresolved identifier {target.name!r}")
            ct = sym.ctype
            if e.op == "=":
                new = tv
            else:
                op = e.op[:-1]
                val = tv
                if isinstance(ct, Pointer) and op in ("+", "-"):
                    val = f"({tv} * {ct.target.size})"
                new = self.tmp()
                self.w(f"{new} = {self._binop(op, self.load_sym(sym), val)}")
            self.store_sym(sym, new)
            return new, ct
        addr, ct = self.addr_of(target)
        key = self._key(ct)
        if e.op == "=":
            new = tv
        else:
            op = e.op[:-1]
            old = self.tmp()
            self.w(f"{old} = _ld_{key}({addr})")
            val = tv
            if isinstance(ct, Pointer) and op in ("+", "-"):
                val = f"({tv} * {ct.target.size})"
            new = self.tmp()
            self.w(f"{new} = {self._binop(op, old, val)}")
        self.w(f"_st_{key}({addr}, {new})")
        return new, ct

    def e_ternary(self, e: A.Ternary) -> tuple[str, CType | None]:
        cc, _ = self.expr(e.cond)
        t = self.tmp()
        self.w(f"if {cc}:")
        self.depth += 1
        tc, tt = self.expr(e.then)
        self.w(f"{t} = {tc}")
        self.depth -= 1
        self.w("else:")
        self.depth += 1
        oc, ot = self.expr(e.other)
        self.w(f"{t} = {oc}")
        self.depth -= 1
        ttp = isinstance(tt, Pointer)
        otp = isinstance(ot, Pointer)
        if ttp != otp:
            self.bail("ternary mixing pointer and non-pointer")
        if ttp and tt.target.size != ot.target.size:
            self.bail("ternary mixing pointer target sizes")
        return t, (tt if tt is not None else ot)

    def e_cast(self, e: A.Cast) -> tuple[str, CType | None]:
        code, _ = self.expr(e.operand)
        if isinstance(e.ctype, Pointer):
            return f"int({code})", e.ctype
        if isinstance(e.ctype, Primitive) and not e.ctype.is_float:
            return f"int({code})", e.ctype
        return f"float({code})", e.ctype

    def e_call(self, e: A.Call) -> tuple[str, CType | None]:
        if not isinstance(e.callee, A.Ident):
            return self.bail("indirect call")
        name = e.callee.name
        if name in _TRACE_NAMES:
            addr, ct = self.addr_of(e)
            key = self._key(ct)
            t = self.tmp()
            self.w(f"{t} = _ld_{key}({addr})")
            return t, ct
        if name == "printf":
            args = [self.expr(a)[0] for a in e.args]
            self.w(f"_printf({', '.join(args)})")
            return "0", None
        return self.bail(f"call to {name!r} inside kernel")

    # -- lvalue addresses ------------------------------------------------ #

    def addr_of(self, e: A.Expr) -> tuple[str, CType]:
        """Lower an lvalue to its address code, firing any trace wrapper
        exactly where the interpreter's ``lvalue()`` would."""
        t = type(e)
        if t is A.Call:
            if not (isinstance(e.callee, A.Ident)
                    and e.callee.name in _TRACE_NAMES):
                self.bail("call is not an l-value")
            addr, ct = self.addr_of(e.args[0])
            ta = self.tmp()
            self.w(f"{ta} = {addr}")
            size = max(1, ct.size)
            trace = TRACE_PY[e.callee.name]
            if self.heat_on:
                self.w(f"{trace}({ta}, {size}, {self.site_arg()})")
            else:
                self.w(f"{trace}({ta}, {size})")
            return ta, ct
        if t is A.Index:
            bc, bt = self.expr(e.base)
            ic, _ = self.expr(e.index)
            if not isinstance(bt, Pointer):
                self.bail("indexing a non-pointer value")
            return f"(int({bc}) + int({ic}) * {bt.target.size})", bt.target
        if t is A.Unary and e.op == "*":
            oc, ot = self.expr(e.operand)
            if not isinstance(ot, Pointer):
                self.bail("dereference of statically non-pointer value")
            return f"int({oc})", ot.target
        if t is A.Cast:
            return self.addr_of(e.operand)
        return self.bail(f"unsupported l-value {t.__name__}")


def _has_trace_call(e) -> bool:
    """Does this expression contain an instrumented trace wrapper?"""
    t = type(e)
    if t is A.Call:
        if isinstance(e.callee, A.Ident) and e.callee.name in _TRACE_NAMES:
            return True
        return any(_has_trace_call(a) for a in e.args)
    if t is A.Unary:
        return _has_trace_call(e.operand)
    if t is A.Binary:
        return _has_trace_call(e.left) or _has_trace_call(e.right)
    if t is A.Assign:
        return _has_trace_call(e.target) or _has_trace_call(e.value)
    if t is A.Ternary:
        return (_has_trace_call(e.cond) or _has_trace_call(e.then)
                or _has_trace_call(e.other))
    if t is A.Index:
        return _has_trace_call(e.base) or _has_trace_call(e.index)
    if t is A.Cast:
        return _has_trace_call(e.operand)
    return False


def _scan_break_continue(s) -> tuple[bool, bool]:
    """(has_break, has_continue) at this loop's own level (nested loops
    consume their own break/continue)."""
    t = type(s)
    if t in (A.While, A.DoWhile, A.For):
        return False, False
    if t is A.Break:
        return True, False
    if t is A.Continue:
        return False, True
    if t is A.Block:
        hb = hc = False
        for x in s.stmts:
            b, c = _scan_break_continue(x)
            hb |= b
            hc |= c
        return hb, hc
    if t is A.If:
        hb, hc = _scan_break_continue(s.then)
        if s.other is not None:
            b, c = _scan_break_continue(s.other)
            hb |= b
            hc |= c
        return hb, hc
    return False, False


# --------------------------------------------------------------------- #
# memoized compilation

#: (digest, heat_on) -> CompiledKernel or the CodegenBail that stopped it.
_SCALAR_CACHE: dict[tuple[str, bool], CompiledKernel | CodegenBail] = {}


def compile_scalar(fn: A.FunctionDef, heat_on: bool) -> CompiledKernel:
    """Compile (or fetch) the scalar lowering of ``fn``.

    Raises :class:`CodegenBail` (cached, so repeated launches of an
    uncompilable kernel pay one analysis, not one per launch).
    """
    digest = kernel_digest(fn)
    key = (digest, bool(heat_on))
    hit = _SCALAR_CACHE.get(key)
    if hit is not None:
        if isinstance(hit, CodegenBail):
            raise hit
        return hit
    try:
        if fn.body is None:
            raise CodegenBail("kernel without a body")
        res = resolve_kernel(fn)
        compiled = ScalarEmitter(fn, res, bool(heat_on)).emit(digest)
    except CodegenBail as bail:
        _SCALAR_CACHE[key] = bail
        raise
    _SCALAR_CACHE[key] = compiled
    return compiled
