"""Compiled host functions: the scalar emitter applied to host code.

:class:`HostEmitter` lowers one host ``FunctionDef`` (``main`` and its
helpers) through :class:`~repro.codegen.emitter.ScalarEmitter`'s
expression, loop and trace lowering.  What host code adds:

* builtin calls (``cuda*``/``trc*``, ``traceKernelLaunch``,
  ``tracePrint``, ``printf``, ``malloc``/``free``) run the interpreter's
  own ``_call_builtin``; ``XplAllocData`` its ``_alloc_data``; calls to
  program functions go through ``_invoke``, so a callee runs compiled or
  tree-walked, whichever applies to it;
* every parameter and every executed declaration still takes its host
  cell from the interpreter's pool, in the interpreter's order, so every
  host address (``new``, ``malloc``, ``%p``) is unchanged.  Address-taken
  locals (``(void**)&p``) and arrays live in those cells; other locals
  stay Python variables;
* each statement stores its line in ``interp._line`` as the interpreter
  does, so error sites, call-site lines and heat sites that depend on the
  last executed line (loop conditions, traces after a call) all match.

Functions it cannot lower (struct values, globals, undefined names,
``threadIdx`` outside a kernel, ...) raise :class:`CodegenBail` and are
tree-walked instead.  Each host function counts once per interpreter in
``Tracer.backend_info()["host"]`` under the tier that runs it.

A data-parallel ``for`` loop (:func:`_loop_shape`, then a body the
vectorizer can lower without writing an outer local) is also emitted as
a 1-D grid: under ``auto``/``codegen-vec`` each execution first runs as
a :class:`~repro.codegen.gridexec.HostLoopRun`, one lane per iteration,
through the vectorizer's expression lowering; any exception restores the
values and runs the scalar loop from its first iteration.  Every host
loop execution counts in ``backend_info()["host_loops"]`` under the tier
that ran it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import fields as _dataclass_fields
from functools import partial

from ..heatmap.store import SourceSite
from ..instrument import ast_nodes as A
from ..instrument.typesys import Array, Pointer, Primitive, StructType
from ..interp.interpreter import _ALLOCATORS, alloc_label
from ..interp.values import InterpError, _typed_view
from .backend import _tracer_eligible, bind, memoized
from .emitter import (
    _TRACE_NAMES,
    DTYPES,
    CodegenBail,
    CompiledKernel,
    ScalarEmitter,
    Symbol,
    kernel_digest,
    resolve_kernel,
)
from .gridexec import HostLoopRun
from .memo import LRU
from .vectorize import VecEmitter, analyze_body

__all__ = ["HostEmitter", "bind_host", "compile_host"]


def _nodes(node):
    """Every AST node under ``node`` (itself included)."""
    stack = [node]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, A.Node):
            yield x
            stack.extend(getattr(x, f.name) for f in _dataclass_fields(x))


def _address_taken(fn: A.FunctionDef, res) -> set[Symbol]:
    """Scalar locals whose address is taken (``&x``, through casts)."""
    out: set[Symbol] = set()
    for node in _nodes(fn.body):
        if type(node) is A.Unary and node.op == "&":
            inner = node.operand
            while type(inner) is A.Cast:
                inner = inner.operand
            sym = res.map.get(id(inner))
            if sym is not None and type(sym.ctype) is not Array:
                out.add(sym)
    return out


class HostEmitter(ScalarEmitter):
    """Emits ``_host(_I, params)`` for one host function, where ``_I`` is
    the calling interpreter."""

    def __init__(self, fn: A.FunctionDef, res, heat_on: bool,
                 functions: dict[str, A.FunctionDef],
                 global_names) -> None:
        super().__init__(fn, res, heat_on)
        self.functions = functions
        self.global_names = global_names
        #: Memory-backed scalars: ``A<py>`` holds the address, ``C<py>``
        #: a typed view of the cell.
        self.cells = _address_taken(fn, res)
        self.refs: set[str] = set()
        #: Is ``interp._line`` statically ``cur_line`` here?  False in
        #: loop conditions/steps and after calls, which may run code.
        self.line_known = False

    def emit(self, digest: str) -> CompiledKernel:
        fn = self.fn
        for sym in self.res.params:
            self.alloc_cell(sym)
            self.store_sym(sym, sym.pyname)
        self.stmt(fn.body)
        if not self.lines:
            self.w("pass")
        params = "".join(f", {s.pyname}" for s in self.res.params)
        header = f"def _host(_I{params}):"
        source = header + "\n" + "\n".join(self.lines) + "\n"
        return CompiledKernel(fn.name, digest, self.heat_on, source,
                              tuple(self.sites), (), tuple(self.line_of),
                              entry="_host", refs=tuple(sorted(self.refs)))

    def ref(self, name: str) -> str:
        self.refs.add(name)
        return f"_F_{name}"

    # -- lines and heat sites -------------------------------------------- #

    def mark_line(self, line: int) -> None:
        self.cur_line = line
        self.line_known = True
        prefix = "    " * self.depth + "_I._line = "
        if self.lines and self.lines[-1].startswith(prefix):
            # Nothing ran since the previous store: overwrite it.
            self.lines[-1] = prefix + str(line)
            self.line_of[-1] = line
        else:
            self.w(f"_I._line = {line}")

    def site_arg(self) -> str:
        if self.line_known:
            return super().site_arg()
        return "_SITE(_I._line)"

    def _check_loop_expr(self, e) -> None:
        self.line_known = False

    # -- statements and locals ------------------------------------------- #

    def stmt(self, s: A.Stmt) -> None:
        if s.line:
            self.mark_line(s.line)
        else:
            self.line_known = False
        if type(s) is A.Return:
            if s.value is None:
                self.w("return")
            else:
                code, _ = self.expr(s.value)
                self.w(f"return {code}")
            return
        super().stmt(s)

    def stmt_while(self, s: A.While) -> None:
        self.w("_HLN('codegen')")
        super().stmt_while(s)

    def stmt_do_while(self, s: A.DoWhile) -> None:
        self.w("_HLN('codegen')")
        super().stmt_do_while(s)

    def stmt_for(self, s: A.For) -> None:
        shape = _loop_shape(s, self)
        if shape is None:
            self.w("_HLN('codegen')")
            super().stmt_for(s)
            return
        self.stmt(s.init)
        mark = len(self.lines), len(self.sites), self.ntmp, self.depth
        try:
            self.grid_for(s, *shape)
        except CodegenBail:
            del self.lines[mark[0]:]
            del self.line_of[mark[0]:]
            del self.sites[mark[1]:]
            self.ntmp, self.depth = mark[2], mark[3]
            self.w("_HLN('codegen')")
            self.for_loop(s)
        self.line_known = False

    def grid_for(self, s: A.For, ind: Symbol, op: str, bound: A.Expr,
                 step: int) -> None:
        """Try ``s`` as a 1-D grid (:class:`HostLoopRun`), one lane per
        iteration; on any exception restore and run the scalar loop
        from the first iteration."""
        self.w("_VR = None")
        self.w("try:")
        self.depth += 1
        bc, _ = self.expr(bound)
        self.w(f"_VR = _HLOOP(_I, {ind.pyname}, {bc}, {step}, {op!r}, "
               f"{self._key(ind.ctype)!r}, _SITES)")
        self.w("if _VR is not None:")
        self.depth += 1
        line = self.tmp()
        self.w(f"{line} = _I._line")
        loop = _LoopEmitter(self, s, ind, line)
        loop.stmt(s.body)
        self.ntmp = loop.ntmp
        cells = list(dict.fromkeys(_cells_in(bound, self) + loop.cells))
        self.w("_VR.finish(("
               + "".join(f"A{c.pyname}, " for c in cells) + "))")
        self.depth -= 2
        self.w("except Exception:")
        self.w("    if _VR is not None:")
        self.w("        _VR.restore()")
        self.w("    _VR = None")
        self.w("if _VR is not None:")
        self.w(f"    _I._line = {line}")
        self.w("else:")
        self.depth += 1
        self.w("_HLN('codegen')")
        self.for_loop(s)
        self.depth -= 1

    def alloc_cell(self, sym: Symbol) -> None:
        """Take ``sym``'s host cell, as the interpreter's ``_alloc_local``."""
        ct = sym.ctype
        size = max(1, ct.size)
        if type(ct) is StructType:
            self.bail("struct-typed local")
        if type(ct) is Array:
            self.w(f"{sym.pyname} = "
                   f"_I._alloc_cell({sym.name!r}, {size}).base")
            return
        key = self._key(ct)
        if sym in self.cells:
            self.w(f"A{sym.pyname}, C{sym.pyname} = "
                   f"_cellv(_I, {sym.name!r}, {size}, {key!r})")
        else:
            self.w(f"_I._alloc_cell({sym.name!r}, {size})")

    def decl(self, s: A.DeclStmt) -> None:
        for d in s.decls:
            sym = self.res.map.get(id(d))
            if sym is None:
                self.bail(f"unresolved declaration {d.name!r}")
            self.alloc_cell(sym)
            if d.init is not None:
                if type(d.ctype) is Array:
                    self.bail("array initializer")
                code, _ = self.expr(d.init)
                self.store_sym(sym, code)
            elif sym not in self.cells and type(d.ctype) is not Array:
                zero = "0.0" if self._key(d.ctype)[0] == "f" else "0"
                self.w(f"{sym.pyname} = {zero}")

    def load_sym(self, sym: Symbol) -> str:
        if sym in self.cells:
            t = self.tmp()
            self.w(f"{t} = C{sym.pyname}.item(0)")
            return t
        return sym.pyname

    def store_sym(self, sym: Symbol, code: str) -> None:
        if sym in self.cells:
            self.w(f"C{sym.pyname}[0] = _w_{self._key(sym.ctype)}({code})")
        else:
            super().store_sym(sym, code)

    # -- expressions ------------------------------------------------------ #

    def expr(self, e: A.Expr):
        t = type(e)
        if t is A.KernelLaunch:
            return self.e_launch(e)
        if t is A.NewExpr:
            return self.e_new(e)
        if t is A.SizeofExpr:
            return self.e_sizeof(e)
        if t is A.Raw:
            return repr(e.text), None
        return super().expr(e)

    def e_ident(self, e: A.Ident):
        sym = self.res.map.get(id(e))
        if sym is not None:
            if type(sym.ctype) is Array:
                return sym.pyname, Pointer(sym.ctype.element)  # decay
            return super().e_ident(e)
        if e.name in self.global_names:
            return self.bail(f"global variable {e.name!r}")
        if e.name in self.functions:
            return self.ref(e.name), None
        return self.bail(f"undefined identifier {e.name!r}")

    def e_member(self, e: A.Member):
        return self.bail("member access in host code")

    def e_unary(self, e: A.Unary):
        if e.op == "&":
            addr, ct = self.addr_of(e.operand)
            return addr, Pointer(ct)
        if e.op == "delete":
            code, _ = self.expr(e.operand)
            self.w(f"_I._free_addr(int({code}))")
            return "None", None
        return super().e_unary(e)

    def addr_of(self, e: A.Expr):
        if type(e) is A.Ident:
            sym = self.res.map.get(id(e))
            if sym is not None and type(sym.ctype) is Array:
                return sym.pyname, sym.ctype
            if sym is None or sym not in self.cells:
                self.bail(f"address of {e.name!r}")
            return f"A{sym.pyname}", sym.ctype
        return super().addr_of(e)

    def e_call(self, e: A.Call):
        if not isinstance(e.callee, A.Ident):
            return self.bail("indirect call")
        name = e.callee.name
        if name in _TRACE_NAMES:
            return super().e_call(e)
        t = self.tmp()
        if name == "XplAllocData":
            if len(e.args) < 3:
                self.bail("XplAllocData needs three arguments")
            args = ", ".join(self.expr(a)[0] for a in e.args[:3])
            self.w(f"{t} = _I._alloc_data({args})")
            return t, None
        args = ", ".join(self.expr(a)[0] for a in e.args)
        fn = self.functions.get(name)
        if fn is not None and fn.body is not None:
            self.w(f"{t} = _I._invoke({self.ref(name)}, [{args}])")
            rtype = fn.return_type
        else:
            label = alloc_label(e.args) if name in _ALLOCATORS else "managed"
            self.w(f"{t} = _I._call_builtin({name!r}, [{args}], {label!r})")
            rtype = None
        self.line_known = False
        return t, rtype

    def e_launch(self, e: A.KernelLaunch):
        if not isinstance(e.kernel, A.Ident):
            return self.bail("kernel launch needs a direct kernel name")
        grid, block = self.tmp(), self.tmp()
        self.w(f"{grid} = int({self.expr(e.grid)[0]})")
        self.w(f"{block} = int({self.expr(e.block)[0]})")
        kernel = self.functions.get(e.kernel.name)
        if kernel is None or kernel.body is None:
            self.bail(f"undefined kernel {e.kernel.name!r}")
        args = ", ".join(self.expr(a)[0] for a in e.args)
        self.w(f"_I._run_kernel({self.ref(kernel.name)}, {grid}, {block}, "
               f"[{args}])")
        self.line_known = False
        return "None", None

    def e_new(self, e: A.NewExpr):
        count = "1"
        if e.count is not None:
            count = f"int({self.expr(e.count)[0]})"
        t = self.tmp()
        self.w(f"{t} = _I._heap_alloc(max(1, {e.ctype.size} * {count}), "
               "'new')")
        if e.init is not None:
            value, _ = self.expr(e.init)
            self.w(f"_st_{self._key(e.ctype)}({t}, {value})")
        return t, Pointer(e.ctype)

    def e_sizeof(self, e: A.SizeofExpr):
        """``sizeof expr`` evaluates its operand, as the interpreter does."""
        self.w("try:")
        self.depth += 1
        code, ct = self.expr(e.operand)
        self.w(f"{self.tmp()} = {code}")
        self.depth -= 1
        self.w("except InterpError:")
        self.w("    raise InterpError("
               "'cannot compute sizeof of untyped expression')")
        if ct is None:
            self.bail("sizeof of an untyped expression")
        return str(ct.size), None


# --------------------------------------------------------------------- #
# host loops as 1-D grids

#: Statements a grid loop's body may not contain.
_NOT_STRAIGHT = (A.While, A.DoWhile, A.For, A.Return, A.Break, A.Continue)

#: Pure expression nodes a grid loop's bound may contain.
_PURE = (A.IntLit, A.FloatLit, A.BoolLit, A.CharLit, A.NullLit, A.Ident,
         A.Binary, A.Unary, A.Cast, A.SizeofType, A.Ternary)

_INT_KEYS = {"i4": (-2 ** 31, 2 ** 31 - 1), "u4": (0, 2 ** 32 - 1),
             "i8": (-2 ** 63, 2 ** 63 - 1)}

_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}


def _cells_in(e: A.Expr, host: "HostEmitter") -> list[Symbol]:
    """Memory-backed locals ``e`` reads."""
    syms = (host.res.map.get(id(x)) for x in _nodes(e)
            if type(x) is A.Ident)
    return [sym for sym in syms if sym in host.cells]


def _loop_shape(s: A.For, host: "HostEmitter"):
    """``(induction symbol, op, bound, step)`` when ``s`` has the shape of
    a grid loop, else ``None``: ``for (int i = e; i <op> bound; i += c)``
    with a pure bound that reads no induction variable, and a body of
    declarations, expression statements and ``if`` with a source line on
    every statement.  What the body computes is vetted by lowering it."""
    init, cond, stp = s.init, s.cond, s.step
    if type(init) is not A.DeclStmt or len(init.decls) != 1:
        return None
    d = init.decls[0]
    ind = host.res.map.get(id(d))
    if (ind is None or d.init is None or ind in host.cells
            or not isinstance(d.ctype, Primitive) or d.ctype.is_float
            or host._key(d.ctype) not in _INT_KEYS):
        return None
    if type(cond) is not A.Binary or cond.op not in _SWAP:
        return None
    op, bound = cond.op, cond.right
    if not (type(cond.left) is A.Ident
            and host.res.map.get(id(cond.left)) is ind):
        op, bound = _SWAP[cond.op], cond.left
        if not (type(cond.right) is A.Ident
                and host.res.map.get(id(cond.right)) is ind):
            return None
    for x in _nodes(bound):
        if not isinstance(x, _PURE) or (
                type(x) is A.Unary and x.op not in ("-", "+", "!", "~")):
            return None
        if type(x) is A.Ident:
            sym = host.res.map.get(id(x))
            if sym is None or sym is ind:
                return None
    step = _step_of(stp, ind, host)
    if not step or (op in ("<", "<=") and step < 0) or (
            op in (">", ">=") and step > 0):
        return None
    for x in _nodes(s.body):
        if isinstance(x, A.Stmt) and (isinstance(x, _NOT_STRAIGHT)
                                      or not x.line):
            return None
    return ind, op, bound, step


def _step_of(e, ind: Symbol, host: "HostEmitter") -> int:
    """The constant step of ``i++``/``--i``/``i += c``/``i -= c`` on the
    induction variable, else 0."""
    if type(e) is A.Unary and e.op in ("++", "--"):
        target, step = e.operand, 1 if e.op == "++" else -1
    elif (type(e) is A.Assign and e.op in ("+=", "-=")
          and type(e.value) is A.IntLit):
        target = e.target
        step = e.value.value if e.op == "+=" else -e.value.value
    else:
        return 0
    if type(target) is not A.Ident or host.res.map.get(id(target)) is not ind:
        return 0
    return step


class _LoopEmitter(VecEmitter):
    """Lowers a grid loop's body into the host function being emitted:
    the induction variable is the lane array ``_VR.iv``, body locals are
    lane arrays or uniform values, and every other local is a uniform
    read (writing one would be loop-carried: bail)."""

    def __init__(self, host: HostEmitter, s: A.For, ind: Symbol,
                 line: str) -> None:
        res = host.res
        for sym in res.symbols:
            sym.varying = False
        ind.varying = True
        analyze_body(s.body, res)
        super().__init__(host.fn, res, has_live=False)
        self.host = host
        self.lines, self.line_of = host.lines, host.line_of
        self.sites = host.sites
        self.depth, self.ntmp = host.depth, host.ntmp
        self.ind = ind
        self.line = line
        self.own = {res.map.get(id(d)) for x in _nodes(s.body)
                    if type(x) is A.DeclStmt for d in x.decls}
        #: Memory-backed locals the body reads (guarded at finish).
        self.cells: list[Symbol] = []

    def stmt(self, s: A.Stmt) -> None:
        # Track the line the interpreter's last iteration leaves in
        # ``_I._line``: the last statement lane n-1 executed.  (The body
        # has no ``return``, the one statement VecEmitter.stmt adds.)
        self._mask_cache = None
        self.cur_line = s.line
        m = self.mask()
        store = f"{self.line} = {s.line}"
        if m != "None":
            self.w(f"if ({m})[-1]: {store}")
        elif self.lines[-1].startswith(
                "    " * self.depth + self.line + " = "):
            self.lines[-1] = "    " * self.depth + store
        else:
            self.w(store)
        ScalarEmitter.stmt(self, s)

    def decl(self, s: A.DeclStmt) -> None:
        for d in s.decls:
            if self.res.map.get(id(d)) in self.host.cells:
                self.bail("address-taken loop local")
            self.w(f"_VR.decl({d.name!r}, {max(1, d.ctype.size)}, "
                   f"{self.mask()})")
        super().decl(s)

    def load_sym(self, sym: Symbol) -> str:
        if sym is self.ind:
            return "_VR.iv"
        if sym in self.host.cells:
            if sym not in self.cells:
                self.cells.append(sym)
            t = self.tmp()
            self.w(f"{t} = C{sym.pyname}.item(0)")
            return t
        return sym.pyname

    def _own(self, target) -> None:
        if type(target) is A.Ident and \
                self.res.map.get(id(target)) not in self.own:
            self.bail("loop-carried scalar")

    def e_assign(self, e: A.Assign):
        self._own(e.target)
        return super().e_assign(e)

    def e_incdec(self, e: A.Unary):
        self._own(e.operand)
        return super().e_incdec(e)

    def e_member(self, e: A.Member):
        return self.bail("member access in a grid loop")


def _host_loop(interp, start, bound, step: int, op: str, key: str, sites):
    """The :class:`HostLoopRun` for one execution of a grid loop, or
    ``None`` to run it scalar: another backend or sampling, no
    iterations, or a trip count the induction type cannot hold."""
    if (interp.backend not in ("auto", "codegen-vec")
            or interp.tracer.sample_mode != "off"):
        return None
    cmp = _CMPS[op]
    if not cmp(start, bound):
        return None
    d = bound - start
    if op == "!=":
        if type(d) is not int or d % step:
            return None
        n = d // step
    elif type(d) is int:
        n = -(-d // step) if op in ("<", ">") else d // step + 1
    else:
        if not math.isfinite(d):
            return None
        q = d / step
        n = math.ceil(q) if op in ("<", ">") else math.floor(q) + 1
    if not 0 < n <= _MAX_LANES:
        return None
    after = start + step * n
    lo, hi = _INT_KEYS[key]
    if (not cmp(start + step * (n - 1), bound) or cmp(after, bound)
            or not lo <= min(start, after) <= max(start, after) <= hi):
        return None
    return HostLoopRun(interp, start, step, n, sites)


_CMPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
         ">=": operator.ge, "!=": operator.ne}

#: Larger trip counts run scalar (lane arrays would cost real memory).
_MAX_LANES = 1 << 20


# --------------------------------------------------------------------- #
# memoized compilation and binding

#: (digest, heat_on, program context) -> CompiledKernel or its bail.
_HOST_CACHE = LRU()


def _context_key(functions: dict[str, A.FunctionDef], global_names) -> tuple:
    """Everything outside ``fn`` that its lowering consults."""
    sigs = tuple((f.name, f.body is not None, f.return_type.spell(),
                  f.return_type.size) for f in functions.values())
    return sigs, tuple(sorted(global_names))


def compile_host(fn: A.FunctionDef, heat_on: bool,
                 functions: dict[str, A.FunctionDef],
                 global_names) -> CompiledKernel:
    """Compile (or fetch) the host lowering of ``fn``; raises
    :class:`CodegenBail` (cached) when it cannot be lowered."""
    digest = kernel_digest(fn)
    key = (digest, bool(heat_on), _context_key(functions, global_names))
    hit = _HOST_CACHE.get(key)
    if hit is None:
        try:
            res = resolve_kernel(fn)
            hit = HostEmitter(fn, res, bool(heat_on), functions,
                              global_names).emit(digest)
        except CodegenBail as bail:
            hit = bail
        _HOST_CACHE[key] = hit
    if isinstance(hit, CodegenBail):
        raise hit
    return hit


def _cellv(interp, name: str, size: int, key: str):
    """A memory-backed local's cell: ``(address, typed view)``."""
    alloc = interp._alloc_cell(name, size)
    return alloc.base, _typed_view(alloc, DTYPES[key])


def _host_globals(interp, ck: CompiledKernel) -> dict:
    # The interpreter itself arrives as the ``_I`` argument: a global
    # would make each interpreter a reference cycle through its memo.
    g = {"InterpError": InterpError, "Exception": Exception, "max": max,
         "_cellv": _cellv, "_SITE": partial(SourceSite, interp.source_name),
         "_HLOOP": _host_loop, "_HLN": interp.tracer.note_host_loop,
         "_SITES": tuple(SourceSite(interp.source_name, line)
                         for line in ck.sites) if ck.heat_on else None}
    for name in ck.refs:
        g[f"_F_{name}"] = interp.functions[name]
    return g


def _build_host(interp, fn: A.FunctionDef, heat_on: bool):
    try:
        if not _tracer_eligible(interp.tracer):
            raise CodegenBail("tracer overrides the trace hooks")
        ck = compile_host(fn, heat_on, interp.functions,
                          interp.globals.cells)
        hfn = bind(interp, ck, heat_on, _host_globals(interp, ck))
    except CodegenBail:
        interp.tracer.note_host("interp")
        raise
    interp.tracer.note_host("codegen")
    return hfn


def bind_host(interp, fn: A.FunctionDef):
    """The compiled ``_host`` function for ``fn`` bound to ``interp``, or
    ``None`` to tree-walk it (a bail, or a tracer whose ``trace*``
    methods are overridden).  Decided once per function per interpreter
    and recorded with :meth:`Tracer.note_host`."""
    heat_on = interp.tracer.heat is not None
    try:
        return memoized(interp, fn, "host-heat" if heat_on else "host",
                        lambda: _build_host(interp, fn, heat_on))
    except CodegenBail:
        return None
