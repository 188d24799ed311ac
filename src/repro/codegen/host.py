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
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields
from functools import partial

from ..heatmap.store import SourceSite
from ..instrument import ast_nodes as A
from ..instrument.typesys import Array, Pointer, StructType
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

__all__ = ["HostEmitter", "bind_host", "compile_host"]


def _address_taken(fn: A.FunctionDef, res) -> set[Symbol]:
    """Scalar locals whose address is taken (``&x``, through casts)."""
    out: set[Symbol] = set()
    stack: list = [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, A.Node):
            if type(node) is A.Unary and node.op == "&":
                inner = node.operand
                while type(inner) is A.Cast:
                    inner = inner.operand
                sym = res.map.get(id(inner))
                if sym is not None and type(sym.ctype) is not Array:
                    out.add(sym)
            stack.extend(getattr(node, f.name)
                         for f in _dataclass_fields(node))
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
# memoized compilation and binding

#: (digest, heat_on, program context) -> CompiledKernel or its bail.
_HOST_CACHE: dict[tuple, CompiledKernel | CodegenBail] = {}


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
    g = {"InterpError": InterpError, "max": max, "_cellv": _cellv,
         "_SITE": partial(SourceSite, interp.source_name)}
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
