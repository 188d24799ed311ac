"""Whole-grid vectorization: lower one kernel to a single numpy pass.

Two stages:

1. A *varying analysis* fixpoint (:func:`analyze_kernel`) marks every
   kernel local whose value can differ between threads (seeded by
   ``threadIdx``/``blockIdx`` uses, propagated through assignments and
   enclosing varying conditions).  Kernels with divergent loops
   (lane-dependent trip counts), divergent ``break``/``continue``, or
   value-returning ``return`` bail -- those need per-thread control flow.

2. :class:`VecEmitter` reuses the scalar emitter's statement lowering but
   emits *lane arrays* for varying values: thread indices are int64
   arrays, guard predicates become boolean masks threaded through every
   heap access and local update, and traced accesses call the
   :class:`repro.codegen.gridexec.VecRun` runtime (``_VR``), which
   records batched shadow/heat plans instead of per-thread trace calls.

Uniform expressions (provably equal across lanes) keep the scalar
lowering -- uniform implies no heap access, because every heap access is
"varying" by definition, so the scalar paths stay side-effect-free.

Compilation is memoized by AST digest alone: heat sites travel as
indices into ``CompiledVecKernel.sites`` and are resolved when the
kernel is bound to an interpreter, so one compilation serves both
heat-on and heat-off runs.
"""

from __future__ import annotations

from ..instrument import ast_nodes as A
from ..instrument.typesys import Pointer, Primitive
from .emitter import (
    _TRACE_NAMES,
    CodegenBail,
    ScalarEmitter,
    _has_trace_call,
    kernel_digest,
    resolve_kernel,
)
from .memo import LRU

__all__ = ["CompiledVecKernel", "analyze_body", "analyze_kernel",
           "compile_vec"]

_DIM_BASES = ("threadIdx", "blockIdx", "blockDim", "gridDim")
_VARYING_DIMS = ("threadIdx", "blockIdx")

#: dtype keys a *varying local* may hold (int64/float64 lane carriers
#: reproduce C semantics exactly for these; others fall back).
_VEC_KEYS = frozenset({"i4", "u4", "f4", "f8"})


def _expr_varying(res):
    """Predicate factory: does this expression's value differ by lane?

    Consistent only once the marking fixpoint has converged (symbols'
    ``varying`` flags are read through ``res``).
    """

    def ev(e) -> bool:
        if e is None:
            return False
        t = type(e)
        if t is A.Ident:
            sym = res.map.get(id(e))
            return sym.varying if sym is not None else False
        if t is A.Member:
            if (not e.arrow and isinstance(e.base, A.Ident)
                    and e.base.name in _DIM_BASES):
                return e.base.name in _VARYING_DIMS
            return True  # struct member: the emitter bails anyway
        if t is A.Index:
            return True  # heap access: per-lane by definition
        if t is A.Unary:
            if e.op == "*":
                return True
            return ev(e.operand)
        if t is A.Call:
            return True  # trace wrapper (per-lane) or unsupported call
        if t is A.Assign:
            if isinstance(e.target, A.Ident):
                sym = res.map.get(id(e.target))
                sv = sym.varying if sym is not None else False
                if e.op == "=":
                    return ev(e.value)
                return sv or ev(e.value)
            if e.op == "=":
                return ev(e.value)
            return True  # heap compound: old value loaded per lane
        if t is A.Ternary:
            return ev(e.cond) or ev(e.then) or ev(e.other)
        if t is A.Binary:
            return ev(e.left) or ev(e.right)
        if t is A.Cast:
            return ev(e.operand)
        return False  # literals, sizeof

    return ev


def analyze_kernel(fn: A.FunctionDef, res) -> bool:
    """Run the varying-marking fixpoint over a kernel's body (see
    :func:`analyze_body`)."""
    return analyze_body(fn.body, res)


def analyze_body(body: A.Stmt, res) -> bool:
    """Run the varying-marking fixpoint; returns ``has_live`` (whether the
    code needs a ``_live`` lane mask for masked early returns).  Symbols
    already marked varying (a host loop's induction variable) seed it.

    ``ctx`` counts the *enclosing varying conditions* at each point.  A
    write makes a symbol varying only when its value is varying or the
    write sits under **more** varying conditions than the declaration did
    (some lanes write, some keep the old value).  Depth comparison is
    exact here: within the declaration's C scope you cannot leave an
    enclosing branch, so equal depth means the identical condition set.
    This keeps the canonical guarded-loop pattern vectorizable --
    ``if (i < n) { for (int k = 0; k < 4; k++) ... }`` has a uniform
    trip count for every *active* lane even though ``k`` lives under a
    varying guard.

    Raises :class:`CodegenBail` (on the final pass only, after the
    fixpoint converged) for control flow the vectorizer cannot mask:
    divergent loops, divergent break/continue, value returns.
    """
    ev = _expr_varying(res)
    state = {"changed": False, "live": False}
    #: id(sym) -> varying depth at declaration (parameters default to 0).
    decl_depth: dict[int, int] = {}

    def mark(sym) -> None:
        if sym is not None and not sym.varying:
            sym.varying = True
            state["changed"] = True

    def written(sym, ctx: int, value_varying: bool) -> None:
        if sym is None:
            return
        if value_varying or ctx > decl_depth.get(id(sym), 0):
            mark(sym)

    def wexpr(e, ctx: int) -> None:
        if e is None:
            return
        t = type(e)
        if t is A.Assign:
            wexpr(e.value, ctx)
            if isinstance(e.target, A.Ident):
                sym = res.map.get(id(e.target))
                vv = ev(e.value) or (e.op != "=" and sym is not None
                                     and sym.varying)
                written(sym, ctx, vv)
            else:
                wexpr(e.target, ctx)
        elif t is A.Unary:
            if e.op in ("++", "--") and isinstance(e.operand, A.Ident):
                sym = res.map.get(id(e.operand))
                written(sym, ctx, sym is not None and sym.varying)
            else:
                wexpr(e.operand, ctx)
        elif t is A.Binary:
            if e.op in ("&&", "||"):
                wexpr(e.left, ctx)
                wexpr(e.right, ctx + (1 if ev(e.left) else 0))
            else:
                wexpr(e.left, ctx)
                wexpr(e.right, ctx)
        elif t is A.Ternary:
            wexpr(e.cond, ctx)
            inner = ctx + (1 if ev(e.cond) else 0)
            wexpr(e.then, inner)
            wexpr(e.other, inner)
        elif t is A.Index:
            wexpr(e.base, ctx)
            wexpr(e.index, ctx)
        elif t is A.Call:
            for a in e.args:
                wexpr(a, ctx)
        elif t is A.Cast:
            wexpr(e.operand, ctx)

    def wstmt(s, ctx: int, loopv, final: bool) -> None:
        # ``loopv``: None outside any loop, else whether a varying
        # condition encloses this point *since the nearest loop entry*
        # (break/continue under one would be divergent).
        if s is None:
            return
        t = type(s)
        if t is A.Block:
            for x in s.stmts:
                wstmt(x, ctx, loopv, final)
        elif t is A.DeclStmt:
            for d in s.decls:
                sym = res.map.get(id(d))
                if sym is not None:
                    decl_depth[id(sym)] = ctx
                if d.init is not None:
                    wexpr(d.init, ctx)
                    if ev(d.init):
                        mark(sym)
        elif t is A.ExprStmt:
            wexpr(s.expr, ctx)
        elif t is A.If:
            wexpr(s.cond, ctx)
            cv = ev(s.cond)
            inner = ctx + (1 if cv else 0)
            lv = None if loopv is None else (loopv or cv)
            wstmt(s.then, inner, lv, final)
            wstmt(s.other, inner, lv, final)
        elif t in (A.While, A.DoWhile):
            wexpr(s.cond, ctx)
            if final and ev(s.cond):
                raise CodegenBail("divergent loop condition")
            wstmt(s.body, ctx, False, final)
        elif t is A.For:
            wstmt(s.init, ctx, loopv, final)
            wexpr(s.cond, ctx)
            if final and s.cond is not None and ev(s.cond):
                raise CodegenBail("divergent loop condition")
            wstmt(s.body, ctx, False, final)
            wexpr(s.step, ctx)
        elif t is A.Return:
            if s.value is not None:
                wexpr(s.value, ctx)
                if final:
                    raise CodegenBail("return with a value")
            if ctx:
                state["live"] = True
        elif t in (A.Break, A.Continue):
            if final:
                if loopv is None:
                    raise CodegenBail("break/continue outside loop")
                if loopv:
                    raise CodegenBail("divergent break/continue")
        # Pragma/Directive: nothing

    while True:
        state["changed"] = False
        state["live"] = False
        decl_depth.clear()
        wstmt(body, 0, None, False)
        if not state["changed"]:
            break
    state["live"] = False
    decl_depth.clear()
    wstmt(body, 0, None, True)
    return state["live"]


class CompiledVecKernel:
    """A vectorized kernel lowering (heat sites resolved at bind time)."""

    __slots__ = ("name", "digest", "source", "code", "sites", "param_keys",
                 "loop_trace")

    entry = "_kernel"

    def __init__(self, name: str, digest: str, source: str,
                 sites: tuple[int, ...], param_keys: tuple[str, ...],
                 loop_trace: bool) -> None:
        self.name = name
        self.digest = digest
        self.source = source
        self.sites = sites
        self.param_keys = param_keys
        #: A trace call sits in a loop condition/step: its heat site line
        #: is iteration-dependent, so heat-on runs must not use this
        #: compilation (the backend falls back to scalar there).
        self.loop_trace = loop_trace
        self.code = compile(source, f"<codegen-vec:{name}>", "exec")


class VecEmitter(ScalarEmitter):
    """Scalar emitter specialized to lane arrays + masks for varying
    values; uniform subtrees fall through to the scalar lowering."""

    def __init__(self, fn: A.FunctionDef, res, has_live: bool) -> None:
        super().__init__(fn, res, heat_on=False)
        self.has_live = has_live
        self.loop_trace = False
        self.conds: list[str] = []
        self._mask_cache: str | None = None
        self._ev = _expr_varying(res)

    # -- masks ----------------------------------------------------------- #

    def push_cond(self, term: str) -> None:
        self.conds.append(term)
        self._mask_cache = None

    def pop_cond(self) -> None:
        self.conds.pop()
        self._mask_cache = None

    def mask(self) -> str:
        if self._mask_cache is not None:
            return self._mask_cache
        parts = (["_live"] if self.has_live else []) + self.conds
        if not parts:
            m = "None"
        elif len(parts) == 1:
            m = parts[0]
        else:
            m = self.tmp()
            self.w(f"{m} = {' & '.join(parts)}")
        self._mask_cache = m
        return m

    # -- overridden infrastructure ---------------------------------------- #

    def _site(self) -> int:
        # Sites are indices resolved at bind time; line-0 sites are
        # legal here (the backend refuses them only when heat is on).
        i = len(self.sites)
        self.sites.append(self.cur_line)
        return i

    def _check_loop_expr(self, e) -> None:
        if e is not None and _has_trace_call(e):
            self.loop_trace = True

    def _vkey(self, ctype) -> str:
        key = self._key(ctype)
        if key in _VEC_KEYS or (key == "u8" and isinstance(ctype, Pointer)):
            return key
        return self.bail(f"varying local of type {ctype.spell()}")

    def emit(self, digest: str) -> CompiledVecKernel:
        fn = self.fn
        param_keys = tuple(self._key(s.ctype) for s in self.res.params)
        if self.has_live:
            self.w("_live = _VR.ones()")
        self.stmt(fn.body)
        if not self.lines:
            self.w("pass")
        params = "".join(f", {s.pyname}" for s in self.res.params)
        header = f"def _kernel(_VR, _bx, _tx, _bd, _gd{params}):"
        source = header + "\n" + "\n".join(self.lines) + "\n"
        return CompiledVecKernel(fn.name, digest, source,
                                 tuple(self.sites), param_keys,
                                 self.loop_trace)

    # -- statements -------------------------------------------------------- #

    def stmt(self, s: A.Stmt) -> None:
        self._mask_cache = None  # temps from an earlier statement may be
        #                          out of scope (loop bodies, branches)
        if type(s) is A.Return:
            if s.line:
                self.cur_line = s.line
            if s.value is not None:
                self.bail("return with a value")
            if not self.conds:
                self.w("return")
            else:
                m = self.mask()
                self.w(f"_live = _live & ~{m}")
                self._mask_cache = None
            return
        super().stmt(s)

    def decl(self, s: A.DeclStmt) -> None:
        from ..instrument.typesys import Array, StructType
        for d in s.decls:
            sym = self.res.map.get(id(d))
            if sym is None:
                self.bail(f"unresolved declaration {d.name!r}")
            if isinstance(d.ctype, (StructType, Array)):
                self.bail("aggregate local variable")
            key = self._key(d.ctype)
            if sym.varying:
                key = self._vkey(d.ctype)
            if d.init is None:
                self.w(f"{sym.pyname} = "
                       + ("0.0" if key[0] == "f" else "0"))
                continue
            code, _ = self.expr(d.init)
            # Unconditional even under a mask: C scoping means the
            # variable is only observable inside the masked region.
            if self._ev(d.init):
                self.w(f"{sym.pyname} = _VR.w_{key}({code})")
            else:
                self.w(f"{sym.pyname} = _w_{key}({code})")

    def stmt_if(self, s: A.If) -> None:
        if not self._ev(s.cond):
            super().stmt_if(s)  # branch bodies re-derive masks per stmt
            return
        cc, _ = self.expr(s.cond)
        tc = self.tmp()
        self.w(f"{tc} = _VR.truthy({cc})")
        self.push_cond(tc)
        self.stmt(s.then)
        self.pop_cond()
        if s.other is not None:
            self.push_cond(f"~{tc}")
            self.stmt(s.other)
            self.pop_cond()

    # -- expressions -------------------------------------------------------- #

    def _vbinop(self, op: str, a: str, b: str) -> str:
        if op in ("+", "-", "*"):
            return f"({a} {op} {b})"
        if op == "/":
            return f"_VR.div({a}, {b}, {self.mask()})"
        if op == "%":
            return f"_VR.mod({a}, {b}, {self.mask()})"
        if op in self._CMP_OPS:
            return f"({a} {op} {b})"
        if op in self._BIT_OPS:
            return f"(_VR.asint({a}) {op} _VR.asint({b}))"
        return self.bail(f"binary operator {op!r}")

    def e_unary(self, e: A.Unary):
        op = e.op
        if op == "&":
            return self.bail("address-of")
        if op == "*":
            return self.e_place(e)
        if op in ("++", "--"):
            return self.e_incdec(e)
        if not self._ev(e.operand):
            return super().e_unary(e)
        code, ct = self.expr(e.operand)
        if op == "-":
            return f"(-{code})", ct
        if op == "+":
            return code, ct
        if op == "!":
            return f"_VR.lnot({code})", None
        if op == "~":
            return f"(~_VR.asint({code}))", ct
        return self.bail(f"unary operator {op!r}")

    def e_binary(self, e: A.Binary):
        op = e.op
        if op == ",":
            self.expr(e.left)
            return self.expr(e.right)
        lvar = self._ev(e.left)
        rvar = self._ev(e.right)
        if op in ("&&", "||"):
            if not lvar and not rvar:
                return super().e_binary(e)
            if not lvar:
                return self._uniform_guard(op, e)
            lc, _ = self.expr(e.left)
            tl = self.tmp()
            self.w(f"{tl} = _VR.truthy({lc})")
            self.push_cond(tl if op == "&&" else f"~{tl}")
            rc, _ = self.expr(e.right)
            self.pop_cond()
            t = self.tmp()
            joiner = "&" if op == "&&" else "|"
            self.w(f"{t} = ({tl} {joiner} _VR.truthy({rc}))")
            return t, None
        if not (lvar or rvar):
            return super().e_binary(e)
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
        code = self._vbinop(op, lc, rc)
        return code, (lt if ltp else (lt if lt is not None else rt))

    def _uniform_guard(self, op: str, e: A.Binary):
        """``uniform && varying`` / ``uniform || varying``: a Python
        ``if`` on the uniform side guards the varying side."""
        lc, _ = self.expr(e.left)
        t = self.tmp()
        taken = "if" if op == "&&" else "else"
        self.w(f"if {lc}:")
        self.depth += 1
        self._mask_cache = None
        if taken == "if":
            rc, _ = self.expr(e.right)
            self.w(f"{t} = _VR.asint(_VR.truthy({rc}))")
        else:
            self.w(f"{t} = 1")
        self.depth -= 1
        self.w("else:")
        self.depth += 1
        self._mask_cache = None
        if taken == "if":
            self.w(f"{t} = 0")
        else:
            rc, _ = self.expr(e.right)
            self.w(f"{t} = _VR.asint(_VR.truthy({rc}))")
        self.depth -= 1
        self._mask_cache = None
        return t, None

    def e_ternary(self, e: A.Ternary):
        if not self._ev(e.cond):
            # Uniform condition: a real Python branch; the untaken side
            # is never evaluated (matches the interpreter).
            cc, _ = self.expr(e.cond)
            t = self.tmp()
            self.w(f"if {cc}:")
            self.depth += 1
            self._mask_cache = None
            tc, tt = self.expr(e.then)
            self.w(f"{t} = {tc}")
            self.depth -= 1
            self.w("else:")
            self.depth += 1
            self._mask_cache = None
            oc, ot = self.expr(e.other)
            self.w(f"{t} = {oc}")
            self.depth -= 1
            self._mask_cache = None
            return t, self._join_ternary(tt, ot)
        cc, _ = self.expr(e.cond)
        tc = self.tmp()
        self.w(f"{tc} = _VR.truthy({cc})")
        self.push_cond(tc)
        tcode, tt = self.expr(e.then)
        self.pop_cond()
        self.push_cond(f"~{tc}")
        ocode, ot = self.expr(e.other)
        self.pop_cond()
        t = self.tmp()
        self.w(f"{t} = _VR.where({tc}, {tcode}, {ocode})")
        return t, self._join_ternary(tt, ot)

    def _join_ternary(self, tt, ot):
        ttp = isinstance(tt, Pointer)
        otp = isinstance(ot, Pointer)
        if ttp != otp:
            self.bail("ternary mixing pointer and non-pointer")
        if ttp and tt.target.size != ot.target.size:
            self.bail("ternary mixing pointer target sizes")
        return tt if tt is not None else ot

    def e_cast(self, e: A.Cast):
        if not self._ev(e.operand):
            return super().e_cast(e)
        code, _ = self.expr(e.operand)
        if isinstance(e.ctype, Pointer) or (
                isinstance(e.ctype, Primitive) and not e.ctype.is_float):
            return f"_VR.asint({code})", e.ctype
        return f"_VR.w_f8({code})", e.ctype

    def e_place(self, e: A.Expr):
        addr, ct = self.vec_addr(e)
        key = self._key(ct)
        t = self.tmp()
        self.w(f"{t} = _VR.ld('{key}', {addr}, {self.mask()})")
        return t, ct

    def e_incdec(self, e: A.Unary):
        sign = "+" if e.op == "++" else "-"
        target = e.operand
        if isinstance(target, A.Ident):
            sym = self.res.map.get(id(target))
            if sym is None:
                self.bail(f"unresolved identifier {target.name!r}")
            if not sym.varying:
                return super().e_incdec(e)
            ct = sym.ctype
            key = self._vkey(ct)
            step = ct.target.size if isinstance(ct, Pointer) else 1
            old = None
            if not e.prefix:
                old = self.tmp()
                self.w(f"{old} = {sym.pyname}")
            new = self.tmp()
            self.w(f"{new} = {sym.pyname} {sign} {step}")
            m = self.mask()
            wrap = f"_VR.w_{key}({new})"
            if m == "None":
                self.w(f"{sym.pyname} = {wrap}")
            else:
                self.w(f"{sym.pyname} = _VR.sel({m}, {wrap}, {sym.pyname})")
            return (new if e.prefix else old), ct
        name = None
        tnode = target
        if isinstance(target, A.Call):
            if not (isinstance(target.callee, A.Ident)
                    and target.callee.name in _TRACE_NAMES):
                self.bail("call is not an l-value")
            name = target.callee.name
            tnode = target.args[0]
        addr, ct = self.vec_addr(tnode)
        key = self._key(ct)
        step = ct.target.size if isinstance(ct, Pointer) else 1
        ta = self.tmp()
        self.w(f"{ta} = {addr}")
        m = self.mask()
        old = self.tmp()
        res = None
        if name == "traceRW":
            res = self.tmp()
            self.w(f"{res}, {old} = _VR.rmw('{key}', {self._site()}, "
                   f"{ta}, {m})")
        elif name == "traceR":
            self.w(f"{old} = _VR.rd('{key}', {self._site()}, {ta}, {m})")
        else:  # traceW or untraced: raw load of the old value
            self.w(f"{old} = _VR.ld('{key}', {ta}, {m})")
        new = self.tmp()
        self.w(f"{new} = {old} {sign} {step}")
        if name == "traceRW":
            self.w(f"_VR.commit({res}, {m}, {new})")
        elif name == "traceW":
            self.w(f"_VR.wr('{key}', {self._site()}, {ta}, {m}, {new})")
        else:
            self.w(f"_VR.st('{key}', {ta}, {m}, {new})")
        return (new if e.prefix else old), ct

    def e_assign(self, e: A.Assign):
        target = e.target
        if isinstance(target, A.Ident):
            sym = self.res.map.get(id(target))
            if sym is None:
                self.bail(f"unresolved identifier {target.name!r}")
            ct = sym.ctype
            vc, _ = self.expr(e.value)
            tv = self.tmp()
            self.w(f"{tv} = {vc}")
            if not sym.varying:
                # Fixpoint guarantees: uniform target => uniform value
                # and uniform enclosing control flow.
                key = self._key(ct)
                if e.op == "=":
                    new = tv
                else:
                    op = e.op[:-1]
                    val = tv
                    if isinstance(ct, Pointer) and op in ("+", "-"):
                        val = f"({tv} * {ct.target.size})"
                    new = self.tmp()
                    self.w(f"{new} = {self._binop(op, sym.pyname, val)}")
                self.w(f"{sym.pyname} = _w_{key}({new})")
                return new, ct
            key = self._vkey(ct)
            nvar = self._ev(e.value)
            if e.op == "=":
                new = tv
            else:
                op = e.op[:-1]
                val = tv
                if isinstance(ct, Pointer) and op in ("+", "-"):
                    val = f"({tv} * {ct.target.size})"
                new = self.tmp()
                self.w(f"{new} = {self._vbinop(op, sym.pyname, val)}")
                nvar = True
            wrap = (f"_VR.w_{key}({new})" if nvar else f"_w_{key}({new})")
            m = self.mask()
            if m == "None":
                self.w(f"{sym.pyname} = {wrap}")
            else:
                self.w(f"{sym.pyname} = _VR.sel({m}, {wrap}, {sym.pyname})")
            return new, ct
        # Heap target (possibly behind a trace wrapper).
        vc, _ = self.expr(e.value)
        tv = self.tmp()
        self.w(f"{tv} = {vc}")
        name = None
        tnode = target
        if isinstance(target, A.Call):
            if not (isinstance(target.callee, A.Ident)
                    and target.callee.name in _TRACE_NAMES):
                self.bail("call is not an l-value")
            name = target.callee.name
            tnode = target.args[0]
        addr, ct = self.vec_addr(tnode)
        key = self._key(ct)
        ta = self.tmp()
        self.w(f"{ta} = {addr}")
        m = self.mask()
        if e.op == "=":
            if name is None:
                self.w(f"_VR.st('{key}', {ta}, {m}, {tv})")
            elif name == "traceW":
                self.w(f"_VR.wr('{key}', {self._site()}, {ta}, {m}, {tv})")
            elif name == "traceR":
                self.w(f"_VR.rd('{key}', {self._site()}, {ta}, {m})")
                self.w(f"_VR.st('{key}', {ta}, {m}, {tv})")
            else:  # traceRW
                r = self.tmp()
                self.w(f"{r}, _ = _VR.rmw('{key}', {self._site()}, "
                       f"{ta}, {m})")
                self.w(f"_VR.commit({r}, {m}, {tv})")
            return tv, ct
        op = e.op[:-1]
        old = self.tmp()
        res = None
        if name == "traceRW":
            res = self.tmp()
            self.w(f"{res}, {old} = _VR.rmw('{key}', {self._site()}, "
                   f"{ta}, {m})")
        elif name == "traceR":
            self.w(f"{old} = _VR.rd('{key}', {self._site()}, {ta}, {m})")
        else:  # traceW or untraced: raw load
            self.w(f"{old} = _VR.ld('{key}', {ta}, {m})")
        val = tv
        if isinstance(ct, Pointer) and op in ("+", "-"):
            val = f"({tv} * {ct.target.size})"
        new = self.tmp()
        self.w(f"{new} = {self._vbinop(op, old, val)}")
        if name == "traceRW":
            self.w(f"_VR.commit({res}, {m}, {new})")
        elif name == "traceW":
            self.w(f"_VR.wr('{key}', {self._site()}, {ta}, {m}, {new})")
        else:
            self.w(f"_VR.st('{key}', {ta}, {m}, {new})")
        return new, ct

    def e_call(self, e: A.Call):
        if not isinstance(e.callee, A.Ident):
            return self.bail("indirect call")
        name = e.callee.name
        if name in _TRACE_NAMES:
            addr, ct = self.vec_addr(e.args[0])
            key = self._key(ct)
            ta = self.tmp()
            self.w(f"{ta} = {addr}")
            m = self.mask()
            t = self.tmp()
            if name == "traceR":
                self.w(f"{t} = _VR.rd('{key}', {self._site()}, {ta}, {m})")
            elif name == "traceRW":
                # RMW event; the value is unchanged, so no commit.
                self.w(f"_, {t} = _VR.rmw('{key}', {self._site()}, "
                       f"{ta}, {m})")
            else:  # traceW as an r-value: W event, raw load of the value
                self.w(f"{t} = _VR.ld('{key}', {ta}, {m})")
                self.w(f"_VR.wr('{key}', {self._site()}, {ta}, {m}, {t})")
            return t, ct
        if name == "printf":
            return self.bail("printf in vectorized kernel")
        return self.bail(f"call to {name!r} inside kernel")

    # -- addresses (no trace firing; callers peel trace wrappers) ---------- #

    def vec_addr(self, e: A.Expr):
        t = type(e)
        if t is A.Index:
            bc, bt = self.expr(e.base)
            ic, _ = self.expr(e.index)
            if not isinstance(bt, Pointer):
                self.bail("indexing a non-pointer value")
            if self._ev(e.base) or self._ev(e.index):
                return (f"(_VR.asint({bc}) + _VR.asint({ic}) "
                        f"* {bt.target.size})"), bt.target
            return (f"(int({bc}) + int({ic}) * {bt.target.size})",
                    bt.target)
        if t is A.Unary and e.op == "*":
            oc, ot = self.expr(e.operand)
            if not isinstance(ot, Pointer):
                self.bail("dereference of statically non-pointer value")
            if self._ev(e.operand):
                return f"_VR.asint({oc})", ot.target
            return f"int({oc})", ot.target
        if t is A.Cast:
            return self.vec_addr(e.operand)
        if t is A.Call:
            return self.bail("nested trace l-value")
        return self.bail(f"unsupported l-value {t.__name__}")

    def addr_of(self, e: A.Expr):  # pragma: no cover - must not be used
        raise AssertionError("VecEmitter lowers l-values via vec_addr")


# --------------------------------------------------------------------- #
# memoized compilation (digest only: sites travel as indices)

#: digest -> CompiledVecKernel or the CodegenBail that stopped it.
_VEC_CACHE = LRU()


def compile_vec(fn: A.FunctionDef) -> CompiledVecKernel:
    """Compile (or fetch) the vectorized lowering of ``fn``; raises
    :class:`CodegenBail` (cached) when it cannot be proven safe."""
    key = kernel_digest(fn)
    hit = _VEC_CACHE.get(key)
    if hit is not None:
        if isinstance(hit, CodegenBail):
            raise hit
        return hit
    try:
        if fn.body is None:
            raise CodegenBail("kernel without a body")
        res = resolve_kernel(fn)
        has_live = analyze_kernel(fn, res)
        compiled = VecEmitter(fn, res, has_live).emit(key)
    except CodegenBail as bail:
        _VEC_CACHE[key] = bail
        raise
    _VEC_CACHE[key] = compiled
    return compiled
