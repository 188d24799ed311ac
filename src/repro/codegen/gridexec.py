"""Whole-grid vectorized execution support for compiled kernels.

:class:`VecRun` is the runtime object the vectorized emitter
(:mod:`repro.codegen.vectorize`) generates calls against.  One instance
covers one kernel *launch*: every thread of the grid advances in
lockstep as a lane of int64/float64 numpy arrays, heap accesses become
gathers/scatters, and each traced access is recorded as a *plan* (the
word indices it touched, per lane).  When the kernel body finishes,
:meth:`finish` first proves the launch free of cross-thread data
dependence (:meth:`_check`) and only then applies the batched shadow and
heat updates — all-or-nothing, so a late bail can fall back to the
scalar backend with no half-applied instrumentation.

Values, unlike instrumentation, are applied immediately (scatters write
through to the allocation payloads); :meth:`restore` reverts them from
pre-write snapshots when the run bails.

Repeat launches of one kernel usually address the same words: a
successful launch leaves a :class:`Geometry` record, and the next launch
of that kernel reuses each resolved access whose inputs (address and
mask bytes, allocation identity) are unchanged.  When every access
matches, the dependence proof and the TraceBatcher word count -- pure
functions of the resolved accesses -- are taken from the record too.

:class:`HostLoopRun` runs a host ``for`` loop the same way, one lane per
iteration (see :mod:`repro.codegen.host`).
"""

from __future__ import annotations

import numpy as np

from ..interp.values import _typed_view
from .emitter import DTYPES

__all__ = ["Geometry", "HostLoopRun", "VecBail", "VecRun"]


class VecBail(Exception):
    """Raised when a launch cannot be proven safe to vectorize."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: Access kinds, matching ``repro.codegen.emitter.TRACE_KIND``.
_READ, _WRITE, _RMW = 0, 1, 2


def _merged_chain(lo, hi) -> tuple[int, int]:
    """The batcher's last read/write interval over ``[lo, hi)`` events in
    order (merging on overlap or touch)."""
    run_lo = np.minimum.accumulate(lo)
    run_hi = np.maximum.accumulate(hi)
    if ((lo[1:] <= run_hi[:-1]) & (hi[1:] >= run_lo[:-1])).all():
        return int(run_lo[-1]), int(run_hi[-1])
    cur_lo, cur_hi = int(lo[0]), int(hi[0])
    for s, e in zip(lo[1:].tolist(), hi[1:].tolist()):
        if s <= cur_hi and e >= cur_lo:
            cur_lo, cur_hi = min(cur_lo, s), max(cur_hi, e)
        else:
            cur_lo, cur_hi = s, e
    return cur_lo, cur_hi


def _rmw_chain(lo, hi) -> tuple[int, int, int]:
    """``(first event, lo, hi)`` of the batcher's last RMW interval over
    ``[lo, hi)`` events in order (merging only by extension)."""
    if (lo[1:] == hi[:-1]).all():
        return 0, int(lo[0]), int(hi[-1])
    if (hi[1:] == lo[:-1]).all():
        return 0, int(lo[-1]), int(hi[0])
    first, cur_lo, cur_hi = 0, int(lo[0]), int(hi[0])
    for i, (s, e) in enumerate(zip(lo[1:].tolist(), hi[1:].tolist()), 1):
        if s == cur_hi:
            cur_hi = e
        elif e == cur_lo:
            cur_lo = s
        else:
            first, cur_lo, cur_hi = i, s, e
    return first, cur_lo, cur_hi


class _Res:
    """One resolved (per-launch) heap access: lanes -> elements/words."""

    __slots__ = ("kind", "dt", "size", "alloc", "elem", "words", "lanes",
                 "lane0", "count", "site_i", "traced", "wmin", "wmax",
                 "_uniq", "_elem_unique")

    def __init__(self, kind, dt, size, alloc, elem, words, lanes, lane0,
                 count, site_i, traced):
        self.kind = kind
        self.dt = dt
        self.size = size
        self.alloc = alloc
        self.elem = elem        # element index per active lane
        self.words = words      # shadow word index per touched word
        self.lanes = lanes      # lane id per entry of ``words``
        self.lane0 = lane0      # lane id per entry of ``elem``
        self.count = count      # number of active lanes
        self.site_i = site_i
        self.traced = traced
        self.wmin = int(words.min())
        self.wmax = int(words.max())
        self._uniq = None
        self._elem_unique = None

    @property
    def uniq(self) -> np.ndarray:
        if self._uniq is None:
            self._uniq = np.unique(self.words)
        return self._uniq

    @property
    def elem_unique(self) -> bool:
        """No two active lanes target the same element."""
        if self._elem_unique is None:
            self._elem_unique = self.elem.size == np.unique(self.elem).size
        return self._elem_unique


class Geometry:
    """What one successful launch of a kernel resolved, for the next.

    ``keys[i]``/``res[i]`` are the inputs and the resolved access (or
    ``None`` for an all-masked access) of the i-th heap access in
    statement order; ``smt`` is the per-plan shadow-presence tuple and
    ``seen`` the ``(word count, final chain)`` pair :meth:`VecRun._replay`
    found under it (``None`` when the tracer was off or the batcher held
    a pending interval).  Every field is read-only once built.
    """

    __slots__ = ("shape", "bx", "tx", "keys", "res", "smt", "seen")

    def __init__(self, shape, bx, tx, keys, res, smt, seen) -> None:
        self.shape = shape
        self.bx = bx
        self.tx = tx
        self.keys = keys
        self.res = res
        self.smt = smt
        self.seen = seen


class VecRun:
    """Per-launch state for one vectorized kernel execution."""

    #: Keep the inputs of every access for :meth:`geometry`.
    records = True

    def __init__(self, interp, grid: int, block: int, sites,
                 prev: Geometry | None = None) -> None:
        self.interp = interp
        self.tracer = interp.tracer
        self.space = interp._space
        self.n = grid * block
        if prev is not None and prev.shape != (grid, block):
            prev = None
        if prev is not None:
            self.bx, self.tx = prev.bx, prev.tx
        else:
            self.bx = np.repeat(np.arange(grid, dtype=np.int64), block)
            self.tx = np.tile(np.arange(block, dtype=np.int64), grid)
            self.bx.flags.writeable = False
            self.tx.flags.writeable = False
        self.shape = (grid, block)
        self.sites = sites
        self.plans: list[_Res] = []
        self._snapshots: dict[int, tuple] = {}
        self._finished = False
        self._prev = prev
        #: Every access so far matched ``prev`` at the same position.
        self._hit = prev is not None
        self._keys: list[tuple] = []
        self._res: list[_Res | None] = []
        self._smt: tuple | None = None
        self._seen: tuple | None = None
        #: The whole launch reused ``prev`` (set by :meth:`finish`).
        self.reused = False

    # -- lane helpers ---------------------------------------------------

    def ones(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def truthy(self, x):
        x = np.asarray(x)
        if x.dtype == bool:
            return x
        return x != 0

    def asint(self, x):
        """C integer conversion: bool -> 0/1, float -> trunc toward zero."""
        x = np.asarray(x)
        if x.dtype == bool:
            return x.astype(np.int64)
        if x.dtype.kind == "f":
            return np.trunc(x).astype(np.int64)
        return x.astype(np.int64, copy=False)

    def lnot(self, x):
        return ~self.truthy(x)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def sel(self, mask, new, old):
        """Masked local update: keep ``old`` on inactive lanes."""
        if mask is None:
            return new
        return np.where(mask, new, old)

    def _div_operands(self, a, b, m):
        a_ = np.asarray(a)
        b_ = np.asarray(b)
        bz = np.asarray(b_ == 0)
        if bz.ndim == 0:
            active_zero = bool(bz) and (m is None or bool(np.any(m)))
        elif m is None:
            active_zero = bool(np.any(bz))
        else:
            active_zero = bool(np.any(bz & m))
        if active_zero:
            # The interpreter raises per-thread; reproduce it there.
            raise VecBail("division by zero on an active lane")
        safe = np.where(bz, 1, b_) if bz.ndim or bool(bz) else b_
        isf = a_.dtype.kind == "f" or b_.dtype.kind == "f"
        return a_, safe, isf

    def div(self, a, b, m):
        """C division semantics (truncation toward zero for integers)."""
        a_, safe, isf = self._div_operands(a, b, m)
        if isf:
            return np.asarray(a_, dtype=np.float64) / np.asarray(
                safe, dtype=np.float64)
        ai = self.asint(a_)
        bi = self.asint(safe)
        q = np.abs(ai) // np.abs(bi)
        return np.where((ai >= 0) == (bi >= 0), q, -q)

    def mod(self, a, b, m):
        """C remainder: ``a - cdiv(a, b) * b``."""
        a_, safe, isf = self._div_operands(a, b, m)
        if isf:
            af = np.asarray(a_, dtype=np.float64)
            bf = np.asarray(safe, dtype=np.float64)
            return af - np.trunc(af / bf) * bf
        ai = self.asint(a_)
        bi = self.asint(safe)
        q = np.abs(ai) // np.abs(bi)
        q = np.where((ai >= 0) == (bi >= 0), q, -q)
        return ai - q * bi

    # -- value wraps (vector analogues of the ``_w_*`` scalar wraps) ----

    def _wi(self, x, bits, signed):
        v = self.asint(x)
        if bits >= 64:
            return v
        v = v & ((1 << bits) - 1)
        if signed:
            v = np.where(v >= (1 << (bits - 1)), v - (1 << bits), v)
        return v

    def w_i4(self, x):
        return self._wi(x, 32, True)

    def w_u4(self, x):
        return self._wi(x, 32, False)

    def w_u8(self, x):
        # Pointers ride in int64 lanes; valid programs never go negative.
        return self.asint(x)

    def w_f4(self, x):
        return np.asarray(x, dtype=np.float64).astype(
            np.float32).astype(np.float64)

    def w_f8(self, x):
        return np.asarray(x, dtype=np.float64)

    # -- heap access ----------------------------------------------------

    def _lanes_of(self, m, count):
        if m is None:
            return np.arange(self.n, dtype=np.int64)
        return np.nonzero(m)[0]

    def _resolve(self, key, addr, m, kind, site_i, traced):
        a = np.asarray(addr)
        if not self.records:
            return self._resolve_fresh(key, a, m, kind, site_i, traced)
        if m is None:
            mkey = None
        else:
            mk = np.asarray(m)
            mkey = (mk.dtype.str, mk.shape, mk.tobytes())
        sig = (key, kind, site_i, traced, a.dtype.str, a.shape, a.tobytes(),
               mkey)
        i = len(self._keys)
        self._keys.append(sig)
        if self._hit:
            prev = self._prev
            if i < len(prev.keys) and prev.keys[i] == sig:
                res = prev.res[i]
                if res is None or (self.space.find(res.alloc.base)
                                   is res.alloc
                                   and res.alloc.data is not None):
                    self._res.append(res)
                    return res
            self._hit = False
        res = self._resolve_fresh(key, a, m, kind, site_i, traced)
        self._res.append(res)
        return res

    def _resolve_fresh(self, key, a, m, kind, site_i, traced):
        dt = DTYPES[key]
        size = dt.itemsize
        count = self.n if m is None else int(np.count_nonzero(m))
        if count == 0:
            return None
        lane0 = self._lanes_of(m, count)
        if a.ndim == 0:
            act = np.full(count, int(a), dtype=np.int64)
        else:
            if a.dtype.kind not in "iu":
                raise VecBail("non-integer address expression")
            act = a[lane0].astype(np.int64, copy=False)
        amin = int(act.min())
        amax = int(act.max())
        alloc = self.space.find(amin)
        if alloc is None or alloc.data is None:
            raise VecBail("address outside materialized allocations")
        if amax + size > alloc.base + alloc.size:
            raise VecBail("access range spans allocations")
        offs = act - alloc.base
        if size > 1 and (offs % size).any():
            raise VecBail("unaligned access")
        elem = offs // size
        if size <= 4:
            words = offs >> 2
            lanes = lane0
        else:
            wpl = size // 4
            words = ((offs >> 2)[:, None]
                     + np.arange(wpl, dtype=np.int64)).reshape(-1)
            lanes = np.repeat(lane0, wpl)
        return _Res(kind, dt, size, alloc, elem, words, lanes, lane0,
                    count, site_i, traced)

    def _zeros(self, key):
        if DTYPES[key].kind == "f":
            return np.zeros(self.n, dtype=np.float64)
        return np.zeros(self.n, dtype=np.int64)

    def _gather(self, res):
        view = _typed_view(res.alloc, res.dt)
        act = view[res.elem]
        if res.dt.kind == "f":
            act = act.astype(np.float64)
            out = np.zeros(self.n, dtype=np.float64)
        else:
            act = act.astype(np.int64)
            out = np.zeros(self.n, dtype=np.int64)
        if res.count == self.n:
            return act if act.shape == out.shape else out
        out[res.lane0] = act
        return out

    def _scatter(self, res, vals):
        key = id(res.alloc)
        if key not in self._snapshots:
            self._snapshots[key] = (res.alloc, res.alloc.data.copy())
        v = np.asarray(vals)
        if v.ndim == 0:
            act = np.full(res.count, v.item())
        else:
            act = v[res.lane0]
        dt = res.dt
        if dt.kind == "f":
            out = np.asarray(act, dtype=np.float64)
        else:
            iv = self.asint(act)
            bits = dt.itemsize * 8
            if bits < 64:
                iv = iv & ((1 << bits) - 1)
                if dt.kind == "i":
                    iv = np.where(iv >= (1 << (bits - 1)),
                                  iv - (1 << bits), iv)
            out = iv
        view = _typed_view(res.alloc, dt)
        elem = res.elem
        if not res.elem_unique:
            # Duplicate targets: make last-wins explicit (numpy leaves the
            # order of duplicate fancy assignments unspecified).
            _, first = np.unique(elem[::-1], return_index=True)
            pos = elem.size - 1 - first
            view[elem[pos]] = out[pos]
        else:
            view[elem] = out

    def rd(self, key, site_i, addr, m):
        res = self._resolve(key, addr, m, _READ, site_i, True)
        if res is None:
            return self._zeros(key)
        self.plans.append(res)
        return self._gather(res)

    def wr(self, key, site_i, addr, m, vals):
        res = self._resolve(key, addr, m, _WRITE, site_i, True)
        if res is None:
            return
        self.plans.append(res)
        self._scatter(res, vals)

    def rmw(self, key, site_i, addr, m):
        res = self._resolve(key, addr, m, _RMW, site_i, True)
        if res is None:
            return None, self._zeros(key)
        self.plans.append(res)
        return res, self._gather(res)

    def commit(self, res, m, vals):
        if res is None:
            return
        self._scatter(res, vals)

    def ld(self, key, addr, m):
        res = self._resolve(key, addr, m, _READ, None, False)
        if res is None:
            return self._zeros(key)
        self.plans.append(res)
        return self._gather(res)

    def st(self, key, addr, m, vals):
        res = self._resolve(key, addr, m, _WRITE, None, False)
        if res is None:
            return
        self.plans.append(res)
        self._scatter(res, vals)

    # -- safety + application -------------------------------------------

    def _check(self) -> None:
        """Prove the launch free of cross-thread data dependence.

        Grouped per allocation; all-read groups are trivially safe.  For
        any overlapping pair involving a write, each shared word must be
        touched by a single lane in both plans -- then per-word event
        order equals any per-thread serialization, which is what the
        scalar oracle produces.  (A lone write plan may hit one word
        from several lanes: its scatter is explicitly last-wins.)
        """
        groups: dict[int, list[_Res]] = {}
        for p in self.plans:
            groups.setdefault(id(p.alloc), []).append(p)
        for group in groups.values():
            if all(p.kind == _READ for p in group):
                continue
            for i, p in enumerate(group):
                if p.kind == _RMW and p.uniq.size != p.words.size:
                    raise VecBail("read-modify-write with colliding words")
                for q in group[i + 1:]:
                    if p.kind == _READ and q.kind == _READ:
                        continue
                    if p.wmax < q.wmin or q.wmax < p.wmin:
                        continue
                    shared = np.intersect1d(p.uniq, q.uniq)
                    if shared.size == 0:
                        continue
                    words = np.concatenate((p.words, q.words))
                    lanes = np.concatenate((p.lanes, q.lanes))
                    on = np.isin(words, shared)
                    pairs = np.unique(words[on] * self.n + lanes[on])
                    if np.unique(pairs // self.n).size != pairs.size:
                        raise VecBail("cross-thread data dependence")

    def _replay(self, present, pending):
        """What the interpreter's TraceBatcher would book for this run:
        ``(seen, final, seeded)``, or ``None`` when parity cannot be
        proven.

        The interpreter counts *post-merge interval widths*: consecutive
        trace calls on the same ``(allocation, kind)`` merge into one
        pending interval when they overlap or touch (RMW: only when they
        extend it), and only flushed interval widths reach
        ``words_seen``.  This simulates that accounting exactly,
        vectorized across lanes (each lane's pending interval advances
        through the plans in statement order; inactive lanes skip a plan
        just like a masked-off thread skips the statement).

        * ``pending`` is the batcher's interval before the run, as
          ``(block, proc, kind, lo, hi)``.  When it has this run's
          processor and the key of a traced plan, it seeds the first
          active lane's chain (``seeded``), so its merge with the first
          access is simulated; ``seen`` then includes its width.
        * A chain *continuing across a lane boundary* -- one active
          lane's final interval merging with the next active lane's
          first -- only ever merges whole per-lane chains of one
          super-run (:meth:`_disjoint`), so it changes nothing when those
          chains are pairwise disjoint (widths sum to the width of their
          union); a boundary touch on a read or write key whose
          super-run has overlapping chains returns ``None``.  RMW
          intervals merge only by extension, so their widths always sum
          to the same total.
        * ``final`` is the interval the batcher holds after the last
          lane, ``(plan index, lo, hi, keep, absorbed)``.  The caller
          leaves it pending, so it merges with the next access exactly
          as it would have; ``seen`` includes its width.  A read or
          write chain is idempotent, so the run also applies it
          (``keep`` is ``None``).  An RMW chain is not (a second RMW
          reads the first one's write), so ``keep`` maps traced plan
          indices to their words outside the chain, the only ones the
          run applies; the batcher applies the chain when it flushes.
          ``absorbed`` says the chain took over the pending interval
          that seeded it.

        ``present`` flags, per plan, a traced access to a shadowed
        allocation (only those reach the batcher).
        """
        traced = [p for p, on in zip(self.plans, present) if on]
        if self.tracer.batcher is None:
            return sum(p.words.size for p in traced), None, False
        n = self.n
        pkey = np.full(n, -1, dtype=np.int64)   # pending chain key per lane
        plo = np.zeros(n, dtype=np.int64)
        phi = np.zeros(n, dtype=np.int64)
        fkey = np.full(n, -1, dtype=np.int64)   # first trace call per lane
        flo = np.zeros(n, dtype=np.int64)
        fhi = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        runs = np.zeros(n, dtype=np.int64)      # key changes inside the lane
        run0 = np.zeros(n, dtype=np.int64)      # plan starting the last run
        keys: dict[tuple[int, int], int] = {}
        kinds: list[int] = []
        plan_of: dict[int, int] = {}
        for t, p in enumerate(traced):
            kk = (id(p.alloc), p.kind)
            if kk not in keys:
                keys[kk] = len(kinds)
                kinds.append(p.kind)
                plan_of[keys[kk]] = t
        #: Every per-lane chain: (lane, key run in the lane, lo, hi) arrays.
        chains: list[tuple[np.ndarray, ...]] = []
        seeded = False
        first = min(int(p.lane0[0]) for p in traced)
        if pending is not None:
            block, proc, kind, lo, hi = pending
            k = keys.get((id(block.alloc), kind))
            if k is not None and proc is self.tracer.current_proc:
                seeded = True
                pkey[first], plo[first], phi[first] = k, lo, hi
        for t, p in enumerate(traced):
            k = keys[(id(p.alloc), p.kind)]
            width = p.size // 4 if p.size > 4 else 1
            starts = p.words if width == 1 else p.words[::width]
            L = p.lane0
            lo = plo[L]
            hi = phi[L]
            prev = pkey[L]
            same = prev == k
            if p.kind == _RMW:
                merge = same & ((starts == hi) | (starts + width == lo))
            else:
                merge = same & (starts <= hi) & (starts + width >= lo)
            flush = (prev != -1) & ~merge
            fl = L[flush]
            counts[fl] += phi[fl] - plo[fl]
            chains.append((fl, runs[fl], plo[fl], phi[fl]))
            plo[L] = np.where(merge, np.minimum(lo, starts), starts)
            phi[L] = np.where(merge, np.maximum(hi, starts + width),
                              starts + width)
            pkey[L] = k
            runs[L[(prev != -1) & ~same]] += 1
            run0[L[~same]] = t
            new = fkey[L] == -1
            nl = L[new]
            fkey[nl] = k
            flo[nl] = starts[new]
            fhi[nl] = starts[new] + width
        act = np.nonzero(pkey != -1)[0]
        counts[act] += phi[act] - plo[act]
        chains.append((act, runs[act], plo[act], phi[act]))
        a, b = act[:-1], act[1:]
        join = pkey[a] == fkey[b]
        if join.any():
            kind_arr = np.asarray(kinds, dtype=np.int64)
            touch = join & (kind_arr[pkey[a]] != _RMW) \
                & (flo[b] <= phi[a]) & (fhi[b] >= plo[a])
            if touch.any() and not self._disjoint(chains, act, runs, join,
                                                  touch):
                return None
        seen = int(counts.sum())
        last = int(act[-1])
        kf = int(pkey[last])
        final = self._final_chain(traced, keys, kf, act, pkey, runs > 0,
                                  run0, pending if seeded else None,
                                  kinds[kf] == _RMW)
        if final is None:
            final = (int(plo[last]), int(phi[last]), None, False)
        return seen, (plan_of[kf],) + final, seeded

    def _disjoint(self, chains, act, runs, join, touch) -> bool:
        """Are the chains of every *super-run* holding a touching lane
        boundary pairwise disjoint?

        A super-run is a maximal sequence of same-key chains in lane
        order: a lane's key runs, with the last run of one active lane
        and the first run of the next joined when their keys match.
        Only chains of one super-run can merge in the interpreter, and
        only whole per-lane chains merge, so widths agree when those
        chains do not overlap.
        """
        start = np.zeros(act.size, dtype=np.int64)  # first run per lane
        np.cumsum(runs[act][:-1] + 1, out=start[1:])
        joined = np.zeros(int(start[-1] + runs[act[-1]] + 1), dtype=np.int64)
        joined[start[1:][join]] = 1
        super_run = np.arange(joined.size) - np.cumsum(joined)
        pos = np.zeros(self.n, dtype=np.int64)
        pos[act] = np.arange(act.size)
        lane, run, lo, hi = (np.concatenate(x) for x in zip(*chains))
        sid = super_run[start[pos[lane]] + run]
        sel = np.isin(sid, super_run[start[1:][touch]])
        order = np.lexsort((lo[sel], sid[sel]))
        sid, lo, hi = sid[sel][order], lo[sel][order], hi[sel][order]
        same = sid[1:] == sid[:-1]
        return not (same & (lo[1:] < hi[:-1])).any()

    def _final_chain(self, traced, keys, kf, act, pkey, mixed, run0,
                     pending, rmw):
        """``(lo, hi, keep, absorbed)`` of the batcher's final chain (see
        :meth:`_replay`), or ``None`` for a read/write chain that cannot
        have grown across lanes (the last lane's own chain is exact).

        The chain lies in the run of same-key events ending the launch:
        the last run of the last lane whose key changed (or which ends
        with another key), then every later lane.  It is replayed over
        exactly those events, in lane order.
        """
        ok = (~mixed[act]) & (pkey[act] == kf)
        bad = np.nonzero(~ok)[0]
        if not ok[-1]:
            if not rmw:
                return None
            lane_s, t_s = int(act[-1]), int(run0[act[-1]])
            pending = None
        elif bad.size == 0:
            lane_s, t_s = int(act[0]), 0
        elif pkey[act[bad[-1]]] == kf:
            lane_s, t_s = int(act[bad[-1]]), int(run0[act[bad[-1]]])
            pending = None
        else:
            lane_s, t_s = int(act[bad[-1] + 1]), 0
            pending = None
        if lane_s == int(act[-1]) and pending is None and not rmw:
            return None
        lanes, order, event, lo, hi = [], [], [], [], []
        for t, p in enumerate(traced):
            if keys[(id(p.alloc), p.kind)] != kf:
                continue
            width = p.size // 4 if p.size > 4 else 1
            starts = p.words if width == 1 else p.words[::width]
            sel = (p.lane0 > lane_s) | ((p.lane0 == lane_s) & (t >= t_s))
            lanes.append(p.lane0[sel])
            order.append(np.full(int(sel.sum()), t, dtype=np.int64))
            event.append(np.nonzero(sel)[0])
            lo.append(starts[sel])
            hi.append(starts[sel] + width)
        idx = np.lexsort((np.concatenate(order), np.concatenate(lanes)))
        lo = np.concatenate(lo)[idx]
        hi = np.concatenate(hi)[idx]
        if pending is not None:
            lo = np.concatenate(([pending[3]], lo))
            hi = np.concatenate(([pending[4]], hi))
        if not rmw:
            return _merged_chain(lo, hi) + (None, False)
        first, cur_lo, cur_hi = _rmw_chain(lo, hi)
        skip = 0 if pending is None else 1
        chain = idx[max(first - skip, 0):]
        order = np.concatenate(order)[chain]
        event = np.concatenate(event)[chain]
        keep = {}
        for t in np.unique(order).tolist():
            p = traced[t]
            width = p.size // 4 if p.size > 4 else 1
            mask = np.ones(p.lane0.size, dtype=bool)
            mask[event[order == t]] = False
            keep[t] = p.words[mask if width == 1 else np.repeat(mask, width)]
        return cur_lo, cur_hi, keep, skip == 1 and first == 0

    def finish(self) -> None:
        """Validate the launch, then apply batched shadow/heat updates.

        A launch whose every access matched the previous launch's
        :class:`Geometry` skips :meth:`_check` (the record's launch
        passed it on the same plans) and, under the same shadow
        presence and an empty batcher, books the recorded
        :meth:`_replay` result.  The batcher's pending interval is
        flushed only when the run traces anything (unless the run's
        final RMW chain took it over), and the run's own final chain is
        left pending, as the interpreter leaves it.
        """
        if self._finished:
            return
        self._finished = True
        prev = self._prev
        self.reused = self._hit and len(self._keys) == len(prev.keys)
        if not self.reused:
            self._check()
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        smt = tracer.smt
        blocks = [smt.lookup(p.alloc.base) if p.traced else None
                  for p in self.plans]
        present = tuple(b is not None for b in blocks)
        self._smt = present
        if not any(present):
            self._seen = (0, None)
            return
        batcher = tracer.batcher
        pending = None
        if batcher is not None and batcher.block is not None:
            pending = (batcher.block, batcher.proc, batcher.kind,
                       batcher.lo, batcher.hi)
        replay = None
        if (self.reused and pending is None and present == prev.smt
                and prev.seen is not None):
            replay = prev.seen + (False,)
        if replay is None:
            replay = self._replay(present, pending)
            if replay is None:
                raise VecBail(
                    "cross-lane trace coalescing with colliding words")
        seen, final, seeded = replay
        if not seeded:
            self._seen = (seen, final)
        keep = final[3] if final else None
        if final and final[4]:
            batcher.block = None  # now part of the final chain
        else:
            tracer.flush_trace()
            if seeded:
                seen -= pending[4] - pending[3]
        proc = tracer.current_proc
        heat = tracer.heat
        sites = self.sites
        traced = [(p, block) for p, block in zip(self.plans, blocks)
                  if block is not None]
        for t, (p, block) in enumerate(traced):
            words = keep.get(t, p.words) if keep else p.words
            if words.size:
                tracer._apply_words(block, proc, p.kind, words, count=0)
            if heat is not None:
                site = (sites[p.site_i]
                        if p.site_i is not None and sites else None)
                if p.kind != _WRITE:
                    heat.record(p.alloc, proc, is_write=False,
                                idx=p.words, site=site, n=p.count)
                if p.kind != _READ:
                    heat.record(p.alloc, proc, is_write=True,
                                idx=p.words, site=site, n=p.count)
        if final:
            t, lo, hi = final[:3]
            plan = traced[t][0]
            seen -= hi - lo
            batcher.block = smt.lookup(plan.alloc.base)
            batcher.proc = proc
            batcher.kind = plan.kind
            batcher.lo = lo
            batcher.hi = hi
        tracer.note_words(seen)

    def geometry(self) -> Geometry:
        """The record a later launch of this kernel may reuse (only
        meaningful once :meth:`finish` succeeded)."""
        return Geometry(self.shape, self.bx, self.tx, self._keys, self._res,
                        self._smt, self._seen)

    def restore(self) -> None:
        """Revert every scattered allocation to its pre-launch payload."""
        for alloc, payload in self._snapshots.values():
            if alloc.data is not None:
                alloc.data[:] = payload


class HostLoopRun(VecRun):
    """One execution of a host ``for`` loop as a 1-D grid: lane ``l`` is
    iteration ``l``, and ``iv`` holds the induction variable per lane.

    Beyond a launch it guards the host cells the body reads as locals
    (a write plan into one bails: those loads are not plans, so
    :meth:`VecRun._check` cannot see the dependence) and takes the host
    cell of every declaration the body executed, lane by lane in
    statement order, as the interpreter's iterations would.  It leaves no
    :class:`Geometry`.
    """

    records = False

    def __init__(self, interp, start: int, step: int, n: int,
                 sites) -> None:
        super().__init__(interp, 1, n, sites)
        self.iv = start + step * self.tx
        self._decls: list[tuple[str, int, object]] = []

    def decl(self, name: str, size: int, m) -> None:
        """A declaration executed on the lanes of mask ``m``."""
        self._decls.append((name, size, m))

    def finish(self, cells=()) -> None:
        for p in self.plans:
            if p.kind != _READ and any(p.alloc.base <= a
                                       < p.alloc.base + p.alloc.size
                                       for a in cells):
                raise VecBail("loop writes a local it reads")
        super().finish()
        if self._decls:
            ran = np.array([np.ones(self.n, dtype=bool) if m is None
                            else np.broadcast_to(np.asarray(m, dtype=bool),
                                                 (self.n,))
                            for _, _, m in self._decls])
            alloc = self.interp._alloc_cell
            decls = self._decls
            for k in np.nonzero(ran.T)[1].tolist():
                alloc(decls[k][0], decls[k][1])
        self.tracer.note_host_loop("codegen-vec")
