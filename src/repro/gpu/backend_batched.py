"""The batched-warp execution backend (``device.backend = "batched"``).

Executes all resident warps of a CTA *together* as vectorized numpy
operations over ``(num_warps, warp_size)`` arrays -- one dispatch per
CTA-wide instruction instead of one per warp -- and, since the
reconvergence-aware rewrite, keeps executing through *divergence*:

* The CTA runs on a **shared SIMT reconvergence stack** (`_MEntry`
  objects inside `_MFrame` activations). Every entry carries a
  ``(W, warp_size)`` active mask plus a *member* bitmask naming the
  warps whose own (serial) reconvergence stack contains that entry. A
  divergent branch splits the active set exactly the way the per-warp
  interpreter does -- retarget the entry to the immediate post-dominator,
  push the not-taken then the taken paths -- but for all participating
  warps at once. Warp-uniform branches that send different warps down
  different paths split the entry *by warp* instead, and compatible
  entries re-merge when they meet at the same (block, index) again, so
  regular kernels re-batch after guard ``if``\\ s and barriers.

* Byte-identity with the interpreter backend is preserved by the
  **event log**: execution appends every observable side effect (issue
  steps, hook calls, global-memory transactions, shared/atomic
  cycle costs, barrier waits, empty-entry "admin" pops) tagged with the
  participating warps, and a per-warp *replay* cursor consumes the log
  in exactly the serial scheduler's visit order -- same quantum, same
  rotate-on-mem points, same step budget. The cycle-reading MSHR/L1
  path runs at replay time in serial order; numerical memory traffic
  runs at execution time (see the caveat below).

* Anything the machine cannot reproduce exactly -- a divergent
  ``__syncthreads()``, a multi-warp atomic after the CTA has split,
  unknown micro-ops, runtime faults -- triggers a **fallback**: per-warp
  interpreter frames are materialized from the shared stack (including
  pending empty entries, so admin-pop steps still happen), the event
  log is drained warp by warp, and the CTA finishes on the
  interpreter. Fallbacks are counted per kernel on the device; a kernel
  that keeps falling back skips the batched attempt for later CTAs
  (``FALLBACK_LIMIT``).

Register values are numpy arrays broadcastable to ``(W, warp_size)``:
scalars and decode-time ``(warp_size,)`` immediates are shared by every
warp, ``(W, 1)`` columns are per-warp uniform values, ``(W, warp_size)``
is fully lane-varying. While the CTA is split, register writes are
row-preserving (``np.where`` on the participating warps' rows) so a
warp re-executing a block never corrupts another warp's lanes; values
whose "is it defined yet" state matters per warp (phi destinations,
call results, return values) additionally track a per-warp defined
bitmask so first-write semantics match the interpreter exactly.

Known caveat (shared with real GPUs, where it is a data race): warps
that communicate through memory *between two barriers without
synchronization* can observe each other's writes in a different order
than the serial interpreter, because execution runs ahead of the
serial replay order. ``__syncthreads()`` is a full machine-level
rendezvous, so properly synchronized kernels are unaffected. The same
caveat applied to the previous lock-step backend with a smaller
window (one scheduling segment).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError, MemoryError_
from repro.gpu.coalescing import coalesce_lines
from repro.gpu.decode import (
    _I64,
    _ONE_LANE,
    _model_global_lines,
    _mo_alloca,
    _mo_atomic_global,
    _mo_atomic_shared,
    _mo_barrier,
    _mo_binop,
    _mo_br,
    _mo_call,
    _mo_cast,
    _mo_cast_bool,
    _mo_cast_repr,
    _mo_condbr,
    _mo_const,
    _mo_gep,
    _mo_gep_const,
    _mo_arith_hook,
    _mo_block_hook,
    _mo_pop_hook,
    _mo_push_hook,
    _mo_record,
    _mo_intrin,
    _mo_ld_const,
    _mo_ld_global,
    _mo_ld_local,
    _mo_ld_shared,
    _mo_math,
    _mo_ret,
    _mo_select,
    _mo_st_global,
    _mo_st_local,
    _mo_st_shared,
    _undef,
)
from repro.gpu.simt import Frame, WarpStatus
from repro.gpu.vecops import _apply_math, _bank_conflict_degrees


class _Fallback(Exception):
    """Internal signal: this micro-op cannot run batched; fall back."""


#: Event kinds in the shared log (first tuple element).
_BATCH = 0    # (kind, members, count, done)           issue-only steps
_EXTRA = 1    # (kind, members, calls)                 1 step + timing calls
_MEM = 2      # (kind, members, lines_by_w, mode, is_write, post)
_HOOK = 3     # (kind, members, call, site, addrs, am2d, nact)
_BARRIER = 4  # (kind, members)                        instr, no step
_ADMIN = 5    # (kind, members, count, done)           steps, no instr

#: Cache-line keys for batch-wide coalescing pack (row, line) into one
#: int64: lines sit in the low 40 bits (addresses are far below 2^40).
_LINE_SHIFT = 40
_LINE_MASK = (1 << _LINE_SHIFT) - 1

#: fallbacks per kernel after which later CTAs skip the batched attempt
#: (a speed heuristic, never a semantic one: fallbacks are exact)
FALLBACK_LIMIT = 2
#: max rows in a CTA gang (single-warp CTAs fused into one machine)
GANG_WIDTH = 16


class _MEntry:
    """One shared reconvergence-stack entry.

    ``mask`` is ``(W, warp_size)`` and already excludes returned lanes
    (retires strip it, mirroring ``Warp.retire_lanes``), so it *is* the
    active mask. ``members`` is the bitmask of warps whose serial stack
    contains this entry -- including warps whose rows are empty (their
    serial interpreter still owes an admin pop for it); ``live`` is the
    subset with at least one active lane. Mask arrays are immutable:
    every change rebinds a fresh array, so logged events can keep
    references.
    """

    __slots__ = ("block", "index", "reconv", "mask", "counts", "live",
                 "members", "blocked", "hint")

    def __init__(self, block, index, reconv, mask, members):
        self.block = block
        self.index = index
        self.reconv = reconv
        self.mask = mask
        self.members = members
        self.blocked = False
        #: rendezvous hint: the ipostdom of the warp-divergent branch
        #: that split this entry off; the scheduler holds the entry at
        #: that block until its sibling classes arrive and re-merge.
        self.hint = None
        self.recount()

    def recount(self):
        counts = self.mask.sum(axis=1)
        self.counts = [int(n) for n in counts]
        live = 0
        for w, n in enumerate(self.counts):
            if n:
                live |= 1 << w
        self.live = live & self.members

    def __repr__(self):  # pragma: no cover
        return (f"<_MEntry {self.block.name if self.block else None}"
                f"@{self.index} members={self.members:b} live={self.live:b}>")


class _MFrame:
    """One shared function activation (a set of warps' serial frames).

    ``members`` names the warps still inside this activation; a warp
    leaves when its last entry membership is gone (mirroring the serial
    ``_pop_frame``). ``defined`` tracks, per register slot with
    first-write semantics (phi destinations and call-result slots),
    which warps have written it -- the serial interpreter's
    ``prev is None`` test, per warp.
    """

    __slots__ = ("decoded", "regs", "stack", "sp", "base_sp", "ret_slot",
                 "returned", "ret_values", "ret_defined", "members",
                 "defined", "caller")

    def __init__(self, decoded, regs, sp, base_sp, ret_slot, returned,
                 members, caller):
        self.decoded = decoded
        self.regs = regs
        self.stack: List[_MEntry] = []
        self.sp = sp
        self.base_sp = base_sp
        self.ret_slot = ret_slot
        self.returned = returned          # (W, ws) bool, mutable private
        self.ret_values: Optional[np.ndarray] = None  # (W, ws), private
        self.ret_defined = 0              # warps that executed a value ret
        self.members = members
        self.defined: Dict[int, int] = {}
        self.caller: Optional["_MFrame"] = None if caller is None else caller

    @property
    def function(self):  # _undef renders "@{frame.function.name}"
        return self.decoded.function


# -- operand helpers ---------------------------------------------------------
def _get(m, ref):
    """Register slot or immediate -> batched value."""
    if type(ref) is int:
        v = m._frame.regs[ref]
        if v is None:
            _undef(m._frame, ref)
        return v
    return ref


def _addr2d(m, ref) -> np.ndarray:
    """Resolve an address operand to a ``(W, warp_size)`` view."""
    a = np.asarray(_get(m, ref))
    if a.ndim == 2 and a.shape[1] != 1:
        return a  # already (W, warp_size)
    if a.ndim == 0:
        a = np.full(m.warp_size, a, _I64)  # matches _read_addrs
    return np.broadcast_to(a, (m.W, m.warp_size))


def _store2d(m, op) -> np.ndarray:
    """Resolve a store-value operand (op.b, dtype op.c) to (W, warp_size)."""
    v = op.b
    if type(v) is int:
        v = m._frame.regs[v]
        if v is None:
            _undef(m._frame, op.b)
    v = np.asarray(v)
    dtype = op.c
    if v.ndim == 0:
        v = np.full(m.warp_size, v, dtype)  # matches _read_store_value
    elif v.dtype != dtype:
        v = v.astype(dtype)
    if v.ndim == 2 and v.shape[1] != 1:
        return v  # already (W, warp_size)
    return np.broadcast_to(v, (m.W, m.warp_size))


# -- batched micro-op handlers ----------------------------------------------
# Same contract as the serial handlers in repro.gpu.decode, but one call
# executes the op for every *participating* warp of the current entry
# (m._cur / m._elig / m._mask2d). A handler must raise _Fallback (or
# ExecutionError) *before* any state mutation if the op cannot run
# batched, so the interpreter re-executes it with exact per-warp state.
def _bb_alloca(op, m):
    frame = m._frame
    if m._elig != frame.members:
        # Per-warp stack pointers would drift apart; the serial frames
        # track sp individually, this shared frame cannot.
        raise _Fallback()
    size = op.a
    addr = (frame.sp + size - 1) // size * size
    frame.sp = addr + size * op.b
    if frame.sp > m.warps[0].local_mem.arena_size:
        raise ExecutionError("kernel thread stack overflow (too many allocas)")
    m._log_step()
    m._set(op.dst, _I64(addr))
    m._cur.index += 1


def _bb_gep(op, m):
    frame = m._frame
    base = op.a
    if type(base) is int:
        base = frame.regs[base]
        if base is None:
            _undef(frame, op.a)
    index = frame.regs[op.b]
    if index is None:
        _undef(frame, op.b)
    m._set(op.dst, base + index.astype(_I64) * op.c)
    m._cur.index += 1


def _bb_gep_const(op, m):
    frame = m._frame
    base = op.a
    if type(base) is int:
        base = frame.regs[base]
        if base is None:
            _undef(frame, op.a)
    m._set(op.dst, base + op.b)
    m._cur.index += 1


def _bb_binop(op, m):
    frame = m._frame
    a = op.a
    if type(a) is int:
        a = frame.regs[a]
        if a is None:
            _undef(frame, op.a)
    b = op.b
    if type(b) is int:
        b = frame.regs[b]
        if b is None:
            _undef(frame, op.b)
    m._set(op.dst, op.c(a, b, m._mask2d))
    m._cur.index += 1


def _bb_const(op, m):
    m._set(op.dst, op.a)
    m._cur.index += 1


def _bb_cast_repr(op, m):
    frame = m._frame
    v = frame.regs[op.a]
    if v is None:
        _undef(frame, op.a)
    if op.b is not None and v.ndim and v.dtype != op.b:
        # (W, 1) columns are the batched form of a serial *scalar*
        # register, and the serial scalar path skips the reinterpret.
        if not (v.ndim == 2 and v.shape[1] == 1):
            v = v.view(op.b)
    m._set(op.dst, v)
    m._cur.index += 1


def _bb_cast_bool(op, m):
    frame = m._frame
    v = frame.regs[op.a]
    if v is None:
        _undef(frame, op.a)
    m._set(op.dst, (np.asarray(v) & 1).astype(np.bool_))
    m._cur.index += 1


def _bb_cast(op, m):
    frame = m._frame
    v = frame.regs[op.a]
    if v is None:
        _undef(frame, op.a)
    m._set(op.dst, np.asarray(v).astype(op.b))
    m._cur.index += 1


def _bb_select(op, m):
    frame = m._frame
    c = op.a
    if type(c) is int:
        c = frame.regs[c]
        if c is None:
            _undef(frame, op.a)
    if np.ndim(c) == 0:
        c = np.full(m.warp_size, c, np.bool_)
    a = op.b
    if type(a) is int:
        a = frame.regs[a]
        if a is None:
            _undef(frame, op.b)
    b = op.c
    if type(b) is int:
        b = frame.regs[b]
        if b is None:
            _undef(frame, op.c)
    m._set(op.dst, np.where(c, a, b))
    m._cur.index += 1


def _bb_intrin(op, m):
    cache = m._intrin_cache
    v = cache.get(op.a)
    if v is None:
        vals = [op.a(w) for w in m.warps]
        first = vals[0]
        if np.ndim(first) == 0:
            col = np.array(vals)
            v = first if (col == first).all() else col.reshape(m.W, 1)
        else:
            stacked = np.stack(vals)
            v = first if (stacked == first).all() else stacked
        cache[op.a] = v
    m._set(op.dst, v)
    m._cur.index += 1


def _bb_math(op, m):
    frame = m._frame
    regs = frame.regs
    args = []
    for r in op.a:
        if type(r) is int:
            v = regs[r]
            if v is None:
                _undef(frame, r)
            if np.ndim(v) == 0:
                v = np.full(m.warp_size, v, v.dtype)
        else:
            v = r
        args.append(v)
    m._set(op.dst, _apply_math(op.b, args, m._mask2d))
    m._cur.index += 1


def _bb_ld_global(op, m):
    a2d = _addr2d(m, op.a)
    am2d = m._mask2d
    value = m.ctx.global_mem.gather(
        a2d.reshape(-1), am2d.reshape(-1), op.b
    ).reshape(m.W, m.warp_size)
    m._log_mem(a2d, am2d, op.c, op.d, False, None)
    m._set(op.dst, value)
    m._cur.index += 1


def _bb_st_global(op, m):
    a2d = _addr2d(m, op.a)
    v2d = _store2d(m, op)
    am2d = m._mask2d
    # One flattened scatter: row-major order is warp order then lane
    # order, so duplicate addresses resolve exactly as the serial
    # per-warp stores (last write wins). The fault check runs before
    # any byte is written, so a faulting batch can still fall back and
    # let the interpreter reproduce the partial writes + exact error.
    try:
        m.ctx.global_mem.scatter(
            a2d.reshape(-1), am2d.reshape(-1), v2d.reshape(-1)
        )
    except MemoryError_:
        raise _Fallback()
    m._log_mem(a2d, am2d, op.c.itemsize, op.d, True, None)
    m._cur.index += 1


def _bb_ld_shared(op, m):
    a2d = _addr2d(m, op.a)
    am2d = m._mask2d
    if m.gang:
        # Each row is its own CTA: gather from the stacked arenas.
        value = m._gang_shared_gather(a2d, am2d, op.b)
    else:
        value = m.ctx.shared_mem.gather(
            a2d.reshape(-1), am2d.reshape(-1), op.b
        ).reshape(m.W, m.warp_size)
    degrees = np.maximum(1, _bank_conflict_degrees(a2d, am2d))
    m._log_extra((("shared_access", degrees),))
    m._set(op.dst, value)
    m._cur.index += 1


def _bb_st_shared(op, m):
    a2d = _addr2d(m, op.a)
    v2d = _store2d(m, op)
    am2d = m._mask2d
    if m.gang:
        # Rows write disjoint arenas; within a row the row-major fancy
        # assignment keeps the serial last-lane-wins order.
        m._gang_shared_scatter(a2d, am2d, v2d)
    else:
        shared = m.ctx.shared_mem
        for w in m._warps_of(m._elig):
            shared.scatter(a2d[w], am2d[w], v2d[w])
    degrees = np.maximum(1, _bank_conflict_degrees(a2d, am2d))
    m._log_extra((("shared_access", degrees),))
    m._cur.index += 1


def _bb_ld_local(op, m):
    a2d = _addr2d(m, op.a)
    am2d = m._mask2d
    rows = [
        warp.local_mem.gather(a2d[w], am2d[w], op.b)
        for w, warp in enumerate(m.warps)
    ]
    m._log_step()
    m._set(op.dst, np.stack(rows))
    m._cur.index += 1


def _bb_st_local(op, m):
    a2d = _addr2d(m, op.a)
    v2d = _store2d(m, op)
    am2d = m._mask2d
    for w in m._warps_of(m._elig):
        m.warps[w].local_mem.scatter(a2d[w], am2d[w], v2d[w])
    m._log_step()
    m._cur.index += 1


def _bb_ld_const(op, m):
    a2d = _addr2d(m, op.a)
    am2d = m._mask2d
    value = m.ctx.image.constant_gather(
        a2d.reshape(-1), am2d.reshape(-1), op.b
    ).reshape(m.W, m.warp_size)
    m._log_step()
    m._set(op.dst, value)
    m._cur.index += 1


def _run_atomic_all(m, op, a2d, v2d, arena):
    """Serial read-modify-write per lane, warp-major -- the order the
    interpreter's per-warp visits produce, so old values are identical.

    Only exact while the participating warps hit the atomic in one
    lock-step event: after the CTA has ever split, a multi-warp atomic
    falls back to the interpreter (before any mutation)."""
    if m._ever_split and bin(m._elig & m._cur.live).count("1") > 1:
        raise _Fallback()
    dtype = op.c
    am2d = m._mask2d
    old = np.zeros((m.W, m.warp_size), dtype=dtype)
    apply_op = op.d
    lanes_per_warp = np.zeros(m.W, dtype=np.int64)
    for w in m._warps_of(m._elig):
        lanes = np.flatnonzero(am2d[w])
        lanes_per_warp[w] = len(lanes)
        addrs = a2d[w]
        vals = v2d[w]
        row = old[w]
        mem = arena[w] if type(arena) is list else arena
        for lane in lanes:
            addr = addrs[lane: lane + 1]
            current = mem.gather(addr, _ONE_LANE, dtype)[0]
            row[lane] = current
            mem.scatter(
                addr, _ONE_LANE,
                np.array([apply_op(current, vals[lane])], dtype=dtype),
            )
    return old, lanes_per_warp


def _bb_atomic_global(op, m):
    a2d = _addr2d(m, op.a)
    v2d = _store2d(m, op)
    old, lanes = _run_atomic_all(m, op, a2d, v2d, m.ctx.global_mem)
    # Atomics always go to L2 (bypass mode 1); timing.atomic runs after
    # the transaction model, exactly as the serial handler orders it.
    m._log_mem(a2d, m._mask2d, op.c.itemsize, 1, True,
               (("atomic", lanes),))
    m._set(op.dst, old)
    m._cur.index += 1


def _bb_atomic_shared(op, m):
    a2d = _addr2d(m, op.a)
    v2d = _store2d(m, op)
    degrees = np.maximum(1, _bank_conflict_degrees(a2d, m._mask2d))
    old, lanes = _run_atomic_all(m, op, a2d, v2d, m.shared_mems)
    m._log_extra((("shared_access", degrees), ("atomic", lanes)))
    m._set(op.dst, old)
    m._cur.index += 1


def _bb_barrier(op, m):
    m._exec_barrier(op)


def _bb_record(op, m):
    addrs = op.a
    if type(addrs) is int:
        frame = m._frame
        addrs = frame.regs[addrs]
        if addrs is None:
            _undef(frame, op.a)
    m._log_hook(m.hooks.record, op.b, addrs)
    m._cur.index += 1


def _bb_block_hook(op, m):
    m._log_hook(m.hooks.block, op.b)
    m._cur.index += 1


def _bb_arith_hook(op, m):
    m._log_hook(m.hooks.arith, op.b)
    m._cur.index += 1


def _bb_push_hook(op, m):
    m._log_hook(m.hooks.push, op.b)
    m._cur.index += 1


def _bb_pop_hook(op, m):
    m._log_hook(m.hooks.pop, op.b)
    m._cur.index += 1


def _bb_call(op, m):
    m._exec_call(op)


def _bb_br(op, m):
    m._log_step()
    m._do_branch(m._frame, m._cur, op.a, op.b)


def _bb_condbr(op, m):
    m._exec_condbr(op)


def _bb_ret(op, m):
    m._exec_ret(op)


#: Serial handler identity -> batched equivalent. Handlers absent here
#: (_mo_raise, _mo_fell_off, _mo_unexpected_phi, and any future micro-op)
#: fall back to the interpreter, which raises/handles them with exact
#: per-warp state -- the backend contract's automatic-fallback rule.
_BATCHED = {
    _mo_alloca: _bb_alloca,
    _mo_gep: _bb_gep,
    _mo_gep_const: _bb_gep_const,
    _mo_binop: _bb_binop,
    _mo_const: _bb_const,
    _mo_cast_repr: _bb_cast_repr,
    _mo_cast_bool: _bb_cast_bool,
    _mo_cast: _bb_cast,
    _mo_select: _bb_select,
    _mo_ld_global: _bb_ld_global,
    _mo_ld_shared: _bb_ld_shared,
    _mo_ld_local: _bb_ld_local,
    _mo_ld_const: _bb_ld_const,
    _mo_st_global: _bb_st_global,
    _mo_st_shared: _bb_st_shared,
    _mo_st_local: _bb_st_local,
    _mo_atomic_global: _bb_atomic_global,
    _mo_atomic_shared: _bb_atomic_shared,
    _mo_barrier: _bb_barrier,
    _mo_intrin: _bb_intrin,
    _mo_math: _bb_math,
    _mo_record: _bb_record,
    _mo_block_hook: _bb_block_hook,
    _mo_arith_hook: _bb_arith_hook,
    _mo_push_hook: _bb_push_hook,
    _mo_pop_hook: _bb_pop_hook,
    _mo_call: _bb_call,
    _mo_br: _bb_br,
    _mo_condbr: _bb_condbr,
    _mo_ret: _bb_ret,
}

#: Handlers that only read/write the register file (no events beyond an
#: issue step, no control flow): the JIT trace cache fuses runs of
#: these so the executor can sprint through them without per-op
#: bookkeeping.
_PURE = {
    _bb_gep, _bb_gep_const, _bb_binop, _bb_const, _bb_cast_repr,
    _bb_cast_bool, _bb_cast, _bb_select, _bb_math, _bb_intrin,
}


def _iter_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _RowIt:
    """Per-row view for ``_model_global`` when rows span CTAs (a gang):
    supplies the row's own ctx (transaction counter, L1 bypass config)
    with the machine's line size."""

    __slots__ = ("ctx", "line_size")

    def __init__(self, ctx, line_size):
        self.ctx = ctx
        self.line_size = line_size


class BatchedCTA:
    """Masked lock-step machine for one CTA's resident warps.

    Execution (``_exec_step``) advances the shared reconvergence stack
    and appends events; replay (``_replay_visit``) consumes them in the
    serial scheduler's order, pulling the executor forward on demand.
    ``spec`` is the kernel's JIT trace-cache specialization: per decoded
    block, the pre-resolved ``(batched_handler, op, pure_run_len)``
    triples (see :mod:`repro.gpu.jit_cache`).
    """

    def __init__(self, device, ctxs, spec, total_budget: int):
        if not isinstance(ctxs, list):
            ctxs = [ctxs]
        ctx = ctxs[0]
        self.gang = len(ctxs) > 1
        warps = [c.warps[0] for c in ctxs] if self.gang else ctx.warps
        self.device = device
        self.ctx = ctx
        self.hooks = ctx.hooks
        self.warps = warps
        W = len(warps)
        self.W = W
        # Per-row CTA resources: a gang row is one single-warp CTA, so
        # shared memory, transaction counters, and the fallback
        # interpreter are per row; a plain multi-warp CTA shares them.
        self.ctxs = ctxs if self.gang else [ctx] * W
        self.shared_mems = [c.shared_mem for c in self.ctxs]
        if self.gang:
            nb = self.shared_mems[0].nbytes
            stride = -(-nb // 16) * 16  # element alignment per row
            buf = np.zeros((W, stride), dtype=np.uint8)
            for w, c in enumerate(ctxs):
                c.shared_mem._buf = buf[w, :nb]
            self._gang_shared = buf.reshape(-1)
            self._gang_nbytes = nb
            self._gang_row_offs = (
                np.arange(W, dtype=np.int64) * stride
            ).reshape(W, 1)
        ws = warps[0].warp_size
        self.warp_size = ws
        self.line_size = device.arch.l1_line_size
        self._row_its = (
            [_RowIt(c, self.line_size) for c in ctxs]
            if self.gang else [self] * W
        )
        self._spec = spec if spec is not None else {}
        self._intrin_cache: Dict[object, object] = {}
        self._sel_cache: Dict[int, np.ndarray] = {}
        self._warps_cache: Dict[int, list] = {}
        self._all = (1 << W) - 1

        # Adopt the per-warp entry frames into one shared activation.
        # Launch binds identical argument values into every warp's
        # frame, so warp 0's register file serves as the shared one.
        f0 = warps[0].frames[-1]
        self.entry_function = f0.function
        mask2d = np.stack([w.frames[-1].stack[0].mask for w in warps])
        frame = _MFrame(
            f0.decoded, list(f0.regs), f0.sp, f0.base_sp, None,
            np.zeros((W, ws), dtype=bool), self._all, None,
        )
        frame.stack.append(_MEntry(f0.decoded.entry, 0, None, mask2d,
                                   self._all))
        self.frames: List[_MFrame] = [frame]
        for w in warps:
            w.frames = []

        # Event log + per-warp replay cursors. ``_wlog[w]`` holds the
        # indices of the events warp ``w`` participates in, so replay
        # never scans past other warps' events (O(own events), not
        # O(all events) -- the log is shared by up to ``W`` rows).
        self._log: list = []
        self._wlog: List[list] = [[] for _ in range(W)]
        self._open = [0, 0, 0]  # [members, count, done] coalesced batch
        self._cursor = [0] * W  # index into _wlog[w]
        self._offset = [0] * W  # intra-batch-event progress

        self._exec_ops = 0
        self._exec_budget = total_budget + 64  # runaway-executor valve
        self._eff_sum = 0    # batching-efficiency monitor: eligible
        self._eff_next = 128   # warps per pick, checked per window
        self._eff_window = 128  # ramps 128 -> 512 -> 2048 as checks pass
        self._exec_done = 0   # warps retired at the execution level
        self._blocked = 0     # warps waiting at a machine-level barrier
        self._ever_split = False
        self.dead = False       # fallback taken: executor frozen
        self._complete = False  # every warp retired at the exec level

        # Dispatch-time temporaries (set per executed micro-op).
        self._frame: Optional[_MFrame] = None
        self._cur: Optional[_MEntry] = None
        self._elig = 0
        self._mask2d: Optional[np.ndarray] = None
        self._sel: Optional[np.ndarray] = None

    # -- gang shared memory (stacked per-row arenas) -------------------------
    def _gang_shared_gather(self, a2d, am2d, dtype):
        result = np.zeros((self.W, self.warp_size), dtype=dtype)
        if not am2d.any():
            return result
        act = a2d[am2d]
        itemsize = dtype.itemsize
        if int(act.min()) < 0 or int(act.max()) + itemsize > self._gang_nbytes:
            raise _Fallback()  # interpreter reproduces the exact fault
        idx = (a2d + self._gang_row_offs)[am2d]
        flat = self._gang_shared
        if itemsize == 1:
            result[am2d] = flat[idx].view(dtype)
        else:
            result[am2d] = flat.view(dtype)[idx // itemsize]
        return result

    def _gang_shared_scatter(self, a2d, am2d, v2d):
        if not am2d.any():
            return
        act = a2d[am2d]
        itemsize = v2d.dtype.itemsize
        if int(act.min()) < 0 or int(act.max()) + itemsize > self._gang_nbytes:
            raise _Fallback()
        idx = (a2d + self._gang_row_offs)[am2d]
        vals = v2d[am2d]
        flat = self._gang_shared
        if itemsize == 1:
            flat[idx] = vals.view(np.uint8)
        else:
            flat.view(v2d.dtype)[idx // itemsize] = vals

    # -- small caches --------------------------------------------------------
    def _row_sel(self, bits: int) -> np.ndarray:
        sel = self._sel_cache.get(bits)
        if sel is None:
            sel = np.zeros((self.W, 1), dtype=bool)
            for w in _iter_bits(bits):
                sel[w, 0] = True
            sel.setflags(write=False)
            self._sel_cache[bits] = sel
        return sel

    def _warps_of(self, bits: int) -> list:
        lst = self._warps_cache.get(bits)
        if lst is None:
            lst = list(_iter_bits(bits))
            self._warps_cache[bits] = lst
        return lst

    @staticmethod
    def _row(a, w: int):
        """Batched register value -> the serial value warp ``w`` holds."""
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a[w, 0] if a.shape[1] == 1 else a[w]
        return a

    # -- register writes -----------------------------------------------------
    def _set(self, slot: int, value) -> None:
        """Define ``slot`` for the participating warps.

        Full rebind when every warp of the activation participates;
        row-preserving merge otherwise, so a warp re-executing a block
        later (split CTA) cannot corrupt rows it does not own.
        """
        frame = self._frame
        sel = self._sel
        if sel is None:
            frame.regs[slot] = value
        else:
            prev = frame.regs[slot]
            frame.regs[slot] = (
                value if prev is None else np.where(sel, value, prev)
            )

    # -- event log -----------------------------------------------------------
    def _append_ev(self, ev, members: int) -> None:
        idx = len(self._log)
        self._log.append(ev)
        wlog = self._wlog
        warps = self._warps_cache.get(members)
        if warps is None:
            warps = self._warps_of(members)
        for w in warps:
            wlog[w].append(idx)

    def _flush_open(self) -> None:
        o = self._open
        if o[1] or o[2]:
            self._append_ev((_BATCH, o[0], o[1], o[2]), o[0])
            o[0] = 0
            o[1] = 0
            o[2] = 0

    def _log_step(self, n: int = 1) -> None:
        o = self._open
        if o[0] == self._elig:
            o[1] += n
        else:
            self._flush_open()
            o[0] = self._elig
            o[1] = n

    def _emit(self, ev: tuple) -> None:
        self._flush_open()
        self._append_ev(ev, ev[1])

    def _log_extra(self, calls: tuple) -> None:
        self._emit((_EXTRA, self._elig, calls))

    def _log_mem(self, a2d, am2d, width, mode, is_write, post) -> None:
        # Coalesce the whole batch's address matrix here, once, so
        # replay hands each warp a precomputed cache-line list instead
        # of re-running the per-lane Python loop warp by warp.
        elig = self._elig
        ls = self.line_size
        lines_by_w: list = [None] * self.W
        members = self._warps_of(elig)
        if len(members) == 1:
            w = members[0]
            lines_by_w[w] = coalesce_lines(a2d[w], am2d[w], width, ls)
        else:
            # Entry masks are False outside their member rows, so the
            # matrix can be scanned whole.
            rows, lanes = np.nonzero(am2d)
            if len(rows):
                addr = a2d[rows, lanes]
                first = addr // ls
                span = width - 1
                if span:
                    last = (addr + span) // ls
                    straddle = last != first
                    if straddle.any():
                        rows = np.concatenate([rows, rows[straddle]])
                        first = np.concatenate([first, last[straddle]])
                keys = np.unique(
                    (rows.astype(np.int64) << _LINE_SHIFT) + first
                )
                counts = np.bincount(keys >> _LINE_SHIFT, minlength=self.W)
                vals = (keys & _LINE_MASK).tolist()
                pos = 0
                for w in range(self.W):
                    c = int(counts[w])
                    if c:
                        lines_by_w[w] = vals[pos:pos + c]
                    pos += c
            for w in members:
                if lines_by_w[w] is None:
                    lines_by_w[w] = []
        self._emit((_MEM, elig, lines_by_w, mode, is_write, post))

    def _log_hook(self, call, site, addrs=None) -> None:
        """Log one hook call: ``call`` is the runtime's entry point for
        the site's kind; ``addrs`` (``Record`` only) is the address
        value, a ``(W, ...)`` matrix or a value shared by every warp."""
        cur = self._cur
        self._emit((_HOOK, self._elig, call, site, addrs, cur.mask,
                    tuple(cur.counts)))

    # -- executor ------------------------------------------------------------
    _RESCAN = object()

    def _choose(self):
        """Pick the next (frame, entry, eligible-warps) to execute.

        Walks activations newest-first and stacks top-down, mirroring
        each warp's serial priority: a warp executes its topmost entry
        of its innermost frame. Entries that are some warp's top but
        hold no active lanes for it are popped as logged admin steps
        (the serial interpreter's empty-entry / empty-frame pops).

        Re-batching heuristic: an entry waiting at a reconvergence
        point that a sibling entry above it will still pop into is
        *deferred* -- its warps wait for the stragglers so both sides
        merge back into one batch. A deferred pick is only returned
        when nothing else in the CTA can run (progress guarantee).
        """
        above = 0
        deferred = None
        for fi in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[fi]
            stack = frame.stack
            seen = 0
            reconvs = None  # ids of reconv blocks of entries above
            j = len(stack) - 1
            while j >= 0:
                e = stack[j]
                mem = e.members
                if not mem:
                    del stack[j]
                    j -= 1
                    continue
                top_for = mem & ~(above | seen)
                ghosts = top_for & ~e.live
                if ghosts:
                    self._admin_pop(frame, j, ghosts)
                    return self._RESCAN
                if not e.blocked:
                    elig = e.live & top_for
                    if elig:
                        wait = False
                        if e.index == 0 and e.block is not None:
                            if reconvs is not None and id(e.block) in reconvs:
                                wait = True
                            elif e.hint is e.block:
                                # Rendezvous: hold at the branch's
                                # ipostdom while a live sibling class
                                # still shares the hint; clear it once
                                # no sharer remains (sibling returned
                                # or already merged).
                                for o in stack:
                                    if (o is not e and o.hint is e.hint
                                            and o.live):
                                        wait = True
                                        break
                                if not wait:
                                    e.hint = None
                        if not wait:
                            return (frame, e, elig)
                        if deferred is None:
                            deferred = (frame, e, elig)
                seen |= mem
                if e.reconv is not None:
                    if reconvs is None:
                        reconvs = {id(e.reconv)}
                    else:
                        reconvs.add(id(e.reconv))
                j -= 1
            orphans = frame.members & ~(above | seen)
            if orphans:
                self._admin_frame_exit(frame, orphans)
                return self._RESCAN
            above |= frame.members
        return deferred

    def _admin_pop(self, frame, j, ghosts) -> None:
        """Serial "empty top entry" pop: one admin step per warp."""
        e = frame.stack[j]
        e.members &= ~ghosts
        e.live &= e.members
        if not e.members:
            del frame.stack[j]
        self._emit((_ADMIN, ghosts, 1, 0))

    def _admin_frame_exit(self, frame, orphans) -> None:
        """Serial "empty frame stack" pop: one admin step per warp."""
        done = self._frame_exit(frame, orphans)
        self._emit((_ADMIN, orphans, 1, done))

    def _split_entry(self, frame, e, keep: int) -> None:
        """Split ``e``: ``keep`` warps stay in ``e`` (on top), the rest
        move to a twin entry directly below it."""
        rest = e.members & ~keep
        sel = self._row_sel(keep)
        twin = _MEntry(e.block, e.index, e.reconv,
                       np.where(sel, False, e.mask), rest)
        twin.blocked = e.blocked
        twin.hint = e.hint
        e.mask = np.where(sel, e.mask, False)
        e.members = keep
        e.recount()
        frame.stack.insert(frame.stack.index(e), twin)
        self._ever_split = True

    def _merge_frame(self, frame) -> None:
        """Re-batch: coalesce adjacent twin entries that met again."""
        st = frame.stack
        k = 1
        while k < len(st):
            a, b = st[k - 1], st[k]
            if (a.block is b.block and a.index == b.index
                    and a.reconv is b.reconv
                    and not a.blocked and not b.blocked
                    and not (a.members & b.members)):
                a.mask = a.mask | b.mask
                a.members |= b.members
                if a.hint is None:
                    a.hint = b.hint
                a.recount()
                del st[k]
            else:
                k += 1

    def _release_barrier(self) -> bool:
        waiting = self._all & ~self._exec_done
        if not waiting or self._blocked != waiting:
            return False
        self._blocked = 0
        for frame in self.frames:
            for e in frame.stack:
                e.blocked = False
            self._merge_frame(frame)
        return True

    def _exec_step(self) -> bool:
        """Execute one micro-op (or admin cascade). False when frozen."""
        if self.dead or self._complete:
            return False
        try:
            while True:
                pick = self._choose()
                if pick is self._RESCAN:
                    return True
                if pick is not None:
                    break
                if self._release_barrier():
                    continue
                if self._exec_done == self._all:
                    self._complete = True
                    return False
                # Live warps that can never proceed (e.g. a barrier some
                # exited warps will never reach): hand the CTA back so
                # the SM drive loop raises its exact deadlock diagnostic.
                self._fallback()
                return False
        except (_Fallback, ExecutionError):
            self._fallback()
            return False
        frame, e, elig = pick
        if e.members != elig:
            self._split_entry(frame, e, elig)
        self._eff_sum += elig.bit_count()
        if self._exec_ops >= self._eff_next:
            # Batching-efficiency monitor: a machine whose picks stay
            # near one eligible warp is pure overhead (heavy per-warp
            # divergence, e.g. data-dependent trip counts) -- hand the
            # warps back to the interpreter (always exact) and let the
            # per-kernel fallback counter stop future attempts. The
            # first check comes early (hopeless kernels show mean
            # eligibility near 1 within ~100 ops; healthy ones sit far
            # above threshold) and the window ramps up once passed.
            self._eff_window = min(2048, self._eff_window * 4)
            self._eff_next = self._exec_ops + self._eff_window
            if self._eff_sum < self._exec_ops * min(2.0, 0.45 * self.W):
                self._fallback()
                return False
        block = e.block
        if block is None:
            # Return-divergent branch with no post-dominator: the serial
            # interpreter raises "unstructured control flow" here.
            self._fallback()
            return False
        pairs = self._spec.get(id(block))
        if pairs is None:
            self._fallback()
            return False
        self._exec_ops += 1
        if self._exec_ops > self._exec_budget:
            # Replay would have raised the step-budget error already if
            # this much work were reachable; freeze and let it.
            self._fallback()
            return False
        self._frame = frame
        self._cur = e
        self._elig = elig
        self._mask2d = e.mask
        self._sel = None if elig == frame.members else self._row_sel(elig)
        i = e.index
        if i >= len(pairs):
            self._fallback()
            return False
        handler, op, run = pairs[i]
        if handler is None:
            self._fallback()
            return False
        try:
            if run:  # pure run (possibly length 1): handlers don't log
                end = i + run
                k = i
                try:
                    while k < end:
                        h2, op2, _ = pairs[k]
                        h2(op2, self)
                        k += 1
                finally:
                    if k > i:
                        self._log_step(k - i)
            else:
                handler(op, self)
        except (_Fallback, ExecutionError):
            self._fallback()
            return False
        return True

    # -- control flow --------------------------------------------------------
    def _phi_moves(self, frame, moves, pmask2d, bits) -> None:
        """Parallel-copy phi semantics for the ``bits`` warps, with the
        serial per-warp first-write rule via ``frame.defined``."""
        regs = frame.regs
        ws = self.warp_size
        vals = []
        for dst, src, dtype in moves:
            if type(src) is int:
                v = regs[src]
                if v is None:
                    _undef(frame, src)
                if np.ndim(v) == 0:
                    v = np.full(ws, v, dtype)
                elif (isinstance(v, np.ndarray) and v.ndim == 2
                        and v.shape[1] == 1 and v.dtype != dtype):
                    v = v.astype(dtype)
            else:
                v = src
            vals.append(v)
        for (dst, _, _), v in zip(moves, vals):
            defined = frame.defined.get(dst, 0)
            prev = regs[dst]
            if not defined:
                regs[dst] = v
            else:
                first = bits & ~defined
                rest = bits & defined
                new = np.broadcast_to(prev, (self.W, ws))
                if rest:
                    psel = self._row_sel(rest) & pmask2d
                    new = np.where(psel, v, new)
                if first:
                    new = np.where(self._row_sel(first), v, new)
                regs[dst] = new
            frame.defined[dst] = defined | bits

    def _do_branch(self, frame, e, target, moves) -> None:
        if moves:
            self._phi_moves(frame, moves, e.mask, e.members)
        if e.reconv is target:
            frame.stack.remove(e)
        else:
            e.block = target
            e.index = 0
        self._merge_frame(frame)

    def _exec_condbr(self, op) -> None:
        e = self._cur
        frame = self._frame
        elig = self._elig
        for w in self._warps_of(elig):
            self.warps[w].branch_count += 1
        cond = op.a
        if type(cond) is int:
            cond = frame.regs[cond]
            if cond is None:
                _undef(frame, op.a)
        c2d = np.broadcast_to(
            np.asarray(cond, dtype=np.bool_)
            if np.ndim(cond) == 0 else cond,
            (self.W, self.warp_size),
        )
        mask = e.mask
        t2d = c2d & mask
        n2d = ~c2d & mask
        t_any = t2d.any(axis=1)
        n_any = n2d.any(axis=1)
        div = tak = ntk = 0
        for w in self._warps_of(elig):
            if t_any[w]:
                if n_any[w]:
                    div |= 1 << w
                else:
                    tak |= 1 << w
            else:
                ntk |= 1 << w
        self._log_step()
        classes = [bits for bits in (div, tak, ntk) if bits]
        if len(classes) == 1:
            # Every participating warp agrees (though lanes may still
            # diverge within each warp): keep the batch together.
            if tak:
                self._do_branch(frame, e, op.b[0], op.b[1])
            elif ntk:
                self._do_branch(frame, e, op.c[0], op.c[1])
            else:
                self._diverge(frame, e, op, t2d, n2d)
            return
        # Warps disagree: split the entry into per-class twins, each
        # advanced exactly as its warps' serial interpreters would.
        # Every twin is tagged with the branch's immediate post-dominator
        # as a *rendezvous hint*: the scheduler holds a twin that reaches
        # that block until its sibling classes arrive, so the classes
        # re-merge into one batch instead of racing past each other.
        hint = op.d
        cur = e
        split = []
        for bits in classes[:-1]:
            self._split_entry(frame, cur, bits)
            twin = frame.stack[frame.stack.index(cur) - 1]
            split.append((bits, cur))
            cur = twin
        split.append((classes[-1], cur))
        for bits, ent in split:
            ent.hint = hint
            if bits == tak:
                self._do_branch(frame, ent, op.b[0], op.b[1])
            elif bits == ntk:
                self._do_branch(frame, ent, op.c[0], op.c[1])
            else:
                self._diverge(frame, ent, op, t2d, n2d)

    def _diverge(self, frame, ent, op, t2d, n2d) -> None:
        """Lane-divergent branch for every member warp: serial push."""
        bits = ent.members
        for w in self._warps_of(bits):
            self.warps[w].divergent_branch_count += 1
        reconv = op.d
        ent.block = reconv
        ent.index = 0
        sel = self._row_sel(bits)
        pos = frame.stack.index(ent)
        for (target, moves), p2d in ((op.c, n2d), (op.b, t2d)):
            pmask = np.where(sel, p2d, False)
            if moves:
                self._phi_moves(frame, moves, pmask, bits)
            if target is not reconv:
                pos += 1
                frame.stack.insert(
                    pos, _MEntry(target, 0, reconv, pmask, bits)
                )

    def _exec_call(self, op) -> None:
        e = self._cur
        caller = self._frame
        elig = self._elig
        e.index += 1
        callee = op.b
        new = _MFrame(
            callee, [None] * callee.n_slots, caller.sp, caller.sp,
            op.dst, np.zeros((self.W, self.warp_size), dtype=bool),
            elig, caller,
        )
        new.stack.append(_MEntry(callee.entry, 0, None, e.mask, elig))
        regs = caller.regs
        new_regs = new.regs
        for slot, ref in zip(callee.arg_slots, op.a):
            if type(ref) is int:
                v = regs[ref]
                if v is None:
                    _undef(caller, ref)
            else:
                v = ref
            new_regs[slot] = v
            if elig != self._all:
                new.defined[slot] = elig
        self.frames.append(new)
        self._log_step()

    def _exec_barrier(self, op) -> None:
        e = self._cur
        frame = self._frame
        mask = e.mask
        for w in self._warps_of(self._elig):
            live = self.warps[w].resident_mask & ~frame.returned[w]
            if not np.array_equal(mask[w], live):
                # Divergent __syncthreads(): undefined in CUDA; the
                # interpreter raises with per-warp context.
                raise _Fallback()
        self._emit((_BARRIER, self._elig))
        e.index += 1
        if self.gang:
            # Every row is its own single-warp CTA: __syncthreads() is
            # already satisfied, no machine-level wait needed (replay's
            # _BARRIER event still ends the warp's quantum turn).
            return
        e.blocked = True
        self._blocked |= self._elig

    def _exec_ret(self, op) -> None:
        e = self._cur
        frame = self._frame
        elig = self._elig
        W, ws = self.W, self.warp_size
        mask2d = e.mask
        ref = op.a
        if ref is not None:
            if type(ref) is int:
                value = frame.regs[ref]
                if value is None:
                    _undef(frame, ref)
                if np.ndim(value) == 0:
                    value = np.full(ws, value, frame.decoded.ret_dtype)
                elif (isinstance(value, np.ndarray) and value.ndim == 2
                        and value.shape[1] == 1
                        and value.dtype != frame.decoded.ret_dtype):
                    value = value.astype(frame.decoded.ret_dtype)
            else:
                value = ref
            v2d = np.broadcast_to(value, (W, ws))
            first = elig & ~frame.ret_defined
            rest = elig & frame.ret_defined
            buf = frame.ret_values
            if buf is None:
                buf = np.zeros((W, ws), dtype=v2d.dtype)
            new = buf
            if rest:
                new = np.where(self._row_sel(rest) & mask2d, v2d, new)
            if first:
                new = np.where(self._row_sel(first), v2d, new)
            frame.ret_values = new
            frame.ret_defined |= elig
        # Retire: strip the returned lanes from every entry (serial
        # Warp.retire_lanes), then pop memberships that emptied out.
        frame.returned = frame.returned | mask2d
        for ent in frame.stack:
            if ent.members & elig:
                ent.mask = ent.mask & ~mask2d
                ent.recount()
        self._log_step()
        exited = 0
        stack = frame.stack
        for w in self._warps_of(elig):
            bit = 1 << w
            while True:
                top = None
                for k in range(len(stack) - 1, -1, -1):
                    if stack[k].members & bit:
                        top = stack[k]
                        break
                if top is None:
                    exited |= bit
                    break
                if top.counts[w]:
                    break
                top.members &= ~bit
                top.live &= top.members
                if not top.members:
                    stack.remove(top)
        if exited:
            done = self._frame_exit(frame, exited)
            if done:
                self._open[2] |= done
                self._flush_open()

    def _frame_exit(self, frame, wbits: int) -> int:
        """Warps in ``wbits`` leave ``frame`` (serial ``_pop_frame``).

        Returns the subset that retired the kernel (done bits)."""
        caller = frame.caller
        if caller is None:
            self._exec_done |= wbits
            frame.members &= ~wbits
            if not frame.members:
                self.frames.remove(frame)
            return wbits
        rs = frame.ret_slot
        if rs is not None:
            if wbits & ~frame.ret_defined:
                # Serial raises "@f returned no value" during this pop;
                # the interpreter will, with the exact message.
                raise _Fallback()
            v = frame.ret_values
            prev = caller.regs[rs]
            defined = caller.defined.get(rs, 0)
            first = wbits & ~defined
            rest = wbits & defined
            if prev is None:
                caller.regs[rs] = v
            else:
                new = np.broadcast_to(prev, (self.W, self.warp_size))
                if rest:
                    new = np.where(
                        self._row_sel(rest) & frame.returned, v, new
                    )
                if first:
                    new = np.where(self._row_sel(first), v, new)
                caller.regs[rs] = new
            caller.defined[rs] = defined | wbits
        frame.members &= ~wbits
        if not frame.members:
            caller.sp = frame.base_sp
            self.frames.remove(frame)
        return 0

    # -- fallback ------------------------------------------------------------
    def _fallback(self) -> None:
        """Freeze the executor and rebuild per-warp interpreter frames.

        Nothing was mutated for the op that triggered this, so each
        warp resumes serially at exactly its logged position; pending
        events still replay normally (they only touch counters, hooks
        and the memory model, never frames)."""
        if self.dead:
            return
        self.dead = True
        self._flush_open()
        for w, warp in enumerate(self.warps):
            bit = 1 << w
            if self._exec_done & bit:
                continue  # its done event is already in the log
            frames = []
            for mf in self.frames:
                if not (mf.members & bit):
                    continue
                entries = [
                    (ent.block, ent.index, ent.reconv, ent.mask[w].copy())
                    for ent in mf.stack
                    if ent.members & bit
                ]
                regs: List[Optional[np.ndarray]] = []
                for slot, v in enumerate(mf.regs):
                    dbits = mf.defined.get(slot)
                    if v is None or (dbits is not None
                                     and not (dbits & bit)):
                        regs.append(None)
                    else:
                        regs.append(self._row(v, w))
                rv = None
                if mf.ret_values is not None and (mf.ret_defined & bit):
                    rv = mf.ret_values[w].copy()
                frames.append(Frame.resume_multi(
                    mf.decoded, entries, regs, mf.sp, mf.base_sp,
                    mf.ret_slot, mf.returned[w].copy(), rv,
                ))
            warp.frames = frames

    # -- replay --------------------------------------------------------------
    def _pull(self, w: int) -> bool:
        """Advance the executor until warp ``w`` has a replayable event."""
        bit = 1 << w
        wl = self._wlog[w]
        while True:
            if self._cursor[w] < len(wl):
                return True
            if self._open[1] and (self._open[0] & bit):
                self._flush_open()
                return True
            if not self._exec_step():
                return False

    def _replay_visit(self, w, warp, quantum, rotate_on_mem, steps,
                      budget) -> int:
        """Replay warp ``w``'s events: the serial ``_visit_warp``."""
        bit = 1 << w
        ctx = self.ctxs[w]
        timing = ctx.timing
        consumed = 0
        wl = self._wlog[w]
        log = self._log
        cursor = self._cursor
        hook_call = timing.hook_call
        while consumed < quantum:
            i = cursor[w]
            if i >= len(wl):
                if self._open[1] and (self._open[0] & bit):
                    self._flush_open()
                    continue
                if not self.dead and not self._complete:
                    self._pull(w)
                    continue
                if self.dead:
                    # Continue this visit on the interpreter with the
                    # frames materialized at fallback time.
                    return self.device._visit_warp(
                        ctx.interp, warp, quantum - consumed,
                        rotate_on_mem, steps, budget,
                    )
                break  # complete: no further events can involve w
            ev = log[wl[i]]
            kind = ev[0]
            if kind == _BATCH or kind == _ADMIN:
                count = ev[2]
                off = self._offset[w]
                avail = count - off
                room = quantum - consumed
                take = avail if avail < room else room
                dies = bool(ev[3] & bit) and take == avail
                # The step that retires the warp skips the budget check
                # (serial: `if warp.done: break` comes first).
                limit = budget + 1 if dies else budget
                if steps + take > limit:
                    over = budget - steps + 1
                    if kind == _BATCH:
                        warp.instructions_executed += over
                        timing.issue(over)
                    raise ExecutionError(
                        "kernel exceeded the step budget (infinite loop?)"
                    )
                if kind == _BATCH:
                    warp.instructions_executed += take
                    timing.issue(take)
                steps += take
                consumed += take
                if take < avail:
                    self._offset[w] = off + take
                    return steps
                self._offset[w] = 0
                cursor[w] = i + 1
                if dies:
                    warp.status = WarpStatus.DONE
                    warp.frames = []
                    return steps
            elif kind == _EXTRA:
                warp.instructions_executed += 1
                timing.issue()
                for meth, args in ev[2]:
                    getattr(timing, meth)(int(args[w]))
                steps += 1
                consumed += 1
                cursor[w] = i + 1
                if steps > budget:
                    raise ExecutionError(
                        "kernel exceeded the step budget (infinite loop?)"
                    )
            elif kind == _MEM:
                _, _, lines_by_w, mode, is_write, post = ev
                warp.instructions_executed += 1
                timing.issue()
                _model_global_lines(self._row_its[w], warp, lines_by_w[w],
                                    mode, is_write)
                if post:
                    for meth, args in post:
                        getattr(timing, meth)(int(args[w]))
                steps += 1
                consumed += 1
                cursor[w] = i + 1
                if steps > budget:
                    raise ExecutionError(
                        "kernel exceeded the step budget (infinite loop?)"
                    )
                if rotate_on_mem:
                    return steps
            elif kind == _HOOK:
                _, _, call, site, addrs, am2d, nact = ev
                warp.instructions_executed += 1
                timing.issue()
                na = nact[w]
                hook_call(na)
                if addrs is None:
                    call(site, warp, na)
                else:
                    call(site, warp, na,
                         addrs[w] if addrs.ndim == 2 else addrs, am2d[w])
                steps += 1
                consumed += 1
                cursor[w] = i + 1
                if steps > budget:
                    raise ExecutionError(
                        "kernel exceeded the step budget (infinite loop?)"
                    )
            else:  # _BARRIER
                warp.instructions_executed += 1
                timing.issue()
                cursor[w] = i + 1
                warp.status = WarpStatus.AT_BARRIER
                return steps
        return steps

    def run_round(self, quantum, rotate_on_mem, steps, total_budget,
                  rows=None):
        """One scheduler round over the machine's warps.

        ``rows`` restricts the round to a subset of row indices: a
        launch-wide gang spans several SMs, and each SM's drive loop
        replays only its own rows (execution is pull-driven, so the
        lock-step executor still advances all rows together).

        Returns ``(steps, progressed, debatched)``; ``debatched`` turns
        True once a fallback has fully drained and the CTA should hand
        its warps to the interpreter."""
        progressed = False
        for w in (range(self.W) if rows is None else rows):
            warp = self.warps[w]
            if warp.status is not WarpStatus.READY:
                continue
            before = steps
            steps = self._replay_visit(
                w, warp, quantum, rotate_on_mem, steps, total_budget
            )
            if steps != before:
                progressed = True
        return steps, progressed, self._drained()

    def _drained(self) -> bool:
        if not self.dead:
            return False
        for w, warp in enumerate(self.warps):
            if warp.done:
                continue
            if self._cursor[w] < len(self._wlog[w]):
                return False
        return True


def form_machines(device, fresh, budget: int) -> None:
    """Attach batched machines to newly resident CTAs.

    The launch's first staging passes every SM's resident CTAs in
    SM-major order (the order SMs run in); each refill passes the CTAs
    it staged. A multi-warp CTA gets its own machine. Single-warp CTAs
    -- where per-CTA batching has nothing to batch -- are fused, up to
    ``GANG_WIDTH`` at a time, into one **gang** machine whose rows are
    the CTAs' lone warps: they execute the same kernel in lock step,
    with per-row shared-memory arenas and trivially-satisfied barriers.
    A gang formed at launch staging spans SMs, so grids that
    round-robin one small CTA per SM (e.g. nw's 16-thread tiles) still
    batch; each SM's drive loop replays only its own rows. All CTAs of
    a launch share one kernel and one warp count. ``budget`` is the
    steps the launch has left, which caps each machine's executor.
    """
    if not fresh:
        return
    name = fresh[0].warps[0].frames[-1].function.name
    if device._batch_fallbacks.get(name, 0) >= FALLBACK_LIMIT:
        return
    spec = device._launch_spec
    if len(fresh[0].warps) >= 2:
        for ctx in fresh:
            ctx.batched = BatchedCTA(device, ctx, spec, budget)
        return
    for i in range(0, len(fresh) - 1, GANG_WIDTH):
        members = fresh[i:i + GANG_WIDTH]
        machine = BatchedCTA(device, members, spec, budget)
        for row, ctx in enumerate(members):
            ctx.batched = machine
            ctx.gang_row = row
