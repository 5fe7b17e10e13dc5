"""Kernel pre-decoding: lower IR once, execute micro-ops many times.

``Device.load_module`` lowers every function body into flat per-block
micro-op arrays (:class:`DecodedBlock.ops`). Decoding resolves, once
per module load, everything the seed interpreter re-derived on every
dynamic instruction:

* type-dict dispatch -> a handler function stored on each micro-op;
* ``id()``-keyed register dicts -> dense integer register slots (one
  slot per SSA value/argument per function), so frames preallocate a
  plain list register file;
* constants and global addresses -> immediate numpy scalars (vector
  positions are pre-broadcast to full lane vectors);
* GEP strides, load/store dtypes and cache-operator bypass modes,
  branch targets, reconvergence blocks (ipostdoms) and per-edge phi
  move lists -> plain fields on the micro-op.

Operand references are encoded compactly: a Python ``int`` is a register
slot, anything else is an immediate (numpy scalar or pre-broadcast lane
vector) -- discriminated with ``type(ref) is int``, which no numpy scalar
satisfies.

Handlers share one signature ``run(op, it, warp, frame, entry, mask)``
where ``it`` is the :class:`~repro.gpu.interpreter.WarpInterpreter`.
They are module-level functions and must mirror the seed
interpreter's semantics exactly --
equivalence is pinned by tests/test_fastpath_equivalence.py and the
committed benchmark outputs.

The micro-op array is the contract between execution backends (see
docs/architecture.md): the per-warp interpreter calls ``op.run``
directly, while the batched backend (:mod:`repro.gpu.backend_batched`)
dispatches on the *identity* of ``op.run`` to a vectorized equivalent
and falls back to the interpreter for any handler it has no entry for.
Adding a handler here therefore never breaks the batched backend -- at
worst the new micro-op de-batches the CTA that executes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.gpu.coalescing import coalesce_lines
from repro.gpu.simt import StackEntry
from repro.gpu.timing import model_global_lines
from repro.gpu.vecops import (
    _apply_binop,
    _apply_math,
    _bank_conflict_degree,
)
from repro.ir.debuginfo import DebugLoc
from repro.ir.instructions import (
    Alloca,
    AtomicOp,
    AtomicRMW,
    BinOp,
    Br,
    CacheOp,
    Call,
    Cast,
    CastKind,
    CmpPred,
    CondBr,
    FCmp,
    GetElementPtr,
    ICmp,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.types import AddressSpace
from repro.ir.values import Argument, Constant, GlobalString, GlobalVariable

_I64 = np.int64

#: Raised (as an exception type re-exported by the interpreter) when a
#: warp reaches a CTA barrier; defined here to avoid an import cycle.
class BarrierReached(Exception):
    """Internal signal: the warp must wait at a CTA barrier."""


class MicroOp:
    """One pre-decoded instruction: a handler plus resolved operands."""

    __slots__ = ("run", "dst", "a", "b", "c", "d", "loc")

    def __init__(self, run, dst=None, a=None, b=None, c=None, d=None,
                 loc: Optional[DebugLoc] = None):
        self.run = run
        self.dst = dst
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.loc = loc

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MicroOp {self.run.__name__}>"


class DecodedBlock:
    """One basic block lowered to a flat micro-op array (phis removed)."""

    __slots__ = ("name", "block", "ops")

    def __init__(self, name: str, block):
        self.name = name
        self.block = block  # the source BasicBlock (debugging / hooks)
        self.ops: List[MicroOp] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DecodedBlock {self.name} ({len(self.ops)} ops)>"


class DecodedFunction:
    """A function lowered for execution: blocks + register-file layout."""

    __slots__ = ("function", "name", "n_slots", "slot_names", "arg_slots",
                 "entry", "blocks", "ret_dtype")

    def __init__(self, function):
        self.function = function
        self.name = function.name
        self.n_slots = 0
        self.slot_names: List[str] = []
        self.arg_slots: List[int] = []
        self.entry: Optional[DecodedBlock] = None
        self.blocks: List[DecodedBlock] = []
        self.ret_dtype = (
            None
            if function.return_type.is_void
            else function.return_type.numpy_dtype()
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DecodedFunction {self.name} slots={self.n_slots}>"


# -- operand helpers ----------------------------------------------------------------
def _undef(frame, slot: int):
    name = frame.decoded.slot_names[slot]
    raise ExecutionError(
        f"read of undefined value %{name} in @{frame.function.name}"
    )


def _apply_phi_moves(frame, moves, mask, warp_size: int) -> None:
    """Parallel-copy semantics for one CFG edge's phi prefix.

    All incoming values are read before any phi register is written,
    and only ``mask`` lanes are updated (predicated writes, which is
    how hardware realises SSA merges under divergence).
    """
    regs = frame.regs
    vals = []
    for dst, src, dtype in moves:
        if type(src) is int:
            v = regs[src]
            if v is None:
                _undef(frame, src)
            if v.ndim == 0:
                v = np.full(warp_size, v, dtype)
        else:
            v = src
        vals.append(v)
    for (dst, _, _), v in zip(moves, vals):
        prev = regs[dst]
        regs[dst] = v.copy() if prev is None else np.where(mask, v, prev)


def _model_global(it, warp, addrs, mask, width: int, mode: int,
                  is_write: bool) -> None:
    """Coalesce and send transactions through L1 + MSHRs + timing."""
    lines = coalesce_lines(addrs, mask, width, it.line_size)
    _model_global_lines(it, warp, lines, mode, is_write)


def _model_global_lines(it, warp, lines, mode: int, is_write: bool) -> None:
    """Send pre-coalesced cache lines through L1 + MSHRs + timing.

    Split out so the batched backend can coalesce a whole batch's
    address matrix once at record time and replay each warp with its
    precomputed line list. A threshold-sweep launch records the access
    on the SM's tape instead (see ``repro.gpu.timing.TimingTape``).
    """
    ctx = it.ctx
    ctx.transactions += len(lines)
    if ctx.tape is not None:
        ctx.tape.global_lines(warp.warp_in_cta, lines, mode, is_write)
        return
    if mode == 1:
        bypass = True
    elif mode == 0:
        bypass = False
    else:  # dynamic: horizontal bypass past the launch threshold
        threshold = ctx.l1_warps_per_cta
        bypass = threshold is not None and warp.warp_in_cta >= threshold
    model_global_lines(ctx.l1, ctx.mshr, ctx.timing, lines, bypass, is_write)


def _do_branch(frame, entry, target, moves, mask, warp_size) -> None:
    if moves:
        _apply_phi_moves(frame, moves, mask, warp_size)
    if entry.reconv is target:
        # This path reached its reconvergence point; its lanes are
        # already represented in the waiting entry's union mask.
        frame.stack.pop()
        return
    entry.block = target
    entry.index = 0


# -- micro-op handlers ---------------------------------------------------------------
def _mo_alloca(op, it, warp, frame, entry, mask):
    size = op.a
    addr = (frame.sp + size - 1) // size * size
    frame.sp = addr + size * op.b
    if frame.sp > warp.local_mem.arena_size:
        raise ExecutionError("kernel thread stack overflow (too many allocas)")
    frame.regs[op.dst] = _I64(addr)
    entry.index += 1


def _mo_gep(op, it, warp, frame, entry, mask):
    base = op.a
    if type(base) is int:
        base = frame.regs[base]
        if base is None:
            _undef(frame, op.a)
    index = frame.regs[op.b]
    if index is None:
        _undef(frame, op.b)
    frame.regs[op.dst] = base + index.astype(_I64) * op.c
    entry.index += 1


def _mo_gep_const(op, it, warp, frame, entry, mask):
    # Index was a constant: byte offset folded at decode time.
    base = op.a
    if type(base) is int:
        base = frame.regs[base]
        if base is None:
            _undef(frame, op.a)
    frame.regs[op.dst] = base + op.b
    entry.index += 1


def _mo_binop(op, it, warp, frame, entry, mask):
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
    frame.regs[op.dst] = op.c(a, b, mask)
    entry.index += 1


def _mo_const(op, it, warp, frame, entry, mask):
    frame.regs[op.dst] = op.a
    entry.index += 1


def _mo_cast_repr(op, it, warp, frame, entry, mask):
    v = frame.regs[op.a]
    if v is None:
        _undef(frame, op.a)
    # bitcast: pointers and i64 share representation; reinterpret vectors.
    if op.b is not None and v.ndim and v.dtype != op.b:
        v = v.view(op.b)
    frame.regs[op.dst] = v
    entry.index += 1


def _mo_cast_bool(op, it, warp, frame, entry, mask):
    v = frame.regs[op.a]
    if v is None:
        _undef(frame, op.a)
    frame.regs[op.dst] = (np.asarray(v) & 1).astype(np.bool_)
    entry.index += 1


def _mo_cast(op, it, warp, frame, entry, mask):
    v = frame.regs[op.a]
    if v is None:
        _undef(frame, op.a)
    frame.regs[op.dst] = np.asarray(v).astype(op.b)
    entry.index += 1


def _mo_select(op, it, warp, frame, entry, mask):
    c = op.a
    if type(c) is int:
        c = frame.regs[c]
        if c is None:
            _undef(frame, op.a)
    if c.ndim == 0:
        c = np.full(it.warp_size, c, np.bool_)
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
    frame.regs[op.dst] = np.where(c, a, b)
    entry.index += 1


def _read_addrs(op, it, frame):
    a = op.a
    if type(a) is int:
        a = frame.regs[a]
        if a is None:
            _undef(frame, op.a)
    if a.ndim == 0:
        a = np.full(it.warp_size, a, _I64)
    return a


def _mo_ld_global(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    _model_global(it, warp, addrs, mask, op.c, op.d, False)
    frame.regs[op.dst] = it.ctx.global_mem.gather(addrs, mask, op.b)
    entry.index += 1
    return "mem"


def _mo_ld_shared(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    it.ctx.timing.shared_access(_bank_conflict_degree(addrs, mask))
    frame.regs[op.dst] = it.ctx.shared_mem.gather(addrs, mask, op.b)
    entry.index += 1


def _mo_ld_local(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    frame.regs[op.dst] = warp.local_mem.gather(addrs, mask, op.b)
    entry.index += 1


def _mo_ld_const(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    frame.regs[op.dst] = it.image.constant_gather(addrs, mask, op.b)
    entry.index += 1


def _read_store_value(op, it, frame):
    v = op.b
    dtype = op.c
    if type(v) is int:
        v = frame.regs[v]
        if v is None:
            _undef(frame, op.b)
    if v.ndim == 0:
        v = np.full(it.warp_size, v, dtype)
    elif v.dtype != dtype:
        v = v.astype(dtype)
    return v


def _mo_st_global(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    values = _read_store_value(op, it, frame)
    _model_global(it, warp, addrs, mask, op.c.itemsize, op.d, True)
    it.ctx.global_mem.scatter(addrs, mask, values)
    entry.index += 1
    return "mem"


def _mo_st_shared(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    values = _read_store_value(op, it, frame)
    it.ctx.timing.shared_access(_bank_conflict_degree(addrs, mask))
    it.ctx.shared_mem.scatter(addrs, mask, values)
    entry.index += 1


def _mo_st_local(op, it, warp, frame, entry, mask):
    addrs = _read_addrs(op, it, frame)
    values = _read_store_value(op, it, frame)
    warp.local_mem.scatter(addrs, mask, values)
    entry.index += 1


_ONE_LANE = np.ones(1, dtype=bool)


def _run_atomic(op, it, warp, frame, entry, mask, arena):
    addrs = _read_addrs(op, it, frame)
    values = _read_store_value(op, it, frame)
    dtype = op.c
    lanes = np.flatnonzero(mask)
    it.ctx.timing.atomic(len(lanes))
    old = np.zeros(it.warp_size, dtype=dtype)
    apply_op = op.d
    for lane in lanes:
        addr = addrs[lane: lane + 1]
        current = arena.gather(addr, _ONE_LANE, dtype)[0]
        old[lane] = current
        new = apply_op(current, values[lane])
        arena.scatter(addr, _ONE_LANE, np.array([new], dtype=dtype))
    frame.regs[op.dst] = old
    entry.index += 1
    return addrs


def _mo_atomic_global(op, it, warp, frame, entry, mask):
    # Atomics always go to L2 on GPUs (bypass mode 1).
    addrs = _read_addrs(op, it, frame)
    _model_global(it, warp, addrs, mask, op.c.itemsize, 1, True)
    _run_atomic(op, it, warp, frame, entry, mask, it.ctx.global_mem)
    return "mem"


def _mo_atomic_shared(op, it, warp, frame, entry, mask):
    it.ctx.timing.shared_access(
        _bank_conflict_degree(_read_addrs(op, it, frame), mask)
    )
    _run_atomic(op, it, warp, frame, entry, mask, it.ctx.shared_mem)


def _mo_barrier(op, it, warp, frame, entry, mask):
    live = warp.resident_mask & ~frame.returned_mask
    if not np.array_equal(mask, live):
        raise ExecutionError(
            "__syncthreads() reached under divergent control "
            f"flow in @{frame.function.name} (undefined in CUDA)"
        )
    entry.index += 1  # resume after the barrier
    raise BarrierReached()


def _mo_intrin(op, it, warp, frame, entry, mask):
    frame.regs[op.dst] = op.a(warp)
    entry.index += 1


def _mo_math(op, it, warp, frame, entry, mask):
    args = []
    ws = it.warp_size
    regs = frame.regs
    for r in op.a:
        if type(r) is int:
            v = regs[r]
            if v is None:
                _undef(frame, r)
            if v.ndim == 0:
                v = np.full(ws, v, v.dtype)
        else:
            v = r
        args.append(v)
    regs[op.dst] = _apply_math(op.b, args, mask)
    entry.index += 1


def _mo_hook(op, it, warp, frame, entry, mask):
    regs = frame.regs
    args = []
    for r in op.a:
        if type(r) is int:
            v = regs[r]
            if v is None:
                _undef(frame, r)
            args.append(v)
        else:
            args.append(r)
    ctx = it.ctx
    ctx.timing.hook_call(entry.nactive)
    ctx.hooks.dispatch(op.b, args, mask, warp, ctx, entry.nactive)
    entry.index += 1


def _mo_call(op, it, warp, frame, entry, mask):
    entry.index += 1  # resume after the call on return
    callee = op.b
    new_frame = warp.push_frame(callee, mask, ret_slot=op.dst)
    regs = frame.regs
    new_regs = new_frame.regs
    for slot, ref in zip(callee.arg_slots, op.a):
        if type(ref) is int:
            v = regs[ref]
            if v is None:
                _undef(frame, ref)
        else:
            v = ref
        new_regs[slot] = v


def _mo_br(op, it, warp, frame, entry, mask):
    _do_branch(frame, entry, op.a, op.b, mask, it.warp_size)


def _mo_condbr(op, it, warp, frame, entry, mask):
    warp.branch_count += 1
    cond = op.a
    if type(cond) is int:
        cond = frame.regs[cond]
        if cond is None:
            _undef(frame, op.a)
    if cond.ndim == 0:
        cond = np.full(it.warp_size, cond, np.bool_)
    taken = cond & mask
    not_taken = ~cond & mask
    if not not_taken.any():
        _do_branch(frame, entry, op.b[0], op.b[1], mask, it.warp_size)
        return
    if not taken.any():
        _do_branch(frame, entry, op.c[0], op.c[1], mask, it.warp_size)
        return

    # Divergence: retarget this entry to the reconvergence point and
    # push one entry per path (paths that start at the reconvergence
    # point just wait there -- their lanes stay in this entry's mask).
    warp.divergent_branch_count += 1
    reconv = op.d  # may be None: wait for returns
    entry.block = reconv
    entry.index = 0
    ws = it.warp_size
    for (target, moves), path_mask in ((op.c, not_taken), (op.b, taken)):
        if moves:
            _apply_phi_moves(frame, moves, path_mask, ws)
        if target is not reconv:
            frame.stack.append(StackEntry(target, 0, reconv, path_mask))


def _mo_ret(op, it, warp, frame, entry, mask):
    ref = op.a
    if ref is not None:
        if type(ref) is int:
            value = frame.regs[ref]
            if value is None:
                _undef(frame, ref)
            if value.ndim == 0:
                value = np.full(it.warp_size, value, frame.decoded.ret_dtype)
        else:
            value = ref
        if frame.ret_values is None:
            frame.ret_values = value.copy()
        else:
            frame.ret_values = np.where(mask, value, frame.ret_values)
    warp.retire_lanes(mask)
    if not frame.stack:
        it._pop_frame(warp)


def _mo_fell_off(op, it, warp, frame, entry, mask):
    raise ExecutionError(
        f"fell off the end of block {op.a} in @{frame.function.name}"
    )


def _mo_unexpected_phi(op, it, warp, frame, entry, mask):
    # Phis never execute: their registers are written by the parallel
    # phi-moves performed on each traversed CFG edge. Reaching one means
    # it was not part of the block's leading phi prefix.
    raise ExecutionError(
        f"phi reached by sequential execution in {op.a}"
    )


def _mo_raise(op, it, warp, frame, entry, mask):
    raise ExecutionError(op.a)


# -- intrinsic accessors ------------------------------------------------------------
def _acc_tid_x(w):
    return w.tid_x


def _acc_tid_y(w):
    return w.tid_y


def _acc_tid_z(w):
    return w.tid_z


def _acc_ctaid_x(w):
    return w.ctaid_x


def _acc_ctaid_y(w):
    return w.ctaid_y


def _acc_ctaid_z(w):
    return w.ctaid_z


def _acc_ntid_x(w):
    return w.ntid_x


def _acc_ntid_y(w):
    return w.ntid_y


def _acc_ntid_z(w):
    return w.ntid_z


def _acc_nctaid_x(w):
    return w.nctaid_x


def _acc_nctaid_y(w):
    return w.nctaid_y


def _acc_nctaid_z(w):
    return w.nctaid_z


def _acc_laneid(w):
    return w.lane_ids


def _acc_warpid(w):
    return w.warpid_np


_INTRINSIC_ACCESSORS = {
    "nvvm.tid.x": _acc_tid_x,
    "nvvm.tid.y": _acc_tid_y,
    "nvvm.tid.z": _acc_tid_z,
    "nvvm.ctaid.x": _acc_ctaid_x,
    "nvvm.ctaid.y": _acc_ctaid_y,
    "nvvm.ctaid.z": _acc_ctaid_z,
    "nvvm.ntid.x": _acc_ntid_x,
    "nvvm.ntid.y": _acc_ntid_y,
    "nvvm.ntid.z": _acc_ntid_z,
    "nvvm.nctaid.x": _acc_nctaid_x,
    "nvvm.nctaid.y": _acc_nctaid_y,
    "nvvm.nctaid.z": _acc_nctaid_z,
    "nvvm.laneid": _acc_laneid,
    "nvvm.warpid": _acc_warpid,
}


# -- opcode tables -------------------------------------------------------------------
def _b_add(l, r, m):
    return l + r


def _b_sub(l, r, m):
    return l - r


def _b_mul(l, r, m):
    return l * r


def _b_and(l, r, m):
    return l & r


def _b_or(l, r, m):
    return l | r


def _b_xor(l, r, m):
    return l ^ r


def _b_shl(l, r, m):
    return l << r


def _b_ashr(l, r, m):
    return l >> r


def _b_min(l, r, m):
    return np.minimum(l, r)


def _b_max(l, r, m):
    return np.maximum(l, r)


def _delegated(opcode):
    def run(l, r, m, _op=opcode):
        return _apply_binop(_op, np.asarray(l), np.asarray(r), m)
    run.__name__ = f"_b_{opcode.value}"
    return run


_BINOP_FUNCS = {
    Opcode.ADD: _b_add,
    Opcode.FADD: _b_add,
    Opcode.SUB: _b_sub,
    Opcode.FSUB: _b_sub,
    Opcode.MUL: _b_mul,
    Opcode.FMUL: _b_mul,
    Opcode.AND: _b_and,
    Opcode.OR: _b_or,
    Opcode.XOR: _b_xor,
    Opcode.SHL: _b_shl,
    Opcode.ASHR: _b_ashr,
    Opcode.SMIN: _b_min,
    Opcode.FMIN: _b_min,
    Opcode.SMAX: _b_max,
    Opcode.FMAX: _b_max,
}
for _op in (Opcode.LSHR, Opcode.FDIV, Opcode.FREM, Opcode.SDIV,
            Opcode.SREM, Opcode.UDIV, Opcode.UREM):
    _BINOP_FUNCS[_op] = _delegated(_op)


def _c_eq(l, r, m):
    return l == r


def _c_ne(l, r, m):
    return l != r


def _c_lt(l, r, m):
    return l < r


def _c_le(l, r, m):
    return l <= r


def _c_gt(l, r, m):
    return l > r


def _c_ge(l, r, m):
    return l >= r


_CMP_FUNCS = {
    CmpPred.EQ: _c_eq,
    CmpPred.NE: _c_ne,
    CmpPred.LT: _c_lt,
    CmpPred.LE: _c_le,
    CmpPred.GT: _c_gt,
    CmpPred.GE: _c_ge,
}


def _a_add(c, v):
    return c + v


def _a_sub(c, v):
    return c - v


def _a_min(c, v):
    return min(c, v)


def _a_max(c, v):
    return max(c, v)


def _a_exch(c, v):
    return v


def _a_and(c, v):
    return c & v


def _a_or(c, v):
    return c | v


def _a_xor(c, v):
    return c ^ v


_ATOMIC_FUNCS = {
    AtomicOp.ADD: _a_add,
    AtomicOp.SUB: _a_sub,
    AtomicOp.MIN: _a_min,
    AtomicOp.MAX: _a_max,
    AtomicOp.EXCH: _a_exch,
    AtomicOp.AND: _a_and,
    AtomicOp.OR: _a_or,
    AtomicOp.XOR: _a_xor,
}

_BYPASS_MODE = {
    CacheOp.CACHE_ALL: 0,
    CacheOp.CACHE_GLOBAL: 1,
    CacheOp.DYNAMIC: 2,
}


# -- the decoder --------------------------------------------------------------------
class _FunctionDecoder:
    def __init__(self, image, decoded_map, out, debug_locs):
        self.image = image
        self.decoded_map = decoded_map
        self.fn = out.function
        self.warp_size = image.device.arch.warp_size
        self.debug_locs = debug_locs
        self.out = out
        self.slot_of: Dict[int, int] = {}

    def _new_slot(self, value) -> int:
        slot = self.out.n_slots
        self.out.n_slots += 1
        self.out.slot_names.append(value.name or f"v{slot}")
        self.slot_of[id(value)] = slot
        return slot

    def _imm(self, v):
        """Resolve a non-slot value to its immediate numpy scalar."""
        if isinstance(v, Constant):
            return v.type.numpy_dtype().type(v.value)
        return _I64(self.image.address_of(v))

    def _ref(self, v):
        """slot int (register) or numpy scalar (immediate)."""
        if isinstance(v, (Constant, GlobalVariable, GlobalString)):
            return self._imm(v)
        slot = self.slot_of.get(id(v))
        if slot is None:
            # A value with no defining slot in this function: reading it
            # is the "read of undefined value" error of the interpreter.
            slot = self._new_slot(v)
        return slot

    def _vref(self, v, dtype=None):
        """Like _ref but pre-broadcasts immediates to full lane vectors
        (the positions the interpreter passed through ``_vector``)."""
        r = self._ref(v)
        if type(r) is int:
            return r
        if dtype is None:
            dtype = np.asarray(r).dtype
        return np.full(self.warp_size, r, dtype)

    def _loc(self, inst) -> Optional[DebugLoc]:
        loc = inst.debug_loc
        if loc is None:
            return None
        return self.debug_locs.setdefault(loc, loc)

    def decode(self) -> DecodedFunction:
        fn = self.fn
        for arg in fn.args:
            self.out.arg_slots.append(self._new_slot(arg))
        # Pre-assign a slot for every value-producing instruction so
        # operand references never depend on block order.
        for block in fn.blocks:
            for inst in block.instructions:
                if not inst.type.is_void:
                    self._new_slot(inst)

        shells = {id(b): DecodedBlock(b.name, b) for b in fn.blocks}
        self.shells = shells
        for block in fn.blocks:
            self._decode_block(block, shells[id(block)])
        self.out.blocks = [shells[id(b)] for b in fn.blocks]
        self.out.entry = shells[id(fn.entry)]
        return self.out

    # -- per-block ------------------------------------------------------------
    def _decode_block(self, block, out: DecodedBlock) -> None:
        ops = out.ops
        in_phi_prefix = True
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if in_phi_prefix:
                    continue  # executed as edge moves, never sequentially
                ops.append(MicroOp(_mo_unexpected_phi, a=block.name,
                                   loc=self._loc(inst)))
                continue
            in_phi_prefix = False
            ops.append(self._decode_inst(block, inst))
        # Sentinel: lets the step loop skip per-instruction bounds checks.
        ops.append(MicroOp(_mo_fell_off, a=block.name))

    def _phi_moves_for_edge(self, pred_block, succ_block):
        """The (dst_slot, src_ref, dtype) parallel-copy list for an edge."""
        moves = []
        for inst in succ_block.instructions:
            if not isinstance(inst, Phi):
                break
            chosen = None
            for value, blk in inst.incoming:
                if blk is pred_block:
                    chosen = value
                    break
            if chosen is None:
                raise ExecutionError(
                    f"phi in {succ_block.name} lacks an arm for "
                    f"{pred_block.name}"
                )
            moves.append((
                self.slot_of[id(inst)],
                self._vref(chosen, inst.type.numpy_dtype()),
                inst.type.numpy_dtype(),
            ))
        return tuple(moves)

    def _edge(self, pred_block, succ_block):
        """(target DecodedBlock, phi moves) for one CFG edge."""
        return (
            self.shells[id(succ_block)],
            self._phi_moves_for_edge(pred_block, succ_block),
        )

    # -- per-instruction -----------------------------------------------------
    def _decode_inst(self, block, inst) -> MicroOp:
        loc = self._loc(inst)
        if isinstance(inst, Alloca):
            return MicroOp(
                _mo_alloca, dst=self.slot_of[id(inst)],
                a=inst.element_type.size_bytes(), b=inst.count, loc=loc,
            )
        if isinstance(inst, GetElementPtr):
            stride = inst.type.pointee.size_bytes()
            base = self._ref(inst.base)
            index = self._ref(inst.index)
            if type(index) is int:
                return MicroOp(
                    _mo_gep, dst=self.slot_of[id(inst)],
                    a=base, b=index, c=stride, loc=loc,
                )
            return MicroOp(
                _mo_gep_const, dst=self.slot_of[id(inst)],
                a=base, b=_I64(index.astype(_I64) * stride), loc=loc,
            )
        if isinstance(inst, Load):
            dtype = inst.type.numpy_dtype()
            space = inst.pointer.type.addrspace
            handlers = {
                AddressSpace.GLOBAL: _mo_ld_global,
                AddressSpace.SHARED: _mo_ld_shared,
                AddressSpace.LOCAL: _mo_ld_local,
                AddressSpace.CONSTANT: _mo_ld_const,
            }
            handler = handlers.get(space)
            if handler is None:
                return MicroOp(
                    _mo_raise,
                    a=f"load from unsupported address space {space}", loc=loc,
                )
            return MicroOp(
                handler, dst=self.slot_of[id(inst)],
                a=self._vref(inst.pointer, _I64), b=dtype,
                c=dtype.itemsize, d=_BYPASS_MODE[inst.cache_op], loc=loc,
            )
        if isinstance(inst, Store):
            dtype = inst.value.type.numpy_dtype()
            space = inst.pointer.type.addrspace
            handlers = {
                AddressSpace.GLOBAL: _mo_st_global,
                AddressSpace.SHARED: _mo_st_shared,
                AddressSpace.LOCAL: _mo_st_local,
            }
            handler = handlers.get(space)
            if handler is None:
                return MicroOp(
                    _mo_raise,
                    a=f"store to unsupported address space {space}", loc=loc,
                )
            return MicroOp(
                handler,
                a=self._vref(inst.pointer, _I64),
                b=self._vref(inst.value, dtype), c=dtype,
                d=_BYPASS_MODE[inst.cache_op], loc=loc,
            )
        if isinstance(inst, BinOp):
            return MicroOp(
                _mo_binop, dst=self.slot_of[id(inst)],
                a=self._ref(inst.lhs), b=self._ref(inst.rhs),
                c=_BINOP_FUNCS[inst.opcode], loc=loc,
            )
        if isinstance(inst, (ICmp, FCmp)):
            return MicroOp(
                _mo_binop, dst=self.slot_of[id(inst)],
                a=self._ref(inst.lhs), b=self._ref(inst.rhs),
                c=_CMP_FUNCS[inst.pred], loc=loc,
            )
        if isinstance(inst, Cast):
            return self._decode_cast(inst, loc)
        if isinstance(inst, Select):
            return MicroOp(
                _mo_select, dst=self.slot_of[id(inst)],
                a=self._vref(inst.cond, np.bool_),
                b=self._ref(inst.iftrue), c=self._ref(inst.iffalse), loc=loc,
            )
        if isinstance(inst, AtomicRMW):
            return self._decode_atomic(inst, loc)
        if isinstance(inst, Call):
            return self._decode_call(inst, loc)
        if isinstance(inst, Br):
            target, moves = self._edge(block, inst.target)
            return MicroOp(_mo_br, a=target, b=moves, loc=loc)
        if isinstance(inst, CondBr):
            reconv = self.image.ipostdom(self.fn, block)
            return MicroOp(
                _mo_condbr,
                a=self._vref(inst.cond, np.bool_),
                b=self._edge(block, inst.iftrue),
                c=self._edge(block, inst.iffalse),
                d=self.shells[id(reconv)] if reconv is not None else None,
                loc=loc,
            )
        if isinstance(inst, Ret):
            ref = None
            if inst.value is not None:
                ref = self._vref(inst.value, self.out.ret_dtype)
            return MicroOp(_mo_ret, a=ref, loc=loc)
        return MicroOp(_mo_raise, a=f"cannot execute instruction {inst!r}",
                       loc=loc)

    def _decode_cast(self, inst: Cast, loc) -> MicroOp:
        dst = self.slot_of[id(inst)]
        dtype = inst.type.numpy_dtype()
        kind = inst.kind
        src = self._ref(inst.value)
        if type(src) is not int:
            # Constant-fold at decode time with the interpreter's rules.
            if kind in (CastKind.BITCAST, CastKind.PTRTOINT,
                        CastKind.INTTOPTR):
                folded = src
            elif kind == CastKind.TRUNC and inst.type.is_bool:
                folded = (np.asarray(src) & 1).astype(np.bool_)
            else:
                folded = np.asarray(src).astype(dtype)
            return MicroOp(_mo_const, dst=dst, a=folded, loc=loc)
        if kind in (CastKind.BITCAST, CastKind.PTRTOINT, CastKind.INTTOPTR):
            view = dtype if kind == CastKind.BITCAST else None
            return MicroOp(_mo_cast_repr, dst=dst, a=src, b=view, loc=loc)
        if kind == CastKind.TRUNC and inst.type.is_bool:
            return MicroOp(_mo_cast_bool, dst=dst, a=src, loc=loc)
        return MicroOp(_mo_cast, dst=dst, a=src, b=dtype, loc=loc)

    def _decode_atomic(self, inst: AtomicRMW, loc) -> MicroOp:
        space = inst.pointer.type.addrspace
        dtype = inst.value.type.numpy_dtype()
        apply_op = _ATOMIC_FUNCS.get(inst.op)
        if apply_op is None:
            def apply_op(c, v, _op=inst.op):
                raise ExecutionError(f"unhandled atomic {_op}")
        if space == AddressSpace.GLOBAL:
            handler = _mo_atomic_global
        elif space == AddressSpace.SHARED:
            handler = _mo_atomic_shared
        else:
            return MicroOp(
                _mo_raise,
                a=f"atomic on unsupported address space {space}", loc=loc,
            )
        return MicroOp(
            handler, dst=self.slot_of[id(inst)],
            a=self._vref(inst.pointer, _I64),
            b=self._vref(inst.value, dtype), c=dtype, d=apply_op, loc=loc,
        )

    def _decode_call(self, inst: Call, loc) -> MicroOp:
        callee = inst.callee
        if callee.kind == "intrinsic":
            name = callee.name
            if name == "nvvm.barrier0":
                return MicroOp(_mo_barrier, loc=loc)
            if name == "nvvm.warpsize":
                return MicroOp(
                    _mo_const, dst=self.slot_of[id(inst)],
                    a=np.int32(self.warp_size), loc=loc,
                )
            accessor = _INTRINSIC_ACCESSORS.get(name)
            if accessor is not None:
                return MicroOp(
                    _mo_intrin, dst=self.slot_of[id(inst)], a=accessor,
                    loc=loc,
                )
            if name.startswith("nv."):
                return MicroOp(
                    _mo_math, dst=self.slot_of[id(inst)],
                    a=tuple(self._vref(a) for a in inst.args), b=name,
                    loc=loc,
                )
            return MicroOp(_mo_raise, a=f"unknown intrinsic @{name}", loc=loc)
        if callee.kind == "hook":
            return MicroOp(
                _mo_hook, a=tuple(self._ref(a) for a in inst.args),
                b=callee.name, loc=loc,
            )
        if callee.is_declaration:
            return MicroOp(
                _mo_raise, a=f"call to undefined function @{callee.name}",
                loc=loc,
            )
        ret_slot = None if inst.type.is_void else self.slot_of[id(inst)]
        return MicroOp(
            _mo_call, dst=ret_slot,
            a=tuple(self._ref(a) for a in inst.args),
            b=self.decoded_map[callee.name], loc=loc,
        )


def decode_module(image) -> Dict[str, DecodedFunction]:
    """Lower every defined kernel/device function of a loaded module."""
    module = image.module
    decoded: Dict[str, DecodedFunction] = {}
    bodies = [
        fn for fn in module.functions.values()
        if fn.kind in ("kernel", "device") and not fn.is_declaration
    ]
    # Shells first so calls can reference callees in any order.
    for fn in bodies:
        decoded[fn.name] = DecodedFunction(fn)
    debug_locs: Dict[DebugLoc, DebugLoc] = {}
    for fn in bodies:
        _FunctionDecoder(image, decoded, decoded[fn.name], debug_locs).decode()
    return decoded
