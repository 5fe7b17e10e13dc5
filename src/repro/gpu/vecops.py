"""Pure vector semantics shared by the decoder and the interpreter.

These functions define what each IR operation *means* on 32-lane numpy
vectors, independent of how execution is driven. The decode layer
(:mod:`repro.gpu.decode`) binds them into micro-op handlers at module
load time; the interpreter re-exports them for compatibility.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ExecutionError
from repro.ir.instructions import AtomicOp, CmpPred, Opcode


def _apply_binop(opcode: Opcode, lhs, rhs, mask) -> np.ndarray:
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    if opcode == Opcode.ADD:
        return lhs + rhs
    if opcode == Opcode.SUB:
        return lhs - rhs
    if opcode == Opcode.MUL:
        return lhs * rhs
    if opcode == Opcode.FADD:
        return lhs + rhs
    if opcode == Opcode.FSUB:
        return lhs - rhs
    if opcode == Opcode.FMUL:
        return lhs * rhs
    if opcode == Opcode.AND:
        return lhs & rhs
    if opcode == Opcode.OR:
        return lhs | rhs
    if opcode == Opcode.XOR:
        return lhs ^ rhs
    if opcode == Opcode.SHL:
        return lhs << rhs
    if opcode in (Opcode.LSHR, Opcode.ASHR):
        # ASHR on signed dtypes is arithmetic in numpy; LSHR shifts the
        # same-width *unsigned* reinterpretation (sign-extending through
        # a wider type would smear the sign bits back in).
        if opcode == Opcode.LSHR:
            unsigned_dtype = np.dtype(f"u{lhs.dtype.itemsize}")
            unsigned = lhs.view(unsigned_dtype) if lhs.ndim else np.asarray(
                lhs
            ).astype(lhs.dtype).view(unsigned_dtype)
            shifted = unsigned >> rhs.astype(unsigned_dtype)
            return shifted.view(lhs.dtype) if shifted.ndim else np.asarray(
                shifted
            ).astype(lhs.dtype)
        return lhs >> rhs
    if opcode == Opcode.SMIN or opcode == Opcode.FMIN:
        return np.minimum(lhs, rhs)
    if opcode == Opcode.SMAX or opcode == Opcode.FMAX:
        return np.maximum(lhs, rhs)
    if opcode == Opcode.FDIV:
        safe_rhs = np.where(_active_and_nonzero(rhs, mask), rhs, np.ones_like(rhs))
        with np.errstate(divide="ignore", invalid="ignore"):
            return lhs / safe_rhs
    if opcode == Opcode.FREM:
        safe_rhs = np.where(_active_and_nonzero(rhs, mask), rhs, np.ones_like(rhs))
        return np.fmod(lhs, safe_rhs)
    if opcode in (Opcode.SDIV, Opcode.SREM, Opcode.UDIV, Opcode.UREM):
        safe_rhs = np.where(_active_and_nonzero(rhs, mask), rhs, np.ones_like(rhs))
        if opcode in (Opcode.UDIV, Opcode.UREM):
            q = (lhs.astype(np.uint64) // safe_rhs.astype(np.uint64)).astype(lhs.dtype)
            if opcode == Opcode.UDIV:
                return q
            return lhs - q * safe_rhs
        # C-style truncating signed division.
        q = np.floor_divide(lhs, safe_rhs)
        r = lhs - q * safe_rhs
        adjust = (r != 0) & ((lhs < 0) ^ (safe_rhs < 0))
        q = q + adjust.astype(q.dtype)
        if opcode == Opcode.SDIV:
            return q
        return lhs - q * safe_rhs
    raise ExecutionError(f"unhandled opcode {opcode}")


def _active_and_nonzero(rhs, mask) -> np.ndarray:
    nonzero = np.asarray(rhs) != 0
    if np.ndim(nonzero) == 0:
        return np.logical_and(nonzero, True)
    if np.ndim(mask) and np.ndim(nonzero):
        return nonzero & mask
    return nonzero


def _apply_cmp(pred: CmpPred, lhs, rhs) -> np.ndarray:
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    if pred == CmpPred.EQ:
        return lhs == rhs
    if pred == CmpPred.NE:
        return lhs != rhs
    if pred == CmpPred.LT:
        return lhs < rhs
    if pred == CmpPred.LE:
        return lhs <= rhs
    if pred == CmpPred.GT:
        return lhs > rhs
    return lhs >= rhs


def _apply_atomic(op: AtomicOp, current, value):
    if op == AtomicOp.ADD:
        return current + value
    if op == AtomicOp.SUB:
        return current - value
    if op == AtomicOp.MIN:
        return min(current, value)
    if op == AtomicOp.MAX:
        return max(current, value)
    if op == AtomicOp.EXCH:
        return value
    if op == AtomicOp.AND:
        return current & value
    if op == AtomicOp.OR:
        return current | value
    if op == AtomicOp.XOR:
        return current ^ value
    raise ExecutionError(f"unhandled atomic {op}")


def _apply_math(name: str, args: List[np.ndarray], mask) -> np.ndarray:
    a = args[0]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if name in ("nv.sqrt.f32", "nv.sqrt.f64"):
            return np.sqrt(np.where(mask & (a >= 0), a, 0)).astype(a.dtype)
        if name in ("nv.exp.f32", "nv.exp.f64"):
            return np.exp(a).astype(a.dtype)
        if name in ("nv.log.f32", "nv.log.f64"):
            return np.log(np.where(mask & (a > 0), a, 1)).astype(a.dtype)
        if name in ("nv.fabs.f32", "nv.fabs.f64"):
            return np.abs(a)
        if name == "nv.floor.f32":
            return np.floor(a).astype(a.dtype)
        if name == "nv.pow.f32":
            return np.power(a, args[1]).astype(a.dtype)
        if name == "nv.fmin.f32":
            return np.minimum(a, args[1])
        if name == "nv.fmax.f32":
            return np.maximum(a, args[1])
    raise ExecutionError(f"unknown math intrinsic {name}")


def _bank_conflict_degrees(addrs: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-warp bank-conflict degrees for batched shared accesses.

    ``addrs``/``masks`` are ``(num_warps, warp_size)``; returns one
    :func:`_bank_conflict_degree` per row, so the batched backend charges
    the same shared-access cycles the serial interpreter would.

    Vectorized: one combined ``unique`` over ``(row, word)`` pairs
    dedupes same-word broadcasts, one ``bincount`` over ``(row, bank)``
    counts the serialized distinct words per bank, and the per-row max
    is the degree -- identical to the per-row scalar computation.
    """
    W = addrs.shape[0]
    if not masks.any():
        return np.ones(W, dtype=np.int64)
    rows, lanes = np.nonzero(masks)
    words = addrs[rows, lanes] // 4
    low = int(words.min())
    span = int(words.max()) - low + 1
    pairs = np.unique(rows * span + (words - low))
    urows = pairs // span
    ubanks = (pairs % span + low) % 32
    counts = np.bincount(
        urows * 32 + ubanks, minlength=W * 32
    ).reshape(W, 32)
    return np.maximum(counts.max(axis=1), 1)


def _bank_conflict_degree(addrs: np.ndarray, mask: np.ndarray) -> int:
    """Shared memory is banked (32 banks, 4-byte words): lanes hitting
    different words of the same bank serialize. Returns the worst-case
    bank multiplicity (1 = conflict-free; broadcasts of the *same* word
    are free, as on hardware).

    One Python pass over the active lanes' distinct words: at warp
    width this beats any numpy formulation (each numpy call costs more
    than the whole pass).
    """
    counts = [0] * 32
    for word in set((addrs[mask] // 4).tolist()):
        counts[word % 32] += 1
    return max(max(counts), 1)
