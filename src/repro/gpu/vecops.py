"""Vector semantics too long for decode's one-line op tables.

The binary ops that need more than one numpy operator, the math
intrinsics and the shared-memory bank-conflict model, on 32-lane numpy
vectors. The interpreter derives a uniformly strided access's bank
degree in closed form
(:meth:`repro.gpu.coalescing.WarpAccess.bank_degree`) and walks the
lanes here for any other. The decode layer
(:mod:`repro.gpu.decode`) binds them into micro-op handlers at module
load time; its ``_BINOP_FUNCS``, ``_CMP_FUNCS`` and ``_ATOMIC_FUNCS``
tables define every other op.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ExecutionError
from repro.ir.instructions import Opcode


def _apply_binop(opcode: Opcode, lhs, rhs, mask) -> np.ndarray:
    """The binary ops that take more than one numpy operator: logical
    shift right and the divisions, whose inactive or zero divisors are
    replaced by 1 so they never trap. Decode's ``_BINOP_FUNCS`` holds
    every other binary op."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    if opcode == Opcode.LSHR:
        # Shift the same-width *unsigned* reinterpretation
        # (sign-extending through a wider type would smear the sign
        # bits back in).
        unsigned_dtype = np.dtype(f"u{lhs.dtype.itemsize}")
        unsigned = lhs.view(unsigned_dtype) if lhs.ndim else np.asarray(
            lhs
        ).astype(lhs.dtype).view(unsigned_dtype)
        shifted = unsigned >> rhs.astype(unsigned_dtype)
        return shifted.view(lhs.dtype) if shifted.ndim else np.asarray(
            shifted
        ).astype(lhs.dtype)
    safe_rhs = np.where(_active_and_nonzero(rhs, mask), rhs, np.ones_like(rhs))
    if opcode == Opcode.FDIV:
        with np.errstate(divide="ignore", invalid="ignore"):
            return lhs / safe_rhs
    if opcode == Opcode.FREM:
        return np.fmod(lhs, safe_rhs)
    if opcode in (Opcode.UDIV, Opcode.UREM):
        q = (lhs.astype(np.uint64) // safe_rhs.astype(np.uint64)).astype(lhs.dtype)
        if opcode == Opcode.UDIV:
            return q
        return lhs - q * safe_rhs
    if opcode in (Opcode.SDIV, Opcode.SREM):
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


def _bank_conflict_degree(addrs: np.ndarray, mask: np.ndarray) -> int:
    """Shared memory is banked (32 banks, 4-byte words): lanes hitting
    different words of the same bank serialize. Returns the worst-case
    bank multiplicity (1 = conflict-free; broadcasts of the *same* word
    are free, as on hardware).
    """
    return _bank_degree_of(addrs[mask].tolist())


def _bank_degree_of(active: List[int]) -> int:
    """:func:`_bank_conflict_degree` of the active lanes' addresses.

    One Python pass over their distinct words: at warp width this beats
    any numpy formulation (each numpy call costs more than the whole
    pass).
    """
    counts = [0] * 32
    for word in {addr // 4 for addr in active}:
        counts[word % 32] += 1
    return max(max(counts), 1)
