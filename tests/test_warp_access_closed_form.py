"""The closed forms of a classified warp access equal the per-lane walks.

:class:`~repro.gpu.coalescing.WarpAccess` derives a uniformly strided
access's cache lines, bank-conflict degree and address range without
visiting its lanes. On generated address vectors -- uniform and not,
under any mask -- each must equal its reference walk: ``_line_set``,
``_bank_conflict_degree`` and the arenas' min/max fault check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.gpu.coalescing import WarpAccess, _line_set
from repro.gpu.memory import GLOBAL_BASE, GlobalMemory, SharedMemory
from repro.gpu.vecops import _bank_conflict_degree

WARP = 32


@st.composite
def accesses(draw):
    """(addrs, mask): the active lanes step by one stride, or not."""
    mask = np.array(draw(st.lists(st.booleans(), min_size=WARP,
                                  max_size=WARP)))
    if not mask.any():
        mask[draw(st.integers(0, WARP - 1))] = True
    base = draw(st.integers(1 << 10, 1 << 16))
    if draw(st.booleans()):  # just below a line (and word) boundary
        base = base // 128 * 128 - draw(st.integers(0, 8))
    addrs = np.array(
        draw(st.lists(st.integers(0, 1 << 16), min_size=WARP,
                      max_size=WARP)),
        dtype=np.int64,
    )
    kind = draw(st.sampled_from(["lanes", "active", "random"]))
    stride = draw(st.one_of(
        st.integers(-8, 8),
        # line and word multiples, and one byte either side of a line
        st.sampled_from([-512, -256, -129, -128, -127, -33, -32, -31, 31,
                         32, 33, 64, 96, 127, 128, 129, 256, 384]),
        st.integers(-600, 600),
    ))
    if kind == "lanes":  # a stride over every lane, masked afterwards
        addrs = base + stride * np.arange(WARP, dtype=np.int64)
    elif kind == "active":  # a stride over the active lanes only
        addrs[mask] = base + stride * np.arange(int(mask.sum()))
    return addrs, mask


def _classify(addrs, mask):
    return WarpAccess(addrs, mask, np.count_nonzero(mask))


@settings(max_examples=200, deadline=None)
@given(accesses(), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([32, 128]))
def test_lines_equal_line_set(access, width, line_size):
    addrs, mask = access
    lines = _classify(addrs, mask).lines(width, line_size)
    assert lines == sorted(_line_set(addrs[mask].tolist(), width,
                                     line_size))


@settings(max_examples=200, deadline=None)
@given(accesses())
def test_bank_degree_equals_walk(access):
    addrs, mask = access
    assert (_classify(addrs, mask).bank_degree()
            == _bank_conflict_degree(addrs, mask))


@settings(max_examples=150, deadline=None)
@given(accesses())
def test_range_and_stride(access):
    addrs, mask = access
    acc = _classify(addrs, mask)
    active = addrs[mask]
    assert (acc.lo, acc.hi) == (int(active.min()), int(active.max()))
    steps = set(np.diff(active).tolist())
    assert acc.stride == (steps.pop() if len(steps) == 1
                          else 0 if not steps else None)


def _fault_text(check, *args):
    try:
        check(*args)
    except MemoryError_ as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(accesses(), st.sampled_from([1, 4, 8]))
def test_shared_fault_range_equals_walk(access, itemsize):
    addrs, mask = access
    shared = SharedMemory(1 << 15)
    assert (_fault_text(shared._check_access, _classify(addrs, mask),
                        itemsize)
            == _fault_text(shared._fault_check, addrs[mask], itemsize))


@settings(max_examples=150, deadline=None)
@given(accesses(), st.sampled_from([1, 4, 8]), st.booleans())
def test_global_fault_range_equals_walk(access, itemsize, check_bounds):
    addrs, mask = access
    memory = GlobalMemory(1 << 16)
    memory.check_bounds = check_bounds
    memory.allocate(1 << 14)
    # Shift into the arena so that some accesses fall below its base,
    # inside it, past the last allocation or past its end.
    addrs = addrs + GLOBAL_BASE - 1024
    assert (_fault_text(memory._check_access, _classify(addrs, mask),
                        itemsize)
            == _fault_text(memory._fault_check, addrs[mask], itemsize))


def test_lines_at_line_boundaries():
    """Every stride within a byte of 1x and 2x the line, every width and
    every start just below a line boundary: where the closed forms'
    conditions flip."""
    full = np.ones(WARP, dtype=bool)
    lanes = np.arange(WARP, dtype=np.int64)
    for line_size in (32, 128):
        strides = [m * line_size + d for m in (0, 1, 2) for d in (-1, 0, 1)]
        for stride in strides + [-s for s in strides]:
            for width in (1, 2, 4, 8):
                for back in range(10):
                    addrs = 64 * line_size - back + stride * lanes
                    for mask in (full, lanes < 7):
                        got = _classify(addrs, mask).lines(width, line_size)
                        assert got == sorted(_line_set(
                            addrs[mask].tolist(), width, line_size
                        )), (line_size, stride, width, back)


def test_bank_degree_at_word_strides():
    full = np.ones(WARP, dtype=bool)
    lanes = np.arange(WARP, dtype=np.int64)
    for stride in range(-140, 141):
        for back in range(5):
            addrs = 4096 - back + stride * lanes
            for mask in (full, lanes < 7):
                assert (_classify(addrs, mask).bank_degree()
                        == _bank_conflict_degree(addrs, mask)), (stride, back)


@pytest.mark.parametrize("stride,expected", [
    (4, 1), (8, 2), (12, 1), (16, 4), (128, 32), (-8, 2), (0, 1),
])
def test_bank_degree_examples(stride, expected):
    addrs = np.arange(WARP, dtype=np.int64) * stride + 4096
    acc = _classify(addrs, np.ones(WARP, dtype=bool))
    assert acc.bank_degree() == expected
