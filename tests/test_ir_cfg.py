"""Tests for CFG utilities: dominators and immediate post-dominators."""

import pytest

from repro.ir import IRBuilder, Module, VOID, I32
from repro.ir.cfg import (
    immediate_dominators,
    immediate_post_dominators,
    predecessor_map,
    reachable_blocks,
    reverse_post_order,
)
from repro.ir.instructions import CmpPred
from repro.ir.values import Constant


def _diamond():
    """entry -> (then|else) -> merge -> exit."""
    m = Module("m", target="nvptx")
    fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
    entry = fn.add_block("entry")
    then = fn.add_block("then")
    els = fn.add_block("else")
    merge = fn.add_block("merge")
    b = IRBuilder.at_end(entry)
    cond = b.icmp(CmpPred.LT, fn.args[0], b.i32(5))
    b.cond_br(cond, then, els)
    IRBuilder.at_end(then).br(merge)
    IRBuilder.at_end(els).br(merge)
    IRBuilder.at_end(merge).ret()
    return fn, entry, then, els, merge


def _loop():
    """entry -> header <-> body, header -> exit."""
    m = Module("m", target="nvptx")
    fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    IRBuilder.at_end(entry).br(header)
    b = IRBuilder.at_end(header)
    cond = b.icmp(CmpPred.LT, fn.args[0], b.i32(5))
    b.cond_br(cond, body, exit_)
    IRBuilder.at_end(body).br(header)
    IRBuilder.at_end(exit_).ret()
    return fn, entry, header, body, exit_


class TestOrderAndPreds:
    def test_reverse_post_order_starts_at_entry(self):
        fn, entry, then, els, merge = _diamond()
        order = reverse_post_order(fn)
        assert order[0] is entry
        assert order[-1] is merge
        assert set(order) == {entry, then, els, merge}

    def test_predecessors(self):
        fn, entry, then, els, merge = _diamond()
        preds = predecessor_map(fn)
        assert preds[entry] == []
        assert set(preds[merge]) == {then, els}

    def test_unreachable_excluded(self):
        fn, entry, *_ = _diamond()
        dead = fn.add_block("dead")
        IRBuilder.at_end(dead).ret()
        assert dead not in reachable_blocks(fn)


class TestDominators:
    def test_diamond_idoms(self):
        fn, entry, then, els, merge = _diamond()
        idom = immediate_dominators(fn)
        assert idom[entry] is None
        assert idom[then] is entry
        assert idom[els] is entry
        assert idom[merge] is entry

    def test_loop_idoms(self):
        fn, entry, header, body, exit_ = _loop()
        idom = immediate_dominators(fn)
        assert idom[header] is entry
        assert idom[body] is header
        assert idom[exit_] is header


class TestPostDominators:
    def test_diamond_reconvergence(self):
        """The branch block's ipostdom is the merge: the SIMT stack must
        reconverge the diamond exactly there."""
        fn, entry, then, els, merge = _diamond()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[entry] is merge
        assert ipdom[then] is merge
        assert ipdom[els] is merge
        assert ipdom[merge] is None  # exits the function

    def test_loop_reconvergence(self):
        fn, entry, header, body, exit_ = _loop()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[header] is exit_  # loop branch reconverges at the exit
        assert ipdom[body] is header

    def test_branch_to_returns(self):
        """Both arms return: reconvergence point is the virtual exit."""
        m = Module("m", target="nvptx")
        fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
        entry = fn.add_block("entry")
        a = fn.add_block("a")
        b_blk = fn.add_block("b")
        b = IRBuilder.at_end(entry)
        cond = b.icmp(CmpPred.LT, fn.args[0], b.i32(0))
        b.cond_br(cond, a, b_blk)
        IRBuilder.at_end(a).ret()
        IRBuilder.at_end(b_blk).ret()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[entry] is None

    def test_nested_diamonds(self):
        m = Module("m", target="nvptx")
        fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
        entry = fn.add_block("entry")
        outer_then = fn.add_block("outer.then")
        inner_then = fn.add_block("inner.then")
        inner_merge = fn.add_block("inner.merge")
        outer_merge = fn.add_block("outer.merge")
        b = IRBuilder.at_end(entry)
        c1 = b.icmp(CmpPred.LT, fn.args[0], b.i32(0))
        b.cond_br(c1, outer_then, outer_merge)
        b.position_at_end(outer_then)
        c2 = b.icmp(CmpPred.GT, fn.args[0], b.i32(-5))
        b.cond_br(c2, inner_then, inner_merge)
        IRBuilder.at_end(inner_then).br(inner_merge)
        IRBuilder.at_end(inner_merge).br(outer_merge)
        IRBuilder.at_end(outer_merge).ret()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[entry] is outer_merge
        assert ipdom[outer_then] is inner_merge
        assert ipdom[inner_then] is inner_merge
        assert ipdom[inner_merge] is outer_merge

    def test_triangle_if_without_else(self):
        """entry -> (then | merge), then -> merge: the merge block
        post-dominates the branch even with one empty arm -- the shape
        every ``if cond:`` without ``else`` lowers to."""
        m = Module("m", target="nvptx")
        fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
        entry = fn.add_block("entry")
        then = fn.add_block("then")
        merge = fn.add_block("merge")
        b = IRBuilder.at_end(entry)
        cond = b.icmp(CmpPred.LT, fn.args[0], b.i32(0))
        b.cond_br(cond, then, merge)
        IRBuilder.at_end(then).br(merge)
        IRBuilder.at_end(merge).ret()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[entry] is merge
        assert ipdom[then] is merge

    def test_loop_with_break(self):
        """header -> (body | exit), body -> (latch | exit): the break
        edge gives the body two exits; the loop exit is the only block
        that post-dominates header AND body."""
        m = Module("m", target="nvptx")
        fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        latch = fn.add_block("latch")
        exit_ = fn.add_block("exit")
        IRBuilder.at_end(entry).br(header)
        b = IRBuilder.at_end(header)
        c1 = b.icmp(CmpPred.LT, fn.args[0], b.i32(10))
        b.cond_br(c1, body, exit_)
        b.position_at_end(body)
        c2 = b.icmp(CmpPred.EQ, fn.args[0], b.i32(3))
        b.cond_br(c2, exit_, latch)  # break out of the loop
        IRBuilder.at_end(latch).br(header)
        IRBuilder.at_end(exit_).ret()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[header] is exit_
        assert ipdom[body] is exit_  # latch does NOT post-dominate body
        assert ipdom[latch] is header

    def test_one_arm_returns(self):
        """entry -> (ret | cont): only the continuing arm reaches the
        merge, so the branch reconverges at the virtual exit (None):
        its lanes only meet again when the frame returns."""
        m = Module("m", target="nvptx")
        fn = m.add_function("f", VOID, [(I32, "n")], kind="kernel")
        entry = fn.add_block("entry")
        early = fn.add_block("early")
        cont = fn.add_block("cont")
        b = IRBuilder.at_end(entry)
        cond = b.icmp(CmpPred.LT, fn.args[0], b.i32(0))
        b.cond_br(cond, early, cont)
        IRBuilder.at_end(early).ret()
        IRBuilder.at_end(cont).ret()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[entry] is None
        assert ipdom[early] is None
        assert ipdom[cont] is None

    def test_straightline_chain(self):
        """a -> b -> c: each block's ipostdom is simply its successor."""
        m = Module("m", target="nvptx")
        fn = m.add_function("f", VOID, [], kind="kernel")
        a = fn.add_block("a")
        b_blk = fn.add_block("b")
        c = fn.add_block("c")
        IRBuilder.at_end(a).br(b_blk)
        IRBuilder.at_end(b_blk).br(c)
        IRBuilder.at_end(c).ret()
        ipdom = immediate_post_dominators(fn)
        assert ipdom[a] is b_blk
        assert ipdom[b_blk] is c
        assert ipdom[c] is None
