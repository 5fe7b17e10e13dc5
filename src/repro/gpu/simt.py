"""SIMT warp state: reconvergence stacks, call frames, warp status.

Divergence is handled with the classic immediate-post-dominator
reconvergence stack (the mechanism NVIDIA hardware implements): a warp
executes the top :class:`StackEntry`; a divergent branch at block ``B``
with ipostdom ``R`` retargets the current entry to ``R`` (it waits there
with the union mask) and pushes one entry per taken path with the split
masks; an entry is popped when it reaches its reconvergence block. The
branch-divergence analysis of the paper (Table 3) counts exactly these
divergence events via instrumented basic-block hooks.

Frames execute pre-decoded code (:class:`repro.gpu.decode.
DecodedFunction`): the register file is a dense list indexed by the
slot numbers assigned at decode time, and stack entries point at
:class:`~repro.gpu.decode.DecodedBlock` micro-op arrays.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

import numpy as np

from repro.gpu.memory import LocalMemory


class WarpStatus(enum.Enum):
    READY = "ready"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class StackEntry:
    """One reconvergence-stack entry: where to execute, under which mask.

    ``amask``/``nactive`` cache ``mask & ~frame.returned_mask`` (and its
    popcount) between steps; :meth:`Warp.retire_lanes` -- the only place
    either input changes -- invalidates them.
    """

    __slots__ = ("block", "index", "reconv", "mask", "amask", "nactive")

    def __init__(
        self,
        block,
        index: int,
        reconv,
        mask: np.ndarray,
    ):
        self.block = block
        self.index = index
        self.reconv = reconv
        self.mask = mask
        self.amask: Optional[np.ndarray] = None
        self.nactive = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StackEntry {self.block.name}@{self.index} "
            f"reconv={self.reconv.name if self.reconv else None} "
            f"mask={int(self.mask.sum())}>"
        )


class Frame:
    """One function activation of a warp."""

    __slots__ = (
        "function",
        "decoded",
        "regs",
        "stack",
        "sp",
        "base_sp",
        "ret_slot",
        "returned_mask",
        "ret_values",
    )

    def __init__(self, decoded, mask: np.ndarray, sp: int, ret_slot=None):
        self.function = decoded.function
        self.decoded = decoded
        self.regs: List[Optional[np.ndarray]] = [None] * decoded.n_slots
        self.stack: List[StackEntry] = [
            StackEntry(decoded.entry, 0, None, mask.copy())
        ]
        self.sp = sp  # local-memory stack pointer (byte offset)
        self.base_sp = sp
        self.ret_slot = ret_slot  # caller register slot to define, or None
        self.returned_mask = np.zeros_like(mask)
        self.ret_values: Optional[np.ndarray] = None


class Warp:
    """A 32-lane warp plus its execution state."""

    __slots__ = (
        "warp_size",
        "global_warp_id",
        "warp_in_cta",
        "cta_id",
        "cta_linear",
        "block_dim",
        "grid_dim",
        "resident_mask",
        "resident_lanes",
        "tid_x",
        "tid_y",
        "tid_z",
        "linear_tid",
        "ctaid_x",
        "ctaid_y",
        "ctaid_z",
        "ntid_x",
        "ntid_y",
        "ntid_z",
        "nctaid_x",
        "nctaid_y",
        "nctaid_z",
        "warpid_np",
        "lane_ids",
        "frames",
        "status",
        "local_mem",
        "instructions_executed",
        "branch_count",
        "divergent_branch_count",
    )

    def __init__(
        self,
        warp_size: int,
        global_warp_id: int,
        warp_in_cta: int,
        cta_id: Tuple[int, int, int],
        cta_linear: int,
        block_dim: Tuple[int, int, int],
        grid_dim: Tuple[int, int, int],
        first_thread: int,
    ):
        self.warp_size = warp_size
        self.global_warp_id = global_warp_id
        self.warp_in_cta = warp_in_cta
        self.cta_id = cta_id
        self.cta_linear = cta_linear
        self.block_dim = block_dim
        self.grid_dim = grid_dim

        bx, by, bz = block_dim
        threads_per_cta = bx * by * bz
        linear = first_thread + np.arange(warp_size)
        self.resident_mask = linear < threads_per_cta
        self.resident_lanes = int(self.resident_mask.sum())
        linear = np.minimum(linear, threads_per_cta - 1)
        self.tid_x = (linear % bx).astype(np.int32)
        self.tid_y = ((linear // bx) % by).astype(np.int32)
        self.tid_z = (linear // (bx * by)).astype(np.int32)
        self.linear_tid = linear.astype(np.int32)

        # Launch-constant intrinsic values, materialized once per warp
        # (register values are never mutated in place, so sharing these
        # arrays/scalars across reads is safe).
        self.ctaid_x = np.int32(cta_id[0])
        self.ctaid_y = np.int32(cta_id[1])
        self.ctaid_z = np.int32(cta_id[2])
        self.ntid_x = np.int32(bx)
        self.ntid_y = np.int32(by)
        self.ntid_z = np.int32(bz)
        self.nctaid_x = np.int32(grid_dim[0])
        self.nctaid_y = np.int32(grid_dim[1])
        self.nctaid_z = np.int32(grid_dim[2])
        self.warpid_np = np.int32(warp_in_cta)
        self.lane_ids = np.arange(warp_size, dtype=np.int32)

        self.frames: List[Frame] = []
        self.status = WarpStatus.READY
        self.local_mem: Optional[LocalMemory] = None  # set by the SM
        self.instructions_executed = 0
        self.branch_count = 0
        self.divergent_branch_count = 0

    # -- frame / stack plumbing ---------------------------------------------
    def push_frame(self, decoded, mask: np.ndarray, ret_slot=None) -> Frame:
        sp = self.frames[-1].sp if self.frames else 0
        frame = Frame(decoded, mask, sp, ret_slot)
        self.frames.append(frame)
        return frame

    @property
    def current_frame(self) -> Frame:
        return self.frames[-1]

    @property
    def done(self) -> bool:
        return self.status == WarpStatus.DONE

    def retire_lanes(self, mask: np.ndarray) -> None:
        """Lanes in ``mask`` executed ``ret``: strip them from every entry."""
        frame = self.current_frame
        frame.returned_mask |= mask
        for entry in frame.stack:
            entry.mask = entry.mask & ~mask
            entry.amask = None
        while frame.stack and not frame.stack[-1].mask.any():
            frame.stack.pop()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Warp {self.global_warp_id} cta={self.cta_linear} "
            f"w{self.warp_in_cta} {self.status.value}>"
        )
