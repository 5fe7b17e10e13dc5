"""The CUDAAdvisor profiler (Section 3.2 of the paper).

Collection happens *inside* instrumented kernels: the engine's hook
calls (``Record``, ``passBasicBlock``, ``RecordArith``, ``cupr.push`` /
``cupr.pop``) dispatch into a per-launch :class:`HookRuntime`, which
packs arguments together with CTA/warp IDs into trace entries in a
device-resident buffer. Each time the buffer fills, and at kernel exit,
its rows are "copied back" (the data-marshaling step of the paper)
through one sink into the analyzer bank and/or the kept records of a
:class:`KernelProfile`, and attribution runs:

* **code-centric** -- warp shadow stacks (fed by the mandatory call
  instrumentation) give the GPU call path of every event, concatenated
  with the host shadow-stack snapshot taken at launch (Figure 8);
* **data-centric** -- the allocation/transfer interposition records give
  each accessed address its device data object and host counterpart
  (Figures 3 and 9).
"""

from repro.profiler.records import (
    ArithRecord,
    BlockRecord,
    MemoryAccessRecord,
    MemoryOp,
)
from repro.profiler.profiler import HookRuntime, KernelProfile
from repro.profiler.codecentric import CallPathRegistry, format_code_centric_view
from repro.profiler.datacentric import DataCentricMap, DataObjectView
from repro.profiler.session import ProfilingSession
from repro.profiler.pc_sampling import PCSampler, PCSampleProfile, coverage_vs_instrumentation

__all__ = [
    "ArithRecord",
    "BlockRecord",
    "CallPathRegistry",
    "DataCentricMap",
    "DataObjectView",
    "HookRuntime",
    "KernelProfile",
    "MemoryAccessRecord",
    "MemoryOp",
    "PCSampleProfile",
    "PCSampler",
    "ProfilingSession",
    "coverage_vs_instrumentation",
    "format_code_centric_view",
]
