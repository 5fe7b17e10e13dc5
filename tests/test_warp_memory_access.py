"""Pins of the interpreter's warp memory instructions by address pattern.

A fixed table of small DSL kernels copies one element per lane through
global or shared memory at a chosen lane stride, element type and mask.
For every case the launch's transaction count, L1 ``CacheStats``,
simulated cycles and output bytes are literals recorded before the
memory path was rewritten, so any change to line coalescing, bank
conflicts, L1 order or the gather/scatter itself shows up here. The
exact fault texts of three out-of-range accesses are pinned too.

The DSL has no 16-bit type: the i16 kernels are the i8 kernels' textual
IR with the element type widened, parsed back.
"""

from __future__ import annotations

import functools
import hashlib
import re

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.frontend import (
    compile_kernels,
    f32,
    f64,
    i8,
    i32,
    kernel,
    ptr_f32,
    ptr_f64,
    ptr_i8,
)
from repro.gpu import Device, KEPLER_K40C
from repro.ir import parse_module, print_module
from repro.passes import optimization_pipeline


# -- kernels: one lane, one element, index ``base + t * s`` -------------------
# ``base`` is 5 elements into the buffer, so lanes start mid-line.
# ``t % d != d - 1`` keeps every lane for a large ``d`` and masks every
# third lane (a divergent ``if``) for ``d = 3``. The value is loaded
# twice, so the second load reads lines the first one brought into L1.

@kernel
def gcopy_i8(src: ptr_i8, dst: ptr_i8, base: i32, s: i32, d: i32):
    t = tid_x
    if t % d != d - 1:
        dst[base + t * s] = src[base + t * s] + src[base + t * s]


@kernel
def gcopy_f32(src: ptr_f32, dst: ptr_f32, base: i32, s: i32, d: i32):
    t = tid_x
    if t % d != d - 1:
        dst[base + t * s] = src[base + t * s] + src[base + t * s]


@kernel
def gcopy_f64(src: ptr_f64, dst: ptr_f64, base: i32, s: i32, d: i32):
    t = tid_x
    if t % d != d - 1:
        dst[base + t * s] = src[base + t * s] + src[base + t * s]


@kernel
def scopy_i8(src: ptr_i8, dst: ptr_i8, base: i32, s: i32, d: i32):
    tile = shared(i8, 4096)
    t = tid_x
    if t % d != d - 1:
        tile[base + t * s] = src[t]
    syncthreads()
    if t % d != d - 1:
        dst[t] = tile[base + t * s] + tile[base + t * s]


@kernel
def scopy_f32(src: ptr_f32, dst: ptr_f32, base: i32, s: i32, d: i32):
    tile = shared(f32, 4096)
    t = tid_x
    if t % d != d - 1:
        tile[base + t * s] = src[t]
    syncthreads()
    if t % d != d - 1:
        dst[t] = tile[base + t * s] + tile[base + t * s]


@kernel
def scopy_f64(src: ptr_f64, dst: ptr_f64, base: i32, s: i32, d: i32):
    tile = shared(f64, 4096)
    t = tid_x
    if t % d != d - 1:
        tile[base + t * s] = src[t]
    syncthreads()
    if t % d != d - 1:
        dst[t] = tile[base + t * s] + tile[base + t * s]


_KERNELS = {
    ("global", "i8"): gcopy_i8,
    ("global", "f32"): gcopy_f32,
    ("global", "f64"): gcopy_f64,
    ("shared", "i8"): scopy_i8,
    ("shared", "f32"): scopy_f32,
    ("shared", "f64"): scopy_f64,
}
_DTYPES = {"i8": np.int8, "i16": np.int16, "f32": np.float32,
           "f64": np.float64}

#: Lane strides in elements. "odd" does not divide the 128-byte line;
#: "wide" spans more than a line (256 bytes for i16/f32, 130 and 136
#: bytes for i8/f64, which are not line multiples).
_STRIDES = {
    "unit": {"i8": 1, "i16": 1, "f32": 1, "f64": 1},
    "neg": {"i8": -1, "i16": -1, "f32": -1, "f64": -1},
    "zero": {"i8": 0, "i16": 0, "f32": 0, "f64": 0},
    "odd": {"i8": 3, "i16": 3, "f32": 3, "f64": 3},
    "wide": {"i8": 130, "i16": 128, "f32": 64, "f64": 17},
}
#: mask -> (threads per CTA, ``d``)
_MASKS = {"full": (32, 1000), "partial": (20, 1000), "divergent": (32, 3)}


@functools.lru_cache(maxsize=None)
def _module(space: str, ty: str):
    """The compiled, optimized module of one (space, element type)."""
    narrow = "i8" if ty == "i16" else ty
    k = _KERNELS[(space, narrow)]
    module = compile_kernels([k], k.name)
    optimization_pipeline().run(module)
    if ty == "i16":
        module = parse_module(re.sub(r"\bi8\b", "i16", print_module(module)))
    return k.name, module


def _launch(space, ty, stride, block, d, src_addr=None, base=None):
    name, module = _module(space, ty)
    dtype = np.dtype(_DTYPES[ty])
    dev = Device(KEPLER_K40C)
    img = dev.load_module(module)
    n = 32 * max(abs(stride), 1) + 64
    data = (np.arange(n) * 7 + 3).astype(dtype)
    src = dev.malloc(n * dtype.itemsize)
    dst = dev.malloc(n * dtype.itemsize)
    dev.memcpy_htod(src, data)
    dev.memcpy_htod(dst, np.zeros(n, dtype))
    if base is None:
        # Start mid-line; a negative stride starts at the top.
        base = 5 + (31 * -stride if stride < 0 else 0)
    src_arg = src if src_addr is None else src_addr
    result = dev.launch(img, name, 1, block, [src_arg, dst, base, stride, d])
    out = dev.memcpy_dtoh(dst, dtype, n).tobytes()
    return result, hashlib.sha256(out).hexdigest()[:16]


#: (space, type, stride, mask) -> (transactions, (read_hits,
#: read_misses, write_hits, write_misses, bypassed, evictions), cycles,
#: sha256 prefix of the output buffer)
PINS = {
    ('global', 'i8', 'unit', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'fe1938f0c55dc62c'),
    ('global', 'i8', 'unit', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'f9c5b35af98e57d5'),
    ('global', 'i8', 'unit', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '3cc50b7007df4b4a'),
    ('global', 'i8', 'neg', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'fe1938f0c55dc62c'),
    ('global', 'i8', 'neg', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '54d0d644bc616bda'),
    ('global', 'i8', 'neg', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '3cc50b7007df4b4a'),
    ('global', 'i8', 'zero', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '66eee55aed50d684'),
    ('global', 'i8', 'zero', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '66eee55aed50d684'),
    ('global', 'i8', 'zero', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '66eee55aed50d684'),
    ('global', 'i8', 'odd', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '1de52383ba5a0bad'),
    ('global', 'i8', 'odd', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '10d6b99054602132'),
    ('global', 'i8', 'odd', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'e662e4c426cbd621'),
    ('global', 'i8', 'wide', 'full'):
        (96, (32, 32, 0, 32, 0, 0), 13140.0, '679e77d85a0f2d1d'),
    ('global', 'i8', 'wide', 'partial'):
        (60, (20, 20, 0, 20, 0, 0), 8220.0, 'e6f5f81f34dd1def'),
    ('global', 'i8', 'wide', 'divergent'):
        (66, (22, 22, 0, 22, 0, 0), 9040.0, '50bc7e6f29423fd8'),
    ('global', 'i16', 'unit', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '55a068297291758f'),
    ('global', 'i16', 'unit', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '181ac90163ec0ae8'),
    ('global', 'i16', 'unit', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'fae595f1ab30ca37'),
    ('global', 'i16', 'neg', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '55a068297291758f'),
    ('global', 'i16', 'neg', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '2e2f18cf99568b08'),
    ('global', 'i16', 'neg', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'fae595f1ab30ca37'),
    ('global', 'i16', 'zero', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'e71e6eb253cd6fad'),
    ('global', 'i16', 'zero', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'e71e6eb253cd6fad'),
    ('global', 'i16', 'zero', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, 'e71e6eb253cd6fad'),
    ('global', 'i16', 'odd', 'full'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '368184ac5d3d66e0'),
    ('global', 'i16', 'odd', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '7d0094a7326e203c'),
    ('global', 'i16', 'odd', 'divergent'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '910669da7d8d925a'),
    ('global', 'i16', 'wide', 'full'):
        (96, (32, 32, 0, 32, 0, 0), 13140.0, '2893809f03a207f9'),
    ('global', 'i16', 'wide', 'partial'):
        (60, (20, 20, 0, 20, 0, 0), 8220.0, '6fec00d66467d1cc'),
    ('global', 'i16', 'wide', 'divergent'):
        (66, (22, 22, 0, 22, 0, 0), 9040.0, 'ad758784a1ff81af'),
    ('global', 'f32', 'unit', 'full'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, 'e646b8a02fd55db8'),
    ('global', 'f32', 'unit', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '099058a499235ed1'),
    ('global', 'f32', 'unit', 'divergent'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '6c7ca6c85030aec8'),
    ('global', 'f32', 'neg', 'full'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, 'e646b8a02fd55db8'),
    ('global', 'f32', 'neg', 'partial'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '3be284f412806c58'),
    ('global', 'f32', 'neg', 'divergent'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '6c7ca6c85030aec8'),
    ('global', 'f32', 'zero', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '21c8601ddf6fa28a'),
    ('global', 'f32', 'zero', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '21c8601ddf6fa28a'),
    ('global', 'f32', 'zero', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '21c8601ddf6fa28a'),
    ('global', 'f32', 'odd', 'full'):
        (12, (4, 4, 0, 4, 0, 0), 1660.0, '9aeea17562376f42'),
    ('global', 'f32', 'odd', 'partial'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '586bf2af6e147c8e'),
    ('global', 'f32', 'odd', 'divergent'):
        (12, (4, 4, 0, 4, 0, 0), 1660.0, '07d0cb786541c04a'),
    ('global', 'f32', 'wide', 'full'):
        (96, (32, 32, 0, 32, 0, 0), 13140.0, '702e019532b490bf'),
    ('global', 'f32', 'wide', 'partial'):
        (60, (20, 20, 0, 20, 0, 0), 8220.0, 'ab0a105838ba5f69'),
    ('global', 'f32', 'wide', 'divergent'):
        (66, (22, 22, 0, 22, 0, 0), 9040.0, 'ce5d8ede501a170b'),
    ('global', 'f64', 'unit', 'full'):
        (9, (3, 3, 0, 3, 0, 0), 1250.0, '2eb580a91e77f7e1'),
    ('global', 'f64', 'unit', 'partial'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, 'ebba8f1a97f97a03'),
    ('global', 'f64', 'unit', 'divergent'):
        (9, (3, 3, 0, 3, 0, 0), 1250.0, '2cfe460a15b7fb95'),
    ('global', 'f64', 'neg', 'full'):
        (9, (3, 3, 0, 3, 0, 0), 1250.0, '2eb580a91e77f7e1'),
    ('global', 'f64', 'neg', 'partial'):
        (6, (2, 2, 0, 2, 0, 0), 840.0, '606a3e9e1bfd77eb'),
    ('global', 'f64', 'neg', 'divergent'):
        (9, (3, 3, 0, 3, 0, 0), 1250.0, '2cfe460a15b7fb95'),
    ('global', 'f64', 'zero', 'full'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '77324971034b4ca6'),
    ('global', 'f64', 'zero', 'partial'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '77324971034b4ca6'),
    ('global', 'f64', 'zero', 'divergent'):
        (3, (1, 1, 0, 1, 0, 0), 430.0, '77324971034b4ca6'),
    ('global', 'f64', 'odd', 'full'):
        (21, (7, 7, 0, 7, 0, 0), 2890.0, '0c2b6f11bcfd272a'),
    ('global', 'f64', 'odd', 'partial'):
        (12, (4, 4, 0, 4, 0, 0), 1660.0, '40b31543398d6370'),
    ('global', 'f64', 'odd', 'divergent'):
        (21, (7, 7, 0, 7, 0, 0), 2890.0, '995af87a18543a59'),
    ('global', 'f64', 'wide', 'full'):
        (96, (32, 32, 0, 32, 0, 0), 13140.0, '7ec4f6f994014f9c'),
    ('global', 'f64', 'wide', 'partial'):
        (60, (20, 20, 0, 20, 0, 0), 8220.0, '2ebf229a36c83bb6'),
    ('global', 'f64', 'wide', 'divergent'):
        (66, (22, 22, 0, 22, 0, 0), 9040.0, '49c4037cc5e54434'),
    ('shared', 'i8', 'unit', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '35836036d88f37a6'),
    ('shared', 'i8', 'unit', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '9eb4b9c445b44deb'),
    ('shared', 'i8', 'unit', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'a31ab9e04f3425c9'),
    ('shared', 'i8', 'neg', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '35836036d88f37a6'),
    ('shared', 'i8', 'neg', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '9eb4b9c445b44deb'),
    ('shared', 'i8', 'neg', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'a31ab9e04f3425c9'),
    ('shared', 'i8', 'zero', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'c18e56067fcf488b'),
    ('shared', 'i8', 'zero', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '405fcd46c7a5785e'),
    ('shared', 'i8', 'zero', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'c5a6105a52abd2b5'),
    ('shared', 'i8', 'odd', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '18ef3b47a3fd90a7'),
    ('shared', 'i8', 'odd', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '3c37f28775b4fbf8'),
    ('shared', 'i8', 'odd', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'afc8b12f5950040d'),
    ('shared', 'i8', 'wide', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 422.0, '176b6f161068e2b5'),
    ('shared', 'i8', 'wide', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 422.0, '95ea0299647c72d6'),
    ('shared', 'i8', 'wide', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 422.0, 'e958c24111c96598'),
    ('shared', 'i16', 'unit', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '02944d0559760317'),
    ('shared', 'i16', 'unit', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '239aa5a0ed31bf66'),
    ('shared', 'i16', 'unit', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'e542ead2c87306eb'),
    ('shared', 'i16', 'neg', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '02944d0559760317'),
    ('shared', 'i16', 'neg', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '239aa5a0ed31bf66'),
    ('shared', 'i16', 'neg', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'e542ead2c87306eb'),
    ('shared', 'i16', 'zero', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '82b9b9ffd5cb862f'),
    ('shared', 'i16', 'zero', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '13ba7cb6057668ab'),
    ('shared', 'i16', 'zero', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'c992d82c394fec1d'),
    ('shared', 'i16', 'odd', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 422.0, '739c214250b23bf0'),
    ('shared', 'i16', 'odd', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '897f278fcff145ff'),
    ('shared', 'i16', 'odd', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 422.0, '5b4f7ed18694bab9'),
    ('shared', 'i16', 'wide', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 602.0, 'b8fcaad7faacceee'),
    ('shared', 'i16', 'wide', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 530.0, '481c39062b07610f'),
    ('shared', 'i16', 'wide', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 542.0, '196a174ff3c1a7c2'),
    ('shared', 'f32', 'unit', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'cefa0ba4289ca7e1'),
    ('shared', 'f32', 'unit', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '6ec492737f76391b'),
    ('shared', 'f32', 'unit', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '11a9352656c66520'),
    ('shared', 'f32', 'neg', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'cefa0ba4289ca7e1'),
    ('shared', 'f32', 'neg', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '6ec492737f76391b'),
    ('shared', 'f32', 'neg', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '11a9352656c66520'),
    ('shared', 'f32', 'zero', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '1e53ef8eeaaf2146'),
    ('shared', 'f32', 'zero', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'b4032c347ad1a681'),
    ('shared', 'f32', 'zero', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'c0d9756c6baf5f05'),
    ('shared', 'f32', 'odd', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '498bbac0e1c81c30'),
    ('shared', 'f32', 'odd', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, 'a203f407c5882056'),
    ('shared', 'f32', 'odd', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 416.0, '3931b74d7a5d3672'),
    ('shared', 'f32', 'wide', 'full'):
        (2, (0, 1, 0, 1, 0, 0), 602.0, 'f53d38b1f98c666c'),
    ('shared', 'f32', 'wide', 'partial'):
        (2, (0, 1, 0, 1, 0, 0), 530.0, '93ef5bfb601c35cc'),
    ('shared', 'f32', 'wide', 'divergent'):
        (2, (0, 1, 0, 1, 0, 0), 542.0, 'cf321bd9e44f7937'),
    ('shared', 'f64', 'unit', 'full'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, '7991918da59cfd14'),
    ('shared', 'f64', 'unit', 'partial'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, '424fde658d0658d3'),
    ('shared', 'f64', 'unit', 'divergent'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'a5b35154d7c72b5d'),
    ('shared', 'f64', 'neg', 'full'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, '7991918da59cfd14'),
    ('shared', 'f64', 'neg', 'partial'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, '424fde658d0658d3'),
    ('shared', 'f64', 'neg', 'divergent'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'a5b35154d7c72b5d'),
    ('shared', 'f64', 'zero', 'full'):
        (4, (0, 2, 0, 2, 0, 0), 796.0, '65d52ae460f760c1'),
    ('shared', 'f64', 'zero', 'partial'):
        (4, (0, 2, 0, 2, 0, 0), 796.0, '10fa8c017d7a06ee'),
    ('shared', 'f64', 'zero', 'divergent'):
        (4, (0, 2, 0, 2, 0, 0), 796.0, '4798191d3990fe90'),
    ('shared', 'f64', 'odd', 'full'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'c5fe4b1ced65e9f5'),
    ('shared', 'f64', 'odd', 'partial'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'ec899fb0ab649c71'),
    ('shared', 'f64', 'odd', 'divergent'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'f76fddfbabcaab93'),
    ('shared', 'f64', 'wide', 'full'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'cc6159c60adf6ff2'),
    ('shared', 'f64', 'wide', 'partial'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'bce1896c586d420b'),
    ('shared', 'f64', 'wide', 'divergent'):
        (4, (0, 2, 0, 2, 0, 0), 802.0, 'c0daada984788bd9'),
}


def _cases():
    for space in ("global", "shared"):
        for ty in ("i8", "i16", "f32", "f64"):
            for stride in _STRIDES:
                for mask in _MASKS:
                    yield space, ty, stride, mask


@pytest.mark.parametrize("space,ty,stride,mask", list(_cases()))
def test_warp_access_pins(space, ty, stride, mask):
    block, d = _MASKS[mask]
    result, digest = _launch(space, ty, _STRIDES[stride][ty], block, d)
    c = result.cache
    got = (
        result.transactions,
        (c.read_hits, c.read_misses, c.write_hits, c.write_misses,
         c.bypassed, c.evictions),
        result.cycles,
        digest,
    )
    assert got == PINS[(space, ty, stride, mask)]


def test_global_fault_below_base():
    # Negative stride from 0xfc0: lanes 16..31 fall below GLOBAL_BASE;
    # the text names the first faulting lane in lane order.
    with pytest.raises(MemoryError_) as info:
        _launch("global", "f32", -1, 32, 1000, src_addr=0xFC0)
    assert str(info.value) == "global memory fault at address 0xffc"


def test_global_fault_beyond_last_allocation():
    with pytest.raises(MemoryError_) as info:
        _launch("global", "f32", 1, 32, 1000, base=4096)
    assert str(info.value) == (
        "global memory access at 0x507c beyond the last allocation "
        "(heap ends at 0x1380)"
    )


def test_shared_fault_beyond_arena():
    with pytest.raises(MemoryError_) as info:
        _launch("shared", "f32", 1, 32, 1000, base=4090)
    assert str(info.value) == (
        "shared memory fault (arena is 16384 bytes, access at 0x4064)"
    )
