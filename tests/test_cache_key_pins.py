"""Literal cache-key digests: on-disk result caches stay valid.

A result cache is content-addressed by ``JobSpec.cache_key``, so any
change to the key material (a renamed field, another spelling of a
default, a hint leaking into the key) silently orphans every entry a
previous version wrote. Each case builds its spec the way a client
does, through ``ProfilingService.submit``, and hashes it with a fixed
IR hash and schema version, so only the spec's own material moves the
digest.
"""

import pytest

from repro.analysis.heatmap import DEFAULT_CELL_ROWS
from repro.service import ProfilingService

SYRK_KW = {"n": 16, "m": 16}

DEFAULT = "927b0f6bd2e15a5db30734900f6e019d87023edee09326ee5e232c12b9ce561d"
HEATMAP = "64e81dbc00dba416695b6706eaf88ef698f4c2a0ef155562614e09d9137f5424"

#: (case id, submit config, app kwargs, expected digest)
PINNED = [
    ("default", {}, SYRK_KW, DEFAULT),
    ("app_kwargs", {}, {"m": 16, "n": 32},
     "b1a9d1eccd854eeac6fd9dff0932ca9d21e757941c984027391d4f64926c03d6"),
    ("arch", {"arch": "pascal"}, SYRK_KW,
     "57b4fcf31cff33bcb9c3be666cbb0ba9508727756534ee7b77012779d43b2f56"),
    ("modes", {"modes": ("memory",)}, SYRK_KW,
     "876673593b0d76a1ba97354c1b23eb8de4b61484e791ed93a4053505fffb21b1"),
    ("sample_rate", {"sample_rate": 4}, SYRK_KW,
     "047bfdc52bd15303d93110534adabb3f397a4cfc7472ed5a702e2ab788f072ab"),
    ("buffer_capacity", {"buffer_capacity": 100}, SYRK_KW,
     "55bb920e99132d63630fe1a3b0f4e831d3e06e1cf485a0590075c351bc6f6a33"),
    ("measure_overhead", {"measure_overhead": True}, SYRK_KW,
     "6f89006363fe85e3941a7447c6208082e9956f9e0ab95e0ad04b72e972e0b135"),
    ("heatmap", {"heatmap": True}, SYRK_KW, HEATMAP),
    ("time_buckets", {"heatmap": True, "time_buckets": 32}, SYRK_KW,
     "c71d7f2b857888577820dba218635b0028c89ca7eb173c28a343b9c540b7f520"),
    # one spelling per setting: these share the keys above (the
    # retired "batched" backend runs on the interpreter, and without a
    # heat map its binning shapes nothing)
    ("time_buckets_without_heatmap", {"time_buckets": 32}, SYRK_KW,
     DEFAULT),
    ("heatmap_cell_rows_without_heatmap", {"heatmap_cell_rows": 64},
     SYRK_KW, DEFAULT),
    ("default_cell_rows_spelled_out",
     {"heatmap": True, "heatmap_cell_rows": DEFAULT_CELL_ROWS}, SYRK_KW,
     HEATMAP),
    ("backend", {"backend": "batched"}, SYRK_KW, DEFAULT),
    ("backend_none", {"backend": None}, SYRK_KW, DEFAULT),
    ("backend_interpreter", {"backend": "interpreter"}, SYRK_KW, DEFAULT),
    ("pascal_heatmap_cell_rows_64",
     {"arch": "pascal", "heatmap": True, "heatmap_cell_rows": 64}, SYRK_KW,
     "2c8563826f5aeb5441fbbaa9d0d17f4d7612d9ec7c150a88cf0c6941592f37d0"),
]


@pytest.fixture(scope="module")
def service():
    with ProfilingService(workers=0) as svc:
        yield svc


@pytest.mark.parametrize(
    "config,app_kwargs,digest",
    [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_cache_key_is_pinned(service, config, app_kwargs, digest):
    handle = service.submit("syrk", dict(config), app_kwargs=app_kwargs)
    assert handle.spec.cache_key("ir", "1.0") == digest
