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

DEFAULT = "8d2f3c03843cfdaec4be96bbebabd51017b9d5c579cb4f7f19d2706b60af1f87"
HEATMAP = "383d0e558cf4d0c7ecc4e377ee4fb20b433737aa0e2143d7e5c88a424914799d"

#: (case id, submit config, app kwargs, expected digest)
PINNED = [
    ("default", {}, SYRK_KW, DEFAULT),
    ("app_kwargs", {}, {"m": 16, "n": 32},
     "877731837f8b031196ee643decbd11b389fae7ef52f0229df4cc93d2298b1751"),
    ("arch", {"arch": "pascal"}, SYRK_KW,
     "7ef60bcaccf0484faf043eaa669bbdf197f17bf4bbe7bdbe4c19480a0d1116a0"),
    ("modes", {"modes": ("memory",)}, SYRK_KW,
     "f2f3597b3b0bc0fde18b6fab45dce018924028f14a84ea7490b598401e2fb20f"),
    ("sample_rate", {"sample_rate": 4}, SYRK_KW,
     "084bdb89c4cf12a2c5b1477330d1d6c05da66229fb835a64e4bea918647c8033"),
    ("buffer_capacity", {"buffer_capacity": 100}, SYRK_KW,
     "7c6d3da42a8cc24708ef336b26f2678c02db648f62315395966fff83a399e276"),
    ("measure_overhead", {"measure_overhead": True}, SYRK_KW,
     "75cacd7052b6cb306eb809bd457f24dfe70e941a1afdbe9ab972cfe12666b9c5"),
    ("heatmap", {"heatmap": True}, SYRK_KW, HEATMAP),
    ("time_buckets", {"time_buckets": 32}, SYRK_KW,
     "fd810d7a39b89cbbe5e89254ffabef1ec2ff8ab334f76314daad23280c4f467e"),
    ("columnar", {"columnar": True}, SYRK_KW,
     "d2db66191297b0132588244104da17e4420b4336548b5c90b709e3ccf6ebb22c"),
    # one spelling per setting: these share the keys above (the
    # retired "batched" backend runs on the interpreter)
    ("default_cell_rows_spelled_out",
     {"heatmap": True, "heatmap_cell_rows": DEFAULT_CELL_ROWS}, SYRK_KW,
     HEATMAP),
    ("backend", {"backend": "batched"}, SYRK_KW, DEFAULT),
    ("backend_none", {"backend": None}, SYRK_KW, DEFAULT),
    ("backend_interpreter", {"backend": "interpreter"}, SYRK_KW, DEFAULT),
    ("pascal_heatmap_cell_rows_64",
     {"arch": "pascal", "heatmap": True, "heatmap_cell_rows": 64}, SYRK_KW,
     "630d5b79c8722be8866bbe66f80b00e3eb3012c1a85be50c9a82880ce382f633"),
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
