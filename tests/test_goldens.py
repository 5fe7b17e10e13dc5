"""Committed canonical exports: every analysis path reproduces them.

``tests/goldens/`` holds the canonical ``export_json`` document (no
``runtime`` section) of every registry app on Kepler and Pascal,
generated by ``tools/regen_goldens.py`` at the inputs and advisor knobs
recorded in ``manifest.json``. Each case is re-profiled with the
advisor's default, with fused in-flight analysis spelled out (as
explicit callers pass it), and with the raw records kept and analyzed
after the run (``fused_drain=False``), and must match the file byte for
byte.
"""

import json
from pathlib import Path

import pytest

from repro.apps import build_app
from repro.export import export_json, profile_export
from repro.optim.advisor import CUDAAdvisor

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())

CASES = [
    (app, arch)
    for app in MANIFEST["inputs"]
    for arch in MANIFEST["arches"]
]
PATHS = {
    "default": {},
    "fused": {"fused_drain": True},
    "records": {"fused_drain": False},
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("app,arch", CASES, ids=[f"{a}-{b}" for a, b in CASES])
def test_export_matches_golden(app, arch, path):
    advisor = CUDAAdvisor(arch=arch, **MANIFEST["config"], **PATHS[path])
    report = advisor.profile(build_app(app, **MANIFEST["inputs"][app]))
    expected = (GOLDEN_DIR / f"{app}-{arch}.json").read_text(encoding="utf-8")
    assert export_json(profile_export(report)) == expected
