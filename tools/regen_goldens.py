#!/usr/bin/env python
"""Regenerate the committed canonical-export goldens under tests/goldens/.

Each golden is the canonical :func:`~repro.export.export_json` document
(schema 1.x, no ``runtime`` section) of one registry app on one
architecture, profiled through ``CUDAAdvisor`` defaults plus the
``GOLDEN_CONFIG`` knobs at the small ``GOLDEN_INPUTS`` sizes.
``tests/test_goldens.py`` re-profiles every case on every analysis
path and compares the bytes.

``manifest.json`` records the exact app inputs and advisor knobs the
files were generated with, so the test reproduces them without
importing this script.

The goldens pin behaviour: regenerating them is a deliberate act.
Without ``--accept`` the script only reports which files would change
and exits 1 if any would; ``--accept`` rewrites them.

Usage::

    PYTHONPATH=src python tools/regen_goldens.py            # dry run
    PYTHONPATH=src python tools/regen_goldens.py --accept   # rewrite
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import build_app  # noqa: E402
from repro.export import export_json, profile_export  # noqa: E402
from repro.gpu.arch import KEPLER_K40C, PASCAL_P100  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402
from repro.optim.advisor import CUDAAdvisor  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"

ARCHES = {"kepler": KEPLER_K40C, "pascal": PASCAL_P100}

#: Small inputs (legal shapes, well under a second per app) for every app.
GOLDEN_INPUTS = {
    "backprop": {"input_units": 128},
    "bfs": {"num_nodes": 256},
    "hotspot": {"n": 32, "steps": 2},
    "lavaMD": {"boxes1d": 1, "par_per_box": 48},
    "nn": {"num_records": 512},
    "nw": {"n": 32},
    "srad_v2": {"n": 16, "iterations": 1},
    "bicg": {"nx": 32, "ny": 32},
    "syrk": {"n": 16, "m": 16},
    "syr2k": {"n": 16, "m": 16},
}

#: Advisor knobs: every analysis the export carries, no baseline run.
GOLDEN_CONFIG = {
    "modes": ["memory", "blocks", "arith"],
    "heatmap": True,
    "measure_overhead": False,
}


def golden_name(app: str, arch: str) -> str:
    return f"{app}-{arch}.json"


def render(app: str, arch: str, inputs: dict, config: dict,
           **advisor_kwargs) -> str:
    """The canonical export text of one golden case."""
    advisor = CUDAAdvisor(
        arch=ARCHES[arch],
        modes=tuple(config["modes"]),
        heatmap=config["heatmap"],
        measure_overhead=config["measure_overhead"],
        **advisor_kwargs,
    )
    report = advisor.profile(build_app(app, **inputs))
    return export_json(profile_export(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--accept", action="store_true",
        help="overwrite the committed goldens (default: report only)",
    )
    args = parser.parse_args(argv)

    manifest = {
        "config": GOLDEN_CONFIG,
        "inputs": GOLDEN_INPUTS,
        "arches": sorted(ARCHES),
    }
    outputs = {
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    }
    for app, inputs in GOLDEN_INPUTS.items():
        for arch in sorted(ARCHES):
            outputs[golden_name(app, arch)] = render(
                app, arch, inputs, GOLDEN_CONFIG
            )

    changed = []
    for name, text in outputs.items():
        path = GOLDEN_DIR / name
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            changed.append(name)
    if not changed:
        print(f"all {len(outputs)} golden files up to date")
        return 0
    if not args.accept:
        print("goldens that would change (rerun with --accept to "
              "overwrite):")
        for name in changed:
            print(f"  {name}")
        return 1
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in changed:
        atomic_write_text(str(GOLDEN_DIR / name), outputs[name])
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
