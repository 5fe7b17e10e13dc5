#!/usr/bin/env python
"""Regenerate the committed goldens: canonical exports and result files.

By default this checks the canonical-export goldens under
``tests/goldens/``; ``--results`` checks the figure/table files under
``benchmarks/results/`` instead.

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

``--results`` re-runs every figure/table script in ``RESULT_SCRIPTS``
under pytest (``--benchmark-disable``) with its output redirected to a
temporary directory, and compares each written file with the committed
one byte for byte. Scripts left out (see ``RESULTS_LEFT_OUT``) keep
their committed files unchecked.

Usage::

    PYTHONPATH=src python tools/regen_goldens.py                       # dry run
    PYTHONPATH=src python tools/regen_goldens.py --accept              # rewrite
    PYTHONPATH=src python tools/regen_goldens.py --results             # ~4 min
    PYTHONPATH=src python tools/regen_goldens.py --results --accept
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import build_app  # noqa: E402
from repro.config import ARCHES  # noqa: E402
from repro.export import export_json, profile_export  # noqa: E402
from repro.ioutil import atomic_write_text  # noqa: E402
from repro.optim.advisor import CUDAAdvisor  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: Figure/table scripts the results check re-runs (about 4 minutes in
#: all on a 2-vCPU box), each with the committed files it writes.
RESULT_SCRIPTS = {
    "bench_fig04_reuse_distance.py": ("fig04_*.txt",),
    "bench_fig05_memory_divergence.py": ("fig05_*.txt",),
    "bench_fig06_bypass_kepler.py": ("fig06_*.txt",),
    "bench_fig07_bypass_pascal.py": ("fig07_*.txt",),
    "bench_table3_branch_divergence.py": ("table3_*.txt",),
    "bench_fig08_fig09_debugging.py": ("fig08_*.txt", "fig09_*.txt"),
    "bench_ablations.py": ("ablation_*.txt",),
    "bench_bypass_comparison.py": ("bypass_comparison_*.txt",),
    "bench_fig10_overhead.py": ("fig10_*.txt",),
}

#: Committed result files the check does not regenerate, and why.
RESULTS_LEFT_OUT = {
    "BENCH_simulator.json": "wall-clock timings, different on every run",
}

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

#: ProfileConfig settings: every analysis the export carries, no
#: baseline run.
GOLDEN_CONFIG = {
    "modes": ["memory", "blocks", "arith"],
    "heatmap": True,
    "measure_overhead": False,
}


def golden_name(app: str, arch: str) -> str:
    return f"{app}-{arch}.json"


def render(app: str, arch: str, inputs: dict, config: dict) -> str:
    """The canonical export text of one golden case."""
    report = CUDAAdvisor(arch=arch, **config).profile(build_app(app, **inputs))
    return export_json(profile_export(report))


def check_results(accept: bool) -> int:
    """Re-run the result scripts and diff their files with the committed."""
    with tempfile.TemporaryDirectory(prefix="repro-results-") as out:
        env = dict(os.environ)
        env["REPRO_RESULTS_DIR"] = out
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable"]
            + [f"benchmarks/{script}" for script in RESULT_SCRIPTS],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        if run.returncode != 0:
            print(run.stdout[-4000:])
            print("result scripts failed; nothing compared")
            return 1
        fresh = {p.name: p for p in Path(out).iterdir()}
        committed = {
            p.name
            for patterns in RESULT_SCRIPTS.values()
            for pattern in patterns
            for p in RESULTS_DIR.glob(pattern)
        }
        changed = []
        for name in sorted(committed | set(fresh)):
            path = RESULTS_DIR / name
            if name not in fresh:
                changed.append((name, "no longer written"))
            elif not path.exists():
                changed.append((name, "new"))
            elif path.read_bytes() != fresh[name].read_bytes():
                changed.append((name, "differs"))
        if not changed:
            print(f"all {len(fresh)} result files up to date "
                  f"(not checked: {', '.join(sorted(RESULTS_LEFT_OUT))})")
            return 0
        if not accept:
            print("result files that would change (rerun with --results "
                  "--accept to overwrite):")
            for name, why in changed:
                print(f"  {name}: {why}")
            return 1
        for name, why in changed:
            if name in fresh:
                shutil.copyfile(fresh[name], RESULTS_DIR / name)
                print(f"wrote {name}")
            else:
                print(f"left {name} ({why}): delete it by hand if stale")
        return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--accept", action="store_true",
        help="overwrite the committed files (default: report only)",
    )
    parser.add_argument(
        "--results", action="store_true",
        help="check benchmarks/results/ instead of tests/goldens/",
    )
    args = parser.parse_args(argv)
    if args.results:
        return check_results(args.accept)

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
