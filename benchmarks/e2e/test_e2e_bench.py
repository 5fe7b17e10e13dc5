"""Self-test of the end-to-end benchmark on its ``--tiny`` inputs.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it
explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TIMED_UNITS = ("s", "us", "1/s")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--tiny", "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=300,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc, result


@pytest.fixture(scope="module")
def both(tmp_path_factory):
    """Untraced and traced runs of every workload, trace kept."""
    trace = tmp_path_factory.mktemp("trace") / "t.json"
    proc, result = bench("--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, result, json.loads(trace.read_text())


def test_every_metric_printed_with_its_unit(both):
    stdout, result, _ = both
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    sections = re.split(r"^== ", stdout, flags=re.M)[1:]
    for name in WORKLOADS:
        for metrics, mode in ((E2E, "untraced"), (LAYERS, "traced")):
            section = next(s for s in sections
                           if s.startswith(f"{name}:") and f", {mode} ==" in s)
            for metric, unit in metrics.items():
                assert re.search(
                    rf"^\s+{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\b",
                    section, flags=re.M,
                ), f"{name}: {metric} [{unit}] not printed"
                assert result["metrics"][f"{name}/{metric}"]["unit"] == unit
    for name in WORKLOADS:
        for metric in E2E:
            assert result["metrics"][f"{name}/{metric}"]["value"] > 0


def test_counts_repeat_across_runs(both):
    _, first, _ = both
    proc, second = bench("--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOADS:
        for metric, unit in LAYERS.items():
            if unit in TIMED_UNITS:
                continue
            key = f"{name}/{metric}"
            assert second["metrics"][key]["value"] == \
                first["metrics"][key]["value"], key


def test_child_self_time_within_parent(both):
    _, _, trace = both
    spans = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            spans[(event["pid"], event["args"]["id"])] = event
    assert spans
    covered = dict.fromkeys(spans, 0.0)
    slack = 1.0  # microseconds
    for (pid, _), span in spans.items():
        parent_id = span["args"]["parent"]
        if parent_id < 0:
            continue
        parent = spans[(pid, parent_id)]
        covered[(pid, parent_id)] += span["dur"]
        assert span["ts"] >= parent["ts"] - slack
        assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"] + slack
    for key, span in spans.items():
        assert covered[key] <= span["dur"] + slack, span["name"]


def test_tampered_digest_fails(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    entry = next(iter(expected["tiny"]["advise-suite"].values()))
    entry["sha256"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    proc, result = bench("--workload", "advise-suite",
                         "--expected", str(tampered))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAIL" in proc.stdout and "failed_frac 1 " in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py"),
         "--workload", "advise-suite"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
