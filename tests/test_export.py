"""The versioned profile export: schema validity, round-trip, identity.

* **Round-trip**: export a profiled app, validate the document against
  the bundled JSON Schema (with the in-tree validator, cross-checked
  against the real ``jsonschema`` package when importable), reload the
  JSON and compare key metrics against the source ``AdvisorReport``.
* **Determinism**: the opt-in ``runtime`` section is the only part of
  the document allowed to vary between runs; byte-identity across the
  fused and kept-records paths is pinned by ``tests/test_goldens.py``.
* **CLI**: ``repro export`` writes a validating document, ``repro
  profile`` renders the heat map, and ``--verbose`` always renders the
  in-flight analysis section.
* **Validator**: the in-tree subset validator rejects documents that
  break type, required, enum, pattern and additional-property rules.
"""

import json

import pytest

from repro.apps import build_app
from repro.cli import main
from repro.config import ANALYSIS_MODES as MODES
from repro.export import (
    SCHEMA_VERSION,
    SchemaError,
    export_json,
    iter_errors,
    load_schema,
    profile_export,
    validate,
)
from repro.optim.advisor import CUDAAdvisor


def _profile(app="nn", **kwargs):
    advisor = CUDAAdvisor(
        modes=MODES,
        heatmap=True,
        **kwargs,
    )
    return advisor.profile(build_app(app))


@pytest.fixture(scope="module")
def nn_report():
    return _profile("nn")


@pytest.fixture(scope="module")
def nn_doc(nn_report):
    return profile_export(nn_report)


class TestDocument:
    def test_validates_against_bundled_schema(self, nn_doc):
        assert list(iter_errors(nn_doc, load_schema())) == []
        validate(nn_doc)  # same, raising form

    def test_cross_check_with_real_jsonschema(self, nn_doc):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(nn_doc, load_schema())

    def test_round_trip_preserves_key_metrics(self, nn_report, nn_doc):
        doc = json.loads(export_json(nn_doc))
        assert doc == nn_doc  # canonical JSON is lossless
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["program"] == nn_report.program
        assert doc["modes"] == list(nn_report.modes)
        assert doc["advice"] == nn_report.advice()
        re_hist = nn_report.reuse_element
        assert doc["metrics"]["reuse_element"]["samples"] == re_hist.samples
        assert (
            doc["metrics"]["reuse_element"]["no_reuse_fraction"]
            == re_hist.no_reuse_fraction
        )
        md = nn_report.memory_divergence
        assert doc["metrics"]["memory_divergence"]["degree"] == (
            md.divergence_degree
        )
        assert doc["metrics"]["arithmetic"]["lane_flops"] == (
            nn_report.arithmetic.lane_flops
        )
        assert doc["metrics"]["bypass_prediction"]["optimal_warps"] == (
            nn_report.bypass_prediction.optimal_warps
        )
        assert doc["metrics"]["overhead"]["cycle_overhead"] == (
            nn_report.overhead.cycle_overhead
        )
        assert len(doc["kernels"]) == len(nn_report.session.profiles)
        assert {d["name"] for d in doc["data_objects"]} == {
            r.name for r in nn_report.session.device_allocations
        }

    def test_heatmap_section_matches_resolved_rows(self, nn_report, nn_doc):
        section = nn_doc["heatmap"]
        resolved = nn_report.resolved_heatmap(64)
        assert section["layout"] == "series"
        assert section["total_accesses"] == resolved.total_accesses > 0
        assert [a["name"] for a in section["allocations"]] == [
            row.name for row in resolved.rows
        ]
        for entry, row in zip(section["allocations"], resolved.rows):
            assert entry["reads"] == row.reads
            assert entry["writes"] == row.writes
            assert entry["unique_bytes"] == row.unique_bytes

    def test_runtime_section_is_opt_in(self, nn_report, nn_doc):
        assert "runtime" not in nn_doc
        with_runtime = profile_export(nn_report, include_runtime=True)
        validate(with_runtime)
        assert "trace_buffers" in with_runtime["runtime"]
        assert "wall" in with_runtime["runtime"]

    def test_run_summary_values_are_pinned(self):
        # one fused run of two launches whose buffers keep 100 rows
        # each: the export's runtime section sums their drain counters
        report = CUDAAdvisor(measure_overhead=False, buffer_capacity=100
                             ).profile(build_app("hotspot", n=32, steps=2))
        assert len(report.session.profiles) == 2
        runtime = profile_export(report, include_runtime=True)["runtime"]
        assert runtime == {
            "trace_buffers": {"dropped_records": 1096,
                              "spilled_records": 0, "corrupt_records": 0},
            "streaming_drain": {"segments_streamed": 4,
                                "peak_resident_rows": 616,
                                "rows_kept": 400},
        }


class TestCLI:
    def test_export_writes_validating_document(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["export", "nn", "-o", str(out), "--no-overhead"]) == 0
        doc = json.loads(out.read_text())
        validate(doc)
        assert doc["program"] == "nn"
        assert doc["heatmap"]["total_accesses"] > 0
        assert "metrics" in doc and "overhead" not in doc["metrics"]

    def test_export_to_stdout(self, capsys):
        assert main(["export", "nn", "--no-overhead"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc)

    def test_profile_heatmap_renders_rows(self, capsys):
        assert main(["profile", "nn", "--heatmap", "--no-overhead"]) == 0
        out = capsys.readouterr().out
        assert "### memory heat map" in out
        assert "d_locations" in out

    def test_verbose_renders_empty_sections(self, capsys):
        # The in-flight analysis section always appears, populated (the
        # CLI always analyzes fused).
        assert main(["profile", "nn", "--verbose", "--no-overhead"]) == 0
        out = capsys.readouterr().out
        assert "### in-flight analysis" in out
        assert "peak rows" in out

    def test_usage_errors(self, capsys):
        # heat map needs memory instrumentation
        assert main([
            "profile", "nn", "--heatmap", "--modes", "blocks",
        ]) == 2
        assert "memory" in capsys.readouterr().err
        assert main(["profile", "nn", "--time-buckets", "0"]) == 2
        assert main(["export", "nn", "--heatmap-cell-rows", "0"]) == 2
        assert main(["export", "nope"]) == 2


class TestValidator:
    def _ok_doc(self):
        return {
            "schema_version": "1.0",
            "generator": "cudaadvisor-repro",
            "program": "x",
            "arch": {
                "name": "Kepler", "chip": "K40c",
                "l1_size": 16384, "l1_line_size": 128,
            },
            "modes": ["memory"],
            "advice": [],
            "kernels": [],
            "data_objects": [],
            "metrics": {},
        }

    def test_minimal_document_passes(self):
        validate(self._ok_doc())

    def test_missing_required_rejected(self):
        doc = self._ok_doc()
        del doc["program"]
        with pytest.raises(SchemaError, match="program"):
            validate(doc)

    def test_wrong_type_rejected(self):
        doc = self._ok_doc()
        doc["arch"]["l1_size"] = "16k"
        with pytest.raises(SchemaError, match="l1_size"):
            validate(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = self._ok_doc()
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate(doc)

    def test_bad_enum_and_pattern_rejected(self):
        doc = self._ok_doc()
        doc["modes"] = ["tensor_cores"]
        with pytest.raises(SchemaError, match="tensor_cores"):
            validate(doc)
        doc = self._ok_doc()
        doc["schema_version"] = "v1"
        with pytest.raises(SchemaError, match="schema_version"):
            validate(doc)

    def test_negative_count_rejected(self):
        doc = self._ok_doc()
        doc["metrics"]["arithmetic"] = {
            "lane_flops": -1, "lane_intops": 0, "float_fraction": 0.0,
            "by_opcode": {}, "by_line": {},
        }
        with pytest.raises(SchemaError, match="lane_flops"):
            validate(doc)

    def test_earlier_columnar_heat_map_still_validates(self, nn_doc):
        # the writer emits only "series"; schema 1.0 is additive-only,
        # so a sparse "columnar" cell table an earlier 1.0 writer
        # emitted stays valid
        doc = json.loads(export_json(nn_doc))
        section = doc["heatmap"]
        names = ("allocation", "bucket", "reads", "writes", "unique_bytes")
        cells = {name: [] for name in names}
        for i, row in enumerate(section["allocations"]):
            series = [row.pop(name) for name in names[2:]]
            for b, values in enumerate(zip(*series)):
                if any(values):
                    for name, value in zip(names, (i, b, *values)):
                        cells[name].append(value)
        assert cells["bucket"]
        section.update(layout="columnar", cells=cells)
        validate(doc)

    def test_bool_is_not_an_integer(self):
        doc = self._ok_doc()
        doc["arch"]["l1_size"] = True
        with pytest.raises(SchemaError, match="l1_size"):
            validate(doc)
