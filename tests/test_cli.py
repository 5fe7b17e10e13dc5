"""Tests for the CLI (the artifact's run/showoutput workflow)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestList:
    def test_lists_table2(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("backprop", "bfs", "nw", "syr2k"):
            assert name in out
        assert "graph1MW_6.txt" in out  # paper inputs shown


class TestProfile:
    def test_profile_modes_sections(self, capsys):
        code = main([
            "profile", "nn", "--modes", "memory,blocks", "--no-overhead",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "### RD_mode" in out
        assert "### MD_mode" in out
        assert "### BD_mode" in out
        assert "### advice" in out
        assert "### overhead" not in out

    def test_profile_with_overhead(self, capsys):
        assert main(["profile", "nn", "--modes", "memory"]) == 0
        out = capsys.readouterr().out
        assert "### overhead" in out
        assert "x cycles" in out

    def test_unknown_app_rejected(self, capsys):
        assert main(["profile", "doom"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown app 'doom'")
        assert "Traceback" not in err

    def test_unknown_mode_rejected(self, capsys):
        assert main(["profile", "nn", "--modes", "memory,quantum"]) == 2
        assert "unknown analysis mode 'quantum'" in capsys.readouterr().err

    # The CLI always analyzes in flight and never spills, so the old
    # drain-selection and spill flags are gone: each is an argparse
    # error (exit 2), never silently accepted.
    def _assert_removed(self, capsys, command, flag, *value):
        with pytest.raises(SystemExit) as exc:
            main([command, "nn", flag, *value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err

    def test_conflicting_spill_knobs_rejected(self, capsys):
        for command in ("profile", "export"):
            self._assert_removed(capsys, command, "--spill-dir", "spill")
            self._assert_removed(capsys, command, "--spill-rows", "128")

    def test_removed_output_flags_rejected(self, capsys):
        # `profile` renders text and `export` writes the one document:
        # the legacy JSON dump, the second output format and the
        # columnar and NDJSON encodings are gone
        self._assert_removed(capsys, "profile", "--json")
        self._assert_removed(capsys, "profile", "--format", "json")
        self._assert_removed(capsys, "profile", "--cache-dir", "d")
        self._assert_removed(capsys, "export", "--columnar")
        self._assert_removed(capsys, "export", "--ndjson")

    def test_bad_sample_rate_rejected(self, capsys):
        assert main(["profile", "nn", "--sample-rate", "0"]) == 2
        assert "--sample-rate must be >= 1" in capsys.readouterr().err

    def test_bad_workers_rejected(self, capsys):
        # launches no longer shard across workers; `serve --workers`
        # (the pool size) is the only --workers flag left
        for command in ("profile", "export"):
            self._assert_removed(capsys, command, "--workers", "2")

    def test_fused_and_streaming_drain_rejected(self, capsys):
        for command in ("profile", "export"):
            self._assert_removed(capsys, command, "--fused")
            self._assert_removed(capsys, command, "--streaming-drain")

    def test_bad_drain_workers_rejected(self, capsys):
        for command in ("profile", "export"):
            self._assert_removed(capsys, command, "--drain-workers", "2")

    def test_profile_fused(self, capsys):
        # fused in-flight analysis is the CLI's only path: the report
        # renders from the aggregates and the stats section is filled
        code = main([
            "profile", "nn", "--modes", "memory,blocks", "--no-overhead",
            "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "### RD_mode" in out
        assert "### advice" in out
        assert "(none: traces were materialized" not in out
        assert "peak rows" in out

    def test_failure_policy_flag(self, capsys):
        # a launch has no fallback: the policy is `repro serve`'s only
        for command in ("profile", "export"):
            self._assert_removed(capsys, command, "--failure-policy",
                                 "strict")

    def test_repro_errors_are_one_line(self, capsys, monkeypatch):
        from repro.errors import LaunchError

        def boom(*args, **kwargs):
            raise LaunchError("device exploded")

        monkeypatch.setattr("repro.cli.CUDAAdvisor.profile", boom)
        assert main(["profile", "nn"]) == 1
        err = capsys.readouterr().err
        assert err == "error: device exploded\n"


class TestInterruptHygiene:
    def test_ctrl_c_is_one_line_and_exit_130(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.CUDAAdvisor.profile", interrupted)
        assert main(["profile", "nn"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n"
        assert "Traceback" not in captured.err

    def test_ctrl_c_reaps_live_workers(self, capsys, monkeypatch):
        import multiprocessing
        import time

        def spawn_then_die(*args, **kwargs):
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=time.sleep, args=(60,))
            proc.daemon = True
            proc.start()
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.CUDAAdvisor.profile", spawn_then_die)
        assert main(["profile", "nn"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted (reaped 1 worker processes)\n"
        assert multiprocessing.active_children() == []


class TestImportCost:
    def test_cli_import_leaves_the_service_out(self):
        """Only ``repro serve`` needs the service: a fresh ``import
        repro.cli`` must not pay for importing it."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.service')))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"


class TestServe:
    def test_serve_smoke_streams_events_and_caches(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out_dir = tmp_path / "out"
        code = main([
            "serve", "nn", "--workers", "0", "--repeat", "2",
            "--modes", "memory,blocks", "--no-overhead",
            "--cache-dir", str(cache), "-o", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "job-1" in out and "job-2" in out
        assert "done" in out
        assert "counters:" in out and "cache:" in out
        # the repeat of the identical spec coalesces onto the in-flight
        # job instead of re-simulating
        assert "source=coalesced" in out
        written = list(out_dir.glob("nn-*.json"))
        assert len(written) == 1  # both jobs share one key -> one artifact
        import json

        assert json.loads(written[0].read_text())["program"] == "nn"

    def test_serve_usage_errors(self, capsys):
        assert main(["serve", "nn", "--workers", "-1"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().err
        assert main(["serve", "nn", "--repeat", "0"]) == 2
        assert "--repeat must be >= 1" in capsys.readouterr().err
        assert main(["serve", "nn", "--cache-max-bytes", "0"]) == 2
        assert "--cache-max-bytes must be >= 1" in capsys.readouterr().err

    def test_serve_invalid_setting_starts_no_pool(self, capsys,
                                                  monkeypatch):
        # the job settings are validated before the service exists, so
        # a bad one never reaches a pool worker
        def no_service(*args, **kwargs):
            raise AssertionError("the service must not start")

        monkeypatch.setattr("repro.service.ProfilingService", no_service)
        assert main(["serve", "syrk", "--sample-rate", "0"]) == 2
        assert "--sample-rate must be >= 1" in capsys.readouterr().err

    def test_serve_unknown_app_rejected(self, capsys):
        assert main(["serve", "doom"]) == 2
        assert "unknown app 'doom'" in capsys.readouterr().err


class TestCacheDirFlag:
    def test_export_cache_dir_rejects_include_runtime(self, tmp_path,
                                                      capsys):
        assert main([
            "export", "nn", "--cache-dir", str(tmp_path),
            "--include-runtime",
        ]) == 2
        assert "--include-runtime" in capsys.readouterr().err

    def test_export_cache_dir_cold_then_warm(self, tmp_path, capsys):
        import json

        args = ["export", "nn", "--no-overhead",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "cache fresh:" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        # key stability across invocations: the second run is a hit
        assert "cache cache-hit:" in warm.err
        assert warm.out == cold.out
        assert json.loads(warm.out)["program"] == "nn"


class TestPTX:
    def test_ptx_dump(self, capsys):
        assert main(["ptx", "nn", "--cc", "6.0"]) == 0
        out = capsys.readouterr().out
        assert ".target sm_60" in out
        assert ".visible .entry euclid(" in out


class TestInstrument:
    def test_dumps_instrumented_ir(self, capsys):
        assert main(["instrument", "nn", "--modes", "memory,blocks"]) == 0
        out = capsys.readouterr().out
        assert "call void @Record(i8* " in out
        assert "call void @passBasicBlock(" in out
        assert "define kernel void @euclid(" in out

    def test_no_optimize_keeps_allocas(self, capsys):
        assert main(["instrument", "nn", "--no-optimize"]) == 0
        out = capsys.readouterr().out
        assert "alloca" in out


class TestStatisticsSection:
    def test_multi_instance_stats_shown(self, capsys):
        assert main([
            "profile", "srad_v2", "--modes", "memory", "--no-overhead",
        ]) == 0
        out = capsys.readouterr().out
        assert "### per-call-path statistics" in out
        assert "srad_cuda_1" in out
        assert "srad_cuda_2" in out
