"""Atomic artifact publication: temp-file + os.replace everywhere.

The contract under test: a process killed at any point while publishing
an artifact (export document, cache entry) leaves either
the old bytes, the new bytes, or nothing under the final name -- never
a truncated file.  The kill-mid-write tests fork a child whose
``os.replace`` is rerouted to ``os._exit`` (died after writing, before
publishing) and assert the target is unharmed.
"""

import json
import os

import pytest

from repro import ioutil
from repro.ioutil import atomic_write_bytes, atomic_write_text


def _no_stray_tmp(directory):
    return [n for n in os.listdir(directory) if n.startswith(".tmp-")]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(str(target), "old\n")
        atomic_write_text(str(target), "new\n")
        assert target.read_text() == "new\n"
        assert _no_stray_tmp(tmp_path) == []

    def test_failed_write_keeps_old_and_cleans_tmp(self, tmp_path,
                                                   monkeypatch):
        target = tmp_path / "doc.json"
        atomic_write_text(str(target), "old\n")

        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(ioutil.os, "replace", boom)
        with pytest.raises(OSError, match="disk on fire"):
            atomic_write_text(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert _no_stray_tmp(tmp_path) == []

    def _kill_mid_write(self, fn):
        """Run ``fn`` in a fork whose os.replace dies pre-publication."""
        pid = os.fork()
        if pid == 0:  # pragma: no cover -- child dies by design
            try:
                ioutil.os.replace = lambda src, dst: os._exit(21)
                fn()
            finally:
                os._exit(99)  # fn returned: replace was never reached?!
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 21

    def test_kill_mid_write_leaves_old_content(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(str(target), "old\n")
        self._kill_mid_write(
            lambda: atomic_write_text(str(target), "half-written garbage")
        )
        # the child died between writing and publishing: old bytes live
        assert target.read_text() == "old\n"

    def test_kill_mid_write_never_creates_target(self, tmp_path):
        target = tmp_path / "fresh.json"
        self._kill_mid_write(
            lambda: atomic_write_text(str(target), "data")
        )
        assert not target.exists()


class TestExportOutputAtomic:
    def test_cli_export_o_is_atomic(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "nn.json"
        out.write_text("precious old document")
        assert main(["export", "nn", "--no-overhead",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1.0"
        assert _no_stray_tmp(tmp_path) == []

    def test_cli_export_kill_mid_write_keeps_old(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "nn.json"
        out.write_text("precious old document")
        pid = os.fork()
        if pid == 0:  # pragma: no cover -- child dies by design
            try:
                ioutil.os.replace = lambda src, dst: os._exit(21)
                main(["export", "nn", "--no-overhead", "-o", str(out)])
            finally:
                os._exit(99)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 21
        assert out.read_text() == "precious old document"
