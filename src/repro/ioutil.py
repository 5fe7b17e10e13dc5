"""Crash-safe file publication: temp-file + ``os.replace``.

Every artifact this tool publishes under a well-known name -- export
documents, cache entries, benchmark results -- goes
through :func:`atomic_write_bytes`.  The payload is written to a
temporary file in the *same directory* as the target (``os.replace``
is only atomic within one filesystem), flushed and fsynced, and then
renamed over the target in one atomic step.  A process killed at any
point therefore leaves either the old file, the new file, or a stray
``.tmp-*`` temp file -- never a truncated artifact under the final
name (pinned by ``tests/test_atomic_io.py``).
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically (write temp, fsync, replace)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".tmp-" + os.path.basename(path) + "-"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Text-mode convenience over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))
