"""Exception hierarchy shared across the CUDAAdvisor reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without also swallowing genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Malformed IR: bad operand types, unterminated blocks, etc."""


class IRParseError(IRError):
    """The textual-IR parser rejected its input."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class VerifierError(IRError):
    """The IR verifier found a structural violation."""


class FrontendError(ReproError):
    """The kernel DSL compiler rejected the source."""

    def __init__(self, message: str, filename: str = "", line: int = 0):
        self.filename = filename
        self.line = line
        if filename or line:
            message = f"{filename}:{line}: {message}"
        super().__init__(message)


class PassError(ReproError):
    """An IR transformation pass failed."""


class BackendError(ReproError):
    """PTX lowering failed."""


class ExecutionError(ReproError):
    """The SIMT interpreter hit a runtime fault (bad address, trap...)."""


class LaunchError(ReproError):
    """A kernel launch was misconfigured (grid/block shape, arguments)."""


class LaunchDegradedError(LaunchError):
    """Strict failure policy: a launch needed to degrade and may not.

    Raised (instead of warning) when ``device.failure_policy ==
    "strict"`` and a launch would have to drop a rung of the
    degradation ladder (batched -> serial interpreter). Carries the same machine-readable
    ``reason`` code and ``context`` dict as
    :class:`LaunchDegradedWarning`.
    """

    def __init__(self, message: str, reason: str = "", context: dict = None):
        super().__init__(message)
        self.reason = reason
        self.context = dict(context or {})


class MemoryError_(ReproError):
    """Device/host memory-system fault (OOB access, double free...)."""


class ProfilerError(ReproError):
    """The profiler could not collect or attribute data."""


class LaunchDegradedWarning(RuntimeWarning):
    """A launch lost a requested fast path and fell back to a slower one.

    Emitted (never raised) when a configuration the user asked for --
    ``device.backend = "batched"`` -- cannot be honoured for this launch
    and execution silently degrading would hide the perf cliff: pc
    sampling forcing the serial interpreter. Results are unaffected;
    only speed is.

    Structured: ``reason`` is a stable machine-readable code (see
    :mod:`repro.reliability.supervisor`) and ``context`` a dict of
    details (kernel, backend, ...). ``str(w)`` stays the
    human-readable message. The launch supervisor deduplicates these
    per (reason, kernel) on each device, so a long profiling session
    warns once instead of once per kernel instance.
    """

    def __init__(self, message: str, reason: str = "", context: dict = None):
        super().__init__(message)
        self.reason = reason
        self.context = dict(context or {})


class AnalysisError(ReproError):
    """An analyzer was fed inconsistent profiles."""
