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


class MemoryError_(ReproError):
    """Device/host memory-system fault (OOB access, double free...)."""


class ProfilerError(ReproError):
    """The profiler could not collect or attribute data."""


class LaunchDegradedWarning(RuntimeWarning):
    """A profiling job fell back from the worker pool to serial execution.

    Emitted (never raised) by the profiling service under its
    ``"degrade"`` failure policy: when a job exhausts its pool attempts
    (``job-serial-fallback``) or the platform cannot fork a pool
    (``service-fork-unavailable``). Results are unaffected; only speed
    is.

    Structured: ``reason`` is one of the service's machine-readable
    codes (:data:`repro.service.jobs.SERVICE_REASON_CODES`) and
    ``context`` names the app (``{"app": ...}``). ``str(w)`` stays
    the human-readable message. The service warns once per (reason,
    app), so a long session does not warn once per job.
    """

    def __init__(self, message: str, reason: str = "", context: dict = None):
        super().__init__(message)
        self.reason = reason
        self.context = dict(context or {})


class AnalysisError(ReproError):
    """An analyzer was fed inconsistent profiles."""
