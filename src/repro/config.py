"""One home for every profiling setting, and the name registries.

``CUDAAdvisor``, the service's job specs, the CLI and the golden
generator all take their settings from :class:`ProfileConfig`. Each
field's metadata says whether it affects the result (``result=True``:
it feeds the service cache key) or is an execution hint (how a run
executes, never what it returns), and gives its ``least`` or
``choices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from repro.analysis.heatmap import DEFAULT_CELL_ROWS
from repro.errors import ReproError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40C, PASCAL_P100
from repro.gpu.device import BACKENDS
from repro.passes.pipeline import ANALYSIS_MODES

#: architecture names accepted wherever a setting arrives as text.
ARCHES = {"kepler": KEPLER_K40C, "pascal": PASCAL_P100}

#: the profiling service's job-scope failure policies (docs/service.md);
#: a launch has no fallback of its own, so this ladder is the one
#: failure policy.
FAILURE_POLICIES = ("strict", "degrade", "best_effort")


class ConfigError(ReproError):
    """A profiling setting is invalid; ``field`` names the setting."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.field = name


def _require(ok: bool, name: str, message: str) -> None:
    if not ok:
        raise ConfigError(name, message)


def _one_of(name: str, value, choices, what: str) -> None:
    _require(value in choices, name, f"unknown {what} {value!r}: "
             f"expected one of {', '.join(choices)}")


def _setting(default, result: bool = True, **rules):
    return field(default=default, metadata={"result": result, **rules})


@dataclass(frozen=True)
class ProfileConfig:
    """Every setting of one profiling run, normalized and validated once.

    ``arch`` takes an :data:`ARCHES` name or a ``GPUArchitecture``, and
    ``modes`` any sequence. One setting has one spelling: the default
    heat-map binning is ``heatmap_cell_rows=None`` (read
    :attr:`cell_rows`), and a ``None`` backend and the retired
    ``"batched"`` spelling are both the interpreter, the one execution
    engine: old callers and job specs keep working and get the
    interpreter's cache key.
    """

    arch: GPUArchitecture = _setting(KEPLER_K40C)
    modes: tuple = _setting(("memory", "blocks"))
    sample_rate: int = _setting(1, least=1)
    buffer_capacity: Optional[int] = _setting(None, least=0)
    measure_overhead: bool = _setting(True)
    heatmap: bool = _setting(False)
    heatmap_cell_rows: Optional[int] = _setting(None, least=1)
    time_buckets: int = _setting(64, least=1)
    backend: str = _setting("interpreter", choices=BACKENDS)
    # False keeps raw records and analyzes them after the run instead
    fused_drain: bool = _setting(True, result=False)

    def __post_init__(self):
        def normalize(name, value):
            object.__setattr__(self, name, value)

        if isinstance(self.arch, str):
            _one_of("arch", self.arch, tuple(ARCHES), "arch")
            normalize("arch", ARCHES[self.arch])
        _require(isinstance(self.arch, GPUArchitecture), "arch",
                 f"arch must be a GPUArchitecture, not {self.arch!r}")
        normalize("modes", tuple(self.modes))
        _require(bool(self.modes), "modes",
                 "modes needs at least one of: " + ", ".join(ANALYSIS_MODES))
        for mode in self.modes:
            _one_of("modes", mode, ANALYSIS_MODES, "analysis mode")
        if self.heatmap_cell_rows == DEFAULT_CELL_ROWS:
            normalize("heatmap_cell_rows", None)
        if self.backend in (None, "batched"):
            normalize("backend", "interpreter")
        for f in fields(self):
            name, value, rule = f.name, getattr(self, f.name), f.metadata
            if value is None and f.default is None:
                continue  # an optional setting left at its default
            if isinstance(f.default, bool):
                _require(isinstance(value, bool), name,
                         f"{name} must be True or False")
            if "least" in rule:
                _require(type(value) is int and value >= rule["least"],
                         name, f"{name} must be >= {rule['least']}")
            if "choices" in rule:
                _one_of(name, value, rule["choices"], name.replace("_", " "))
        _require(not self.heatmap or "memory" in self.modes, "heatmap",
                 "heatmap needs the 'memory' instrumentation mode")

    @property
    def cell_rows(self) -> int:
        """Kept memory instructions per CTA per heat-map time cell."""
        return self.heatmap_cell_rows or DEFAULT_CELL_ROWS

    def key_material(self) -> dict:
        """The result-affecting settings as JSON-ready cache-key material;
        the architecture enters by its :data:`ARCHES` name, and the
        heat-map binning only with a heat map."""
        names = [name for name, arch in ARCHES.items() if arch == self.arch]
        _require(bool(names), "arch", f"architecture {self.arch.name!r} "
                 f"has no cache key: use one of {', '.join(ARCHES)}")
        material = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.metadata["result"]
        }
        material["arch"] = names[0]
        if not self.heatmap:
            # they only shape the heat map: without one, every value
            # returns the same document and shares one key
            del material["time_buckets"], material["heatmap_cell_rows"]
        return material
