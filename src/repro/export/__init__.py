"""Versioned machine-readable profile export (see docs/profile-format.md)."""

from repro.export.exporter import (
    GENERATOR,
    SCHEMA_VERSION,
    export_json,
    profile_export,
)
from repro.export.validate import (
    SCHEMA_DIR,
    SchemaError,
    iter_errors,
    load_schema,
    validate,
)

__all__ = [
    "GENERATOR",
    "SCHEMA_VERSION",
    "SCHEMA_DIR",
    "SchemaError",
    "export_json",
    "iter_errors",
    "load_schema",
    "profile_export",
    "validate",
]
