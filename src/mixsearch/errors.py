"""Error taxonomy shared across the package.

Two broad classes map onto distinct CLI exit codes: configuration
problems and data problems (pools, fixtures, record files, run
artifacts).  Plain ``ValueError`` is reserved for caller contract
violations that indicate a programming mistake rather than bad input.
"""
from __future__ import annotations


class MixSearchError(Exception):
    """Base class for all package-level failures."""

    exit_code = 1


class ConfigError(MixSearchError):
    """Invalid configuration, action, or budget request."""

    exit_code = 2


class DataError(MixSearchError):
    """Unreadable or malformed pools, eval sets, fixtures, or run artifacts."""

    exit_code = 3


class SchemaError(DataError):
    """A record violates the declared schema (bad bucket, bad field, bad enum)."""


class FixtureError(DataError):
    """A shipped or user-supplied fixture fails its self-consistency checks."""


class UndefinedMetricError(DataError):
    """A dimension has no valid records, so its mean is undefined."""
