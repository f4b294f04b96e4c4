"""Exception hierarchy for the CAMA reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AutomatonError(ReproError):
    """A homogeneous NFA is structurally invalid (bad state ids, dangling
    transitions, empty symbol classes, and similar)."""


class RegexSyntaxError(ReproError):
    """The regex parser rejected a pattern."""

    def __init__(self, pattern: str, position: int, message: str) -> None:
        self.pattern = pattern
        self.position = position
        super().__init__(f"{message} at position {position} in {pattern!r}")


class ParseError(ReproError):
    """An ANML or MNRL document could not be parsed."""


class EncodingError(ReproError):
    """An encoding cannot represent the requested alphabet or symbol class."""


class MappingError(ReproError):
    """The mapper could not place an automaton onto the CAMA fabric."""


class ConfigError(ReproError):
    """A configuration value is invalid (bad chunk size, unknown
    truncation policy, unsupported stride, and similar).  Raised by the
    typed config objects in :mod:`repro.api` — the single validation
    surface every entry point (service, dispatcher, session, pipeline,
    server protocol, CLI) goes through."""


class SimulationError(ReproError):
    """The cycle simulator was driven with invalid inputs."""


class UnknownRulesetError(SimulationError):
    """A ruleset handle names no lineage the service holds: it was never
    registered, or the LRU-bounded ruleset table evicted it (register it
    again)."""

    #: the wire code a served request fails with
    code = "unknown-handle"


class ArtifactError(ReproError):
    """A compiled-ruleset artifact is unreadable, corrupt, or carries an
    incompatible format version.  Callers that hold the source ruleset
    (e.g. a :class:`~repro.service.sharding.Dispatcher` building its
    engines through the disk store) treat this as a cache miss and
    recompile."""


class ModelError(ReproError):
    """An architecture model was queried outside its calibrated domain."""
