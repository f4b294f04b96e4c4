"""repro.api — the unified public API of the repro library.

One stable, typed front door over the four layers that grew their own
entry points — the compilation pipeline (:mod:`repro.compile`), the
engines (:mod:`repro.sim`), the matching service and the network server
(:mod:`repro.service`):

:class:`CompileConfig` / :class:`ScanConfig`
    Frozen, validated configuration objects — the single source of
    option validation for every layer, with ``to_dict``/``from_dict``
    for the wire protocol and artifact manifests and a stable
    ``digest()`` that feeds artifact keys.

:class:`Ruleset`
    The fluent facade::

        from repro.api import Ruleset, CompileConfig, ScanConfig

        rules = Ruleset.from_regexes({"r1": "(a|b)e*cd+", "r2": "abc"})
        handle = rules.compile(scan=ScanConfig(num_shards=4))
        result = handle.scan(payload)                # one-shot, cached
        with handle.stream("tenant-a") as session:   # resumable stream
            session.feed(chunk1); session.feed(chunk2)
        handle.save("rules.cama")                     # compile once ...
        warm = Ruleset.from_artifact("rules.cama").compile()  # load anywhere
        handle.serve(port=8765)                      # ... or serve it
"""

from repro.api.config import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_CHUNK_SIZE,
    MP_START_METHODS,
    SUPPORTED_STRIDES,
    ClusterConfig,
    CompileConfig,
    ScanConfig,
)
from repro.errors import ConfigError

__all__ = [
    "ClusterConfig",
    "CompileConfig",
    "ConfigError",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_CHUNK_SIZE",
    "MP_START_METHODS",
    "Ruleset",
    "RulesetHandle",
    "SUPPORTED_STRIDES",
    "ScanConfig",
]

#: names served lazily to keep ``repro.api.config`` importable from the
#: lower layers (compile/service) without a circular import
_LAZY = ("Ruleset", "RulesetHandle")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.api import ruleset

        return getattr(ruleset, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
