"""The fluent facade: one front door over compile, engine, service, server.

:class:`Ruleset` names *what to match* (regexes, ANML, MNRL, an
:class:`~repro.automata.nfa.Automaton`, or a precompiled artifact);
:meth:`Ruleset.compile` turns it into a :class:`RulesetHandle` under a
:class:`~repro.api.config.CompileConfig` /
:class:`~repro.api.config.ScanConfig` pair.  The handle exposes the
whole deployment surface::

    from repro.api import Ruleset, ScanConfig

    handle = Ruleset.from_regexes({"r1": "(a|b)e*cd+"}).compile(
        scan=ScanConfig(num_shards=4)
    )
    result = handle.scan(payload)                 # one-shot, cached
    batch = handle.scan_many({"a": data_a, "b": data_b})
    with handle.stream("tenant-a") as session:    # resumable stream
        session.feed(chunk1); session.feed(chunk2)
    handle.save("rules.cama")                      # compile once ...
    warm = Ruleset.from_artifact("rules.cama").compile()   # load anywhere
    handle.serve(port=8765)                       # ... or serve it

Everything underneath is the existing machinery —
:func:`repro.compile.pipeline.compile_ruleset`,
:class:`~repro.service.service.MatchingService`,
:class:`~repro.service.server.MatchingServer` — wired together through
the typed configs, so results are byte-identical to driving those
layers directly.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.config import CompileConfig, ScanConfig
from repro.automata.nfa import Automaton
from repro.errors import ConfigError


class Ruleset:
    """A ruleset source, ready to compile.

    Build one with a ``from_*`` constructor, then call :meth:`compile`.
    The intermediate object is cheap — it holds the parsed automaton
    (or the loaded artifact) and nothing else.
    """

    def __init__(self, automaton: Automaton, *, artifact=None) -> None:
        self.automaton = automaton
        self._artifact = artifact

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_regexes(cls, rules, *, name: str = "ruleset") -> "Ruleset":
        """From a dict/list of regex patterns (dict keys become report
        codes)."""
        from repro.automata import compile_regex_set

        if not rules:
            raise ConfigError("cannot compile an empty regex rule set")
        return cls(compile_regex_set(rules, name=name))

    @classmethod
    def from_anml(cls, path) -> "Ruleset":
        """From an ANML (``.anml``/``.xml``) file."""
        from repro.automata import load_anml

        return cls(load_anml(path))

    @classmethod
    def from_mnrl(cls, path) -> "Ruleset":
        """From an MNRL (``.mnrl``/``.json``) file."""
        from repro.automata import load_mnrl

        return cls(load_mnrl(path))

    @classmethod
    def from_automaton(cls, automaton: Automaton) -> "Ruleset":
        """From an already built homogeneous NFA (validated here)."""
        automaton.validate()
        return cls(automaton)

    @classmethod
    def from_file(cls, path) -> "Ruleset":
        """From any supported ruleset file, dispatched on its suffix
        (ANML, MNRL, or a newline-separated regex list)."""
        from repro.compile import load_source

        return cls(load_source(path))

    @classmethod
    def from_artifact(cls, source) -> "Ruleset":
        """From a precompiled artifact — a
        :class:`~repro.compile.artifact.CompiledArtifact`, its bytes,
        or the path of a saved one.  Compiling this ruleset
        adopts the artifact's prebuilt tables instead of recompiling
        ("compile once, load anywhere")."""
        from repro.compile.artifact import CompiledArtifact

        if isinstance(source, (bytes, bytearray)):
            artifact = CompiledArtifact.from_bytes(source)
        elif isinstance(source, (str, Path)):
            artifact = CompiledArtifact.load(source)
        elif isinstance(source, CompiledArtifact):
            artifact = source
        else:
            raise ConfigError(
                f"cannot load a {type(source).__name__} as an artifact"
            )
        return cls(artifact.automaton(), artifact=artifact)

    # -- the one verb -----------------------------------------------------
    def compile(
        self,
        config: CompileConfig | None = None,
        *,
        scan: ScanConfig | None = None,
    ) -> "RulesetHandle":
        """Compile under ``config`` and bind scan behaviour to ``scan``.

        For an artifact-backed ruleset, an omitted (or matching)
        ``config`` adopts the artifact's prebuilt tables — no compile
        runs; a *different* ``config`` recompiles from the reconstructed
        automaton.  Otherwise the staged pipeline runs here, eagerly;
        with no explicit ``config`` the compile backend hint follows
        the scan backend policy and the handle's service runs the
        compiled engine itself, so a first single-shard scan compiles
        nothing.  (With an explicitly *different* compile backend,
        stride 2, or sharded scanning, the service compiles its own
        per-shard engines — the rule of
        ``MatchingService.register_artifact``; the eager compile still
        backs ``save()``/``artifact()``.)
        """
        from repro.compile.pipeline import compile_ruleset

        scan = scan if scan is not None else ScanConfig()
        artifact = self._artifact
        if artifact is not None:
            if config is None or config == artifact.options:
                return RulesetHandle(
                    self.automaton,
                    artifact.options,
                    scan,
                    artifact=artifact,
                )
            artifact = None  # recompile under the requested config
        if config is None:
            backend = scan.backend if isinstance(scan.backend, str) else None
            config = CompileConfig(backend=backend)
        compiled = compile_ruleset(self.automaton, config)
        return RulesetHandle(
            compiled.automaton, config, scan, compiled=compiled
        )

    # -- editing -----------------------------------------------------------
    def update(
        self,
        *,
        add=None,
        remove=None,
        name: str | None = None,
    ) -> "Ruleset":
        """A new :class:`Ruleset` with ``add`` patterns merged in and
        ``remove`` report codes dropped (whole connected components).

        Pure: this ruleset is untouched.  Compiling the result through
        the same artifact store reuses every unchanged component's
        compiled artifact (see :mod:`repro.compile.incremental`).
        """
        from repro.compile.incremental import apply_update

        return Ruleset(
            apply_update(self.automaton, add=add, remove=remove, name=name)
        )


class RulesetHandle:
    """A compiled ruleset bound to its scan configuration.

    Holds the compiled product plus a lazily built
    :class:`~repro.service.service.MatchingService` (created on the
    first :meth:`scan` / :meth:`scan_many` / :meth:`stream`, its table
    record built around the compiled engine or adopted artifact — see
    :meth:`Ruleset.compile`).
    Handles are context managers; leaving the ``with`` block releases
    the service's sessions and worker pools.
    """

    def __init__(
        self,
        automaton: Automaton,
        compile_config: CompileConfig,
        scan_config: ScanConfig,
        *,
        compiled=None,
        artifact=None,
    ) -> None:
        self.automaton = automaton
        self.compile_config = compile_config
        self.scan_config = scan_config
        self._compiled = compiled
        self._artifact = artifact
        self._service = None

    # -- identity ---------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The ruleset's language fingerprint (the service's table
        handle, and the handle a server-side registration of these
        rules yields): the automaton's memoized name."""
        return self.automaton.fingerprint

    @property
    def key(self) -> str:
        """The artifact key: language fingerprint mixed with the
        compile-config digest (what :meth:`save` names the file after)."""
        from repro.compile.fingerprint import ruleset_fingerprint

        return ruleset_fingerprint(self.automaton, self.compile_config)

    # -- the matching surface ---------------------------------------------
    @property
    def service(self):
        """The lazily built matching service behind this handle."""
        if self._service is None:
            from repro.service.service import MatchingService

            service = MatchingService(self.scan_config)
            if self._artifact is not None:
                service.register_artifact(self._artifact)
            elif (
                self._compiled is not None
                and self._compiled.kernel is not None
                and isinstance(self.scan_config.backend, str)
                and self.compile_config.backend == self.scan_config.backend
                and self.compile_config.stride == 1
            ):
                # the eager compile already built the engine a
                # single-shard service would compile: hand it over
                service._found(
                    self.automaton, prebuilt=self._compiled.engine()
                )
            self._service = service
        return self._service

    def scan(
        self,
        data: bytes,
        *,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
    ):
        """Scan one complete stream; returns a
        :class:`~repro.service.service.ServiceResult`."""
        return self.service.scan(
            self.automaton,
            data,
            chunk_size=chunk_size,
            max_reports=max_reports,
            on_truncation=on_truncation,
        )

    def scan_many(
        self,
        streams: dict[str, bytes],
        *,
        chunk_size: int | None = None,
        max_reports: int | None = None,
        on_truncation: str | None = None,
    ):
        """Scan every named stream; returns ``{name: ServiceResult}``."""
        return self.service.scan_many(
            self.automaton,
            streams,
            chunk_size=chunk_size,
            max_reports=max_reports,
            on_truncation=on_truncation,
        )

    def update(
        self,
        *,
        add=None,
        remove=None,
        name: str | None = None,
    ):
        """Hot-swap this handle's rules to a new *version* in place.

        ``add`` merges new patterns (a ``{code: pattern}`` mapping or a
        pattern list), ``remove`` drops whole report codes.  The edit
        flows through the incremental compile path, so unchanged
        connected components reuse their cached artifacts; streams
        already open via :meth:`stream` finish on the version they
        opened against, while subsequent :meth:`scan` / :meth:`stream`
        calls bind the new one.  Returns the service's version record
        (``.version``, ``.fingerprint``, ``.reused_components``,
        ``.compiled_components``).
        """
        from repro.compile.incremental import apply_update

        new_name = name if name is not None else self.automaton.name
        updated = apply_update(
            self.automaton, add=add, remove=remove, name=new_name
        )
        # registered (not just scanned) first, so the new version
        # reuses this one's component artifacts and joins its lineage
        current = self.service.register_ruleset(self.automaton)
        record = self.service.update_ruleset(
            current.lineage, automaton=updated
        )
        self.automaton = record.automaton
        self._compiled = None
        self._artifact = None
        return record

    def stream(
        self,
        name: str,
        *,
        max_reports: int | None = None,
        on_truncation: str | None = None,
    ):
        """Open a named resumable stream (a
        :class:`~repro.service.session.Session`, usable as a context
        manager: leaving the ``with`` block closes the stream).
        ``max_reports`` / ``on_truncation`` default to the handle's
        :class:`ScanConfig` values."""
        return self.service.open_session(
            self.automaton,
            name,
            max_reports=max_reports,
            on_truncation=on_truncation,
        )

    # -- artifacts ---------------------------------------------------------
    def artifact(self):
        """The serializable compiled artifact of this handle (built on
        first use for pipeline-compiled handles)."""
        if self._artifact is None:
            from repro.compile.artifact import CompiledArtifact
            from repro.compile.pipeline import compile_ruleset

            compiled = self._compiled
            if compiled is None:
                compiled = compile_ruleset(self.automaton, self.compile_config)
                self._compiled = compiled
            self._artifact = CompiledArtifact.from_compiled(compiled)
        return self._artifact

    def save(self, path) -> Path:
        """Write the compiled artifact to ``path`` (a file or a
        directory, where it lands under its content-address key); any
        other process loads it with ``Ruleset.from_artifact(path)``."""
        return self.artifact().save(path)

    # -- deployment --------------------------------------------------------
    def serve(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        background: bool = False,
        **server_kwargs,
    ):
        """Serve this handle's service over TCP (length-prefixed frames).

        The ruleset is preloaded server-side, so remote clients can
        ``scan`` against :attr:`fingerprint` without registering first.
        Blocking by default (the CLI/`examples` shape); with
        ``background=True`` returns a started
        :class:`~repro.service.server.BackgroundServer` whose ``stop()``
        also closes this handle's service.  Extra keyword arguments
        (``max_frame_bytes``, ``executor_workers``, ...) pass through to
        :class:`~repro.service.server.MatchingServer`.
        """
        from repro.service.server import (
            BackgroundServer,
            MatchingServer,
            run_server,
        )

        # registered in the service the server fronts, before any client
        # asks: the first remote scan against the handle is already warm
        self.service.register_ruleset(self.automaton)
        server = MatchingServer(
            self.service, host=host, port=port, **server_kwargs
        )
        if background:
            return BackgroundServer(server).start()
        run_server(server)
        return None

    def serve_cluster(
        self,
        config=None,
        *,
        artifact_cache=None,
        router_port: int = 0,
        **fleet_kwargs,
    ):
        """Serve this ruleset from a local fleet behind a cluster router.

        Spawns ``config.num_nodes`` real server processes sharing
        ``artifact_cache`` (or this handle's configured store
        directory), fronts them with a
        :class:`~repro.cluster.router.ClusterRouter` enforcing the
        config's tenant quotas, and registers this ruleset fleet-wide —
        one compile on the placement primary, artifact loads on the
        replicas.  Returns the *started*
        :class:`~repro.cluster.fleet.LocalFleet`; clients connect a
        plain :class:`~repro.service.client.MatchingClient` to
        ``fleet.port`` and scan against :attr:`fingerprint`::

            fleet = handle.serve_cluster(ClusterConfig(num_nodes=2))
            try:
                client = MatchingClient(port=fleet.port)
                client.register(rules)   # cache hit: already placed
            finally:
                fleet.stop()
        """
        from repro.api.config import ClusterConfig
        from repro.cluster.fleet import LocalFleet
        from repro.service.client import MatchingClient

        if config is None:
            config = ClusterConfig()
        if artifact_cache is None:
            store = self.scan_config.artifact_store
            artifact_cache = getattr(store, "root", store)
        fleet = LocalFleet(
            num_nodes=config.num_nodes,
            artifact_cache=artifact_cache,
            replication=config.replication,
            quotas=config.quotas(),
            router_port=router_port,
            health_interval_s=config.health_interval_s,
            node_timeout_s=config.node_timeout_s,
            **fleet_kwargs,
        )
        fleet.start()
        try:
            # place the ruleset fleet-wide now, so clients can scan by
            # fingerprint immediately (mirrors serve()'s preload)
            from repro.automata.mnrl import dumps_mnrl

            with MatchingClient(port=fleet.port) as client:
                client.register(dumps_mnrl(self.automaton), kind="mnrl")
        except BaseException:
            fleet.stop()
            raise
        return fleet

    def close(self) -> None:
        """Release the underlying service (sessions, worker pools)."""
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "RulesetHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
