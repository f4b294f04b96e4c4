"""Tests for the unified public API: typed configs + the repro.api facade.

Covers the acceptance surface of the API redesign:

* ``CompileConfig`` / ``ScanConfig`` round-trip through
  ``to_dict``/``from_dict``/``digest`` (the wire-protocol and
  artifact-manifest form) and reject invalid values with
  ``ConfigError``;
* the ``Ruleset`` facade end to end: regex -> compile -> save -> load
  -> scan, streams, batch scans, and serving;
* config objects travelling the wire: the server validates them through
  the same ``ScanConfig`` and echoes their digest unchanged.
"""

import warnings

import pytest

from repro.api import CompileConfig, ConfigError, Ruleset, ScanConfig
from repro.automata import compile_regex_set, glushkov_nfa
from repro.compile import PipelineOptions, ruleset_fingerprint
from repro.compile.store import ArtifactStore
from repro.service import (
    BackgroundServer,
    MatchingClient,
    RemoteError,
)
from repro.sim import Engine
from repro.sim.backends.base import KERNEL_COMPILES

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxy" * 40

#: the (ruleset, input) pair the facade tests scan
CORPUS = [(compile_regex_set(RULES, name="api-corpus"), STREAM)]


def report_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


class TestCompileConfig:
    def test_pipeline_options_is_the_same_class(self):
        # the alias keeps every pre-facade import working unchanged
        assert PipelineOptions is CompileConfig

    def test_round_trip_dict_and_digest(self):
        cfg = CompileConfig(optimize=True, stride=2, backend="native")
        back = CompileConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert back.digest() == cfg.digest()
        assert CompileConfig().digest() != cfg.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown pipeline options"):
            CompileConfig.from_dict({"voltage": 1.2})

    def test_invalid_values_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unsupported stride"):
            CompileConfig(stride=4)
        with pytest.raises(ConfigError, match="unknown execution backend"):
            CompileConfig(backend="gpu")

    def test_digest_feeds_artifact_keys(self):
        nfa = compile_regex_set(RULES)
        base = ruleset_fingerprint(nfa)
        sparse = ruleset_fingerprint(nfa, CompileConfig(backend="sparse"))
        strided = ruleset_fingerprint(nfa, CompileConfig(stride=2))
        assert len({base, sparse, strided}) == 3
        # config identity == key identity: same digest, same key
        assert sparse == ruleset_fingerprint(
            nfa, CompileConfig.from_dict(CompileConfig(backend="sparse").to_dict())
        )


class TestScanConfig:
    def test_round_trip_dict_and_digest(self, tmp_path):
        cfg = ScanConfig(
            backend="sparse",
            num_shards=4,
            workers=2,
            chunk_size=4096,
            cache_capacity=8,
            max_reports=123,
            on_truncation="error",
            artifact_store=str(tmp_path),
            mp_start_method="spawn",
        )
        back = ScanConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_store_instances_serialize_as_their_root(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cfg = ScanConfig(artifact_store=store)
        assert cfg.to_dict()["artifact_store"] == str(store.root)
        # digest is stable whether the store rides as instance or path
        assert cfg.digest() == ScanConfig(artifact_store=str(tmp_path)).digest()

    def test_backend_instances_are_not_serializable(self):
        from repro.sim.backends import SparseBackend

        cfg = ScanConfig(backend=SparseBackend())
        with pytest.raises(ConfigError, match="cannot be serialized"):
            cfg.to_dict()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"chunk_size": True},
            {"chunk_size": "64k"},
            {"num_shards": 0},
            {"workers": 0},
            {"cache_capacity": 0},
            {"max_reports": -1},
            {"on_truncation": "explode"},
            {"backend": "gpu"},
            {"backend": 7},
            {"mp_start_method": "teleport"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScanConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown scan options"):
            ScanConfig.from_dict({"shards": 2})

    def test_merged_ignores_none(self):
        cfg = ScanConfig(num_shards=3, chunk_size=128)
        merged = cfg.merged(chunk_size=None, max_reports=9)
        assert merged.chunk_size == 128
        assert merged.max_reports == 9
        assert merged.num_shards == 3
        assert cfg.merged() is cfg

    def test_engine_backend_resolves_auto_once(self):
        # the one place the "auto" -> defer-to-artifact rewrite lives
        assert ScanConfig(backend="auto").engine_backend is None
        assert ScanConfig(backend="sparse").engine_backend == "sparse"
        assert ScanConfig(backend="native").engine_backend == "native"


class TestRulesetFacade:
    def test_end_to_end_compile_save_load_scan(self, tmp_path):
        nfa, data = CORPUS[0]
        expected = Engine(compile_regex_set(RULES, name="api-corpus")).run(
            data
        )
        with Ruleset.from_regexes(RULES, name="api-corpus").compile(
            scan=ScanConfig(num_shards=2, chunk_size=53)
        ) as handle:
            first = handle.scan(data)
            assert report_keys(first.reports) == report_keys(expected.reports)
            path = handle.save(tmp_path / "rules.npz")
            fingerprint = handle.fingerprint
        # a fresh process shape: load the artifact, scan, byte-identical
        with Ruleset.from_artifact(path).compile() as warm:
            assert warm.fingerprint == fingerprint
            again = warm.scan(data)
        assert report_keys(again.reports) == report_keys(expected.reports)

    def test_artifact_adoption_skips_recompilation(self, tmp_path):
        path = (
            Ruleset.from_regexes(RULES)
            .compile(CompileConfig(backend="sparse"))
            .save(tmp_path / "r.npz")
        )
        with Ruleset.from_artifact(path).compile(
            scan=ScanConfig(backend="sparse")
        ) as handle:
            compiles = KERNEL_COMPILES.labels("sparse").value
            first = handle.scan(STREAM)
            # the adopted artifact's engine serves the first scan: no
            # kernel was compiled, and the only miss was the adoption
            assert KERNEL_COMPILES.labels("sparse").value == compiles
            assert first.backends == ["sparse"]
            assert handle.service.cache_stats.misses == 1

    def test_eager_compile_serves_the_first_scan(self):
        with Ruleset.from_regexes(RULES).compile(
            scan=ScanConfig(backend="sparse")
        ) as handle:
            compiles = KERNEL_COMPILES.labels("sparse").value
            handle.scan(STREAM)
            assert KERNEL_COMPILES.labels("sparse").value == compiles
        # the negative case: two shards compile their own engines
        with Ruleset.from_regexes(RULES).compile(
            scan=ScanConfig(backend="sparse", num_shards=2)
        ) as handle:
            compiles = KERNEL_COMPILES.labels("sparse").value
            assert handle.scan(STREAM).num_shards == 2
            assert KERNEL_COMPILES.labels("sparse").value == compiles + 2

    def test_stream_inherits_config_truncation_policy(self):
        from repro.errors import SimulationError

        with Ruleset.from_regexes(RULES).compile(
            scan=ScanConfig(max_reports=1, on_truncation="error")
        ) as handle:
            session = handle.stream("strict")
            with pytest.raises(SimulationError, match="kept-reports cap"):
                session.feed(STREAM)
            session.close()
            # per-stream override still wins over the config
            with warnings.catch_warnings():
                warnings.simplefilter("error", category=UserWarning)
                lenient = handle.stream("lenient", on_truncation="ignore")
                lenient.feed(STREAM)
                lenient.close()

    def test_stream_sessions(self):
        with Ruleset.from_regexes(RULES).compile() as handle:
            with handle.stream("tenant-a") as session:
                session.feed(STREAM[:7])
                session.feed(STREAM[7:])
            assert session.closed
            expected = Engine(handle.automaton).run(STREAM)
            assert report_keys(session.reports) == report_keys(
                expected.reports
            )

    def test_scan_many(self):
        streams = {"a": STREAM, "b": STREAM[:13], "c": b""}
        with Ruleset.from_regexes(RULES).compile() as handle:
            results = handle.scan_many(streams)
        assert set(results) == set(streams)
        for name, data in streams.items():
            expected = Engine(handle.automaton).run(data)
            assert report_keys(results[name].reports) == report_keys(
                expected.reports
            )

    def test_from_automaton_and_invalid_sources(self):
        nfa = glushkov_nfa("abc", report_code="m")
        handle = Ruleset.from_automaton(nfa).compile()
        assert handle.scan(b"abcabc").num_reports == 2
        handle.close()
        with pytest.raises(ConfigError, match="empty regex rule set"):
            Ruleset.from_regexes({})
        with pytest.raises(ConfigError, match="as an artifact"):
            Ruleset.from_artifact(42)

    def test_key_covers_compile_config(self):
        rules = Ruleset.from_regexes(RULES)
        sparse = rules.compile(CompileConfig(backend="sparse"))
        auto = rules.compile(CompileConfig(backend="auto"))
        assert sparse.fingerprint == auto.fingerprint
        assert sparse.key != auto.key

    def test_serve_preloads_the_ruleset(self):
        handle = Ruleset.from_regexes(RULES).compile(
            scan=ScanConfig(num_shards=2)
        )
        background = handle.serve(port=0, background=True)
        try:
            with MatchingClient(port=background.port) as client:
                # no register: the serve() preload made the handle known
                result = client.scan(handle.fingerprint, STREAM)
                offline = Engine(handle.automaton).run(STREAM)
                assert report_keys(result.reports) == report_keys(
                    offline.reports
                )
        finally:
            background.stop()


class TestWireConfig:
    def test_config_digest_round_trips_the_wire(self):
        cfg = ScanConfig(chunk_size=64, max_reports=7, on_truncation="ignore")
        with BackgroundServer(config=ScanConfig(num_shards=2)) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                result = client.scan(handle, STREAM, config=cfg)
                # the server parsed the config through ScanConfig and
                # echoes the digest of what it saw: unchanged
                assert result.config_digest == cfg.digest()
                assert len(result.reports) == 7
                # explicit config caps are intentional: no warnings
                assert result.truncated and not result.warnings
                many = client.scan_many(
                    handle, {"a": STREAM}, config=cfg
                )
                assert len(many["a"].reports) == 7

    def test_wire_config_defaults_do_not_override_server_policy(self):
        # a config that only sets chunk_size must not smuggle in the
        # client-side default max_reports/on_truncation: the server's
        # deployment cap (3) still applies and still warns
        from repro.sim.backends import ReportTruncationWarning

        with BackgroundServer(config=ScanConfig(max_reports=3)) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                with pytest.warns(ReportTruncationWarning):
                    result = client.scan(
                        handle, STREAM, config=ScanConfig(chunk_size=16)
                    )
                assert len(result.reports) == 3
                assert result.truncated and result.warnings
                assert result.config_digest == ScanConfig(
                    chunk_size=16
                ).digest()

    def test_invalid_wire_config_is_bad_request(self):
        with BackgroundServer(config=ScanConfig()) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                frame_cfg = ScanConfig().to_dict()
                frame_cfg["chunk_size"] = 0
                with pytest.raises(RemoteError) as excinfo:
                    client._request(
                        {
                            "op": "scan",
                            "handle": handle,
                            "data": "",
                            "config": frame_cfg,
                        }
                    )
                assert excinfo.value.code == "bad-request"

    def test_loose_fields_win_over_config(self):
        with BackgroundServer(config=ScanConfig()) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                result = client.scan(
                    handle,
                    STREAM,
                    config=ScanConfig(max_reports=3),
                    max_reports=5,
                )
                assert len(result.reports) == 5

    def test_session_open_accepts_config(self):
        cfg = ScanConfig(max_reports=2, on_truncation="ignore")
        with BackgroundServer(config=ScanConfig()) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                session = client.open_session(handle, "cfg", config=cfg)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    session.feed(STREAM)
                assert session.truncated
                summary = session.close()
                assert summary["num_reports"] > 2
