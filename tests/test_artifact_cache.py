"""RulesetManager two-level caching, artifact-shipping dispatch, and
service-level artifact registration.

Covers the cache-interplay contract: eviction of a live-referenced
engine leaves the caller's engine working; a disk store turns
evictions and process restarts into loads instead of recompiles;
corrupt or version-skewed artifacts fall back to recompilation (never
a wrong answer); spawn workers scan byte-identically to serial dispatch,
with and without a store; an uploaded artifact seeds the service cache.
"""

import pytest

from repro.api import ScanConfig
from repro.automata import compile_regex_set
from repro.compile import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactStore,
    CompiledArtifact,
    compile_ruleset,
)
from repro.service import (
    Dispatcher,
    MatchingService,
    RulesetManager,
    ruleset_fingerprint,
)

RULES_A = {"r1": "(a|b)e*cd+", "r2": "abc"}
RULES_B = {"r1": "x+y", "r2": "qr*s"}
STREAM = b"aecdabcxxyqrrsaecdqs" * 60


def keys_of(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def artifact_key(manager, automaton, backend):
    """The store key the manager's disk level files ``automaton`` under."""
    return ruleset_fingerprint(automaton, manager.artifact_options(backend))


@pytest.fixture()
def ruleset_a():
    return compile_regex_set(RULES_A, name="cache-a")


@pytest.fixture()
def ruleset_b():
    return compile_regex_set(RULES_B, name="cache-b")


class TestManagerDiskCache:
    def test_restart_loads_instead_of_recompiling(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        first = RulesetManager(store=store)
        reports = first.engine(ruleset_a, "auto").run(STREAM).reports
        assert first.stats.disk_misses == 1
        assert store.contains(artifact_key(first, ruleset_a, "auto"))

        restarted = RulesetManager(store=store)
        engine = restarted.engine(ruleset_a, "auto")
        assert restarted.stats.disk_hits == 1
        assert restarted.stats.disk_misses == 0
        assert keys_of(engine.run(STREAM).reports) == keys_of(reports)

    def test_eviction_of_live_referenced_engine(self, ruleset_a, ruleset_b, tmp_path):
        manager = RulesetManager(capacity=1, store=ArtifactStore(tmp_path))
        live = manager.engine(ruleset_a, "sparse")
        baseline = keys_of(live.run(STREAM).reports)
        manager.engine(ruleset_b, "sparse")  # evicts ruleset_a's entry
        assert manager.stats.evictions == 1
        # the caller's reference keeps working after eviction
        assert keys_of(live.run(STREAM).reports) == baseline
        # re-requesting reloads from disk, not a recompile
        again = manager.engine(ruleset_a, "sparse")
        assert manager.stats.disk_hits == 1
        assert again is not live
        assert keys_of(again.run(STREAM).reports) == baseline

    def test_eviction_without_store_recompiles(self, ruleset_a, ruleset_b):
        manager = RulesetManager(capacity=1)
        live = manager.engine(ruleset_a, "sparse")
        manager.engine(ruleset_b, "sparse")
        again = manager.engine(ruleset_a, "sparse")
        assert again is not live
        assert manager.stats.misses == 3

    def test_version_mismatch_falls_back_to_recompile(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        manager = RulesetManager(store=store)
        baseline = keys_of(
            manager.engine(ruleset_a, "sparse").run(STREAM).reports
        )
        key = artifact_key(manager, ruleset_a, "sparse")
        # rewrite the stored artifact as a future format version
        artifact = CompiledArtifact.load(store.path(key))
        artifact.manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        artifact.save(store.path(key))

        fresh = RulesetManager(store=store)
        engine = fresh.engine(ruleset_a, "sparse")
        assert store.stats.invalid == 1
        assert fresh.stats.disk_misses == 1  # mismatched file = cache miss
        assert keys_of(engine.run(STREAM).reports) == baseline
        # ... and the store was repaired with a readable artifact
        assert CompiledArtifact.load(store.path(key)).validate()

    def test_corrupt_artifact_falls_back_to_recompile(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        manager = RulesetManager(store=store)
        baseline = keys_of(
            manager.engine(ruleset_a, "sparse").run(STREAM).reports
        )
        key = artifact_key(manager, ruleset_a, "sparse")
        path = store.path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])

        fresh = RulesetManager(store=store)
        engine = fresh.engine(ruleset_a, "sparse")
        assert store.stats.invalid == 1
        assert keys_of(engine.run(STREAM).reports) == baseline

    def test_instance_backends_bypass_disk(self, ruleset_a, tmp_path):
        from repro.sim.backends import SparseBackend

        store = ArtifactStore(tmp_path)
        manager = RulesetManager(store=store)
        manager.engine(ruleset_a, SparseBackend())
        assert len(store) == 0
        assert manager.stats.disk_hits == manager.stats.disk_misses == 0


class TestArtifactDispatch:
    def test_spawn_workers_with_store(self, ruleset_a, tmp_path):
        manager = RulesetManager(store=ArtifactStore(tmp_path))
        with Dispatcher(
            ruleset_a, ScanConfig(num_shards=2), manager=manager
        ) as serial:
            expected = serial.scan(STREAM, chunk_size=512)
        with Dispatcher(
            ruleset_a,
            ScanConfig(num_shards=2, workers=2, mp_start_method="spawn"),
            manager=manager,
        ) as dispatcher:
            result = dispatcher.scan(STREAM, chunk_size=512)
        assert keys_of(result.reports) == keys_of(expected.reports)
        assert result.stats.num_cycles == expected.stats.num_cycles

    def test_spawn_without_store_still_correct(self, ruleset_a):
        with Dispatcher(ruleset_a, ScanConfig(num_shards=2)) as serial:
            expected = serial.scan(STREAM, chunk_size=512)
        with Dispatcher(
            ruleset_a,
            ScanConfig(num_shards=2, workers=2, mp_start_method="spawn"),
        ) as dispatcher:
            result = dispatcher.scan(STREAM, chunk_size=512)
        assert keys_of(result.reports) == keys_of(expected.reports)


class TestServiceArtifacts:
    def test_register_artifact_seeds_cache(self, ruleset_a):
        compiled = compile_ruleset(ruleset_a, backend="auto")
        artifact = CompiledArtifact.from_compiled(compiled)
        with MatchingService(ScanConfig(num_shards=1)) as service:
            handle, automaton = service.register_artifact(artifact.to_bytes())
            assert handle == service.manager.fingerprint(ruleset_a)
            result = service.scan(automaton, STREAM)
            # the seeded engine served the scan: no compile happened
            assert service.manager.stats.misses == 0
            assert service.manager.stats.hits >= 1
        with MatchingService(ScanConfig(num_shards=1)) as fresh:
            expected = fresh.scan(ruleset_a, STREAM)
        assert keys_of(result.reports) == keys_of(expected.reports)

    def test_register_artifact_persists_to_store(self, ruleset_a, tmp_path):
        artifact = CompiledArtifact.from_compiled(
            compile_ruleset(ruleset_a, backend="auto")
        )
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as service:
            service.register_artifact(artifact)
            assert service.manager.store.contains(artifact.key)

    def test_service_restart_with_store_is_warm(self, ruleset_a, tmp_path):
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as service:
            expected = service.scan(ruleset_a, STREAM)
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as restarted:
            result = restarted.scan(ruleset_a, STREAM)
            assert restarted.manager.stats.disk_hits >= 1
            assert restarted.manager.stats.disk_misses == 0
        assert keys_of(result.reports) == keys_of(expected.reports)
