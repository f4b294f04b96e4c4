"""The disk level of the compiled-ruleset cache: dispatcher builds
reading through an artifact store, artifact-shipping dispatch, and
service-level artifact registration.

Covers the cache-interplay contract: a disk store turns process
restarts into loads instead of recompiles; corrupt or version-skewed
artifacts fall back to recompilation (never a wrong answer, never a
stuck ruleset); a backend instance bypasses the disk; spawn workers
scan byte-identically to serial dispatch, with and without a store; an
uploaded artifact's engine serves a single-shard service without a
kernel compile.
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
from repro.service import Dispatcher, MatchingService, ruleset_fingerprint
from repro.service.ruleset import artifact_options
from repro.sim.backends.base import KERNEL_COMPILES
from repro.telemetry.metrics import default_registry

CACHE_EVENTS = default_registry().counter(
    "repro_ruleset_cache_events_total",
    "Compiled-ruleset cache lookups and evictions, by level and outcome",
    ("level", "outcome"),
)

RULES_A = {"r1": "(a|b)e*cd+", "r2": "abc"}
RULES_B = {"r1": "x+y", "r2": "qr*s"}
STREAM = b"aecdabcxxyqrrsaecdqs" * 60
BACKENDS = ("sparse", "native")


def keys_of(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def artifact_key(automaton, backend):
    """The store key a classic build files ``automaton`` under."""
    return ruleset_fingerprint(automaton, artifact_options(backend))


def kernel_compiles():
    return sum(KERNEL_COMPILES.labels(name).value for name in BACKENDS)


@pytest.fixture()
def ruleset_a():
    return compile_regex_set(RULES_A, name="cache-a")


@pytest.fixture()
def ruleset_b():
    return compile_regex_set(RULES_B, name="cache-b")


class TestManagerDiskCache:
    """The disk read-through of classic (whole-shard) builds, through a
    bare :class:`Dispatcher` and through :class:`MatchingService`."""

    def test_restart_loads_instead_of_recompiling(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        config = ScanConfig(backend="auto", artifact_store=store)
        first = Dispatcher(ruleset_a, config)
        reports = first.scan(STREAM).reports
        assert first.cache_stats.disk_misses == 1
        assert store.contains(artifact_key(ruleset_a, "auto"))

        compiles = kernel_compiles()
        restarted = Dispatcher(ruleset_a, config)
        assert keys_of(restarted.scan(STREAM).reports) == keys_of(reports)
        assert restarted.cache_stats.disk_hits == 1
        assert restarted.cache_stats.disk_misses == 0
        assert kernel_compiles() == compiles

        # the same through a service, which opens the directory itself
        # and counts the dispatcher's disk outcomes as its own, once
        disk_hit_events = CACHE_EVENTS.labels("disk", "hit").value
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as service:
            result = service.scan(ruleset_a, STREAM)
            assert service.cache_stats.disk_hits == 1
            assert service.cache_stats.disk_misses == 0
        assert CACHE_EVENTS.labels("disk", "hit").value == disk_hit_events + 1
        assert keys_of(result.reports) == keys_of(reports)
        assert kernel_compiles() == compiles

    def test_version_mismatch_falls_back_to_recompile(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        config = ScanConfig(backend="sparse", artifact_store=store)
        with MatchingService(config) as service:
            baseline = keys_of(service.scan(ruleset_a, STREAM).reports)
        key = artifact_key(ruleset_a, "sparse")
        # rewrite the stored artifact as a future format version
        artifact = CompiledArtifact.load(store.path(key))
        artifact.manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        artifact.save(store.path(key))

        with MatchingService(config) as fresh:
            result = fresh.scan(ruleset_a, STREAM)
            assert store.stats.invalid == 1
            # mismatched file = cache miss
            assert fresh.cache_stats.disk_misses == 1
            assert fresh.cache_stats.disk_hits == 0
        assert keys_of(result.reports) == baseline
        # ... and the store was repaired with a readable artifact
        assert CompiledArtifact.load(store.path(key)).validate()

    def test_corrupt_artifact_falls_back_to_recompile(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        config = ScanConfig(backend="sparse", artifact_store=store)
        baseline = keys_of(Dispatcher(ruleset_a, config).scan(STREAM).reports)
        path = store.path(artifact_key(ruleset_a, "sparse"))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])

        fresh = Dispatcher(ruleset_a, config)
        assert keys_of(fresh.scan(STREAM).reports) == baseline
        assert store.stats.invalid == 1
        assert fresh.cache_stats.disk_misses == 1

    def test_instance_backends_bypass_disk(self, ruleset_a, tmp_path):
        from repro.sim.backends import SparseBackend

        store = ArtifactStore(tmp_path)
        config = ScanConfig(backend=SparseBackend(), artifact_store=store)
        with MatchingService(config) as service:
            service.scan(ruleset_a, STREAM)
            stats = service.cache_stats
            assert stats.disk_hits == stats.disk_misses == 0
        assert len(store) == 0


class TestArtifactDispatch:
    def test_spawn_workers_with_store(self, ruleset_a, tmp_path):
        store = ArtifactStore(tmp_path)
        with Dispatcher(
            ruleset_a, ScanConfig(num_shards=2, artifact_store=store)
        ) as serial:
            expected = serial.scan(STREAM, chunk_size=512)
        with Dispatcher(
            ruleset_a,
            ScanConfig(
                num_shards=2,
                workers=2,
                mp_start_method="spawn",
                artifact_store=store,
            ),
        ) as dispatcher:
            result = dispatcher.scan(STREAM, chunk_size=512)
            assert dispatcher.cache_stats.disk_hits == 2
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
            compiles = kernel_compiles()
            handle, automaton = service.register_artifact(artifact.to_bytes())
            assert handle == ruleset_fingerprint(ruleset_a)
            result = service.scan(automaton, STREAM)
            # the artifact's engine serves the scan: nothing compiled
            assert kernel_compiles() == compiles
            assert result.cached
            assert service.cache_stats.misses == 1  # the registration
            assert service.cache_stats.hits == 1  # the scan
        with MatchingService(ScanConfig(num_shards=1)) as fresh:
            expected = fresh.scan(ruleset_a, STREAM)
        assert keys_of(result.reports) == keys_of(expected.reports)

    def test_sharded_service_compiles_its_own_shard_engines(self, ruleset_a):
        # the negative case: the artifact's whole-ruleset engine is not
        # what either of two shards runs
        artifact = CompiledArtifact.from_compiled(
            compile_ruleset(ruleset_a, backend="auto")
        )
        with MatchingService(ScanConfig(num_shards=2)) as service:
            compiles = kernel_compiles()
            _, automaton = service.register_artifact(artifact)
            assert service.dispatcher(automaton).num_shards == 2
            assert kernel_compiles() == compiles + 2
            result = service.scan(automaton, STREAM)
            assert kernel_compiles() == compiles + 2
        with MatchingService(ScanConfig(num_shards=1)) as fresh:
            expected = fresh.scan(ruleset_a, STREAM)
        assert keys_of(result.reports) == keys_of(expected.reports)

    def test_register_artifact_persists_to_store(self, ruleset_a, tmp_path):
        artifact = CompiledArtifact.from_compiled(
            compile_ruleset(ruleset_a, backend="auto")
        )
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as service:
            service.register_artifact(artifact)
            assert service.store.contains(artifact.key)

    def test_service_restart_with_store_is_warm(self, ruleset_a, tmp_path):
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as service:
            expected = service.scan(ruleset_a, STREAM)
        with MatchingService(ScanConfig(artifact_store=tmp_path)) as restarted:
            result = restarted.scan(ruleset_a, STREAM)
            assert restarted.cache_stats.disk_hits >= 1
            assert restarted.cache_stats.disk_misses == 0
        assert keys_of(result.reports) == keys_of(expected.reports)
