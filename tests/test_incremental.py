"""Incremental compilation + versioned ruleset hot-swap.

Three layers under test:

* the compile layer — component fingerprints, composition keys, the
  :class:`IncrementalCompiler`'s reuse accounting, and the oracle
  property that a composed scan is byte-identical to a cold compile;
* the store layer — composition manifests and eviction pins;
* the service/server layers — versioned live rulesets: in-flight
  sessions finish on the engine they opened against while new scans
  bind the hot-swapped version.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.api.config import ScanConfig
from repro.automata import compile_regex_set
from repro.automata.analysis import (
    balanced_component_groups,
    balanced_shards,
    connected_components,
)
from repro.compile import (
    ArtifactStore,
    IncrementalCompiler,
    PipelineOptions,
    apply_update,
    component_fingerprint,
    composition_key,
    incremental_compile,
    ruleset_fingerprint,
)
from repro.errors import ConfigError
from repro.service import MatchingService
from repro.sim.backends import KernelTables, NativeKernel, bitwords
from repro.sim.engine import Engine
from repro.workloads import get_benchmark
from test_backends import random_automaton
from tests.oracle import oracle_run

RULES = {
    "r1": "ab+c",
    "r2": "de*f",
    "r3": "(gh|ij)k",
    "r4": "lm?n",
}
STREAM = b"zabbcxdefxyzghkijkxlmnlnxdf" * 40

#: a pattern pool for randomized rulesets (kept start-anchor-free so
#: every pattern yields its own reporting component)
POOL = [
    "ab+c",
    "de*f",
    "(gh|ij)k",
    "lm?n",
    "xy+z",
    "(p|q)r+s",
    "tu{2,4}v",
    "w[abc]x",
]


def report_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


def ruleset(rules, name="ruleset"):
    return compile_regex_set(rules, name=name)


# -- block-diagonal table composition ---------------------------------------


def _concat_match_reference(tables, sizes):
    """``KernelTables.concat``'s packed match words, built the obvious
    way: unpack every block to bits, place them side by side, pack the
    result."""
    width = bitwords.num_words(sum(sizes)) * 64
    match_bits = np.zeros((256, width), dtype=np.uint8)
    pos = 0
    for block, size in zip(tables, sizes):
        match_bits[:, pos : pos + size] = np.unpackbits(
            block.match_words.view(np.uint8), axis=1, bitorder="little"
        )[:, :size]
        pos += size
    return np.packbits(match_bits, axis=1, bitorder="little").view(np.uint64)


class TestKernelTablesConcat:
    def test_snort_components_compose_without_an_n_by_n_byte_matrix(self):
        automaton = get_benchmark("Snort", scale=1.0 / 32.0).automaton
        composed = IncrementalCompiler(
            options=PipelineOptions(backend="native", optimize=False)
        ).compile(automaton)
        tables = [c.artifact.kernel_tables() for c in composed.components]
        sizes = [len(c.states) for c in composed.components]
        assert len(tables) > 50 and sum(sizes) > 2048
        tracemalloc.start()
        try:
            merged = KernelTables.concat(tables, sizes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense n x n staging matrix alone was 7 MB here
        assert peak < 3_000_000
        match_words = _concat_match_reference(tables, sizes)
        assert merged.match_words.tobytes() == match_words.tobytes()
        merged.check(sum(sizes))

    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_landing_on_every_word_alignment(self, seed):
        rng = random.Random(seed)
        sizes = [
            rng.choice([1, 2, 31, 63, 64, 65, 100, 127, 128, 129, 200])
            for _ in range(rng.randint(2, 7))
        ]
        tables = [
            NativeKernel(random_automaton(rng, size)).export_tables()
            for size in sizes
        ]
        merged = KernelTables.concat(tables, sizes)
        match_words = _concat_match_reference(tables, sizes)
        assert np.array_equal(merged.match_words, match_words)

    def test_padding_bits_of_a_block_are_not_placed(self):
        # a block whose words carry junk past its state count must not
        # leak it into the next block's columns
        rng = random.Random(3)
        sizes = [5, 70]
        tables = [
            NativeKernel(random_automaton(rng, size)).export_tables()
            for size in sizes
        ]
        clean = KernelTables.concat(tables, sizes)
        tables[0].match_words = tables[0].match_words | np.uint64(0xFF00)
        dirty = KernelTables.concat(tables, sizes)
        assert np.array_equal(dirty.match_words, clean.match_words)


# -- fingerprints ----------------------------------------------------------


class TestComponentFingerprints:
    def test_component_fingerprint_equals_subautomaton_fingerprint(self):
        automaton = ruleset(RULES)
        options = PipelineOptions(backend="sparse")
        for comp in connected_components(automaton):
            sub = automaton.subautomaton(comp)
            assert component_fingerprint(
                automaton, comp, options
            ) == ruleset_fingerprint(sub, options)
            # and the no-options form agrees too
            assert component_fingerprint(automaton, comp) == (
                ruleset_fingerprint(sub)
            )

    def test_component_fingerprints_survive_pattern_reordering(self):
        rng = random.Random(7)
        for _trial in range(10):
            picked = rng.sample(POOL, rng.randint(2, len(POOL)))
            rules = {f"r{i}": p for i, p in enumerate(picked)}
            shuffled_items = list(rules.items())
            rng.shuffle(shuffled_items)
            a = ruleset(rules)
            b = ruleset(dict(shuffled_items))

            def keys(automaton):
                return sorted(
                    component_fingerprint(automaton, comp)
                    for comp in connected_components(automaton)
                )

            assert keys(a) == keys(b)

    def test_composition_key_is_order_independent(self):
        rng = random.Random(13)
        keys = [f"{i:064x}" for i in range(9)]
        baseline = composition_key(keys)
        for _trial in range(20):
            shuffled = list(keys)
            rng.shuffle(shuffled)
            assert composition_key(shuffled) == baseline
        # but not content-independent
        assert composition_key(keys[:-1]) != baseline
        assert composition_key(keys + keys[:1]) != baseline

    def test_composition_key_tracks_options(self):
        automaton = ruleset(RULES)
        comps = connected_components(automaton)
        sparse = composition_key(
            component_fingerprint(automaton, c, PipelineOptions(backend="sparse"))
            for c in comps
        )
        native = composition_key(
            component_fingerprint(
                automaton, c, PipelineOptions(backend="native")
            )
            for c in comps
        )
        assert sparse != native


# -- the incremental compiler ----------------------------------------------


class TestIncrementalCompiler:
    def test_rejects_optimizing_and_strided_options(self):
        with pytest.raises(ConfigError, match="incremental"):
            IncrementalCompiler(options=PipelineOptions(optimize=True))
        with pytest.raises(ConfigError, match="incremental"):
            IncrementalCompiler(options=PipelineOptions(stride=2))

    def test_cold_then_single_pattern_change_reuses_the_rest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiler = IncrementalCompiler(store)
        v1 = compiler.compile(ruleset(RULES))
        assert v1.compiled_components == 4
        assert v1.reused_components == 0
        v2_rules = dict(RULES, r5="xy+z")
        v2 = compiler.compile(ruleset(v2_rules))
        assert v2.reused_components == 4
        assert v2.compiled_components == 1
        # a removal compiles nothing at all
        v3 = compiler.compile(
            ruleset({k: v for k, v in v2_rules.items() if k != "r1"})
        )
        assert v3.compiled_components == 0
        assert v3.reused_components == 4

    def test_disk_cache_survives_process_restart(self, tmp_path):
        store = ArtifactStore(tmp_path)
        incremental_compile(ruleset(RULES), store=store)
        # a fresh compiler (fresh in-memory LRU) hits the disk
        fresh = IncrementalCompiler(ArtifactStore(tmp_path))
        composed = fresh.compile(ruleset(RULES))
        assert composed.reused_components == 4
        assert fresh.stats.reused_disk == 4
        assert fresh.stats.compiled == 0

    def test_manifest_is_persisted_and_readable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        composed = incremental_compile(ruleset(RULES), store=store)
        manifest = store.get_manifest(composed.key)
        assert manifest is not None
        assert manifest["composition_key"] == composed.composition_key
        assert manifest["ruleset_fingerprint"] == composed.fingerprint
        assert sorted(c["key"] for c in manifest["components"]) == sorted(
            composed.component_keys
        )
        assert store.manifest_keys() == [composed.key]
        # manifests are sidecars, not artifacts: the npz key listing
        # holds exactly the four component artifacts
        assert len(store.keys()) == 4

    def test_parallel_fanout_matches_serial(self, tmp_path):
        serial = IncrementalCompiler(ArtifactStore(tmp_path / "serial"))
        fanned = IncrementalCompiler(ArtifactStore(tmp_path / "fanned"))
        a = ruleset(RULES)
        one = serial.compile(a, workers=1)
        many = fanned.compile(a, workers=2)
        assert sorted(one.component_keys) == sorted(many.component_keys)
        assert one.key == many.key
        assert one.composition_key == many.composition_key
        # pass timings come back from the pool beside the artifacts,
        # which the two runs wrote byte for byte alike
        assert all(part.artifact.timings for part in many.components)
        for key in one.component_keys:
            assert (
                serial.store.path(key).read_bytes()
                == fanned.store.path(key).read_bytes()
            )

    def test_key_matches_classic_artifact_key(self):
        from repro.compile import compile_ruleset

        options = PipelineOptions(backend="sparse")
        automaton = ruleset(RULES)
        composed = IncrementalCompiler(options=options).compile(automaton)
        assert composed.key == compile_ruleset(automaton, options).key


# -- oracle differential: composed == cold == naive ------------------------


class TestComposedOracle:
    @pytest.mark.parametrize("backend", ["sparse", "native", "auto"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_composed_scan_equals_cold_compile(self, backend, num_shards):
        automaton = ruleset(RULES)
        options = PipelineOptions(backend=backend)
        composed = IncrementalCompiler(options=options).compile(automaton)
        shards, engines = composed.build_shards(num_shards)
        from repro.service.sharding import Dispatcher

        incremental = Dispatcher(
            automaton,
            ScanConfig(backend=backend, num_shards=num_shards),
            prebuilt=(shards, engines),
        ).scan(STREAM)
        cold = Dispatcher(
            automaton, ScanConfig(backend=backend, num_shards=num_shards)
        ).scan(STREAM)
        assert report_keys(incremental.reports) == report_keys(cold.reports)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_shard_automata_come_from_the_ruleset(self, num_shards):
        """A composed shard's automaton is taken from the ruleset the
        caller holds — the ruleset itself when one shard holds every
        state in order — and composition leaves no automaton rebuilt
        and cached on a component artifact."""
        automaton = ruleset(RULES)
        composed = IncrementalCompiler().compile(automaton)
        shards, engines = composed.build_shards(num_shards)
        assert len(shards) == num_shards
        if num_shards == 1:
            assert shards[0].automaton is automaton
        for shard in shards:
            layout = automaton.subautomaton(shard.global_ids)
            assert shard.global_ids == sorted(shard.global_ids)
            assert shard.automaton.fingerprint == layout.fingerprint
        assert all(
            part.artifact._automaton is None for part in composed.components
        )
        from repro.service.sharding import Dispatcher

        result = Dispatcher(
            automaton, ScanConfig(num_shards=num_shards),
            prebuilt=(shards, engines),
        ).scan(STREAM)
        naive = oracle_run(automaton, STREAM)
        assert report_keys(result.reports) == report_keys(naive.reports)

    def test_incremental_recompile_equals_oracle(self):
        rng = random.Random(99)
        compiler = IncrementalCompiler()
        rules = {f"r{i}": p for i, p in enumerate(POOL[:4])}
        for trial in range(6):
            # random edit: add or remove one pattern each round
            if len(rules) > 2 and rng.random() < 0.4:
                rules.pop(rng.choice(sorted(rules)))
            else:
                new = rng.choice(POOL)
                rules[f"t{trial}"] = new
            automaton = ruleset(rules)
            composed = compiler.compile(automaton)
            shards, engines = composed.build_shards(2)
            from repro.service.sharding import Dispatcher

            result = Dispatcher(
                automaton,
                ScanConfig(num_shards=2),
                prebuilt=(shards, engines),
            ).scan(STREAM)
            naive = oracle_run(automaton, STREAM)
            assert report_keys(result.reports) == report_keys(naive.reports)

    def test_one_packer_partitions_and_balances(self):
        # the one LPT packer, seen through both of its faces: component
        # groups (composition) and their flattened state ids (sharding)
        rng = random.Random(41)
        for _trial in range(15):
            states = rng.sample(range(1000), 120)
            components = []
            while states and len(components) < 9:
                take = rng.randint(1, 12)
                components.append(sorted(states[:take]))
                del states[:take]
            sizes = [len(c) for c in components]
            for num_shards in (1, 2, 3, 5):
                grouped = balanced_component_groups(components, num_shards)
                # a partition of the components, no empty group
                assert sorted(i for g in grouped for i in g) == list(
                    range(len(components))
                )
                assert len(grouped) == min(num_shards, len(components))
                # LPT: largest first, and no group is heavier than the
                # lightest by more than the last component it received
                loads = [sum(sizes[i] for i in g) for g in grouped]
                for group, load in zip(grouped, loads):
                    assert [sizes[i] for i in group] == sorted(
                        (sizes[i] for i in group), reverse=True
                    )
                    assert load - sizes[group[-1]] <= min(loads)
                # the flat face: sorted state ids, the same loads, and
                # every state in exactly one shard
                flat = balanced_shards(components, num_shards)
                assert [len(group) for group in flat] == loads
                assert all(group == sorted(group) for group in flat)
                assert sorted(x for group in flat for x in group) == sorted(
                    x for component in components for x in component
                )


# -- ruleset edits ---------------------------------------------------------


class TestApplyUpdate:
    def test_add_and_remove(self):
        automaton = ruleset(RULES)
        updated = apply_update(automaton, add={"r5": "xy+z"}, remove=["r2"])
        codes = {
            s.report_code for s in updated.states if s.reporting
        }
        assert codes == {"r1", "r3", "r4", "r5"}
        # untouched components keep their fingerprints
        before = {
            component_fingerprint(automaton, c)
            for c in connected_components(automaton)
        }
        after = {
            component_fingerprint(updated, c)
            for c in connected_components(updated)
        }
        assert len(after & before) == 3

    def test_original_is_untouched(self):
        automaton = ruleset(RULES)
        states = len(automaton)
        apply_update(automaton, remove=["r1"])
        assert len(automaton) == states

    def test_unknown_code_raises(self):
        with pytest.raises(ConfigError, match="unknown report codes"):
            apply_update(ruleset(RULES), remove=["nope"])

    def test_refuses_partial_component_removal(self):
        # two codes sharing one component (an alternation reporting on
        # a shared accept structure is hard to build with this parser,
        # so fuse two patterns into one component via a shared prefix)
        automaton = ruleset({"ra": "ab", "rb": "ab*c"})
        comps = connected_components(automaton)
        codes_per_comp = [
            {
                automaton.states[s].report_code
                for s in comp
                if automaton.states[s].reporting
            }
            for comp in comps
        ]
        if all(len(codes) < 2 for codes in codes_per_comp):
            pytest.skip("parser keeps these patterns in separate components")
        with pytest.raises(ConfigError, match="also reports"):
            apply_update(automaton, remove=["ra"])

    def test_empty_update_raises(self):
        with pytest.raises(ConfigError, match="add= and/or remove="):
            apply_update(ruleset(RULES))
        with pytest.raises(ConfigError, match="every pattern"):
            apply_update(ruleset(RULES), remove=list(RULES))


# -- store pins ------------------------------------------------------------


class TestStorePins:
    def test_pinned_artifacts_survive_byte_pressure(self, tmp_path):
        store = ArtifactStore(tmp_path)
        composed = incremental_compile(ruleset(RULES), store=store)
        keys = list(composed.component_keys)
        store.pin(keys)
        # shrink the budget below one artifact: nothing pinned may go
        store.max_bytes = 1
        filler = incremental_compile(
            ruleset({"f1": "qq+r", "f2": "ss*t"}), store=store
        )
        for key in keys:
            assert store.contains(key), "pinned artifact was evicted"
        # a write batch is kept whole by its own eviction pass ...
        assert all(store.contains(k) for k in filler.component_keys)
        # ... and the unpinned filler absorbs the next batch's pressure
        later = incremental_compile(ruleset({"h1": "ww+x"}), store=store)
        for key in keys:
            assert store.contains(key), "pinned artifact was evicted"
        assert not any(store.contains(k) for k in filler.component_keys)
        assert all(store.contains(k) for k in later.component_keys)
        # unpinning returns them to the eviction pool
        store.unpin(keys)
        incremental_compile(
            ruleset({"g1": "uu+v"}), store=store
        )
        assert any(not store.contains(k) for k in keys)

    def test_pins_are_refcounted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.pin(["k1", "k1", "k2"])
        store.unpin(["k1"])
        assert store.pinned_keys() == {"k1", "k2"}
        store.unpin(["k1", "k2"])
        assert store.pinned_keys() == set()


# -- versioned service rulesets --------------------------------------------


class TestServiceHotSwap:
    def test_update_swaps_new_scans_and_drains_old_sessions(self, tmp_path):
        v1_rules = dict(RULES)
        v2_rules = dict(RULES, r5="xy+z")
        v1 = ruleset(v1_rules)
        offline_v1 = Engine(ruleset(v1_rules)).run(STREAM).reports
        offline_v2 = Engine(ruleset(v2_rules)).run(STREAM).reports
        with MatchingService(
            ScanConfig(num_shards=2, artifact_store=tmp_path)
        ) as service:
            record1 = service.register_ruleset(v1)
            assert record1.version == 1
            store = service.store
            assert set(record1.component_keys) <= store.pinned_keys()

            session = service.open_session(v1, "tenant-a")
            assert session.ruleset_version == 1
            half = len(STREAM) // 2
            got = list(session.feed(STREAM[:half]))

            record2 = service.update_ruleset(v1, add={"r5": "xy+z"})
            assert record2.version == 2
            assert record2.reused_components == 4
            assert record2.compiled_components == 1
            # v1 is retiring (a session still holds it), v2 is current
            assert service.version_summary() == {
                "lineages": 1,
                "live": 2,
                "retiring": 1,
            }

            # new scans and sessions bind v2
            result = service.scan(record2.automaton, STREAM)
            assert report_keys(result.reports) == report_keys(offline_v2)

            # the in-flight session still runs v1 engines
            got += list(session.feed(STREAM[half:]))
            service.close_session(session.name)
            assert report_keys(got) == report_keys(offline_v1)

            # ... and draining it retires v1: pins move wholly to v2
            assert service.version_summary() == {
                "lineages": 1,
                "live": 1,
                "retiring": 0,
            }
            assert service.ruleset_version(record1.fingerprint) is None
            v2_only = set(record2.component_keys)
            assert store.pinned_keys() == v2_only
        assert store.pinned_keys() == set()

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("backend", ["sparse", "native"])
    def test_handle_and_automaton_agree_with_oracle(self, num_shards, backend):
        """The two ways to name a ruleset: a handle is the lineage (its
        latest version), an automaton is exactly those rules."""
        v1, v2 = ruleset(RULES), ruleset(dict(RULES, r5="xy+z"))
        oracle_v1 = report_keys(oracle_run(v1, STREAM).reports)
        oracle_v2 = report_keys(oracle_run(v2, STREAM).reports)
        assert oracle_v1 != oracle_v2
        streams = {"a": STREAM[:300], "b": STREAM[300:]}

        def scans(service, named):
            many = service.scan_many(named, streams)
            return (
                report_keys(service.scan(named, STREAM).reports),
                {name: report_keys(many[name].reports) for name in streams},
            )

        def expected(automaton):
            return (
                report_keys(oracle_run(automaton, STREAM).reports),
                {
                    name: report_keys(oracle_run(automaton, data).reports)
                    for name, data in streams.items()
                },
            )

        with MatchingService(
            ScanConfig(num_shards=num_shards, backend=backend)
        ) as service:
            handle = service.register_ruleset(v1).lineage
            assert scans(service, handle) == scans(service, v1) == expected(v1)

            draining = service.open_session(handle, "opened-on-v1")
            half = len(STREAM) // 2
            got = list(draining.feed(STREAM[:half]))
            assert service.update_ruleset(handle, add={"r5": "xy+z"}).version == 2

            # the handle moved on, the automaton did not
            assert scans(service, handle) == scans(service, v2) == expected(v2)
            assert scans(service, v1) == expected(v1)
            fresh = service.open_session(handle, "opened-on-v2")
            assert fresh.ruleset_version == 2
            assert report_keys(fresh.feed(STREAM)) == oracle_v2
            service.close_session(fresh.name)

            got += list(draining.feed(STREAM[half:]))
            service.close_session(draining.name)
            assert report_keys(got) == oracle_v1
            # v1 drained and was released; its exact rules still rebuild
            assert service.ruleset_version(handle) is None
            assert scans(service, v1) == expected(v1)
            assert scans(service, handle) == expected(v2)
            # ... and registering them again swaps the lineage back
            assert service.register_ruleset(v1).version == 3
            assert scans(service, handle) == expected(v1)

    def test_identity_update_is_a_noop(self):
        with MatchingService(ScanConfig()) as service:
            v1 = ruleset(RULES)
            record1 = service.register_ruleset(v1)
            again = service.update_ruleset(v1, automaton=ruleset(RULES))
            assert again is record1

    def test_register_is_idempotent(self):
        with MatchingService(ScanConfig()) as service:
            v1 = ruleset(RULES)
            assert service.register_ruleset(v1) is service.register_ruleset(
                ruleset(RULES)
            )

    def test_update_by_lineage_handle(self):
        with MatchingService(ScanConfig()) as service:
            record1 = service.register_ruleset(ruleset(RULES))
            record2 = service.update_ruleset(
                record1.lineage, add={"r5": "xy+z"}
            )
            assert record2.version == 2
            assert record2.lineage == record1.lineage
            record3 = service.update_ruleset(record1.lineage, remove=["r5"])
            assert record3.version == 3
            # the remove round-tripped back to v1's language
            assert record3.fingerprint == record1.fingerprint

    def test_any_live_versions_automaton_names_its_lineage(self):
        # updating by a version's automaton (what RulesetHandle.update
        # amounts to) continues that version's lineage, however many
        # updates in, instead of founding a new one
        from repro.api import Ruleset

        with MatchingService(ScanConfig()) as service:
            v1 = ruleset(RULES)
            handle = service.register_ruleset(v1).lineage
            v2 = service.update_ruleset(v1, add={"r5": "xy+z"})
            v3 = service.update_ruleset(v2.automaton, add={"r6": "yx+z"})
            assert (v2.version, v3.version) == (2, 3)
            assert v2.lineage == v3.lineage == handle
            assert service.register_ruleset(v3.automaton) is v3
            assert service.version_summary()["lineages"] == 1
            assert service.resolve(handle)[0] is v3
            want = report_keys(oracle_run(v3.automaton, STREAM).reports)
            assert report_keys(service.scan(handle, STREAM).reports) == want

        with Ruleset(ruleset(RULES)).compile(scan=ScanConfig()) as facade:
            lineage = facade.fingerprint
            versions = [
                facade.update(add={code: pattern}).version
                for code, pattern in [("r5", "xy+z"), ("r6", "yx+z"), ("r7", "zz+")]
            ]
            assert versions == [2, 3, 4]
            assert facade.service.version_summary()["lineages"] == 1
            latest, _ = facade.service.resolve(lineage)
            assert latest.fingerprint == facade.fingerprint
            want = report_keys(oracle_run(facade.automaton, STREAM).reports)
            assert report_keys(facade.scan(STREAM).reports) == want
            assert (
                report_keys(facade.service.scan(lineage, STREAM).reports) == want
            )


# -- the wire --------------------------------------------------------------


class TestServerHotSwap:
    def test_update_over_the_wire(self):
        from repro.service import BackgroundServer, MatchingClient

        v1_rules = dict(RULES)
        v2_rules = dict(RULES, r5="xy+z")
        offline_v1 = Engine(ruleset(v1_rules)).run(STREAM).reports
        offline_v2 = Engine(ruleset(v2_rules)).run(STREAM).reports

        def keys(reports):
            return [(r.cycle, r.code) for r in reports]

        with BackgroundServer(config=ScanConfig(num_shards=2)) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(v1_rules)
                session = client.open_session(handle, "tenant-a")
                half = len(STREAM) // 2
                got = list(session.feed(STREAM[:half]))

                resp = client.update(handle, add={"r5": "xy+z"})
                assert resp["version"] == 2
                assert resp["reused_components"] == 4
                assert resp["compiled_components"] == 1

                # new scans against the same handle see v2 ...
                result = client.scan(handle, STREAM)
                assert keys(result.reports) == keys(offline_v2)

                # ... while the in-flight stream drains on v1
                got += list(session.feed(STREAM[half:]))
                session.close()
                assert keys(got) == keys(offline_v1)

                # fresh sessions bind v2
                s2 = client.open_session(handle, "tenant-b")
                got2 = list(s2.feed(STREAM))
                s2.close()
                assert keys(got2) == keys(offline_v2)

                stats = client.stats()
                assert stats["ruleset_versions"] == {
                    "lineages": 1,
                    "live": 1,
                    "retiring": 0,
                }

    def test_update_validation_errors(self):
        from repro.service import BackgroundServer, MatchingClient
        from repro.service.client import RemoteError

        with BackgroundServer(config=ScanConfig()) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register(RULES)
                with pytest.raises(RemoteError) as excinfo:
                    client._request({"op": "update", "handle": handle})
                assert excinfo.value.code == "bad-request"
                with pytest.raises(RemoteError) as excinfo:
                    client.update(handle, remove=["nope"])
                assert excinfo.value.code == "bad-request"


# -- the api facade --------------------------------------------------------


class TestFacadeUpdate:
    def test_ruleset_update_is_pure(self):
        from repro.api import Ruleset

        rs = Ruleset.from_regexes(RULES)
        before = len(rs.automaton)
        rs2 = rs.update(add={"r5": "xy+z"}, remove=["r2"])
        assert len(rs.automaton) == before
        codes = {s.report_code for s in rs2.automaton.states if s.reporting}
        assert codes == {"r1", "r3", "r4", "r5"}

    def test_handle_update_hot_swaps_in_place(self):
        from repro.api import Ruleset

        v2_rules = dict(RULES, r5="xy+z")
        offline_v1 = Engine(ruleset(RULES)).run(STREAM).reports
        offline_v2 = Engine(ruleset(v2_rules)).run(STREAM).reports
        with Ruleset.from_regexes(RULES).compile(
            scan=ScanConfig(num_shards=2)
        ) as handle:
            with handle.stream("t1") as session:
                half = len(STREAM) // 2
                got = list(session.feed(STREAM[:half]))
                record = handle.update(add={"r5": "xy+z"})
                assert record.version == 2
                result = handle.scan(STREAM)
                assert report_keys(result.reports) == report_keys(offline_v2)
                got += list(session.feed(STREAM[half:]))
            assert report_keys(got) == report_keys(offline_v1)
            assert handle.fingerprint == record.fingerprint
