"""End-to-end tests of the network matching server and its clients.

The server runs in-process on a background thread (its own asyncio
loop); tests drive it through the real TCP clients and assert the
results are byte-identical to an offline ``MatchingService.scan`` on
the same ruleset and input — including chunked sessions split at
pathological boundaries, op-level rejections, and the kept-reports cap
policies travelling across the wire.  (Framing, limits, back-pressure
and drain are in ``tests/test_transport.py``.)
"""

import asyncio
import json
import threading
import time
import warnings

import pytest

from repro.api import ScanConfig
from repro.automata import compile_regex_set
from repro.errors import SimulationError
from repro.service import (
    AsyncMatchingClient,
    BackgroundServer,
    MatchingClient,
    MatchingService,
    RemoteError,
    batching,
)
from repro.service.protocol import PROTOCOL_VERSION, decode_reports
from repro.sim.engine import Engine, ReportTruncationWarning
from tests.oracle import oracle_run

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 40


def full_keys(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


class ServerHarness(BackgroundServer):
    """BackgroundServer plus a connected-client convenience."""

    def client(self, **kwargs) -> MatchingClient:
        return MatchingClient(port=self.port, **kwargs)


@pytest.fixture(scope="module")
def ruleset():
    return compile_regex_set(RULES, name="server-tests")


@pytest.fixture(scope="module")
def offline(ruleset):
    # the ground truth every server-side result must reproduce
    service = MatchingService(ScanConfig(num_shards=2))
    result = service.scan(ruleset, STREAM)
    yield result
    service.close()


@pytest.fixture(scope="module")
def harness():
    with ServerHarness(config=ScanConfig(num_shards=2)) as h:
        yield h


class TestEndToEnd:
    def test_scan_is_byte_identical_to_offline(
        self, harness, offline, ruleset
    ):
        with harness.client() as client:
            handle = client.register(RULES)
            result = client.scan(handle, STREAM)
        assert full_keys(result.reports) == full_keys(offline.reports)
        # the same table row, named by handle in-process; both forms
        # (and the wire) agree with the naive oracle
        by_handle = harness.server.service.scan(handle, STREAM)
        assert full_keys(by_handle.reports) == full_keys(offline.reports)
        assert full_keys(offline.reports) == full_keys(
            oracle_run(ruleset, STREAM).reports
        )
        assert result.num_reports == offline.num_reports
        assert result.bytes_scanned == len(STREAM)
        assert not result.truncated

    def test_register_automaton_via_mnrl_aliases_regex_handle(
        self, harness, ruleset
    ):
        with harness.client() as client:
            by_rules = client.register(RULES)
            by_automaton = client.register(ruleset)
        # same language -> same fingerprint -> same compiled artifacts
        assert by_rules == by_automaton

    def test_session_one_byte_chunks(self, harness, offline):
        """Pathological boundaries: every report spans a chunk edge."""
        with harness.client() as client:
            handle = client.register(RULES)
            session = client.open_session(handle, "tiny-chunks")
            reports = []
            for i in range(0, 200):
                reports.extend(session.feed(STREAM[i : i + 1]))
            assert session.position == 200
            summary = session.close()
        expected = [k for k in full_keys(offline.reports) if k[0] < 200]
        assert full_keys(reports) == expected
        assert summary["cycles"] == 200

    def test_session_split_mid_report(self, harness, offline):
        """A chunk boundary inside a match body must not lose the report."""
        # 'abc' completes at absolute offset 6; split between 'b' and 'c'
        with harness.client() as client:
            handle = client.register(RULES)
            session = client.open_session(handle, "mid-report")
            head = session.feed(STREAM[:6])
            tail = session.feed(STREAM[6:40])
            session.close()
        got = full_keys(head) + full_keys(tail)
        expected = [k for k in full_keys(offline.reports) if k[0] < 40]
        assert got == expected

    def test_scan_many_matches_offline(self, harness, ruleset):
        streams = {"a": STREAM[:100], "b": STREAM[100:300], "c": b""}
        with MatchingService(ScanConfig(num_shards=2)) as service:
            expected = service.scan_many(ruleset, streams)
        with harness.client() as client:
            handle = client.register(RULES)
            results = client.scan_many(handle, streams)
        assert set(results) == set(streams)
        for name in streams:
            assert full_keys(results[name].reports) == full_keys(
                expected[name].reports
            )

    def test_sessions_are_scoped_per_connection(self, harness):
        with harness.client() as one, harness.client() as two:
            handle = one.register(RULES)
            s1 = one.open_session(handle, "same-name")
            s2 = two.open_session(handle, "same-name")
            r1 = s1.feed(b"abc")
            r2 = s2.feed(b"xxabc")
            # independent streams: same name, different positions/reports
            assert s1.position == 3
            assert s2.position == 5
            assert [r.cycle for r in r1] == [2]
            assert [r.cycle for r in r2] == [4]
            s1.close()
            s2.close()

    def test_ping_and_stats_frames(self, harness):
        with harness.client() as client:
            pong = client.ping()
            assert pong["pong"] is True and pong["version"] == PROTOCOL_VERSION
            handle = client.register(RULES)
            client.scan(handle, STREAM[:64])
            stats = client.stats()
        assert stats["rulesets"] >= 1
        assert stats["frames"] >= 2
        assert stats["connections"]["total"] >= 1
        backends = stats["backends"]
        assert backends, "per-backend throughput missing"
        for entry in backends.values():
            assert entry["bytes"] >= 0 and entry["scans"] >= 1

    def test_async_client_round_trip(self, harness, offline):
        async def drive():
            async with AsyncMatchingClient(port=harness.port) as client:
                handle = await client.register(RULES)
                result = await client.scan(handle, STREAM)
                session = await client.open_session(handle, "async")
                fed = []
                for start in range(0, 120, 7):
                    fed.extend(await session.feed(STREAM[start : start + 7]))
                await session.close()
                return result, fed

        result, fed = asyncio.run(drive())
        assert full_keys(result.reports) == full_keys(offline.reports)
        # the last chunk starts at 119 and carries 7 bytes -> 126 fed
        expected = [k for k in full_keys(offline.reports) if k[0] < 126]
        assert full_keys(fed) == expected


class TestProtocolViolations:
    """Op-level rejections; the framing, limit, back-pressure and drain
    cases live in ``tests/test_transport.py``, where they run against
    the server *and* the router."""

    def test_unknown_handle_and_session(self, harness):
        with harness.client() as client:
            with pytest.raises(RemoteError) as excinfo:
                client.scan("deadbeef", b"abc")
            assert excinfo.value.code == "unknown-handle"
            with pytest.raises(RemoteError) as excinfo:
                client._request({"op": "feed", "session": "ghost", "data": ""})
            assert excinfo.value.code == "unknown-session"

    def test_bad_base64_rejected(self, harness):
        with harness.client() as client:
            handle = client.register(RULES)
            with pytest.raises(RemoteError) as excinfo:
                client._request(
                    {"op": "scan", "handle": handle, "data": "!!!not-b64"}
                )
            assert excinfo.value.code == "bad-request"

    def test_duplicate_session_name_rejected(self, harness):
        with harness.client() as client:
            handle = client.register(RULES)
            client.open_session(handle, "dup")
            with pytest.raises(RemoteError) as excinfo:
                client.open_session(handle, "dup")
            assert excinfo.value.code == "bad-request"


class TestRestoredState:
    """``open``'s ``state`` is untrusted input: a snapshot is packed
    into the row the C loop steps only after every id and the position
    check out, so a hostile one is refused as ``bad-request`` — it never
    reaches the kernel (ids past ``n`` would read past its tables)."""

    #: the 4-regex ruleset of the e2e ``tiny`` workloads: 31 states
    TINY = {
        "shell": r"/bin/(sh|bash)",
        "hex-blob": r"0x[0-9a-f]{4}",
        "beacon": r"PING[0-9]+PONG",
        "paper": "(a|b)e*cd+",
    }

    @staticmethod
    def _state(active, position=3):
        return {"format_version": 1, "active": active, "position": position}

    @pytest.fixture(scope="class")
    def tiny(self):
        with ServerHarness(config=ScanConfig(backend="native")) as h:
            with h.client() as client:
                yield client, client.register(self.TINY)

    def test_the_tiny_ruleset_has_31_states(self):
        assert len(compile_regex_set(self.TINY)) == 31

    @pytest.mark.parametrize(
        "state",
        [
            _state([40]),
            _state([63]),
            _state([-1]),
            _state([31]),
            _state([5, 3]),
            _state([4, 4]),
            _state([2.0]),
            _state([True]),
            _state(["3"]),
            _state(None),
            _state([1], position=-5),
            _state([1], position=1.5),
            _state([1], position=True),
            _state([1], position="x"),
            _state([1], position=None),
            _state([1], position=1 << 70),
            _state([1 << 70]),
            [1, 2],
            "snapshot",
        ],
        ids=lambda state: repr(state)[:60],
    )
    def test_hostile_state_is_a_bad_request(self, tiny, state):
        client, handle = tiny
        snapshot = state if isinstance(state, list) else [state]
        with pytest.raises(RemoteError) as excinfo:
            client._request({"op": "open", "handle": handle,
                             "session": "hostile", "state": snapshot})  # fmt: skip
        assert excinfo.value.code == "bad-request"
        # refused sessions are released: the name is free again
        client._request({"op": "open", "handle": handle, "session": "hostile"})
        client._request({"op": "close", "session": "hostile"})

    def test_valid_state_resumes_the_stream(self, tiny):
        client, handle = tiny
        stream = b"xx/bin/bash 0xbeef PING12PONG aecdd" * 3
        nfa = compile_regex_set(self.TINY)
        expected = full_keys(oracle_run(nfa, stream).reports)
        client._request({"op": "open", "handle": handle, "session": "a",
                         "checkpoint": True})  # fmt: skip
        first = client._request({"op": "feed", "session": "a",
                                 "data": stream[:23]})  # fmt: skip
        client._request({"op": "open", "handle": handle, "session": "b",
                         "state": first["state"]})  # fmt: skip
        second = client._request({"op": "feed", "session": "b",
                                  "data": stream[23:]})  # fmt: skip
        got = [
            (r.cycle, r.state_id, r.code)
            for reply in (first, second)
            for r in decode_reports(reply["reports"])
        ]
        assert got == expected
        for name in ("a", "b"):
            client._request({"op": "close", "session": name})

    def test_checkpoint_state_json_is_pinned(self):
        """A native session's checkpoint ``state`` keeps its JSON byte
        for byte: ascending ids derived from the packed rows, per shard,
        as the index-form states always wrote them."""
        rules = {"word": "[a-z]+x", "hex": "[0-9a-f]{3}z",
                 "paper": "(a|b)e*cd+", "abc": "abc"}  # fmt: skip
        config = ScanConfig(num_shards=2, backend="native")
        with ServerHarness(config=config) as h, h.client() as client:
            handle = client.register(rules)
            client._request({"op": "open", "handle": handle, "session": "g",
                             "checkpoint": True})  # fmt: skip
            states = [
                client._request(
                    {"op": "feed", "session": "g", "data": chunk}
                )["state"]
                for chunk in (b"bee", b"cab1", b"", b"0fabc")
            ]
        assert json.dumps(states) == (
            '[[{"format_version": 1, "active": [0, 4], "position": 3}, '
            '{"format_version": 1, "active": [0, 1, 2], "position": 3}], '
            '[{"format_version": 1, "active": [], "position": 7}, '
            '{"format_version": 1, "active": [0, 1, 2], "position": 7}], '
            '[{"format_version": 1, "active": [], "position": 7}, '
            '{"format_version": 1, "active": [0, 1, 2], "position": 7}], '
            '[{"format_version": 1, "active": [0, 5], "position": 12}, '
            '{"format_version": 1, "active": [0, 1, 2, 6], "position": 12}]]'
        )


class TestReportCapPolicies:
    """max_kept_reports warn vs strict across the service and the wire."""

    def test_scan_many_default_cap_warns(self, ruleset):
        with MatchingService(ScanConfig(max_reports=3)) as service:
            with pytest.warns(ReportTruncationWarning):
                results = service.scan_many(
                    ruleset, {"a": STREAM, "b": STREAM[:4]}
                )
        assert results["a"].truncated
        assert len(results["a"].reports) == 3
        # counting continues past the cap, like the engine
        assert results["a"].num_reports == Engine(ruleset).run(
            STREAM
        ).stats.num_reports
        assert not results["b"].truncated

    def test_scan_many_strict_raises(self, ruleset):
        with MatchingService(
            ScanConfig(max_reports=3, on_truncation="error")
        ) as service:
            with pytest.raises(SimulationError, match="kept-reports cap"):
                service.scan_many(ruleset, {"a": STREAM})

    def test_scan_explicit_cap_is_silent(self, ruleset):
        with MatchingService(ScanConfig(on_truncation="error")) as service:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = service.scan(ruleset, STREAM, max_reports=2)
        assert result.truncated and len(result.reports) == 2

    def test_server_scan_default_cap_warns_client_side(self):
        with ServerHarness(config=ScanConfig(max_reports=3)) as harness:
            with harness.client() as client:
                handle = client.register(RULES)
                with pytest.warns(ReportTruncationWarning):
                    result = client.scan(handle, STREAM)
                assert result.truncated
                assert len(result.reports) == 3
                assert result.warnings

    def test_server_scan_strict_raises_like_engine(self):
        with ServerHarness(config=ScanConfig(max_reports=3)) as harness:
            with harness.client() as client:
                handle = client.register(RULES)
                with pytest.raises(SimulationError, match="kept-reports cap"):
                    client.scan(handle, STREAM, on_truncation="error")
                # explicit caps stay silent, mirroring Engine.run
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = client.scan(handle, STREAM, max_reports=2)
                assert result.truncated

    def test_server_scan_many_policies(self):
        with ServerHarness(config=ScanConfig(max_reports=3)) as harness:
            with harness.client() as client:
                handle = client.register(RULES)
                with pytest.warns(ReportTruncationWarning):
                    results = client.scan_many(
                        handle, {"long": STREAM, "short": STREAM[:4]}
                    )
                assert results["long"].truncated
                assert not results["short"].truncated
                with pytest.raises(SimulationError):
                    client.scan_many(
                        handle, {"long": STREAM}, on_truncation="error"
                    )

    def test_server_session_warn_policy(self, harness):
        with harness.client() as client:
            handle = client.register(RULES)
            session = client.open_session(handle, "cap-warn", max_reports=2)
            with pytest.warns(ReportTruncationWarning):
                session.feed(b"aecd" * 10)
            assert session.truncated
            # the warning fires once (on the transition), like Session
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.feed(b"aecd")
            session.close()

    def test_server_session_strict_policy(self, harness):
        with harness.client() as client:
            handle = client.register(RULES)
            session = client.open_session(
                handle, "cap-strict", max_reports=2, on_truncation="error"
            )
            with pytest.raises(SimulationError, match="kept-reports cap"):
                session.feed(b"aecd" * 10)
            # the stream stays open and consistent after the error
            session.feed(b"aecd")
            assert session.position == 44
            summary = session.close()
            assert summary["truncated"]

    def test_truncated_flags_match_engine_behaviour(self, ruleset):
        engine_result = Engine(ruleset).run(STREAM, max_reports=3)
        with ServerHarness() as harness:
            with harness.client() as client:
                handle = client.register(RULES)
                remote = client.scan(handle, STREAM, max_reports=3)
        assert remote.truncated == engine_result.truncated
        assert full_keys(remote.reports) == full_keys(engine_result.reports)
        assert remote.num_reports == engine_result.stats.num_reports


class TestArtifactUpload:
    """``register_artifact``: precompiled rulesets over the wire."""

    @pytest.fixture(scope="class")
    def artifact(self, ruleset):
        from repro.compile import CompiledArtifact, compile_ruleset

        return CompiledArtifact.from_compiled(
            compile_ruleset(ruleset, backend="auto")
        )

    def test_uploaded_artifact_scans_byte_identical(
        self, harness, artifact, offline
    ):
        with harness.client() as client:
            handle = client.register_artifact(artifact)
            result = client.scan(handle, STREAM)
        assert full_keys(result.reports) == full_keys(offline.reports)
        assert result.num_reports == offline.num_reports

    def test_artifact_handle_aliases_source_registration(
        self, harness, artifact
    ):
        # same rules, registered by source and by artifact -> one handle
        with harness.client() as client:
            by_source = client.register(RULES)
            by_artifact = client.register_artifact(artifact.to_bytes())
        assert by_source == by_artifact

    def test_uploaded_artifact_drives_sessions(self, harness, artifact, offline):
        with harness.client() as client:
            handle = client.register_artifact(artifact)
            session = client.open_session(handle, "via-artifact")
            reports = session.feed(STREAM[:300])
            session.close()
        expected = [k for k in full_keys(offline.reports) if k[0] < 300]
        assert full_keys(reports) == expected

    def test_poisoned_key_rejected(self, harness, artifact):
        # an artifact whose manifest key claims another ruleset's cache
        # slot must be rejected before it can reach any shared store
        from repro.compile import CompiledArtifact

        poisoned = CompiledArtifact.from_bytes(artifact.to_bytes())
        poisoned.manifest["key"] = "0" * 64
        with harness.client() as client:
            with pytest.raises(RemoteError, match="key") as exc_info:
                client.register_artifact(poisoned.to_bytes())
            assert exc_info.value.code == "bad-artifact"

    def test_non_string_manifest_fingerprint_rejected(self, harness, artifact):
        # the manifest is untrusted: a fingerprint that cannot be a table
        # key is a bad artifact, not an internal error
        from repro.compile import CompiledArtifact

        bad = CompiledArtifact.from_bytes(artifact.to_bytes())
        bad.manifest["ruleset_fingerprint"] = []
        with harness.client() as client:
            with pytest.raises(RemoteError, match="not a string") as exc_info:
                client.register_artifact(bad.to_bytes())
            assert exc_info.value.code == "bad-artifact"

    def test_corrupt_artifact_rejected_cleanly(self, harness, artifact):
        blob = artifact.to_bytes()
        with harness.client() as client:
            with pytest.raises(RemoteError, match="corrupt") as exc_info:
                client.register_artifact(blob[: len(blob) // 2])
            assert exc_info.value.code == "bad-artifact"
            assert client.ping()["pong"] is True  # connection survives

    def test_empty_artifact_rejected(self, harness):
        with harness.client() as client:
            with pytest.raises(RemoteError, match="needs 'data'"):
                client.register_artifact(b"")

    def test_async_client_uploads(self, harness, artifact, offline):
        async def run():
            async with AsyncMatchingClient(port=harness.port) as client:
                handle = await client.register_artifact(artifact)
                return await client.scan(handle, STREAM)

        result = asyncio.run(run())
        assert full_keys(result.reports) == full_keys(offline.reports)


class TestOneRulesetTable:
    """The service's version records are the only ruleset registry: a
    request's handle is looked up, never re-derived, and the table is
    LRU-bounded."""

    @staticmethod
    def count_hashes(monkeypatch) -> list:
        """Record every language hash as (automaton name, form)."""
        import repro.automata.nfa as nfa_module
        import repro.compile.fingerprint as fingerprint_module

        calls = []
        real = nfa_module.language_digest

        def counting(automaton, ids=None, suffix=b""):
            form = (
                "component"
                if ids is not None
                else "key" if suffix else "fingerprint"
            )
            calls.append((automaton.name, form))
            return real(automaton, ids, suffix)

        # the one serializer, under both names it is called by
        monkeypatch.setattr(nfa_module, "language_digest", counting)
        monkeypatch.setattr(fingerprint_module, "language_digest", counting)
        return calls

    def test_served_requests_never_hash_the_ruleset(self, monkeypatch):
        from repro.api import Ruleset

        calls = self.count_hashes(monkeypatch)
        streams = {f"s{i}": STREAM[i : i + 64] for i in range(32)}

        with ServerHarness(config=ScanConfig(num_shards=2)) as harness:
            with harness.client() as client:
                handle = client.register(RULES)
                calls.clear()
                client.scan(handle, STREAM)
                client.scan_many(handle, streams)
                client.scan_many(handle, streams, trace=True)
                session = client.open_session(handle, "hash-free")
                session.feed(STREAM[:100])
                session.close()
                assert calls == []

        # a library caller's Automaton is named once per object, on its
        # first use, and never re-hashed per call
        automaton = compile_regex_set(RULES, name="counted")
        with MatchingService(ScanConfig(num_shards=2)) as service:
            calls.clear()
            service.scan(automaton, STREAM)  # cold
            assert calls.count(("counted", "fingerprint")) == 1
            calls.clear()
            service.scan(automaton, STREAM)
            service.scan_many(automaton, streams)
            service.scan_many(automaton, streams, trace=True)  # sequential
            service.open_session(automaton, "s").close()
            assert calls == []

        with Ruleset(automaton).compile(scan=ScanConfig()) as handle:
            handle.scan(STREAM)
            calls.clear()
            handle.scan(STREAM)
            handle.scan_many(streams)
            with handle.stream("s") as stream:
                stream.feed(STREAM)
            assert handle.fingerprint and calls == []

    def test_registered_artifact_is_hashed_once(self, monkeypatch):
        from repro.compile import CompiledArtifact, compile_ruleset

        rules = compile_regex_set(RULES, name="uploaded")
        blob = CompiledArtifact.from_compiled(
            compile_ruleset(rules, backend="auto")
        ).to_bytes()
        calls = self.count_hashes(monkeypatch)
        with MatchingService() as service:
            handle, automaton = service.register_artifact(blob)
            # verify() names the content and checks its key; _found and
            # the handle reuse that name
            assert calls == [("uploaded", "fingerprint"), ("uploaded", "key")]
            assert handle == automaton.fingerprint == rules.fingerprint
            calls.clear()
            service.scan(handle, STREAM)
            service.scan(automaton, STREAM)
            assert calls == []

    def test_facade_updates_stay_in_the_served_lineage(self):
        # a handle that serves keeps updating the lineage its remote
        # clients hold, and keeps scanning exactly its own rules
        from repro.api import Ruleset

        data = b"xaby cdd eff ghh" * 8
        rules = compile_regex_set({"ab": "ab+"}, name="served")
        with Ruleset(rules).compile(scan=ScanConfig()) as handle:
            lineage = handle.fingerprint
            bg = handle.serve(port=0, background=True)
            try:
                with MatchingClient(port=bg.port) as client:
                    assert handle.update(add={"cd": "cd+"}).version == 2
                    assert handle.update(add={"ef": "ef+"}).version == 3
                    assert handle.service.version_summary()["lineages"] == 1
                    by_lineage = client.scan(lineage, data)
                    assert full_keys(by_lineage.reports) == full_keys(
                        oracle_run(handle.automaton, data).reports
                    )
                    # a remote update moves the lineage, not the handle:
                    # the library scan still means handle.automaton
                    assert client.update(lineage, add={"gh": "gh+"})["version"] == 4
                    assert full_keys(handle.scan(data).reports) == full_keys(
                        by_lineage.reports
                    )
                    assert len(client.scan(lineage, data).reports) > len(
                        by_lineage.reports
                    )
            finally:
                bg.stop()

    def test_evicted_facade_handle_rebuilds(self):
        from repro.api import Ruleset

        rules = compile_regex_set(RULES, name="mine")
        other = compile_regex_set({"o": "zq+"}, name="other")
        want = full_keys(oracle_run(rules, STREAM).reports)
        with Ruleset(rules).compile(scan=ScanConfig(cache_capacity=1)) as handle:
            assert full_keys(handle.scan(STREAM).reports) == want
            handle.service.scan(other, STREAM)  # evicts the handle's lineage
            assert handle.service.ruleset_version(handle.fingerprint) is None
            assert full_keys(handle.scan(STREAM).reports) == want
            with handle.stream("after-eviction") as stream:
                assert full_keys(stream.feed(STREAM)) == want

    def test_table_is_bounded_and_open_sessions_survive(self, tmp_path):
        patterns = [f"k{i:02d}+z" for i in range(12)]
        stream = b"".join(f"k{i:02d}z".encode() for i in range(12)) * 20
        config = ScanConfig(cache_capacity=4, artifact_store=tmp_path)
        with ServerHarness(config=config) as harness:
            service = harness.server.service
            with harness.client() as client:
                first = client.register({"p": patterns[0]})
                held = client.register({"p": patterns[1]})
                session = client.open_session(held, "survivor")
                half = len(stream) // 2
                got = list(session.feed(stream[:half]))
                for pattern in patterns[2:]:
                    client.register({"p": pattern})

                stats = client.stats()
                lineages = stats["ruleset_versions"]["lineages"]
                assert stats["rulesets"] == lineages <= 4
                live_keys = {
                    key
                    for versions in service._lineages.values()
                    for record in versions
                    for key in record.component_keys
                }
                assert live_keys
                assert service.store.pinned_keys() == live_keys

                # the oldest handle went, from one place, with one code
                with pytest.raises(RemoteError) as excinfo:
                    client.scan(first, stream)
                assert excinfo.value.code == "unknown-handle"
                with pytest.raises(RemoteError) as excinfo:
                    client.update(first, add={"q": "zz"})
                assert excinfo.value.code == "unknown-handle"

                # ... but never a lineage with a stream in flight
                assert service.lineage_versions(held)
                got += list(session.feed(stream[half:]))
                session.close()
                expected = oracle_run(
                    compile_regex_set({"p": patterns[1]}), stream
                ).reports
                assert full_keys(got) == full_keys(expected)
            assert service.store is not None
        assert service.store.pinned_keys() == set()


class TestCacheCounters:
    """``cache_stats`` and the wire ``cache`` block count the ruleset
    table — the one in-memory cache of compiled rulesets."""

    def test_warm_lookups_are_hits(self):
        automaton = compile_regex_set(RULES, name="counted")
        with ServerHarness(config=ScanConfig(num_shards=2)) as harness:
            service = harness.server.service
            with harness.client() as client:
                handle = client.register(RULES)
                for _ in range(5):
                    assert client.scan(handle, STREAM).cached
                for _ in range(3):
                    assert service.scan(automaton, STREAM).cached
                cache = client.stats()["cache"]
            stats = service.cache_stats
            assert (stats.misses, stats.hits, stats.evictions) == (1, 8, 0)
            assert cache == {
                "hits": 8,
                "misses": 1,
                "evictions": 0,
                "hit_rate": stats.hit_rate,
            }
            assert cache["hit_rate"] > 0.8

    def test_evicted_lineages_leave_no_engine_behind(self):
        import gc
        import weakref

        rulesets = [
            compile_regex_set({"p": f"k{i}+z"}, name=f"ruleset-{i}")
            for i in range(4)
        ]
        data = b"k0zk1zk2zk3z"
        engines = []
        with ServerHarness(config=ScanConfig(cache_capacity=2)) as harness:
            service = harness.server.service

            def build(index):
                # the classic whole-shard build, as an ad-hoc scan does it
                assert not service.scan(rulesets[index], data).cached
                dispatcher = service.dispatcher(rulesets[index])
                engines.append([weakref.ref(e) for e in dispatcher.engines])

            build(0)
            build(1)
            service.scan(rulesets[0], data)  # 1 is now least recently used
            build(2)  # evicts 1
            service.scan(rulesets[0], data)
            build(3)  # evicts 2 — in use order, not build order
            with harness.client() as client:
                cache = client.stats()["cache"]
            assert cache["evictions"] == service.cache_stats.evictions == 2
            assert cache["misses"] == 4
            # the table is the only in-memory home of an engine: what
            # it evicted is gone, what it kept is not
            gc.collect()
            reachable = [
                any(ref() is not None for ref in refs) for refs in engines
            ]
            assert reachable == [True, False, False, True]


class TestLoopLiveness:
    def test_ping_and_health_answer_while_every_worker_is_busy(
        self, monkeypatch
    ):
        """``ping`` and ``health`` run on the loop: they answer while a
        feed holds the only executor thread.  The held feed runs the
        Python sparse kernel, which must never step inline — a scheduler
        that ran slow kernels on the loop would stall both here."""
        started, gate = threading.Event(), threading.Event()
        real = batching.feed_session_batch

        def held(dispatcher, entries):
            started.set()
            assert gate.wait(30)
            return real(dispatcher, entries)

        monkeypatch.setattr(batching, "feed_session_batch", held)
        errors = []
        config = ScanConfig(backend="sparse")
        with ServerHarness(config=config, executor_workers=1) as harness:

            def feed():
                try:
                    with harness.client() as client:
                        handle = client.register(RULES)
                        client.open_session(handle, "held").feed(STREAM[:512])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            feeding = threading.Thread(target=feed)
            feeding.start()
            try:
                assert started.wait(30)
                with harness.client(timeout=5) as client:
                    for call in (client.ping, client.health):
                        begin = time.perf_counter()
                        call()
                        assert time.perf_counter() - begin < 1.0, call
            finally:
                gate.set()
                feeding.join(30)
        assert not feeding.is_alive()
        assert not errors, errors


class TestConcurrentClients:
    def test_parallel_streams_are_isolated_and_correct(self, harness, offline):
        errors = []

        def worker(index: int):
            try:
                with harness.client() as client:
                    handle = client.register(RULES)
                    session = client.open_session(handle, f"w{index}")
                    reports = []
                    step = 11 + index
                    for start in range(0, len(STREAM), step):
                        reports.extend(
                            session.feed(STREAM[start : start + step])
                        )
                    session.close()
                    assert full_keys(reports) == full_keys(offline.reports)
            except Exception as exc:  # noqa: BLE001 — collected for the main thread
                errors.append((index, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors
