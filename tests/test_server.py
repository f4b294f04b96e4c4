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
import threading
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
)
from repro.service.protocol import PROTOCOL_VERSION
from repro.sim.engine import Engine, ReportTruncationWarning

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
    def test_scan_is_byte_identical_to_offline(self, harness, offline):
        with harness.client() as client:
            handle = client.register(RULES)
            result = client.scan(handle, STREAM)
        assert full_keys(result.reports) == full_keys(offline.reports)
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
