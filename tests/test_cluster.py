"""Cluster mode: placement, quotas, router, retries, and failover.

The differential backbone: everything a client receives through the
:class:`~repro.cluster.router.ClusterRouter` must be byte-identical to
what a single offline ``MatchingService.scan`` produces on the same
ruleset and input — including mid-stream failover, where a node is
SIGKILLed under live sessions and the router replays checkpointed
engine state onto a replica.

Three harness tiers, cheapest first:

- pure units (hash ring, token buckets, configs) — no I/O;
- in-process fleets (two :class:`BackgroundServer` nodes + a
  :class:`BackgroundRouter` on threads) — real TCP, one process;
- subprocess fleets (:class:`LocalFleet` spawning ``repro serve``
  children) — the only tier where SIGKILL and cross-process artifact
  sharing are physically real.
"""

import asyncio
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.api import ClusterConfig, ScanConfig
from repro.automata import compile_regex_set
from repro.cluster import (
    BackgroundRouter,
    ClusterRouter,
    HashRing,
    LocalFleet,
    NodeChannel,
    NodeError,
    QuotaExceededError,
    QuotaManager,
    TenantQuota,
)
from repro.compile import ArtifactStore, CompiledArtifact, compile_ruleset
from repro.errors import ConfigError, ReproError
from repro.service import (
    BackgroundServer,
    MatchingClient,
    MatchingService,
    RemoteError,
    RetryPolicy,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_reports,
    encode_data,
)
from wire import RawConn, read_raw_frame

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 40


def keys_of(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


@pytest.fixture(scope="module")
def ruleset():
    return compile_regex_set(RULES, name="cluster-tests")


@pytest.fixture(scope="module")
def offline(ruleset):
    service = MatchingService(ScanConfig(num_shards=1))
    result = service.scan(ruleset, STREAM)
    yield result
    service.close()


# ---------------------------------------------------------------------------
# consistent-hash placement
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_place_returns_distinct_replicas(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in ("k1", "k2", "deadbeef", "x" * 40):
            placed = ring.place(key, 3)
            assert len(placed) == 3
            assert len(set(placed)) == 3
            assert set(placed) <= {"a", "b", "c", "d"}

    def test_placement_is_deterministic(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["c", "a", "b"])  # insertion order must not matter
        for key in ("alpha", "beta", "gamma"):
            assert one.place(key, 2) == two.place(key, 2)

    def test_membership_change_moves_few_keys(self):
        nodes = [f"n{i}" for i in range(5)]
        ring = HashRing(nodes)
        keys = [f"ruleset-{i:04d}" for i in range(400)]
        before = {k: ring.place(k, 1)[0] for k in keys}
        ring.remove("n3")
        after = {k: ring.place(k, 1)[0] for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        # only keys whose primary was the removed node may move
        assert all(before[k] == "n3" for k in moved)
        # and consistent hashing keeps that fraction near 1/5, not 1
        assert len(moved) < len(keys) // 2

    def test_degrades_when_fewer_nodes_than_replicas(self):
        ring = HashRing(["only", "pair"])
        assert set(ring.place("k", 5)) == {"only", "pair"}

    def test_add_is_idempotent(self):
        ring = HashRing()
        ring.add("n1")
        ring.add("n1")
        assert len(ring) == 1
        assert "n1" in ring
        assert ring.place("anything", 2) == ["n1"]


# ---------------------------------------------------------------------------
# tenant quotas (driven by a fake clock)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestQuotas:
    def test_request_rate_rejects_then_refills(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(requests_per_s=2, window_s=1.0), clock=clock
        )
        quotas.admit_request("t")  # burst = rate * window = 2
        quotas.admit_request("t")
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit_request("t")
        assert err.value.code == "over-quota"
        assert err.value.resource == "requests"
        assert err.value.retry_after_s > 0
        clock.now += err.value.retry_after_s + 0.01
        quotas.admit_request("t")  # refilled

    def test_byte_rate_is_per_tenant(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(bytes_per_s=100, window_s=1.0), clock=clock
        )
        quotas.admit_bytes("noisy", 100)
        with pytest.raises(QuotaExceededError):
            quotas.admit_bytes("noisy", 1)
        quotas.admit_bytes("quiet", 100)  # unaffected neighbour

    def test_oversized_request_drains_one_window_not_forever(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(bytes_per_s=100, window_s=1.0), clock=clock
        )
        quotas.admit_bytes("t", 10_000)  # clamped to the burst (100)
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit_bytes("t", 1)
        # a full window refills the whole burst; the hint cannot exceed it
        assert err.value.retry_after_s <= 1.0
        clock.now += 1.0
        quotas.admit_bytes("t", 100)

    def test_session_cap_releases(self):
        quotas = QuotaManager(TenantQuota(max_open_sessions=2))
        quotas.admit_session("t")
        quotas.admit_session("t")
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit_session("t")
        assert err.value.resource == "sessions"
        quotas.release_session("t")
        quotas.admit_session("t")

    def test_compile_budget(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(compile_cost_per_window=3, window_s=10.0),
            clock=clock,
        )
        quotas.admit_compile("t", 3)
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit_compile("t", 1)
        assert err.value.resource == "compile"
        clock.now += 10.0
        quotas.admit_compile("t", 3)

    def test_unlimited_tenant_never_rejects(self):
        quotas = QuotaManager(None)
        for _ in range(1000):
            quotas.admit_request("t")
            quotas.admit_bytes("t", 1 << 30)

    def test_per_tenant_override_beats_default(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(requests_per_s=1, window_s=1.0),
            per_tenant={"vip": TenantQuota()},  # unlimited
            clock=clock,
        )
        for _ in range(50):
            quotas.admit_request("vip")
        quotas.admit_request("pleb")
        with pytest.raises(QuotaExceededError):
            quotas.admit_request("pleb")
        assert quotas.rejections[("pleb", "requests")] == 1

    def test_quota_validation(self):
        with pytest.raises(ConfigError):
            TenantQuota(bytes_per_s=0)
        with pytest.raises(ConfigError):
            TenantQuota(max_open_sessions=0)
        with pytest.raises(ConfigError):
            TenantQuota(window_s=0)
        with pytest.raises(ConfigError):
            QuotaManager(TenantQuota(), max_accounts=0)
        assert TenantQuota().unlimited
        assert not TenantQuota(requests_per_s=1).unlimited

    def test_byte_reject_does_not_burn_a_request_token(self):
        # admission is atomic per request: checks run on every bucket
        # before anything is debited
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(requests_per_s=10, bytes_per_s=100, window_s=1.0),
            clock=clock,
        )
        quotas.admit_request_bytes("t", 100)  # 1 request + full byte burst
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit_request_bytes("t", 50)
        assert err.value.resource == "bytes"
        # the byte-rejected attempt consumed no request token: exactly
        # 9 of the 10-token burst remain
        for _ in range(9):
            quotas.admit_request_bytes("t", 0)
        with pytest.raises(QuotaExceededError) as err:
            quotas.admit_request_bytes("t", 0)
        assert err.value.resource == "requests"

    def test_tenant_accounts_are_bounded(self):
        # the tenant string is client-controlled: tracked accounts must
        # not grow without bound under a churn of fresh ids
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(requests_per_s=100, max_open_sessions=4),
            max_accounts=8,
            clock=clock,
        )
        quotas.admit_session("keeper")  # holds a session: never evicted
        for i in range(100):
            quotas.admit_request(f"drive-by-{i}")
        tenants = quotas.snapshot()["tenants"]
        assert len(tenants) <= 8
        assert "keeper" in tenants
        quotas.release_session("keeper")

    def test_evicted_tenant_rejections_fold_into_aggregate(self):
        clock = FakeClock()
        quotas = QuotaManager(
            TenantQuota(requests_per_s=1, window_s=1.0),
            max_accounts=2,
            clock=clock,
        )
        quotas.admit_request("noisy")
        with pytest.raises(QuotaExceededError):
            quotas.admit_request("noisy")
        for i in range(5):
            quotas.admit_request(f"flood-{i}")
        snapshot = quotas.snapshot()
        assert "noisy" not in snapshot["tenants"]
        assert snapshot["rejections"]["(evicted)/requests"] == 1


class TestClusterConfig:
    def test_roundtrip(self):
        config = ClusterConfig(
            num_nodes=3,
            replication=2,
            tenant_bytes_per_s=1e6,
            tenant_max_sessions=8,
        )
        assert ClusterConfig.from_dict(config.to_dict()) == config
        assert config.digest() == ClusterConfig.from_dict(config.to_dict()).digest()
        assert config.digest() != ClusterConfig().digest()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=2, replication=3)
        with pytest.raises(ConfigError):
            ClusterConfig(health_interval_s=0)

    def test_quotas_factory(self):
        assert ClusterConfig().quotas() is None
        manager = ClusterConfig(tenant_requests_per_s=5).quotas()
        assert isinstance(manager, QuotaManager)


# ---------------------------------------------------------------------------
# in-process fleet: 2 BackgroundServers behind a BackgroundRouter
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    return tmp_path_factory.mktemp("fleet-artifacts")


@pytest.fixture(scope="module")
def servers(fleet_store):
    started = []
    try:
        for _ in range(2):
            server = BackgroundServer(
                config=ScanConfig(num_shards=1, artifact_store=str(fleet_store))
            )
            server.start()
            started.append(server)
        yield started
    finally:
        for server in started:
            server.stop()


@pytest.fixture(scope="module")
def router(servers):
    with BackgroundRouter(
        ClusterRouter(
            [("127.0.0.1", s.port) for s in servers],
            replication=2,
            health_interval_s=0.5,
        )
    ) as bg:
        yield bg


class TestRouterProxy:
    def test_ping_marks_router(self, router):
        with MatchingClient(port=router.port) as client:
            payload = client.ping()
        assert payload["router"] is True

    def test_scan_byte_identical_to_offline(self, router, offline):
        with MatchingClient(port=router.port) as client:
            handle = client.register(RULES)
            result = client.scan(handle, STREAM)
        assert keys_of(result.reports) == keys_of(offline.reports)
        assert result.num_reports == offline.num_reports
        assert not result.truncated

    def test_register_places_on_both_replicas(self, router, servers, offline):
        with MatchingClient(port=router.port) as client:
            handle = client.register(RULES)
            stats = client.stats()
        placement = stats["rulesets"][handle]
        assert len(placement) == 2
        # both replicas can serve the handle directly, identically
        for server in servers:
            with MatchingClient(port=server.port) as direct:
                result = direct.scan(handle, STREAM)
            assert keys_of(result.reports) == keys_of(offline.reports)

    def test_scan_many_matches_solo(self, router, ruleset):
        streams = {"a": STREAM[:300], "b": STREAM[300:], "c": b"abcxxy" * 50}
        with MatchingService(ScanConfig(num_shards=1)) as solo:
            expected = {
                name: solo.scan(ruleset, data) for name, data in streams.items()
            }
        with MatchingClient(port=router.port) as client:
            handle = client.register(RULES)
            results = client.scan_many(handle, streams)
        for name in streams:
            assert keys_of(results[name].reports) == keys_of(
                expected[name].reports
            )

    def test_session_stream_matches_offline(self, router, offline):
        with MatchingClient(port=router.port) as client:
            handle = client.register(RULES)
            session = client.open_session(handle, "s-inproc")
            reports = []
            for start in range(0, len(STREAM), 171):
                reports.extend(session.feed(STREAM[start : start + 171]))
            summary = session.close()
        assert keys_of(reports) == keys_of(offline.reports)
        assert summary["num_reports"] == offline.num_reports
        assert summary["cycles"] == len(STREAM)

    def test_update_propagates_to_all_replicas(self, router, servers):
        with MatchingClient(port=router.port) as client:
            handle = client.register(RULES)
            client.update(handle, add={"r9": "zz+q"})
            result = client.scan(handle, b"azzzqa")
        assert result.num_reports > 0
        for server in servers:
            with MatchingClient(port=server.port) as direct:
                assert keys_of(direct.scan(handle, b"azzzqa").reports) == keys_of(
                    result.reports
                )
        # put the shared ruleset back for the other module-scoped tests
        with MatchingClient(port=router.port) as client:
            client.update(handle, remove=["r9"])

    def test_health_aggregates_nodes(self, router, servers):
        deadline = time.monotonic() + 5.0
        while True:
            with MatchingClient(port=router.port) as client:
                payload = client.health()
            nodes = payload["nodes"]
            # the health loop fills last_health on its first probe
            if all(n["health"] for n in nodes.values()):
                break
            assert time.monotonic() < deadline, nodes
            time.sleep(0.1)
        assert payload["router"] is True
        assert payload["replication"] == 2
        assert len(nodes) == 2
        for server in servers:
            entry = nodes[f"127.0.0.1:{server.port}"]
            assert entry["alive"] is True
            assert entry["health"]["status"] == "ok"

    def test_unknown_handle_is_typed_error(self, router):
        with MatchingClient(port=router.port) as client:
            with pytest.raises(RemoteError) as err:
                client.scan("0" * 16, b"xyz")
        assert err.value.code == "unknown-handle"

    def test_hello_accepts_compact_node_form(self, router, servers):
        # the protocol doc's {"node": "host:port"} shape and the
        # host/port field pair must both be admitted
        name = f"127.0.0.1:{servers[0].port}"
        with RawConn(router.port) as raw:
            reply = raw.request({"op": "hello", "node": name})
            assert reply["ok"] is True, reply
            assert reply["node"] == name
            bad = raw.request({"op": "hello", "node": "not-an-address"})
            assert bad["ok"] is False
            assert bad["code"] == "bad-request"

    def test_metrics_exposition(self, router):
        with MatchingClient(port=router.port) as client:
            client.ping()
            text = client.metrics()
        assert "repro_router_requests_total" in text


class TestOverlongNodeResponse:
    def test_it_is_an_answer_not_a_dead_node(self, servers):
        # the node (default limit) legitimately answers a 1000-report
        # scan in ~12 KB; a router limited to 2 KB cannot relay that,
        # which is the *client's* problem (lower max_reports) — the
        # healthy node must not be marked dead for it
        node = servers[0]
        with BackgroundRouter(
            ClusterRouter(
                [("127.0.0.1", node.port)],
                replication=1,
                max_frame_bytes=2048,
                health_interval_s=5.0,
            )
        ) as bg:
            with MatchingClient(port=bg.port) as client:
                handle = client.register({"r": "a"})
                with pytest.raises(RemoteError) as err:
                    client.scan(handle, b"a" * 1000)
                assert err.value.code == "frame-too-large"
                # same router connection, next request: served
                assert client.scan(handle, b"a" * 10).num_reports == 10
                stats = client.stats()
        entry = stats["nodes"][f"127.0.0.1:{node.port}"]
        assert entry["alive"] is True
        assert entry["failures"] == 0
        assert stats["failovers"] == 0


class _V3Node:
    """A stub of a protocol-version-3 node: newline-delimited JSON in
    and out, ``health`` advertises version 3, and a line that is not
    JSON (the first line of a version-4 frame) gets the error line a
    version-3 server writes."""

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._answer, args=(conn,), daemon=True
            ).start()

    @staticmethod
    def _answer(conn):
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                try:
                    frame = json.loads(line)
                except ValueError:
                    reply = {
                        "id": None, "ok": False, "code": "bad-frame",
                        "error": "frame is not valid JSON",
                    }  # fmt: skip
                else:
                    reply = {"id": frame["id"], "ok": True}
                    if frame["op"] == "health":
                        reply.update(status="ok", version=3)
                conn.sendall((json.dumps(reply) + "\n").encode())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()


class TestProtocolVersionMismatch:
    def test_router_refuses_a_v3_node_on_hello(self, servers):
        node = servers[0]
        with _V3Node() as old, BackgroundRouter(
            ClusterRouter(
                [("127.0.0.1", node.port)],
                replication=1,
                health_interval_s=5.0,
            )
        ) as bg:
            with RawConn(bg.port) as raw:
                reply = raw.request(
                    {"op": "hello", "host": "127.0.0.1", "port": old.port}
                )
            with MatchingClient(port=bg.port) as client:
                stats = client.stats()
        assert reply["ok"] is False
        assert reply["code"] == "unavailable"
        assert "version 3" in reply["error"]
        assert "version 4" in reply["error"]
        assert stats["nodes"][f"127.0.0.1:{old.port}"]["alive"] is False
        assert stats["nodes"][f"127.0.0.1:{node.port}"]["alive"] is True

    def test_client_refuses_a_v3_server(self):
        with _V3Node() as old, MatchingClient(port=old.port) as client:
            with pytest.raises(ProtocolError) as err:
                client.scan("0" * 16, b"abcd")
            assert client._sock is None  # the stream is dropped
        assert err.value.code == "bad-frame"
        assert "version 3" in str(err.value)
        assert "version 4" in str(err.value)


class TestServerHealthOp:
    def test_health_fields(self, servers):
        server = servers[0]
        with MatchingClient(port=server.port) as client:
            client.register(RULES)
            payload = client.health()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0
        assert payload["rulesets"] >= 1
        assert isinstance(payload["ruleset_versions"], dict)
        assert payload["open_sessions"] == 0
        assert payload["version"] == PROTOCOL_VERSION


class TestRouterQuotas:
    @pytest.fixture()
    def quota_router(self, servers):
        quotas = QuotaManager(
            None,
            per_tenant={
                "noisy": TenantQuota(
                    requests_per_s=0.5, max_open_sessions=1, window_s=2.0
                )
            },
        )
        with BackgroundRouter(
            ClusterRouter(
                [("127.0.0.1", s.port) for s in servers],
                replication=2,
                quotas=quotas,
                health_interval_s=5.0,
            )
        ) as bg:
            yield bg

    def test_over_quota_tenant_gets_typed_error(self, quota_router):
        with MatchingClient(port=quota_router.port, tenant="noisy") as client:
            handle = client.register(RULES)
            client.scan(handle, STREAM[:100])  # burst = 1 request
            with pytest.raises(RemoteError) as err:
                client.scan(handle, STREAM[:100])
        assert err.value.code == "over-quota"
        assert "retry in" in str(err.value)

    def test_feed_bytes_are_billed_exactly(self, servers):
        # a burst of N admits N bytes of feeds and not one byte more
        # (the clock stands still, so nothing refills in between); a
        # 1-byte chunk is billed 1 byte, not its encoded size
        n = 64
        quotas = QuotaManager(
            None,
            per_tenant={"metered": TenantQuota(bytes_per_s=n, window_s=1.0)},
            clock=FakeClock(),
        )
        router = ClusterRouter(
            [("127.0.0.1", servers[0].port)],
            replication=1,
            quotas=quotas,
            health_interval_s=5.0,
        )
        with BackgroundRouter(router) as bg:
            with MatchingClient(port=bg.port, tenant="metered") as client:
                handle = client.register(RULES)
                session = client.open_session(handle, "s")
                session.feed(STREAM[: n - 1])
                session.feed(b"a")
                with pytest.raises(RemoteError) as err:
                    session.feed(b"a")
                assert err.value.code == "over-quota"
            with RawConn(bg.port) as raw:
                # data that is not bytes is refused before admission
                bad = raw.request(
                    {"op": "scan", "handle": handle, "data": "YQ==",
                     "tenant": "metered"}
                )  # fmt: skip
        assert bad["code"] == "bad-request"

    def test_error_frame_carries_retry_hint(self, quota_router):
        with MatchingClient(port=quota_router.port, tenant="noisy") as client:
            handle = client.register(RULES)
            client.scan(handle, b"a")
        with RawConn(quota_router.port) as raw:
            frame = raw.request(
                {"op": "scan", "handle": handle, "data": b"", "tenant": "noisy"}
            )
        assert frame["ok"] is False
        assert frame["code"] == "over-quota"
        assert frame["resource"] == "requests"
        assert frame["retry_after_s"] > 0

    def test_session_cap_enforced_and_released(self, quota_router):
        with MatchingClient(port=quota_router.port, tenant="noisy") as client:
            handle = client.register(RULES)
            session = client.open_session(handle, "cap-1")
            with pytest.raises(RemoteError) as err:
                client.open_session(handle, "cap-2")
            assert err.value.code == "over-quota"
            session.close()
            client.open_session(handle, "cap-3").close()

    def test_dropped_connection_releases_its_session_slot(self, quota_router):
        with MatchingClient(port=quota_router.port, tenant="noisy") as client:
            handle = client.register(RULES)
            client.open_session(handle, "held")  # the tenant's one slot
        # the socket closed with the session open: the slot must return
        with MatchingClient(port=quota_router.port, tenant="noisy") as client:
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    client.open_session(handle, "next").close()
                    break
                except RemoteError as err:
                    assert err.code == "over-quota"
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

    def test_in_quota_tenant_unaffected_by_noisy_neighbour(self, quota_router):
        with MatchingClient(port=quota_router.port, tenant="noisy") as noisy:
            handle = noisy.register(RULES)
            noisy.scan(handle, b"a")
            with pytest.raises(RemoteError):
                noisy.scan(handle, b"a")
        with MatchingClient(port=quota_router.port, tenant="polite") as polite:
            for _ in range(10):
                polite.scan(handle, STREAM[:200])
        with MatchingClient(port=quota_router.port) as client:
            snapshot = client.stats()["quotas"]
        assert snapshot["rejections"].get("noisy/requests", 0) >= 1
        assert "polite" not in str(snapshot["rejections"])


# ---------------------------------------------------------------------------
# checkpointed open/state: a stream moved across servers by hand
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    def test_open_with_state_resumes_byte_identically(self, servers, offline):
        split = 313
        with MatchingClient(port=servers[0].port) as client:
            handle = client.register(RULES)
        with MatchingClient(port=servers[1].port) as client:
            client.register(RULES)
        with RawConn(servers[0].port) as a:
            opened = a.request(
                {
                    "op": "open",
                    "handle": handle,
                    "session": "mv",
                    "checkpoint": True,
                }
            )
            assert opened["ok"] and opened["position"] == 0
            first = a.request(
                {
                    "op": "feed",
                    "session": "mv",
                    "data": encode_data(STREAM[:split]),
                }
            )
            assert first["ok"]
            state = first["state"]
            assert isinstance(state, list) and state
            reports = list(decode_reports(first["reports"]))
            a.request({"op": "close", "session": "mv"})
        with RawConn(servers[1].port) as b:
            resumed = b.request(
                {
                    "op": "open",
                    "handle": handle,
                    "session": "mv2",
                    "state": state,
                }
            )
            assert resumed["ok"]
            assert resumed["position"] == split
            rest = b.request(
                {
                    "op": "feed",
                    "session": "mv2",
                    "data": encode_data(STREAM[split:]),
                }
            )
            assert rest["ok"]
            reports.extend(decode_reports(rest["reports"]))
            closed = b.request({"op": "close", "session": "mv2"})
        # feed positions are absolute stream offsets, but close counts
        # only the work done on *this* node — the router patches fleet
        # totals from its own bookkeeping after a failover
        assert closed["num_reports"] == rest["reports"]["n"]
        assert closed["cycles"] == len(STREAM) - split
        assert keys_of(reports) == keys_of(offline.reports)

    def test_feed_without_checkpoint_carries_no_state(self, servers):
        with MatchingClient(port=servers[0].port) as client:
            handle = client.register(RULES)
        with RawConn(servers[0].port) as raw:
            raw.request({"op": "open", "handle": handle, "session": "plain"})
            fed = raw.request(
                {
                    "op": "feed",
                    "session": "plain",
                    "data": encode_data(b"abc"),
                }
            )
            assert fed["ok"]
            assert "state" not in fed  # checkpointing is strictly opt-in
            raw.request({"op": "close", "session": "plain"})

    def test_malformed_state_is_a_typed_error(self, servers):
        with MatchingClient(port=servers[0].port) as client:
            handle = client.register(RULES)
        with RawConn(servers[0].port) as raw:
            bad = raw.request(
                {
                    "op": "open",
                    "handle": handle,
                    "session": "bad-state",
                    "state": {"not": "a list"},
                }
            )
            assert bad["ok"] is False
            assert bad["code"] == "bad-request"


# ---------------------------------------------------------------------------
# hung nodes: per-request timeout feeds the failover path
# ---------------------------------------------------------------------------


class TestNodeChannelTimeout:
    def test_hung_node_surfaces_as_node_error(self):
        # a listener that accepts the TCP handshake (via its backlog)
        # but never answers a frame: without a timeout this round-trip
        # blocks forever and no failover can engage
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        async def main():
            channel = NodeChannel("127.0.0.1", port, timeout_s=0.2)
            start = time.monotonic()
            with pytest.raises(NodeError, match="did not answer"):
                await channel.request({"op": "ping"})
            assert time.monotonic() - start < 5.0
            assert not channel.connected  # closed, ready to reconnect

        try:
            asyncio.run(main())
        finally:
            listener.close()

    def test_per_request_override_beats_channel_default(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        async def main():
            channel = NodeChannel("127.0.0.1", port, timeout_s=60.0)
            with pytest.raises(NodeError, match="did not answer"):
                await channel.request({"op": "health"}, timeout_s=0.2)

        try:
            asyncio.run(main())
        finally:
            listener.close()


# ---------------------------------------------------------------------------
# replica consistency: updates survive a replica's death and rejoin
# ---------------------------------------------------------------------------


class TestUpdateReplayOnRecovery:
    def test_recovered_replica_converges_to_updated_ruleset(self, tmp_path):
        # a replica that is dead during an update must NOT rejoin with
        # the pre-update rules — the router replays the full register +
        # update sequence when the node returns
        config = ScanConfig(num_shards=1, artifact_store=str(tmp_path))
        survivor = BackgroundServer(config=config).start()
        victim = BackgroundServer(config=config).start()
        victim_port = victim.port
        revived = None
        with BackgroundRouter(
            ClusterRouter(
                [("127.0.0.1", survivor.port), ("127.0.0.1", victim_port)],
                replication=2,
                health_interval_s=0.2,
            )
        ) as bg:
            try:
                with MatchingClient(port=bg.port) as client:
                    handle = client.register(RULES)
                    victim.stop()
                    # wait for the health loop to mark the victim dead,
                    # so the update's fan-out deterministically misses it
                    deadline = time.monotonic() + 10.0
                    victim_name = f"127.0.0.1:{victim_port}"
                    while True:
                        nodes = client.health()["nodes"]
                        if not nodes[victim_name]["alive"]:
                            break
                        assert time.monotonic() < deadline, nodes
                        time.sleep(0.05)
                    client.update(handle, add={"rz": "zz+q"})
                    expected = keys_of(client.scan(handle, b"azzzqa").reports)
                    assert expected  # the update took on the survivor
                    # the node returns on the same address (fresh
                    # process: it lost everything it ever registered)
                    revived = BackgroundServer(
                        config=config, port=victim_port
                    ).start()
                    # the router re-registers AND replays the update;
                    # poll until the revived node answers from the
                    # updated rules, byte-identical to the survivor
                    deadline = time.monotonic() + 15.0
                    while True:
                        try:
                            with MatchingClient(port=victim_port) as direct:
                                got = keys_of(
                                    direct.scan(handle, b"azzzqa").reports
                                )
                        except RemoteError:
                            got = None  # not re-registered yet
                        if got == expected:
                            break
                        assert time.monotonic() < deadline, got
                        time.sleep(0.1)
            finally:
                survivor.stop()
                if revived is not None:
                    revived.stop()


class FlakyProxy:
    """TCP proxy that refuses the first N connections and/or forwards a
    request upstream but drops the response for selected ops (so the
    server *did* the work while the client saw a dead connection)."""

    def __init__(
        self,
        upstream_port,
        *,
        refuse_first=0,
        drop_response_ops=(),
        drop_once=False,
    ):
        self.upstream_port = upstream_port
        self.refuse_first = refuse_first
        self.drop_response_ops = set(drop_response_ops)
        self.drop_once = drop_once
        self.accepted = 0
        self.forwarded_ops = []
        self._lock = threading.Lock()
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._serve, daemon=True)
        self._accept_thread.start()

    def _serve(self):
        while True:
            try:
                client, _ = self._sock.accept()
            except OSError:
                return
            with self._lock:
                self.accepted += 1
                refuse = self.accepted <= self.refuse_first
            if refuse:
                client.close()
                continue
            threading.Thread(
                target=self._relay, args=(client,), daemon=True
            ).start()

    def _relay(self, client):
        try:
            upstream = socket.create_connection(
                ("127.0.0.1", self.upstream_port)
            )
        except OSError:
            client.close()
            return
        try:
            cfile = client.makefile("rb")
            ufile = upstream.makefile("rb")
            while True:
                request = read_raw_frame(cfile)
                if not request:
                    return
                op = decode_frame(request).get("op")
                with self._lock:
                    self.forwarded_ops.append(op)
                    drop = op in self.drop_response_ops
                    if drop and self.drop_once:
                        self.drop_response_ops.discard(op)
                upstream.sendall(request)
                response = read_raw_frame(ufile)
                if not response:
                    return
                if drop:
                    return  # server answered; the client never hears it
                client.sendall(response)
        finally:
            upstream.close()
            client.close()

    def count(self, op):
        with self._lock:
            return self.forwarded_ops.count(op)

    def close(self):
        self._sock.close()


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=5, backoff_s=0.1, max_backoff_s=0.3, jitter=0.0
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)

    def test_retries_refused_connections(self, servers):
        proxy = FlakyProxy(servers[0].port, refuse_first=2)
        try:
            with MatchingClient(
                port=proxy.port,
                retry=RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0),
            ) as client:
                assert client.ping()["ok"] is True
            assert proxy.accepted == 3
        finally:
            proxy.close()

    def test_no_retry_without_policy(self, servers):
        # retry is opt-in: transient I/O surfaces raw (or as the typed
        # "closed" RemoteError when the server hangs up cleanly)
        proxy = FlakyProxy(servers[0].port, refuse_first=1)
        try:
            with pytest.raises((RemoteError, ConnectionError, OSError)):
                with MatchingClient(port=proxy.port) as client:
                    client.ping()
            assert proxy.accepted == 1  # exactly one attempt, no retry
        finally:
            proxy.close()

    def test_idempotent_op_retried_after_midstream_cut(self, servers):
        # the first stats frame reaches the server but its response is
        # dropped; stats is idempotent, so the client reconnects and
        # retries — the server sees the frame exactly twice
        proxy = FlakyProxy(
            servers[0].port, drop_response_ops={"stats"}, drop_once=True
        )
        try:
            with MatchingClient(
                port=proxy.port,
                retry=RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0),
            ) as client:
                payload = client.stats()
            assert payload["ok"] is True
            assert proxy.count("stats") == 2
        finally:
            proxy.close()

    def test_non_idempotent_update_is_never_retried(self):
        # isolated server: this test mutates the registered ruleset
        with BackgroundServer(config=ScanConfig(num_shards=1)) as server:
            proxy = FlakyProxy(server.port, drop_response_ops={"update"})
            try:
                with MatchingClient(
                    port=proxy.port,
                    retry=RetryPolicy(attempts=5, backoff_s=0.01, jitter=0.0),
                ) as client:
                    handle = client.register(RULES)
                    with pytest.raises(RemoteError) as err:
                        client.update(handle, add={"rX": "qq+z"})
                assert err.value.code == "closed"
                # the frame reached the server exactly once — retrying it
                # would have double-applied the delta
                assert proxy.count("update") == 1
                with MatchingClient(port=server.port) as direct:
                    assert direct.scan(handle, b"aqqqza").num_reports > 0
            finally:
                proxy.close()


# ---------------------------------------------------------------------------
# artifact store: remote fetch seam + cross-process pins and publishes
# ---------------------------------------------------------------------------


def _artifact_for(rules, name):
    automaton = compile_regex_set(rules, name=name)
    return CompiledArtifact.from_compiled(
        compile_ruleset(automaton, backend="auto")
    )


def _child_pressure(root, max_bytes, n, queue):
    """Flood a shared store from another process to force LRU eviction."""
    try:
        store = ArtifactStore(root, max_bytes=max_bytes)
        for i in range(n):
            store.put(_artifact_for({"p": f"flood{i}a+b"}, f"flood-{i}"))
        queue.put(("ok", store.pinned_keys()))
    except BaseException as exc:  # noqa: BLE001 — report, don't hang join
        queue.put(("error", repr(exc)))


def _child_pin(root, keys, queue, release):
    """Hold pins on a shared store from another process until released."""
    try:
        store = ArtifactStore(root)
        store.pin(keys)
        queue.put(("ok", "pinned"))
        release.wait(timeout=60)
        store.unpin(keys)
        queue.put(("ok", "unpinned"))
    except BaseException as exc:  # noqa: BLE001 — report, don't hang join
        queue.put(("error", repr(exc)))


def _child_hammer(root, key, blob, rounds, queue):
    """Concurrent put/get of one key: every get must be valid or a miss."""
    try:
        store = ArtifactStore(root)
        artifact = CompiledArtifact.from_bytes(blob)
        bad = 0
        for _ in range(rounds):
            store.put(artifact)
            loaded = store.get(key)
            if loaded is None or loaded.key != key:
                bad += 1
        queue.put(("ok", bad))
    except BaseException as exc:  # noqa: BLE001
        queue.put(("error", repr(exc)))


class TestStoreCrossProcess:
    def test_pin_survives_eviction_pressure_from_another_process(
        self, tmp_path
    ):
        artifact = _artifact_for(RULES, "precious")
        size = len(artifact.to_bytes())
        store = ArtifactStore(tmp_path, max_bytes=size * 3)
        store.put(artifact)
        store.pin([artifact.key])
        try:
            ctx = multiprocessing.get_context("spawn")
            queue = ctx.Queue()
            child = ctx.Process(
                target=_child_pressure,
                args=(str(tmp_path), size * 3, 6, queue),
            )
            child.start()
            status, payload = queue.get(timeout=120)
            child.join(timeout=30)
            assert status == "ok", payload
            # the child honoured our pid-token pin while evicting
            assert artifact.key in payload
            assert store.contains(artifact.key)
            assert store.get(artifact.key).key == artifact.key
        finally:
            store.unpin([artifact.key])

    def test_dead_pid_tokens_are_swept(self, tmp_path):
        artifact = _artifact_for(RULES, "stale-pin")
        store = ArtifactStore(tmp_path, max_bytes=1)
        store.put(artifact)
        bogus = 2**22 + os.getpid()  # beyond pid_max on default configs
        token = tmp_path / ".pins" / f"{bogus}-0.pin"
        token.parent.mkdir()
        token.write_text(artifact.key)
        # a dead process's pin no longer protects the key
        assert store.pinned_keys() == set()
        assert not token.exists()
        other = _artifact_for({"q": "qq+"}, "evictor")
        store.put(other)  # budget of 1 byte: everything unpinned goes
        assert not store.contains(artifact.key)

    def test_one_token_file_lists_a_stores_pins(self, tmp_path, monkeypatch):
        """Pinning 99 keys writes one token, rewritten only when the set
        of pinned keys changes; unpinning them all removes it."""
        store = ArtifactStore(tmp_path)
        keys = [f"{i:064x}" for i in range(99)]
        writes = []
        write = ArtifactStore._write_pin_token
        monkeypatch.setattr(
            ArtifactStore,
            "_write_pin_token",
            lambda self: writes.append(len(self._pins)) or write(self),
        )
        store.pin(keys)
        store.pin(keys[:3])  # refcounts only: the same set of keys
        assert writes == [99]
        assert len(list((tmp_path / ".pins").iterdir())) == 1
        store.unpin(keys)
        assert store.pinned_keys() == set(keys[:3])
        store.unpin(keys[:3])
        assert writes == [99, 3, 0]
        assert list((tmp_path / ".pins").iterdir()) == []
        assert store.pinned_keys() == set()

    def test_pinned_keys_sees_a_live_siblings_pins(self, tmp_path):
        keys = [f"{i:064x}" for i in range(5)]
        store = ArtifactStore(tmp_path)
        ctx = multiprocessing.get_context("spawn")
        queue, release = ctx.Queue(), ctx.Event()
        child = ctx.Process(
            target=_child_pin, args=(str(tmp_path), keys, queue, release)
        )
        child.start()
        try:
            assert queue.get(timeout=120) == ("ok", "pinned")
            assert store.pinned_keys() == set(keys)
        finally:
            release.set()
            status = queue.get(timeout=60)
            child.join(timeout=30)
        assert status == ("ok", "unpinned")
        assert store.pinned_keys() == set()

    def test_pins_dir_invisible_to_cache_accounting(self, tmp_path):
        artifact = _artifact_for(RULES, "hidden")
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        store.pin([artifact.key])
        try:
            assert store.keys() == [artifact.key]
            assert store.total_bytes() == len(artifact.to_bytes())
        finally:
            store.unpin([artifact.key])
        assert store.pinned_keys() == set()

    def test_concurrent_put_get_is_always_valid(self, tmp_path):
        artifact = _artifact_for(RULES, "hammered")
        blob = artifact.to_bytes()
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_child_hammer,
                args=(str(tmp_path), artifact.key, blob, 12, queue),
            )
            for _ in range(3)
        ]
        for w in workers:
            w.start()
        outcomes = [queue.get(timeout=180) for _ in workers]
        for w in workers:
            w.join(timeout=30)
        for status, payload in outcomes:
            assert status == "ok", payload
            assert payload == 0  # zero invalid/missing reads


# ---------------------------------------------------------------------------
# subprocess fleet: single-compile registration and SIGKILL failover
# ---------------------------------------------------------------------------


def _compiled_counts(node):
    """Parse repro_incremental_components_total{outcome=...} off a node."""
    import re

    with MatchingClient(host=node.host, port=node.port) as client:
        text = client.metrics()
    return {
        outcome: int(value)
        for outcome, value in re.findall(
            r'repro_incremental_components_total\{outcome="(\w+)"\} (\d+)',
            text,
        )
    }


class TestFleetProcesses:
    def test_fleet_registration_compiles_exactly_once(
        self, tmp_path, offline
    ):
        with LocalFleet(
            num_nodes=2, artifact_cache=tmp_path, health_interval_s=0.5
        ) as fleet:
            with MatchingClient(port=fleet.port) as client:
                handle = client.register(RULES)
                routed = client.scan(handle, STREAM)
            counts = {n.name: _compiled_counts(n) for n in fleet.nodes}
            compiled_on = [
                name
                for name, c in counts.items()
                if c.get("compiled", 0) > 0
            ]
            assert len(compiled_on) == 1, counts  # one compile fleet-wide
            (replica,) = [n for n in counts if n not in compiled_on]
            assert counts[replica].get("disk", 0) > 0  # artifact load
            # and the routed answer is the offline answer
            assert keys_of(routed.reports) == keys_of(offline.reports)
            with MatchingClient(
                host=fleet.nodes[0].host, port=fleet.nodes[0].port
            ) as direct:
                assert keys_of(direct.scan(handle, STREAM).reports) == keys_of(
                    routed.reports
                )

    def test_sigkill_failover_resumes_all_sessions_byte_identically(
        self, tmp_path, offline
    ):
        chunks = [STREAM[i : i + 157] for i in range(0, len(STREAM), 157)]
        assert len(chunks) >= 4
        with LocalFleet(
            num_nodes=2, artifact_cache=tmp_path, health_interval_s=0.5
        ) as fleet:
            with MatchingClient(port=fleet.port) as client:
                handle = client.register(RULES)
                names = [f"chaos-{i}" for i in range(8)]
                sessions = {
                    name: client.open_session(handle, name) for name in names
                }
                collected = {name: [] for name in names}
                # every session makes progress before the kill
                for name in names:
                    collected[name].extend(sessions[name].feed(chunks[0]))
                    collected[name].extend(sessions[name].feed(chunks[1]))
                fleet.nodes[0].kill()  # SIGKILL, mid-stream
                for chunk in chunks[2:]:
                    for name in names:
                        collected[name].extend(sessions[name].feed(chunk))
                summaries = {name: sessions[name].close() for name in names}
                stats = client.stats()
            expected = keys_of(offline.reports)
            for name in names:
                assert keys_of(collected[name]) == expected, name
                assert summaries[name]["num_reports"] == offline.num_reports
                assert summaries[name]["cycles"] == len(STREAM)
            # round-robin put half the sessions on the killed node
            assert stats["failovers"] >= 1
            assert any(
                not entry["alive"] for entry in stats["nodes"].values()
            )

    def test_serve_cluster_api_smoke(self, tmp_path):
        from repro.api import Ruleset

        handle = Ruleset.from_regexes(RULES).compile(
            scan=ScanConfig(num_shards=1)
        )
        fleet = handle.serve_cluster(
            ClusterConfig(num_nodes=2, health_interval_s=0.5),
            artifact_cache=tmp_path,
        )
        try:
            with MatchingClient(port=fleet.port) as client:
                remote = client.register(RULES)  # already placed: cache hit
                result = client.scan(remote, STREAM)
            local = handle.scan(STREAM)
            assert keys_of(result.reports) == keys_of(local.reports)
        finally:
            fleet.stop()
