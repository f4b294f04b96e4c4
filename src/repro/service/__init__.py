"""repro.service — streaming, sharded, multi-tenant matching service.

The simulator and CAMA machine under :mod:`repro.sim` / :mod:`repro.core`
are one-shot: compile an automaton, run one complete byte string, throw
the compiled object away.  This package turns them into a *service* the
way hardware automata processors are deployed: compiled rulesets are
long-lived cached assets, inputs are unbounded resumable streams, and a
large ruleset is a set of independent shards that scale out.

Architecture (bottom-up)::

    repro.sim.engine.EngineState      resumable snapshot: active states +
      Engine.run_chunk                stream position; START_OF_DATA means
      CamaMachine.run_chunk           start of *stream*, never chunk 2+

    ruleset                           fingerprint (language content, not
                                      names), CacheStats, and the options
                                      artifacts are keyed under in the
                                      persistent ArtifactStore
                                      (repro.compile: warm restarts load
                                      instead of recompiling)

    sharding.Dispatcher               connected-component shards, balanced
                                      by state count, their engines read
                                      through the store; one step,
                                      run_chunk_batch (run_chunk is its
                                      one row), and one one-shot loop,
                                      scan_many (scan is its one stream:
                                      lock-step row batches, or one pool
                                      task per shard); shard ReportBatches
                                      merge by an id gather and one
                                      lexsort (one whole-ruleset shard
                                      passes through)

    session.Session                   one named stream's snapshot; feed()
                                      chunks as they arrive, each a one-
                                      row feed_session_batch

    batching.BatchScheduler           cross-stream coalescing, work-
                                      conserving: a feed runs at once when
                                      its dispatcher is idle; feeds that
                                      arrive behind a running batch flush
                                      as one vectorized step_batch over a
                                      struct-of-arrays state matrix when
                                      it completes (immediate / backlog /
                                      rows_full / drain; never a timer)

    service.MatchingService           the facade: the one LRU-bounded
                                      ruleset table (handle -> versions,
                                      each owning its Dispatcher; the only
                                      in-memory cache of compiled rulesets) +
                                      sessions + scan / scan_many (one
                                      body: resolve once, one
                                      Dispatcher.scan_many, one trace)

    protocol / server / client        the network face: length-prefixed
                                      frames over TCP (a JSON header,
                                      stream bytes and report arrays as
                                      raw attachments), reports as one
                                      columnar object per result
                                      (decoded to a ReportBatch); an asyncio
                                      MatchingServer with per-connection
                                      backpressure, graceful drain, and
                                      precompiled-artifact upload
                                      (register_artifact), plus sync +
                                      asyncio clients

Execution is backend-pluggable (:mod:`repro.sim.backends`): the service
defaults to the ``auto`` policy, which resolves each shard to the
compiled ``native`` loop when it loads and the shard fits its
successor matrix, and to the ``sparse`` reference kernel otherwise;
pass ``ScanConfig(backend="sparse")`` (or another name) to pin one.

Configuration is one typed object — :class:`repro.api.ScanConfig` —
consumed by the service, dispatcher, session, server protocol and CLI
alike.

Quick use::

    from repro.api import ScanConfig
    from repro.service import MatchingService

    service = MatchingService(ScanConfig(num_shards=4))
    handle = service.register_ruleset(automaton).lineage
    result = service.scan(handle, data)             # table lookup, no hash
    session = service.open_session(handle, "tenant-a")
    session.feed(chunk1); session.feed(chunk2)      # resumable stream
    results = service.scan_many(handle, {"a": data_a, "b": data_b})
    service.update_ruleset(handle, add={"r9": "xy+z"})  # handle -> v2
    service.scan(automaton, data)   # an Automaton: exactly those rules
                                    # (still v1), hashed once per object

A handle names a *lineage* (its latest version); the table holds
``ScanConfig.cache_capacity`` lineages, least recently used first out —
never one with an open session — and a handle it dropped raises
:class:`~repro.errors.UnknownRulesetError` (register it again).

(:class:`repro.api.Ruleset` wraps all of this behind one fluent
facade; prefer it in application code.)

Chunked, sharded, and cached execution all reproduce the one-shot
``Engine.run`` report stream byte-for-byte; the equivalence tests in
``tests/test_service.py`` assert this across every registry benchmark.
"""

from repro.service.batching import BatchScheduler
from repro.service.client import (
    AsyncMatchingClient,
    MatchingClient,
    RemoteError,
    RemoteScanResult,
    RetryPolicy,
)
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_MAX_INFLIGHT,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.ruleset import (
    DEFAULT_CACHE_CAPACITY,
    CacheStats,
    ruleset_fingerprint,
)
from repro.service.server import BackgroundServer, MatchingServer, run_server
from repro.service.service import MatchingService, ServiceResult
from repro.service.session import Session, feed_session_batch
from repro.service.sharding import (
    DEFAULT_CHUNK_SIZE,
    Dispatcher,
    Shard,
    iter_chunks,
    make_shards,
)

__all__ = [
    "AsyncMatchingClient",
    "BackgroundServer",
    "BatchScheduler",
    "CacheStats",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "Dispatcher",
    "MatchingClient",
    "MatchingServer",
    "MatchingService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RemoteScanResult",
    "RetryPolicy",
    "ServiceResult",
    "Session",
    "Shard",
    "feed_session_batch",
    "iter_chunks",
    "make_shards",
    "ruleset_fingerprint",
    "run_server",
]
