"""repro.cluster — fleet-scale matching: router, placement, quotas.

CAMA splits one large automaton across many independent CAM clusters
and activates only the relevant ones per lookup; this package applies
the same decomposition one level up, splitting rulesets and tenants
across many :class:`~repro.service.server.MatchingServer` *processes*:

- :mod:`~repro.cluster.placement` — consistent-hash ring mapping
  ruleset fingerprints to replica sets of nodes;
- :mod:`~repro.cluster.quotas` — per-tenant admission control (byte /
  request token buckets, session caps, compile budgets) with typed
  ``over-quota`` rejections;
- :mod:`~repro.cluster.nodes` — raw frame channels and the fleet
  membership pool the router drives;
- :mod:`~repro.cluster.router` — the frame proxy clients talk to:
  single-compile fleet registration through the shared artifact store,
  round-robin scan spreading, and checkpoint-replay failover that
  resumes a mid-stream session byte-identically on a replica;
- :mod:`~repro.cluster.fleet` — process-level harness (spawn real
  nodes, front them with a router) used by tests, the cluster
  benchmark and ``Ruleset.serve_cluster``.

Clients need nothing new: the router speaks the exact protocol of a
single server, so ``MatchingClient(port=router_port)`` just works.
"""

from repro.cluster.fleet import LocalFleet, NodeProcess, free_port
from repro.cluster.nodes import NodeChannel, NodeError, NodeHandle, NodePool
from repro.cluster.placement import DEFAULT_VNODES, HashRing
from repro.cluster.quotas import (
    QuotaExceededError,
    QuotaManager,
    TenantQuota,
)
from repro.cluster.router import BackgroundRouter, ClusterRouter

__all__ = [
    "BackgroundRouter",
    "ClusterRouter",
    "DEFAULT_VNODES",
    "HashRing",
    "LocalFleet",
    "NodeChannel",
    "NodeError",
    "NodeHandle",
    "NodePool",
    "NodeProcess",
    "QuotaExceededError",
    "QuotaManager",
    "TenantQuota",
    "free_port",
]
