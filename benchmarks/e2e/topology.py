"""Served topologies as subprocesses started through the public CLI.

Generator and servers never share an interpreter lock: nodes are
``python -m repro serve`` (via ``repro.cluster.fleet.NodeProcess``) and
the router is ``python -m repro route``, each with a fresh artifact
cache under the run's scratch directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster.fleet import NodeProcess, free_port
from repro.errors import ReproError
from repro.service import MatchingClient

from workloads import REPO_ROOT, Workload

STARTUP_TIMEOUT_S = 30.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class RouterProcess:
    """``python -m repro route`` in front of already-started nodes."""

    def __init__(self, nodes: list[NodeProcess], replication: int) -> None:
        self.host = "127.0.0.1"
        self.port = free_port()
        self._command = [
            sys.executable, "-m", "repro", "route",
            "--host", self.host, "--port", str(self.port),
            "--replication", str(replication), "--log-level", "warning",
        ]  # fmt: skip
        for node in nodes:
            self._command += ["--node", node.name]
        self.process: subprocess.Popen | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def start(self) -> None:
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        self.process = subprocess.Popen(
            self._command,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"router exited during startup "
                    f"(code {self.process.returncode})"
                )
            try:
                with MatchingClient(self.host, self.port, timeout=2.0) as c:
                    c.ping()
                return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("router did not come up in time")

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        try:
            with MatchingClient(self.host, self.port, timeout=2.0) as client:
                client.shutdown()
        except (OSError, ReproError):
            pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)


class Topology:
    """One workload's servers: a lone node, or a router over two nodes
    sharing one artifact cache."""

    def __init__(self, workload: Workload, scratch: Path, *, fleet=None) -> None:
        fleet = workload.fleet if fleet is None else fleet
        cache = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        self.nodes = [
            NodeProcess(
                artifact_cache=cache, backend=workload.backend, metrics=False
            )
            for _ in range(2 if fleet else 1)
        ]
        self.router = RouterProcess(self.nodes, 2) if fleet else None

    @property
    def port(self) -> int:
        """The client-facing port."""
        return self.router.port if self.router else self.nodes[0].port

    def start(self) -> "Topology":
        try:
            for node in self.nodes:
                node.start(STARTUP_TIMEOUT_S)
            if self.router is not None:
                self.router.start()
        except BaseException:
            self.stop()
            raise
        return self

    def client(self, port: int | None = None) -> MatchingClient:
        return MatchingClient(port=port or self.port, timeout=60.0).connect()

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over every server process."""
        pids = [node.pid for node in self.nodes]
        if self.router is not None:
            pids.append(self.router.pid)
        return sum(peak_rss_mb(pid) for pid in pids)

    def batching_counters(self) -> dict[str, int]:
        """Batch-scheduler counters summed over the nodes, read with the
        ``stats`` op: batches, rows, and flushes per reason."""
        from repro.service.batching import FLUSH_REASONS

        totals = dict.fromkeys(("batches", "rows", *FLUSH_REASONS), 0)
        for node in self.nodes:
            with self.client(node.port) as client:
                stats = client.stats()["batching"]
            totals["batches"] += stats["batches"]
            totals["rows"] += stats["rows"]
            for reason, count in stats["flush_reasons"].items():
                totals[reason] += count
        return totals

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
        for node in self.nodes:
            node.stop()
