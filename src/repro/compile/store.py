"""On-disk artifact store: a content-addressed cache with a byte budget.

One :class:`ArtifactStore` manages a directory of ``<key>.npz``
artifacts (``key`` = ``ruleset_fingerprint(automaton, options)``).  It
is the disk level behind a :class:`~repro.service.service.
MatchingService`'s in-memory ruleset table: process restarts hit the
disk instead of recompiling, and several processes — the nodes of a
fleet — can share one store directory (writes are atomic
tmp-file-plus-rename, reads treat any unreadable file as a miss).

Eviction is LRU by *bytes*, not entries: when the directory exceeds
``max_bytes`` the least-recently-used artifacts (by file mtime, which
:meth:`get` refreshes on every hit) are deleted until the budget holds
again.  Eviction runs once per write batch: :meth:`put_many` writes all
of a batch (an incremental compile's new components) and then scans the
directory once, never evicting an artifact of the batch it just wrote;
:meth:`put` is its one-artifact call.  Corrupt or version-mismatched
files are deleted on sight and counted in :attr:`StoreStats.invalid`.

Pins are cross-process: :meth:`pin` also drops a per-process token
file under ``<root>/.pins/<key>/``, so byte-pressure eviction in *any*
process sharing the directory skips artifacts a sibling process still
references.  Tokens of dead processes are swept opportunistically.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.compile.artifact import CompiledArtifact
from repro.errors import ArtifactError, ReproError

#: default disk budget: plenty for a service's working set of rulesets
DEFAULT_STORE_BYTES = 512 * 1024 * 1024

_SUFFIX = ".npz"
_MANIFEST_SUFFIX = ".manifest.json"
#: cross-process pin tokens live here (invisible to keys()/total_bytes,
#: whose globs are non-recursive)
_PINS_DIR = ".pins"


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _rmdir_quiet(path: Path) -> None:
    """Remove a directory if (still) empty; races are fine."""
    try:
        path.rmdir()
    except OSError:
        pass


@dataclass
class StoreStats:
    """Hit/miss/eviction counters of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: corrupt / version-mismatched files discarded
    invalid: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ArtifactStore:
    """A directory of compiled artifacts with an LRU byte budget."""

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int = DEFAULT_STORE_BYTES,
    ) -> None:
        if max_bytes < 1:
            raise ReproError("artifact store byte budget must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._lock = threading.Lock()
        #: refcounted eviction pins (key -> count); pinned artifacts are
        #: referenced by a live ruleset version and must survive byte
        #: pressure — evicting one mid-hot-swap would force a recompile
        self._pins: dict[str, int] = {}

    # -- paths ------------------------------------------------------------
    def path(self, key: str) -> Path:
        """Where ``key``'s artifact lives (whether or not it exists)."""
        if not key or any(c in key for c in "/\\."):
            raise ReproError(f"bad artifact key: {key!r}")
        return self.root / f"{key}{_SUFFIX}"

    def contains(self, key: str) -> bool:
        return self.path(key).exists()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob(f"*{_SUFFIX}"))

    def __len__(self) -> int:
        return len(self.keys())

    def total_bytes(self) -> int:
        return sum(
            p.stat().st_size
            for p in self.root.glob(f"*{_SUFFIX}")
            if p.is_file()
        )

    # -- cache surface ----------------------------------------------------
    def get(self, key: str) -> CompiledArtifact | None:
        """Load ``key``'s artifact, or None (missing *or* unreadable).

        A hit refreshes the file's mtime — that is the LRU clock.  An
        unreadable or incompatible file is deleted so it cannot shadow
        a future :meth:`put` forever.
        """
        path = self.path(key)
        with self._lock:
            if not path.exists():
                self.stats.misses += 1
                return None
            try:
                artifact = CompiledArtifact.load(path)
            except ArtifactError:
                self.stats.invalid += 1
                self.stats.misses += 1
                path.unlink(missing_ok=True)
                return None
            self.stats.hits += 1
            try:
                os.utime(path, (time.time(), time.time()))
            except OSError:
                # a sharing process evicted the file after we read it;
                # the loaded artifact is still a perfectly good hit
                pass
            return artifact

    def put(self, artifact: CompiledArtifact) -> Path:
        """Write an artifact under its own content-addressed key."""
        return self.put_many([artifact])[0]

    def put_many(self, artifacts) -> list[Path]:
        """Write a batch of artifacts, then evict over budget once.

        No artifact of the batch is evicted, even when the batch alone
        exceeds the budget — the caller is about to use all of them.
        The writes run outside the store lock: each is a tmp file plus
        an atomic rename, so a reader sees a whole artifact or none.
        The lock covers only the eviction pass, so another thread's
        :meth:`get` or :meth:`pin` never waits for the batch's writes.
        """
        paths = [a.save(self.path(a.key)) for a in artifacts]
        with self._lock:
            self._evict_over_budget(keep=set(paths))
        return paths

    def clear(self) -> None:
        with self._lock:
            for path in self.root.glob(f"*{_SUFFIX}"):
                path.unlink(missing_ok=True)
            for path in self.root.glob(f"*{_MANIFEST_SUFFIX}"):
                path.unlink(missing_ok=True)
            pins_dir = self.root / _PINS_DIR
            if pins_dir.is_dir():
                for key_dir in pins_dir.iterdir():
                    if key_dir.is_dir():
                        for token in key_dir.iterdir():
                            token.unlink(missing_ok=True)
                        _rmdir_quiet(key_dir)
            self._pins.clear()

    # -- eviction pins -----------------------------------------------------
    def pin(self, keys) -> None:
        """Exempt ``keys`` from LRU eviction (refcounted).

        Live ruleset versions pin the component artifacts their
        composition manifests reference; byte-budget pressure then falls
        entirely on unpinned entries.  The first pin of a key in this
        process also drops a pid token file under ``.pins/<key>/``, so
        *other* processes sharing the directory honour the pin too.
        """
        with self._lock:
            for key in keys:
                count = self._pins.get(key, 0)
                self._pins[key] = count + 1
                if count == 0:
                    self._write_pin_token(key)

    def unpin(self, keys) -> None:
        """Drop one pin reference per key; fully unpinned artifacts
        rejoin the LRU eviction pool (in every sharing process, once
        this process's pid token is removed)."""
        with self._lock:
            for key in keys:
                count = self._pins.get(key, 0) - 1
                if count > 0:
                    self._pins[key] = count
                else:
                    self._pins.pop(key, None)
                    self._remove_pin_token(key)

    def pinned_keys(self) -> set[str]:
        """Keys pinned by this process *or* any live sibling process."""
        with self._lock:
            return set(self._pins) | self._disk_pinned_stems()

    # -- cross-process pin tokens ------------------------------------------
    def _pin_token_path(self, key: str) -> Path:
        return self.root / _PINS_DIR / key / f"{os.getpid()}.pin"

    def _write_pin_token(self, key: str) -> None:
        token = self._pin_token_path(key)
        try:
            token.parent.mkdir(parents=True, exist_ok=True)
            token.touch()
        except OSError:
            # a read-only shared store still gets in-process pins; the
            # cross-process guarantee just doesn't extend to it
            pass

    def _remove_pin_token(self, key: str) -> None:
        token = self._pin_token_path(key)
        try:
            token.unlink(missing_ok=True)
            _rmdir_quiet(token.parent)
        except OSError:
            pass

    def _disk_pinned_stems(self) -> set[str]:
        """Keys with a live pid token on disk; dead tokens are swept.

        A token whose pid no longer exists belongs to a crashed (or
        SIGKILLed) process — its pins die with it, otherwise one dead
        node would exempt its artifacts from eviction forever.
        """
        pins_dir = self.root / _PINS_DIR
        pinned: set[str] = set()
        if not pins_dir.is_dir():
            return pinned
        for key_dir in pins_dir.iterdir():
            if not key_dir.is_dir():
                continue
            alive = False
            for token in key_dir.glob("*.pin"):
                try:
                    pid = int(token.stem)
                except ValueError:
                    token.unlink(missing_ok=True)
                    continue
                if _pid_alive(pid):
                    alive = True
                else:
                    token.unlink(missing_ok=True)
            if alive:
                pinned.add(key_dir.name)
            else:
                _rmdir_quiet(key_dir)
        return pinned

    # -- composition manifests ---------------------------------------------
    def manifest_path(self, key: str) -> Path:
        """Where ``key``'s composition manifest lives."""
        if not key or any(c in key for c in "/\\."):
            raise ReproError(f"bad manifest key: {key!r}")
        return self.root / f"{key}{_MANIFEST_SUFFIX}"

    def put_manifest(self, key: str, manifest: dict) -> Path:
        """Atomically persist a composition manifest (JSON sidecar).

        Manifests are tiny and sit outside the byte budget: the budget
        protects against artifact bloat, and a manifest without its
        component artifacts is harmlessly re-derived on the next
        compile.
        """
        path = self.manifest_path(key)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True))
        os.replace(tmp, path)
        return path

    def get_manifest(self, key: str) -> dict | None:
        """Load a composition manifest, or None (missing or corrupt)."""
        path = self.manifest_path(key)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def manifest_keys(self) -> list[str]:
        return sorted(
            p.name[: -len(_MANIFEST_SUFFIX)]
            for p in self.root.glob(f"*{_MANIFEST_SUFFIX}")
        )

    def _evict_over_budget(self, keep: set[Path]) -> None:
        """Delete least-recently-used artifacts past the byte budget.

        The just-written artifacts ``keep`` are never evicted, even when
        they alone exceed the budget.  Pinned artifacts are skipped too
        (they still count toward the total, so unpinned entries absorb
        the pressure).
        """
        entries = []
        total = 0
        disk_pinned = self._disk_pinned_stems()
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:  # concurrently removed
                continue
            total += stat.st_size
            if (
                path not in keep
                and path.stem not in self._pins
                and path.stem not in disk_pinned
            ):
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            self.stats.evictions += 1

    def __repr__(self) -> str:
        return (
            f"ArtifactStore({str(self.root)!r}, entries={len(self)}, "
            f"max_bytes={self.max_bytes})"
        )
