"""The native compiled backend: the CAMA step loop in C.

``cama_kernel.c`` (next to this module) implements the packed-uint64
cycle — successor OR-reduce, per-symbol match mask AND, report
extraction — in plain C called through ctypes, with per-cycle work
that follows the active set rather than the row width:
:meth:`NativeKernel._derive_tables` derives — when the service
prepares the kernel (:meth:`NativeKernel.prepare`), else on its first
C step — from the kernel's successor CSR and match table, each
state's non-zero successor slice, packed back to back
(:func:`_successor_slices`); per symbol the always-enabled starts it
makes active and those starts' non-start successors, a dense row
whose popcount is the cycle's enabled count for them
(:func:`_start_successors`); and per (previous, current) symbol pair
only the words of those successors that the current symbol makes
active (:func:`_pair_table`).  No table is ``words`` wide per state,
so the C loop takes automata of any size.
With them the C loop folds the starts out of a row while it steps it —
a cycle adds a constant for everything the starts enable and writes
the few words the symbol pair lists, instead of walking every start
successor — and hands the row back whole (see the C file's header).
Popcount is the CPU instruction where the CPU has one, picked inside
the shared object, so one build runs anywhere.

One C entry, ``cama_step_rows``, steps every row of a batch from an
array of row pointers: a :class:`BatchEngineState`'s matrix rows, or
each stream's own :class:`EngineState` row — the packed form is the
state's canonical one, so a stream's row is stepped in place chunk
after chunk, never converted to ids and back.  A single stream's chunk
(:meth:`NativeKernel.run_chunk`) is the one-row call; per-row base
cycles, report budgets and counters travel in one record per row, and
the rows share one bounded report buffer that the C side pauses on and
Python drains.  The shared object is found two ways, tried in order:

1. the extension module ``repro.sim.backends._cama_native`` built at
   install time by ``setup.py`` (its Python surface is an empty shell;
   only the shared object's exported symbol matters);
2. a runtime build — ``cc -O3 -shared -fPIC`` into a per-user cache
   keyed by the source digest — for source checkouts that never ran
   an install but do have a compiler.

When neither works (no compiler, no prebuilt extension, or
``REPRO_NATIVE=0``), everything degrades cleanly: ``NativeBackend``
hands out :class:`SparseKernel` objects (counted in
``repro_native_fallbacks_total``), so ``backend="native"`` is always
safe to request and artifacts compiled with the native kernel load
anywhere; ``kernel.name`` names the kernel that actually runs.

Any feature the C loop doesn't implement (placement tracking,
per-cycle statistics) steps a :class:`SparseKernel` built from the
kernel's own tables.  Semantics are pinned byte-for-byte by the
differential oracle suite.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import shutil
import subprocess
import tempfile
import threading
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import SimulationError
from repro.sim.backends import bitwords
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    BatchEngineState,
    CompiledKernel,
    EngineState,
    KernelTables,
    StepResult,
    gather_successors,
    normalize_batch_caps,
)
from repro.sim.backends.sparse import SparseKernel
from repro.sim.reports import EMPTY_REPORTS, ReportBatch
from repro.sim.trace import PartitionAssignment, TraceStats
from repro.telemetry.metrics import default_registry

#: set to ``0``/``off``/``false`` to force the sparse-kernel fallback
#: (also how CI simulates a compiler-less host)
ENV_SWITCH = "REPRO_NATIVE"

#: report-buffer floor: large enough that buffer drains are rare, small
#: enough (64 KB of int64 pairs) to allocate per call without thought
_REPORT_BUFFER_FLOOR = 4096

#: dtypes of the ``cama_tables`` arrays that are not uint64 bitmaps
_C_DTYPES = {
    "succ_span": np.int64,
    "start_active": np.int64,
    "start_reports": np.uint8,
    "start_succ_enabled": np.int64,
    "pair_rank": np.int32,
    "pair_at": np.int64,
    "pair_word": np.int32,
}

_SOURCE_PATH = Path(__file__).with_name("cama_kernel.c")
_EXT_MODULE = "repro.sim.backends._cama_native"

_NATIVE_FALLBACKS = default_registry().counter(
    "repro_native_fallbacks_total",
    "Native-kernel requests served by the sparse kernel instead",
    ("cause",),
)

_load_lock = threading.Lock()
_loaded: "ctypes.CDLL | None | bool" = False  # False = not probed yet
_load_error: str | None = None


def _disabled_by_env() -> bool:
    return os.environ.get(ENV_SWITCH, "").strip().lower() in (
        "0",
        "off",
        "no",
        "false",
    )


def _prebuilt_path() -> Path | None:
    """The install-time extension's shared object, if one was built."""
    import importlib.util

    try:
        spec = importlib.util.find_spec(_EXT_MODULE)
    except (ImportError, ValueError):
        return None
    if spec is None or not spec.origin:
        return None
    path = Path(spec.origin)
    if path.suffix not in (".so", ".dylib", ".pyd"):
        return None
    return path if path.exists() else None


def _runtime_build() -> Path | None:
    """Compile the C source into a digest-keyed per-user cache."""
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None or not _SOURCE_PATH.exists():
        return None
    digest = hashlib.sha256(_SOURCE_PATH.read_bytes()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    cache_dir = Path(
        os.environ.get("REPRO_NATIVE_CACHE")
        or Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    )
    lib_path = cache_dir / f"cama_kernel-{digest}.so"
    if lib_path.exists():
        return lib_path
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # build to a pid-suffixed temp name, publish with an atomic
        # rename: concurrent processes race harmlessly
        tmp_path = lib_path.with_name(f"{lib_path.name}.tmp{os.getpid()}")
        subprocess.run(
            [
                compiler,
                "-O3",
                "-shared",
                "-fPIC",
                "-o",
                str(tmp_path),
                str(_SOURCE_PATH),
            ],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_path, lib_path)
    except (OSError, subprocess.SubprocessError):
        return None
    return lib_path


def _successor_slices(offsets, targets, n):
    """The C loop's successor table, from the CSR: each state's
    successor words, from its lowest to its highest non-zero one, back
    to back in one packed array, and per state ``(base, first,
    count)`` — where its slice starts in that array, the bitmap word
    it starts at, and its length.  At one word per row every state
    keeps its one slot, zero or not: the one-word loop reads slot
    ``state`` unconditionally."""
    words = bitwords.num_words(n)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    word = targets >> 6
    first = np.full(n, words, dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    np.minimum.at(first, sources, word)
    np.maximum.at(last, sources, word)
    count = np.maximum(last - first + 1, 0)
    first[count == 0] = 0
    if words == 1:
        count[:] = 1
    base = np.zeros(n, dtype=np.int64)
    np.cumsum(count[:-1], out=base[1:])
    packed = np.zeros(int(count.sum()), dtype=np.uint64)
    np.bitwise_or.at(
        packed,
        base[sources] + word - first[sources],
        np.uint64(1) << (targets & 63).astype(np.uint64),
    )
    return packed, np.stack([base, first, count], axis=1)


def _start_successors(start_match, offsets, targets, start_all):
    """Per symbol, the non-start successors of the starts that
    ``start_match[symbol]`` holds: the C loop's ``start_succ``, a dense
    ``(256, words)`` packed matrix."""
    symbols, starts = bitwords.expand_rows(start_match)
    # one (symbol, successor) pair per successor of each listed start
    succ = gather_successors(offsets, targets, starts)
    fanout = offsets[starts + 1] - offsets[starts]
    table = np.zeros_like(start_match)
    np.bitwise_or.at(
        table,
        (np.repeat(symbols, fanout), succ >> 6),
        np.uint64(1) << (succ & 63).astype(np.uint64),
    )
    table &= ~start_all
    return table


def _pair_table(start_succ, match_words):
    """The C loop's byte-pair table: for each (prev, cur) symbol pair,
    the non-zero words of ``start_succ[prev] & match_words[cur]`` as
    ``(word, bits)`` entries, ascending by word, pairs in (prev, cur)
    order.  Returns ``pair_any`` (``(256, 4)`` words, bit ``cur`` of
    row ``prev`` set when the pair lists any word), ``pair_rank``
    (``(256, 4)``, the set ``pair_any`` bits before each word), the
    non-empty pairs' entry offsets and the entries' words and bits.

    Only the non-zero ``start_succ`` words are matched, 128 of them at
    a time, so the transient is one cache-sized ``(128, 256)`` matrix
    however many words the starts enable."""
    block = 128
    prevs, columns = np.nonzero(start_succ)  # by prev, then word
    values = start_succ[prevs, columns, None]
    by_word = np.ascontiguousarray(match_words.T)
    blocks = range(0, len(prevs), block)

    def hits(at):  # (entry, cur)
        return by_word[columns[at : at + block]] & values[at : at + block]

    # count, then fill: the entries land in place, block by block
    total = sum(np.count_nonzero(hits(at)) for at in blocks)
    keys = np.empty(total, dtype=np.int64)
    words = np.empty(total, dtype=np.int64)
    bits = np.empty(total, dtype=np.uint64)
    filled = 0
    for at in blocks:
        block_hits = hits(at)
        k, cur = np.nonzero(block_hits)  # by prev, then word, then cur
        end = filled + len(cur)
        keys[filled:end] = prevs[at + k] * 256 + cur
        words[filled:end] = columns[at + k]
        bits[filled:end] = block_hits[k, cur]
        filled = end
    # a stable sort by pair keeps each pair's words ascending
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=256 * 256)
    listed = counts > 0
    pair_any = bitwords.pack_bool_rows(listed.reshape(256, 256))
    per_word = listed.reshape(-1, 64).sum(axis=1)
    pair_rank = np.cumsum(per_word) - per_word  # listed pairs before it
    pair_at = np.zeros(int(per_word.sum()) + 1, dtype=np.int64)
    np.cumsum(counts[listed], out=pair_at[1:])
    return (
        pair_any,
        pair_rank.reshape(pair_any.shape),
        pair_at,
        words[order],
        bits[order],
    )


class _CamaTables(ctypes.Structure):
    """``cama_tables`` of ``cama_kernel.c``, field for field."""

    _fields_ = [
        ("match_words", ctypes.c_void_p),
        ("succ_packed", ctypes.c_void_p),
        ("succ_span", ctypes.c_void_p),
        ("start_all", ctypes.c_void_p),
        ("start_first", ctypes.c_void_p),
        ("reporting", ctypes.c_void_p),
        ("start_match", ctypes.c_void_p),
        ("start_active", ctypes.c_void_p),
        ("start_reports", ctypes.c_void_p),
        ("start_succ", ctypes.c_void_p),
        ("start_succ_enabled", ctypes.c_void_p),
        ("pair_any", ctypes.c_void_p),
        ("pair_rank", ctypes.c_void_p),
        ("pair_at", ctypes.c_void_p),
        ("pair_word", ctypes.c_void_p),
        ("pair_bits", ctypes.c_void_p),
        ("words", ctypes.c_int64),
        ("start_enabled", ctypes.c_int64),
        ("nrep_total", ctypes.c_int64),
    ]


class _CamaWork(ctypes.Structure):
    """``cama_work`` of ``cama_kernel.c``, field for field."""

    _fields_ = [
        ("rows", ctypes.c_void_p),
        ("row_in", ctypes.c_void_p),
        ("row_out", ctypes.c_void_p),
        ("scratch", ctypes.c_void_p),
        ("rep_cycles", ctypes.c_void_p),
        ("rep_states", ctypes.c_void_p),
        ("rep_capacity", ctypes.c_int64),
    ]


#: one row's records in the workspace (``CAMA_IN_*`` / ``CAMA_OUT_*`` in
#: cama_kernel.c): length, base cycle and cap in; symbols done,
#: enabled / active sums, fired, recorded and truncated out
_IN_FIELDS, _OUT_FIELDS = 3, 6
_DONE = 0


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    fn = lib.cama_step_rows
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.POINTER(_CamaTables),  # tables
        ctypes.POINTER(_CamaWork),  # work
        ctypes.c_void_p,  # data
        ctypes.c_int64,  # num_rows
        ctypes.c_int64,  # first_row
    ]
    return lib


class _Workspace:
    """One thread's C-loop buffers — report buffer, scratch, row
    pointers and row records — and the ``cama_work`` pointing at them,
    made once and grown with the widest batch seen: reading
    ``.ctypes.data`` costs more than a short chunk's C loop.  The row
    records are ctypes arrays because slicing one to or from a list is
    the cheapest way across for a handful of integers."""

    def __init__(self, num_words: int, capacity: int) -> None:
        self.rep_cycles = np.empty(capacity, dtype=np.int64)
        self.rep_states = np.empty(capacity, dtype=np.int64)
        # the successor OR plus two one-bit-per-word summaries
        scratch = num_words + 2 * bitwords.num_words(num_words)
        self.scratch = np.empty(scratch, dtype=np.uint64)
        self.work = _CamaWork(
            scratch=self.scratch.ctypes.data,
            rep_cycles=self.rep_cycles.ctypes.data,
            rep_states=self.rep_states.ctypes.data,
            rep_capacity=capacity,
        )
        self.pointer = ctypes.pointer(self.work)
        self.max_rows = 0
        self.reserve(1)

    def reserve(self, num_rows: int) -> None:
        """Make room for ``num_rows`` rows' pointers and records."""
        if num_rows <= self.max_rows:
            return
        self.max_rows = max(num_rows, 2 * self.max_rows)
        self.rows = (ctypes.c_uint64 * self.max_rows)()
        self.row_in = (ctypes.c_int64 * (self.max_rows * _IN_FIELDS))()
        self.row_out = (ctypes.c_int64 * (self.max_rows * _OUT_FIELDS))()
        self.work.rows = ctypes.addressof(self.rows)
        self.work.row_in = ctypes.addressof(self.row_in)
        self.work.row_out = ctypes.addressof(self.row_out)


def load_native() -> "ctypes.CDLL | None":
    """The bound native library, or None when unavailable.

    Probed once per process (thread-safe) and cached; the probe order
    is prebuilt extension, then runtime compile.
    """
    global _loaded, _load_error
    if _loaded is not False:
        return _loaded
    with _load_lock:
        if _loaded is not False:
            return _loaded
        if _disabled_by_env():
            _loaded = None
            _load_error = f"disabled via {ENV_SWITCH}"
            return None
        for locate in (_prebuilt_path, _runtime_build):
            path = locate()
            if path is None:
                continue
            try:
                _loaded = _bind(ctypes.CDLL(str(path)))
            except (OSError, AttributeError) as exc:
                _load_error = f"{path}: {exc}"
                continue
            return _loaded
        _loaded = None
        if _load_error is None:
            _load_error = "no prebuilt extension and no C compiler found"
        return None


def native_available() -> bool:
    """True when the compiled step loop is loadable in this process."""
    return load_native() is not None


def native_status() -> str:
    """One-line availability summary (for diagnostics and tests)."""
    if native_available():
        return "native kernel loaded"
    return f"native kernel unavailable: {_load_error}"


def _reset_probe_cache() -> None:
    """Forget the load result (test hook: re-probe under a new env)."""
    global _loaded, _load_error
    with _load_lock:
        _loaded = False
        _load_error = None


class NativeKernel(CompiledKernel):
    """Compiled C step loop for one :class:`Automaton`.

    Holds the packed tables — per-symbol match words, the successor
    CSR, start and reporting words — and steps each stream's
    packed :class:`EngineState` row in place.  Runs that need per-cycle
    visibility — ``placement`` tracking or ``keep_per_cycle`` — and
    every run of a kernel without the library (one unpickled on a host
    that cannot load it) step through a :class:`SparseKernel` built
    from this kernel's own exported tables, so the whole engine
    feature surface keeps working.
    """

    name = "native"

    def __init__(self, automaton, *, tables: KernelTables | None = None) -> None:
        if tables is None:
            automaton.validate()
        super().__init__(automaton)
        n = len(automaton)
        self._n = n
        self._num_words = bitwords.num_words(n)
        if tables is None:
            tables = KernelTables.from_automaton(automaton)
        else:
            tables.check(n)
        # match_words[symbol] is the packed vector of states accepting it
        self._match_words = tables.match_words
        self._succ_offsets = tables.succ_offsets
        self._succ_targets = tables.succ_targets
        self._start_all = tables.start_all
        self._start_sod = tables.start_sod
        self._reporting = tables.reporting
        self._report_codes = list(tables.report_codes)
        self._start_all_words = bitwords.pack_indices(self._start_all, n)
        self._start_first_words = self._start_all_words | bitwords.pack_indices(
            self._start_sod, n
        )
        self._reporting_words = bitwords.pack_bool_rows(
            self._reporting.reshape(1, -1)
        )[0]
        self._bind_native()

    def export_tables(self) -> KernelTables:
        """This kernel's structures in the serializable interchange form."""
        return KernelTables(
            match_words=self._match_words,
            succ_offsets=self._succ_offsets,
            succ_targets=self._succ_targets,
            start_all=self._start_all,
            start_sod=self._start_sod,
            reporting=self._reporting,
            report_codes=list(self._report_codes),
        )

    def _sparse(self) -> SparseKernel:
        """The reference kernel over this kernel's tables, built on the
        first run the C loop cannot serve."""
        if self._sparse_kernel is None:
            with self._c_lock:
                if self._sparse_kernel is None:
                    self._sparse_kernel = SparseKernel(
                        self.automaton, tables=self.export_tables()
                    )
        return self._sparse_kernel

    # -- single-step API (parity with the sparse kernel) -----------------
    def enabled_at(self, active: np.ndarray, first_cycle: bool) -> np.ndarray:
        """Indices of states enabled next cycle, given active indices."""
        return self._sparse().enabled_at(active, first_cycle)

    def match(self, enabled: np.ndarray, symbol: int) -> np.ndarray:
        """Subset of ``enabled`` whose class contains ``symbol``."""
        return self._sparse().match(enabled, symbol)

    def _bind_native(self) -> None:
        self._lib = load_native()
        # per-thread C-loop workspace (see _workspace)
        self._local = threading.local()
        # the C loop's tables, derived by prepare() or else by the
        # first C step (_tables): a kernel built only to export its
        # tables — the compile pipeline builds one per component —
        # never pays for them
        self._c_tables = None
        self._c_lock = threading.Lock()
        self._sparse_kernel = None

    def prepare(self) -> None:
        """Derive the C loop's tables now, not in the first step: the
        service prepares the kernels of a ruleset it registers, so no
        request pays for the derivation."""
        if self._lib is not None:
            self._tables()

    def _tables(self):
        """The ``cama_tables`` the C loop steps from, derived once."""
        if self._c_tables is None:
            with self._c_lock:
                if self._c_tables is None:
                    self._derive_tables()
        return self._c_tables

    def _derive_tables(self) -> None:
        start_all = self._start_all_words
        reporting = self._reporting_words
        # what the C loop needs to make a cycle's cost follow the
        # active set (see the cama_kernel.c header), derived from the
        # CSR and the match table: each state's non-zero successor
        # slice; per symbol the always-enabled starts it makes active
        # and their non-start successors — a dense row and its
        # popcount (the enabled count they add, a constant); and the
        # byte-pair table, which lists per (prev, cur) only the words
        # of start_succ[prev] that cur makes active (wide rows only:
        # in one word that is start_succ[prev] & match)
        start_match = self._match_words & start_all
        start_succ = _start_successors(
            start_match, self._succ_offsets, self._succ_targets, start_all
        )
        if self._num_words > 1:
            pair_table = _pair_table(start_succ, self._match_words)
        else:  # the one-word loop reads start_succ[prev] itself
            pair_table = [np.zeros(0, dtype=np.uint64)] * 5
        pair_any, pair_rank, pair_at, pair_word, pair_bits = pair_table
        succ_packed, succ_span = _successor_slices(
            self._succ_offsets, self._succ_targets, self._n
        )
        arrays = {
            "match_words": self._match_words,
            "succ_packed": succ_packed,
            "succ_span": succ_span,
            "start_all": start_all,
            "start_first": self._start_first_words,
            "reporting": reporting,
            "start_match": start_match,
            "start_active": bitwords.popcount_rows(start_match),
            "start_reports": (start_match & reporting).any(axis=1),
            "start_succ": start_succ,
            "start_succ_enabled": bitwords.popcount_rows(start_succ),
            "pair_any": pair_any,
            "pair_rank": pair_rank,
            "pair_at": pair_at,
            "pair_word": pair_word,
            "pair_bits": pair_bits,
        }
        # the exact C-contiguous buffers the struct points into, kept
        # alive with it; contiguous tables stay views
        self._c_arrays = {
            name: np.ascontiguousarray(
                array, dtype=_C_DTYPES.get(name, np.uint64)
            )
            for name, array in arrays.items()
        }
        self._nrep_total = int(bitwords.popcount(reporting))
        self._c_tables = ctypes.pointer(
            _CamaTables(
                words=self._num_words,
                start_enabled=int(bitwords.popcount(start_all)),
                nrep_total=self._nrep_total,
                **{name: a.ctypes.data for name, a in self._c_arrays.items()},
            )
        )

    # ctypes handles and raw pointers don't pickle; drop them and
    # re-probe on arrival (the C-side tables are re-derived on use).  A
    # kernel landing on a host without the native library keeps
    # working: _lib stays None and every run steps the sparse kernel.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in (
            "_lib", "_local", "_c_arrays", "_c_tables", "_c_lock",
            "_sparse_kernel",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_native()

    def _workspace(self, num_rows: int) -> _Workspace:
        """This thread's C-loop workspace, with room for ``num_rows``
        rows.  Each thread has its own, since calls run concurrently
        with the GIL released."""
        space = getattr(self._local, "space", None)
        if space is None:
            # capacity >= nrep_total guarantees the C loop always makes
            # progress (see the pause contract in cama_kernel.c)
            capacity = max(_REPORT_BUFFER_FLOOR, self._nrep_total)
            space = self._local.space = _Workspace(self._num_words, capacity)
        space.reserve(num_rows)
        return space

    def _step_rows(self, chunks, row_at, bases, caps) -> list[StepResult]:
        """One C entry over the packed rows at addresses ``row_at``:
        row ``r`` is stepped in place through ``chunks[r]`` from
        absolute cycle ``bases[r]``, recording at most ``caps[r]``
        reports.

        Rows share the workspace's report buffer and fill it in row
        order; when the C side pauses on it, its contents are copied
        out and the call resumes from the paused row.  The copies, in
        order, hold every row's reports back to back, so each row's
        batch is a slice of them: no per-row drain."""
        num_rows = len(chunks)
        tables = self._tables()
        space = self._workspace(num_rows)
        if num_rows == 1:
            data = chunks[0]
            if type(data) is not bytes:
                data = bytes(data)  # ctypes passes a bytes object's buffer
        else:
            data = b"".join(chunks)
        lengths = list(map(len, chunks))
        space.row_in[0 : num_rows * _IN_FIELDS] = list(
            chain.from_iterable(zip(lengths, bases, caps))
        )
        width = num_rows * _OUT_FIELDS
        ctypes.memset(space.work.row_out, 0, 8 * width)
        space.rows[0:num_rows] = row_at
        step = self._lib.cama_step_rows
        first, drained, resume = 0, [], (0, 0)
        # nothing written means nothing paused: a call that starts with
        # an empty buffer always fits a worst-case burst
        while written := step(tables, space.pointer, data, num_rows, first):
            drained.append(
                (
                    space.rep_cycles[:written].copy(),
                    space.rep_states[:written].copy(),
                )
            )
            done = space.row_out[_DONE:width:_OUT_FIELDS]
            if done == lengths:
                break
            first = list(map(operator.lt, done, lengths)).index(True)
            paused = (first, done[first])
            if paused <= resume:  # each call gets at least one cycle on
                raise SimulationError(
                    "native kernel made no progress (corrupt build?)"
                )
            resume = paused
        outs = space.row_out[0:width]
        if outs[_DONE::_OUT_FIELDS] != lengths:
            raise SimulationError(
                "native kernel made no progress (corrupt build?)"
            )
        if len(drained) > 1:
            cycles = np.concatenate([part[0] for part in drained])
            states = np.concatenate([part[1] for part in drained])
        elif drained:
            cycles, states = drained[0]
        n, codes, at, results = self._n, self._report_codes, 0, []
        records = zip(lengths, *[iter(outs)] * _OUT_FIELDS)
        for length, _, enabled, active, fired, recorded, truncated in records:
            batch = EMPTY_REPORTS
            if recorded:
                end = at + recorded
                batch = ReportBatch(cycles[at:end], states[at:end], codes)
                at = end
            results.append(
                StepResult(
                    batch,
                    TraceStats(n, length, fired, enabled, active),
                    truncated != 0,
                )
            )
        return results

    def run_chunk(
        self,
        data: bytes,
        state: EngineState,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> StepResult:
        """One stream's chunk: the one-row call of the C entry, which
        steps the state's packed row in place."""
        if self._lib is None or placement is not None or keep_per_cycle:
            # per-cycle visibility isn't surfaced by the C loop
            return self._sparse().run_chunk(
                data,
                state,
                placement=placement,
                keep_per_cycle=keep_per_cycle,
                max_reports=max_reports,
            )
        [result] = self._step_rows(
            (data,), (state.row_address(self._n),), (state.position,),
            (max_reports,),
        )
        state.position += len(data)
        return result

    def _step_states(self, chunks, states, caps) -> list[StepResult]:
        """Step per-stream states, each through its own packed row."""
        n = self._n
        results = self._step_rows(
            chunks,
            [state.row_address(n) for state in states],
            [state.position for state in states],
            caps,
        )
        for state, chunk in zip(states, chunks):
            state.position += len(chunk)
        return results

    def step_batch(
        self,
        chunks: list[bytes],
        rows: "BatchEngineState | list[EngineState]",
        *,
        max_reports=DEFAULT_MAX_KEPT_REPORTS,
    ) -> list[StepResult]:
        """Advance every stream row one chunk in one C entry.

        The C side walks an array of row pointers, so the rows are
        stepped where they live: a :class:`BatchEngineState`'s matrix
        rows — what a one-shot scan steps, one fresh matrix per group
        of streams (:meth:`initial_batch`) — or each session state's
        own packed row; no stacking, no copying back.  Rows share one
        report buffer and pause on it one row at a time; each row's
        reports are a slice of what it drained.  Per-row semantics stay
        exactly :meth:`run_chunk`'s.
        """
        if self._lib is None:
            return self._sparse().step_batch(
                chunks, rows, max_reports=max_reports
            )
        matrix = isinstance(rows, BatchEngineState)
        num_rows = rows.num_rows if matrix else len(rows)
        if len(chunks) != num_rows:
            raise SimulationError(
                f"got {len(chunks)} chunks for {num_rows} batch rows"
            )
        caps = normalize_batch_caps(max_reports, num_rows)
        if not matrix:
            return self._step_states(chunks, rows, caps)
        # the matrix's rows, stepped where they live
        words = np.ascontiguousarray(rows.active_words, dtype=np.uint64)
        row_at, stride = words.ctypes.data, words.strides[0]
        positions = rows.positions
        results = self._step_rows(
            chunks,
            range(row_at, row_at + stride * num_rows, stride),
            positions.tolist(),
            caps,
        )
        rows.active_words = words
        rows.positions = positions + [len(chunk) for chunk in chunks]
        return results


class NativeBackend:
    """Backend producing :class:`NativeKernel`\\ s when the compiled
    library loads, :class:`SparseKernel`\\ s otherwise — requesting
    ``backend="native"`` is always safe."""

    name = "native"

    def compile(self, automaton):
        from repro.sim.backends.base import KERNEL_COMPILES

        KERNEL_COMPILES.labels(self.name).inc()
        if load_native() is None:
            _NATIVE_FALLBACKS.labels("compile").inc()
            return SparseKernel(automaton)
        return NativeKernel(automaton)

    def from_tables(self, automaton, tables: KernelTables):
        """Rebuild a kernel from prebuilt (artifact) tables."""
        if load_native() is None:
            _NATIVE_FALLBACKS.labels("from_tables").inc()
            return SparseKernel(automaton, tables=tables)
        return NativeKernel(automaton, tables=tables)
