"""The native compiled backend: the bit-parallel step loop in C.

``cama_kernel.c`` (next to this module) implements the packed-uint64
cycle — successor-row OR-reduce, per-symbol match mask AND, report
extraction — as one plain-C function called through ctypes, removing
the per-cycle numpy dispatch the pure-python :class:`BitParallelKernel`
pays, with per-cycle work that follows the active set rather than the
row width: :meth:`NativeKernel._bind_native` derives, once per kernel
and from the dense tables every kernel already has, each state's
non-zero successor span and the always-enabled starts' per-symbol
contribution (see the C file's header).  The shared object is found
two ways, tried in order:

1. the extension module ``repro.sim.backends._cama_native`` built at
   install time by ``setup.py`` (its Python surface is an empty shell;
   only the shared object's exported symbol matters);
2. a runtime build — ``cc -O3 -shared -fPIC`` into a per-user cache
   keyed by the source digest — for source checkouts that never ran
   an install but do have a compiler.

When neither works (no compiler, no prebuilt extension, or
``REPRO_NATIVE=0``), everything degrades cleanly: ``NativeBackend``
hands out plain :class:`BitParallelKernel` objects, so ``backend=
"native"`` is always safe to request and artifacts compiled with the
native kernel load anywhere.

:class:`NativeKernel` subclasses the bit-parallel kernel: tables,
state interchange and the observability surface are shared, and any
feature the C loop doesn't implement (placement tracking, per-cycle
statistics) transparently falls back to the numpy path.  Semantics
are pinned byte-for-byte by the differential oracle suite.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.errors import SimulationError
from repro.sim.backends import bitwords
from repro.sim.backends.base import (
    DEFAULT_MAX_KEPT_REPORTS,
    BatchEngineState,
    EngineState,
    KernelTables,
    StepResult,
    normalize_batch_caps,
)
from repro.sim.backends.bitparallel import BitParallelKernel
from repro.sim.reports import ReportBatch
from repro.sim.trace import PartitionAssignment, TraceStats
from repro.telemetry.metrics import default_registry

#: set to ``0``/``off``/``false`` to force the pure-python fallback
#: (also how CI simulates a compiler-less host)
ENV_SWITCH = "REPRO_NATIVE"

#: report-buffer floor: large enough that buffer drains are rare, small
#: enough (64 KB of int64 pairs) to allocate per call without thought
_REPORT_BUFFER_FLOOR = 4096

#: dtypes of the ``cama_tables`` arrays that are not uint64 bitmaps
_C_DTYPES = {
    "succ_span": np.int32,
    "start_active": np.int64,
    "start_reports": np.uint8,
}

_SOURCE_PATH = Path(__file__).with_name("cama_kernel.c")
_EXT_MODULE = "repro.sim.backends._cama_native"

_NATIVE_FALLBACKS = default_registry().counter(
    "repro_native_fallbacks_total",
    "Native-kernel requests served by the pure-numpy kernel instead",
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


class _CamaTables(ctypes.Structure):
    """``cama_tables`` of ``cama_kernel.c``, field for field."""

    _fields_ = [
        ("match_words", ctypes.c_void_p),
        ("succ_rows", ctypes.c_void_p),
        ("succ_span", ctypes.c_void_p),
        ("start_all", ctypes.c_void_p),
        ("start_first", ctypes.c_void_p),
        ("reporting", ctypes.c_void_p),
        ("start_match", ctypes.c_void_p),
        ("start_summary", ctypes.c_void_p),
        ("start_active", ctypes.c_void_p),
        ("start_reports", ctypes.c_void_p),
        ("words", ctypes.c_int64),
        ("start_enabled", ctypes.c_int64),
        ("nrep_total", ctypes.c_int64),
    ]


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    fn = lib.cama_run_chunk
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.POINTER(_CamaTables),  # tables
        ctypes.c_void_p,  # data
        ctypes.c_int64,  # length
        ctypes.c_int64,  # start_offset
        ctypes.c_int64,  # base_cycle
        ctypes.c_void_p,  # active
        ctypes.c_void_p,  # scratch
        ctypes.c_int64,  # budget
        ctypes.c_void_p,  # rep_cycles
        ctypes.c_void_p,  # rep_states
        ctypes.c_int64,  # rep_capacity
        ctypes.c_void_p,  # counters
    ]
    return lib


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


class NativeKernel(BitParallelKernel):
    """The bit-parallel kernel with its cycle loop in compiled C.

    Tables, interchange state and statistics are inherited; only the
    hot loop differs.  Runs that need per-cycle visibility —
    ``placement`` tracking or ``keep_per_cycle`` — use the inherited
    numpy path, so the whole engine feature surface keeps working.
    """

    name = "native"

    def __init__(self, automaton, *, tables: KernelTables | None = None) -> None:
        super().__init__(automaton, tables=tables)
        self._bind_native()

    def _bind_native(self) -> None:
        self._lib = load_native()
        # per-thread C-loop workspace (see _workspace)
        self._local = threading.local()
        if self._lib is None:
            return
        start_all = self._start_all_words
        reporting = self._reporting_words
        # what the C loop needs to make a cycle's cost follow the
        # active set (see the cama_kernel.c header), derived from the
        # dense tables: each state's non-zero successor slice, and the
        # always-enabled starts' per-symbol contribution
        start_match = self._match_words & start_all
        arrays = {
            "match_words": self._match_words,
            "succ_rows": self._succ_rows,
            "succ_span": bitwords.nonzero_word_spans(self._succ_rows),
            "start_all": start_all,
            "start_first": self._start_first_words,
            "reporting": reporting,
            "start_match": start_match,
            "start_summary": bitwords.nonzero_word_summary(start_match),
            "start_active": bitwords.popcount_rows(start_match),
            "start_reports": (start_match & reporting).any(axis=1),
        }
        # the exact C-contiguous buffers the struct points into, kept
        # alive with it; contiguous inherited tables stay views
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
    # re-probe (and re-derive the C-side tables) on arrival.  A kernel
    # landing on a host without the native library keeps working: _lib
    # stays None and run_chunk uses the numpy path.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in ("_lib", "_local", "_c_arrays", "_c_tables"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_native()

    def _workspace(self) -> tuple:
        """This thread's C-loop buffers (reports, counters, scratch) and
        their addresses, made once: reading ``.ctypes.data`` costs more
        than a short chunk's C loop.  Each thread has its own, since
        calls run concurrently with the GIL released."""
        space = getattr(self._local, "space", None)
        if space is None:
            # capacity >= nrep_total guarantees the C loop always makes
            # progress (see the pause contract in cama_kernel.c)
            capacity = max(_REPORT_BUFFER_FLOOR, self._nrep_total)
            words = self._num_words
            arrays = (
                np.empty(capacity, dtype=np.int64),
                np.empty(capacity, dtype=np.int64),
                np.empty(5, dtype=np.int64),
                # the successor OR plus two one-bit-per-word summaries
                np.empty(words + 2 * bitwords.num_words(words), np.uint64),
            )
            pointers = tuple(array.ctypes.data for array in arrays)
            space = self._local.space = (arrays, pointers)
        return space

    def _step_words(
        self, active: int, data: bytes, base: int, cap: int
    ) -> StepResult:
        """Drive the C loop over one stream's chunk, stepping the packed
        row at address ``active`` in place and draining the bounded
        report buffer into the result's batch whenever the C side
        pauses on it (the C side keeps the recording cap itself)."""
        (rep_cycles, rep_states, counters, _), pointers = self._workspace()
        cycles_at, states_at, counters_at, scratch_at = pointers
        if type(data) is not bytes:
            data = bytes(data)  # ctypes passes a bytes object's buffer
        length = len(data)
        capacity = len(rep_cycles)
        stats = TraceStats(num_states=self._n, num_cycles=length)
        codes, drained, truncated = self._report_codes, [], False
        offset = 0
        while offset < length:
            next_offset = self._lib.cama_run_chunk(
                self._c_tables,
                data,
                length,
                offset,
                base,
                active,
                scratch_at,
                cap,
                cycles_at,
                states_at,
                capacity,
                counters_at,
            )
            enabled, active_sum, reports, recorded, hit = counters.tolist()
            stats.enabled_states_sum += enabled
            stats.active_states_sum += active_sum
            stats.num_reports += reports
            truncated |= bool(hit)
            if recorded:
                cap -= recorded
                cycles = rep_cycles[:recorded].copy()
                states = rep_states[:recorded].copy()
                drained.append(ReportBatch(cycles, states, codes))
            if next_offset <= offset and not recorded:
                raise SimulationError(
                    "native kernel made no progress (corrupt build?)"
                )
            offset = next_offset
        return StepResult(ReportBatch.concat(drained), stats, truncated)

    def run_chunk(
        self,
        data: bytes,
        state: EngineState,
        *,
        placement: PartitionAssignment | None = None,
        keep_per_cycle: bool = False,
        max_reports: int = DEFAULT_MAX_KEPT_REPORTS,
    ) -> StepResult:
        if self._lib is None or placement is not None or keep_per_cycle:
            # per-cycle visibility isn't surfaced by the C loop
            return super().run_chunk(
                data,
                state,
                placement=placement,
                keep_per_cycle=keep_per_cycle,
                max_reports=max_reports,
            )
        words = bitwords.pack_indices(state.active, self._n)
        result = self._step_words(
            words.ctypes.data, data, state.position, max_reports
        )
        state.active = bitwords.unpack_indices(words)
        state.position += len(data)
        return result

    def step_batch(
        self,
        chunks: list[bytes],
        batch: BatchEngineState,
        *,
        max_reports=DEFAULT_MAX_KEPT_REPORTS,
    ) -> list[StepResult]:
        """Advance every stream row one chunk, each row in native code.

        Rows of a batch are independent streams, so the C chunk loop
        runs row by row directly on the batch's packed matrix.  The
        per-cycle interpreter overhead the numpy ``step_batch``
        amortizes across rows is already gone in C, and per-row
        semantics stay exactly :meth:`run_chunk`'s.
        """
        if self._lib is None:
            return super().step_batch(chunks, batch, max_reports=max_reports)
        num_rows = batch.num_rows
        if len(chunks) != num_rows:
            raise SimulationError(
                f"got {len(chunks)} chunks for {num_rows} batch rows"
            )
        caps = normalize_batch_caps(max_reports, num_rows)
        words = np.ascontiguousarray(batch.active_words, dtype=np.uint64)
        row_at, stride = words.ctypes.data, words.strides[0]
        results, ends = [], []
        positions = batch.positions.tolist()
        for chunk, position, cap in zip(chunks, positions, caps):
            results.append(self._step_words(row_at, chunk, position, cap))
            ends.append(position + len(chunk))
            row_at += stride
        batch.active_words = words
        batch.positions = np.array(ends, dtype=np.int64)
        return results


class NativeBackend:
    """Backend producing :class:`NativeKernel`\\ s when the compiled
    library loads, plain :class:`BitParallelKernel`\\ s otherwise —
    requesting ``backend="native"`` is always safe."""

    name = "native"

    def compile(self, automaton):
        from repro.sim.backends.base import KERNEL_COMPILES

        KERNEL_COMPILES.labels(self.name).inc()
        if load_native() is None:
            _NATIVE_FALLBACKS.labels("compile").inc()
            return BitParallelKernel(automaton)
        return NativeKernel(automaton)

    def from_tables(self, automaton, tables: KernelTables):
        """Rebuild a kernel from prebuilt (artifact) tables."""
        if load_native() is None:
            _NATIVE_FALLBACKS.labels("from_tables").inc()
            return BitParallelKernel(automaton, tables=tables)
        return NativeKernel(automaton, tables=tables)
