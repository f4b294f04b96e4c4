"""Serializable compiled-ruleset artifacts ("compile once, load anywhere").

A :class:`CompiledArtifact` is one pipeline product as one frame of
typed arrays (:mod:`repro.frames`): a JSON *manifest* (key, pipeline
options, encoding parameters) plus every table the kernels and the
CAMA program need.  A store file, :meth:`to_bytes` and a
``register_artifact`` upload are the same bytes; equal compiles write
equal bytes (pass timings are not stored).  Loading reads a file once
and rebuilds, from read-only views of it, the automaton, a warm engine
(kernels built from the prebuilt tables, no derivation pass) and, when
the encode/map passes ran, the :class:`~repro.core.compiler.CamaProgram`.

The key is ``ruleset_fingerprint(automaton, options)``, so a store
lookup never returns an artifact compiled under other options.
Anything unreadable — a corrupt frame, a disallowed dtype, missing or
inconsistent arrays, another format version (a version-1 zip
included) — raises :class:`~repro.errors.ArtifactError`, which
cache layers treat as a miss and recompile.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.automata.nfa import STE, Automaton, StartKind
from repro.automata.symbols import SymbolClass
from repro.compile.fingerprint import ruleset_fingerprint
from repro.compile.ir import CompiledRuleset, PipelineOptions
from repro.errors import ArtifactError, ReproError
from repro.frames import FrameError, array_frame_parts, decode_array_frame

#: version of the file: 1 was a numpy zip archive, 2 is one frame
ARTIFACT_FORMAT_VERSION = 2
#: version of the manifest's fields and of the arrays it names, which
#: the frame container left unchanged
MANIFEST_VERSION = 1

_START_KINDS = (StartKind.NONE, StartKind.ALL_INPUT, StartKind.START_OF_DATA)
_START_CODE = {kind: code for code, kind in enumerate(_START_KINDS)}

#: the kernels' arrays and their dtypes: every artifact carries them
#: but ``succ_words`` (a sparse compile has none); program arrays come
#: with a program
_ARRAY_DTYPES = dict(
    state_class_words="<u8", state_start="|u1", state_reporting="|b1",
    succ_offsets="<i8", succ_targets="<i8", match_words="<u8", succ_words="<u8",
)  # fmt: skip
_PROGRAM_ARRAYS = (
    "enc_offsets enc_patterns enc_negated map_state_switch map_state_position "
    "map_state_entries map_cross_edges switch_mode switch_entry_count "
    "switch_in switch_out switch_state_offsets switch_state_flat tile_mode "
    "tile_switches"
).split()

_SWITCH_MODES = ("rcb", "fcb")
_TILE_MODES = ("rcb16", "fcb16", "mode32")


def _class_words(states) -> np.ndarray:
    """Per-state 256-bit symbol-class masks as (n, 4) little uint64."""
    masks = b"".join(s.symbol_class.mask.to_bytes(32, "little") for s in states)
    return np.frombuffer(masks, dtype="<u8").reshape(-1, 4)


def _ints(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def _offsets(lists) -> np.ndarray:
    """CSR offsets of a sequence of lists: 0, then running lengths."""
    return np.cumsum([0, *map(len, lists)], dtype=np.int64)


def _strings_or_none(values, n: int) -> bool:
    """Whether a manifest list is None or ``n`` strings-or-None."""
    return values is None or (
        isinstance(values, list)
        and len(values) == n
        and all(v is None or isinstance(v, str) for v in values)
    )


def _optional_strings(values: list) -> list | None:
    """A JSON-able string list, or None when every entry is None."""
    return list(values) if any(v is not None for v in values) else None


@dataclass
class CompiledArtifact:
    """One compiled ruleset in its serializable form.

    ``manifest`` is plain JSON-able metadata; ``arrays`` maps array
    names to numpy arrays.  Reconstruction accessors
    (:meth:`automaton`, :meth:`engine`, :meth:`program`) are cached per
    instance — loading once and building several views is cheap.
    ``timings`` are the pass timings of the compile that built this
    artifact (empty for a loaded one); they are not stored.
    """

    manifest: dict
    arrays: dict[str, np.ndarray]
    timings: list = field(default_factory=list, repr=False)
    _automaton: Automaton | None = field(default=None, repr=False)

    # -- identity ---------------------------------------------------------
    @property
    def key(self) -> str:
        """Content address: language fingerprint + option digest."""
        return self.manifest["key"]

    @property
    def fingerprint(self) -> str:
        """Language-only ruleset fingerprint."""
        return self.manifest["ruleset_fingerprint"]

    @property
    def options(self) -> PipelineOptions:
        return PipelineOptions.from_dict(self.manifest["options"])

    @property
    def backend(self) -> str | None:
        """Resolved kernel name recorded at compile time."""
        return self.manifest.get("backend")

    @property
    def num_states(self) -> int:
        return self.manifest["automaton"]["num_states"]

    def summary(self) -> dict:
        """Human-readable manifest digest (the ``repro inspect`` view)."""
        meta = self.manifest["automaton"]
        out = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "key": self.key,
            "ruleset_fingerprint": self.fingerprint,
            "automaton": meta["name"],
            "states": meta["num_states"],
            "transitions": meta["num_transitions"],
            "backend": self.backend,
            "options": json.dumps(self.manifest["options"], sort_keys=True),
        }
        program = self.manifest.get("program")
        if program:
            out.update(
                encoding=program["scheme"],
                code_length=program["code_length"],
                cam_entries=int(self.arrays["enc_offsets"][-1]),
                tiles=len(self.arrays["tile_mode"]),
            )
        return out

    # -- construction from a pipeline product -----------------------------
    @classmethod
    def from_compiled(cls, compiled: CompiledRuleset) -> "CompiledArtifact":
        """Serialize a pipeline product (stride-1 rulesets only)."""
        if compiled.options.stride != 1:
            raise ArtifactError(
                f"stride-{compiled.options.stride} rulesets are not "
                f"serializable in artifact format v{ARTIFACT_FORMAT_VERSION}"
            )
        automaton = compiled.automaton
        n = len(automaton)
        from repro.sim.backends.base import KernelTables

        if compiled.kernel is not None and hasattr(
            compiled.kernel, "export_tables"
        ):
            tables = compiled.kernel.export_tables()
            backend = compiled.kernel.name
        else:
            tables = KernelTables.from_automaton(automaton)
            backend = None

        arrays: dict[str, np.ndarray] = {
            "state_class_words": _class_words(automaton.states),
            "state_start": np.array(
                [_START_CODE[s.start] for s in automaton.states], dtype=np.uint8
            ),
            "state_reporting": np.array(
                [s.reporting for s in automaton.states], dtype=bool
            ),
            "succ_offsets": tables.succ_offsets.astype(np.int64),
            "succ_targets": tables.succ_targets.astype(np.int64),
            "match_words": tables.match_words.astype("<u8"),
        }
        if tables.succ_words is not None:
            # packed successor rows (not from a sparse kernel): warm
            # loads skip the per-state derivation loop
            arrays["succ_words"] = tables.succ_words.astype("<u8")
        manifest: dict = {
            "format_version": MANIFEST_VERSION,
            "key": compiled.key,
            "ruleset_fingerprint": automaton.fingerprint,
            "options": compiled.options.to_dict(),
            "backend": backend,
            "automaton": {
                "name": automaton.name,
                "num_states": n,
                "num_transitions": automaton.num_transitions(),
                "report_codes": _optional_strings(
                    [s.report_code for s in automaton.states]
                ),
                "state_names": _optional_strings(
                    [s.name for s in automaton.states]
                ),
            },
            "program": None,
        }
        if compiled.program is not None:
            cls._pack_program(compiled.program, manifest, arrays)
        return cls(
            manifest=manifest, arrays=arrays, timings=list(compiled.timings)
        )

    @staticmethod
    def _pack_program(program, manifest: dict, arrays: dict) -> None:
        from repro.core.encoding.multi_zeros import MultiZerosEncoding
        from repro.core.encoding.one_zero import OneZeroEncoding
        from repro.core.encoding.prefix import PrefixEncoding

        choice = program.choice
        encoding = choice.encoding
        enc_meta: dict = {"alphabet_mask": format(encoding.alphabet.mask, "x")}
        if isinstance(encoding, OneZeroEncoding):
            enc_meta["kind"] = "one-zero"
        elif isinstance(encoding, MultiZerosEncoding):
            enc_meta["kind"] = "multi-zeros"
            enc_meta["length"] = encoding.code_length
        elif isinstance(encoding, PrefixEncoding):
            enc_meta.update(
                kind="prefix",
                suffix_length=encoding.suffix_length,
                prefix_length=encoding.prefix_length,
                prefix_zeros=encoding.prefix_zeros,
            )
            assignment = encoding.assignment
            symbols = sorted(assignment)
            arrays["enc_symbols"] = _ints(symbols)
            arrays["enc_clusters"] = _ints(assignment[s][0] for s in symbols)
            arrays["enc_slots"] = _ints(assignment[s][1] for s in symbols)
        else:
            raise ArtifactError(
                f"cannot serialize encoding type {type(encoding).__name__}"
            )

        encodings = program.state_encodings
        arrays["enc_offsets"] = _offsets(se.patterns for se in encodings)
        arrays["enc_patterns"] = np.array(
            [p for se in encodings for p in se.patterns], dtype="<u8"
        )
        arrays["enc_negated"] = np.array([se.negated for se in encodings], bool)

        mapping = program.mapping
        switches = mapping.switches
        arrays.update(
            map_state_switch=mapping.state_switch.astype(np.int64),
            map_state_position=mapping.state_position.astype(np.int64),
            map_state_entries=mapping.state_entries.astype(np.int64),
            map_cross_edges=np.array(
                mapping.cross_edges, dtype=np.int64
            ).reshape(-1, 2),
            switch_mode=np.array(
                [_SWITCH_MODES.index(s.mode) for s in switches], np.uint8
            ),
            switch_entry_count=_ints(s.entry_count for s in switches),
            switch_in=_ints(s.in_signals for s in switches),
            switch_out=_ints(s.out_signals for s in switches),
        )
        arrays["switch_state_offsets"] = _offsets(s.states for s in switches)
        arrays["switch_state_flat"] = _ints(i for s in switches for i in s.states)
        arrays["tile_mode"] = np.array(
            [_TILE_MODES.index(t.mode) for t in mapping.tiles], dtype=np.uint8
        )
        tile_switches = np.full((len(mapping.tiles), 2), -1, dtype=np.int64)
        for i, t in enumerate(mapping.tiles):
            tile_switches[i, : len(t.switch_indices)] = t.switch_indices
        arrays["tile_switches"] = tile_switches

        manifest["program"] = {
            "scheme": choice.scheme,
            "code_length": choice.code_length,
            "alphabet_size": choice.alphabet_size,
            "mean_class_size_no": choice.mean_class_size_no,
            "encoding": enc_meta,
            "mapping": {
                "automaton_name": mapping.automaton_name,
                "code_length": mapping.code_length,
                "num_global_switches": mapping.num_global_switches,
                "oversubscribed_ports": mapping.oversubscribed_ports,
            },
        }

    # -- reconstruction ---------------------------------------------------
    def automaton(self) -> Automaton:
        """Rebuild the :class:`Automaton` (cached per artifact)."""
        if self._automaton is not None:
            return self._automaton
        meta = self.manifest["automaton"]
        n = meta["num_states"]
        codes = meta.get("report_codes") or [None] * n
        names = meta.get("state_names") or [None] * n
        masks = self.arrays["state_class_words"].tobytes()
        start = self.arrays["state_start"].tolist()
        reporting = self.arrays["state_reporting"].tolist()
        offsets = self.arrays["succ_offsets"].tolist()
        targets = self.arrays["succ_targets"].tolist()
        states = [
            STE(
                ste_id=i,
                symbol_class=SymbolClass(
                    int.from_bytes(masks[32 * i : 32 * i + 32], "little")
                ),
                start=_START_KINDS[start[i]],
                reporting=reporting[i],
                report_code=codes[i],
                name=names[i],
            )
            for i in range(n)
        ]
        self._automaton = Automaton(
            name=meta["name"],
            states=states,
            _successors=[
                set(targets[offsets[i] : offsets[i + 1]]) for i in range(n)
            ],
        )
        return self._automaton

    def kernel_tables(self):
        """The prebuilt :class:`KernelTables` (start ids derived)."""
        from repro.sim.backends.base import KernelTables

        start = self.arrays["state_start"]
        codes = self.manifest["automaton"].get("report_codes")
        return KernelTables(
            match_words=self.arrays["match_words"],
            succ_offsets=self.arrays["succ_offsets"],
            succ_targets=self.arrays["succ_targets"],
            start_all=np.flatnonzero(start == 1),
            start_sod=np.flatnonzero(start == 2),
            reporting=self.arrays["state_reporting"].astype(bool),
            report_codes=codes or [None] * len(start),
            succ_words=self.arrays.get("succ_words"),
        )

    def engine(self, backend: str | None = None, **engine_kwargs):
        """A warm :class:`~repro.sim.engine.Engine` for this ruleset.

        ``backend`` overrides the artifact's recorded kernel; ``auto``
        re-runs the policy against the reconstructed automaton.  Kernel
        construction uses the prebuilt tables, so no derivation pass
        (match table, CSR, validation) runs.
        """
        from repro.errors import SimulationError
        from repro.sim.backends import BACKEND_NAMES, get_backend
        from repro.sim.engine import Engine

        automaton = self.automaton()
        recorded = self.backend
        if recorded not in BACKEND_NAMES:
            # a kernel this build no longer has (the numpy bit-parallel
            # one a native compile recorded on a host without the C
            # loop): every kernel reads the same tables, so the compile
            # option decides
            recorded = None
        name = backend or recorded or self.options.backend or "sparse"
        # "native" degrades to a SparseKernel on hosts without the
        # compiled library, so artifacts recorded as "native" stay
        # loadable anywhere
        try:
            rebuild = get_backend(name).from_tables
        except (SimulationError, AttributeError):
            raise ArtifactError(f"unknown kernel backend {name!r}") from None
        kernel = rebuild(automaton, self.kernel_tables())
        return Engine.from_kernel(kernel, **engine_kwargs)

    def program(self):
        """Rebuild the :class:`~repro.core.compiler.CamaProgram`."""
        meta = self.manifest.get("program")
        if not meta:
            raise ArtifactError(
                "this artifact was compiled without the encode/map passes "
                "(no CAMA program to load)"
            )
        try:
            return self._unpack_program(meta)
        except (ReproError, KeyError, IndexError, TypeError, ValueError) as e:
            raise ArtifactError(f"artifact program is malformed: {e!r}") from e

    def _unpack_program(self, meta: dict):
        from repro.core.compiler import CamaProgram
        from repro.core.encoding.encoder import InputEncoder
        from repro.core.encoding.negation import StateEncoding
        from repro.core.encoding.selection import EncodingChoice
        from repro.core.mapping import (
            FCB_POSITIONS,
            RCB_POSITIONS,
            CamaMapping,
            SwitchPlan,
            TilePlan,
        )

        arrays = self.arrays
        automaton = self.automaton()
        encoding = self._rebuild_encoding(meta["encoding"])
        choice = EncodingChoice(
            encoding=encoding,
            scheme=meta["scheme"],
            code_length=meta["code_length"],
            alphabet_size=meta["alphabet_size"],
            mean_class_size_no=meta["mean_class_size_no"],
        )
        offsets = arrays["enc_offsets"].tolist()
        patterns = arrays["enc_patterns"].tolist()
        negated = arrays["enc_negated"].tolist()
        state_encodings = [
            StateEncoding(
                patterns=tuple(patterns[offsets[i] : offsets[i + 1]]),
                negated=negated[i],
            )
            for i in range(len(automaton))
        ]
        sw_offsets = arrays["switch_state_offsets"].tolist()
        sw_flat = arrays["switch_state_flat"].tolist()
        switches = []
        for i, mode_code in enumerate(arrays["switch_mode"]):
            mode = _SWITCH_MODES[mode_code]
            capacity = RCB_POSITIONS if mode == "rcb" else FCB_POSITIONS
            switches.append(
                SwitchPlan(
                    index=i,
                    mode=mode,
                    capacity_states=capacity,
                    capacity_entries=capacity,
                    states=sw_flat[sw_offsets[i] : sw_offsets[i + 1]],
                    entry_count=int(arrays["switch_entry_count"][i]),
                    in_signals=int(arrays["switch_in"][i]),
                    out_signals=int(arrays["switch_out"][i]),
                )
            )
        tiles = [
            TilePlan(
                index=i,
                mode=_TILE_MODES[mode_code],
                switch_indices=[s for s in switch_pair if s >= 0],
            )
            for i, (mode_code, switch_pair) in enumerate(
                zip(arrays["tile_mode"].tolist(), arrays["tile_switches"].tolist())
            )
        ]
        map_meta = meta["mapping"]
        mapping = CamaMapping(
            automaton_name=map_meta["automaton_name"],
            code_length=map_meta["code_length"],
            switches=switches,
            tiles=tiles,
            state_switch=arrays["map_state_switch"].astype(np.int64),
            state_position=arrays["map_state_position"].astype(np.int64),
            state_entries=arrays["map_state_entries"].astype(np.int64),
            cross_edges=[tuple(e) for e in arrays["map_cross_edges"].tolist()],
            num_global_switches=map_meta["num_global_switches"],
            oversubscribed_ports=map_meta["oversubscribed_ports"],
        )
        return CamaProgram(
            automaton=automaton,
            choice=choice,
            state_encodings=state_encodings,
            mapping=mapping,
            encoder=InputEncoder(encoding),
        )

    def _rebuild_encoding(self, meta: dict):
        from repro.core.encoding.multi_zeros import MultiZerosEncoding
        from repro.core.encoding.one_zero import OneZeroEncoding
        from repro.core.encoding.prefix import PrefixEncoding

        alphabet = SymbolClass(int(meta["alphabet_mask"], 16))
        kind = meta["kind"]
        if kind == "one-zero":
            return OneZeroEncoding(alphabet)
        if kind == "multi-zeros":
            return MultiZerosEncoding(alphabet, meta["length"])
        if kind != "prefix":
            raise ArtifactError(f"unknown encoding kind {kind!r}")
        columns = ("enc_symbols", "enc_clusters", "enc_slots")
        symbols, clusters, slots = (self.arrays[c].tolist() for c in columns)
        return PrefixEncoding(
            dict(zip(symbols, zip(clusters, slots))),
            meta["suffix_length"],
            meta["prefix_length"],
            meta["prefix_zeros"],
        )

    # -- validation -------------------------------------------------------
    def validate(self) -> "CompiledArtifact":
        """Structural checks; raises :class:`ArtifactError` when broken."""
        manifest, arrays = self.manifest, self.arrays
        version = manifest.get("format_version")
        if version != MANIFEST_VERSION:
            raise ArtifactError(
                f"artifact manifest format version {version!r} is not "
                f"supported (this build reads v{MANIFEST_VERSION}); recompile"
            )
        for key in ("key", "ruleset_fingerprint"):  # used as table keys
            if not isinstance(manifest.get(key), str):
                raise ArtifactError(f"artifact manifest {key!r} is not a string")
        meta = manifest.get("automaton")
        n = meta.get("num_states") if isinstance(meta, dict) else None
        if (
            type(n) is not int
            or n < 0
            or not isinstance(meta.get("name"), str)
            or not _strings_or_none(meta.get("report_codes"), n)
            or not _strings_or_none(meta.get("state_names"), n)
            or not isinstance(manifest.get("backend"), (str, type(None)))
            or not isinstance(manifest.get("program") or {}, dict)
            or not isinstance(manifest.get("options"), dict)
        ):
            raise ArtifactError("artifact manifest is malformed")
        required = list(_ARRAY_DTYPES)[:-1]  # succ_words is optional
        if manifest.get("program"):
            required += _PROGRAM_ARRAYS
        missing = [name for name in required if name not in arrays]
        if missing:
            raise ArtifactError(
                f"artifact lacks required arrays: {', '.join(missing)}"
            )
        from repro.sim.backends import bitwords

        words = bitwords.num_words(n)
        shapes = dict(
            state_class_words=(n, 4), state_start=(n,), state_reporting=(n,),
            succ_offsets=(n + 1,), match_words=(256, words), succ_words=(n, words),
        )  # fmt: skip
        if any(
            name in arrays
            and (
                arrays[name].dtype.str != dtype
                or shapes.get(name, arrays[name].shape) != arrays[name].shape
            )
            for name, dtype in _ARRAY_DTYPES.items()
        ):
            raise ArtifactError("artifact arrays are inconsistent; recompile")
        # a bit past state n-1 would make the C loop read past its tables
        packed = [arrays[a] for a in ("match_words", "succ_words") if a in arrays]
        if n % 64 and any((rows[:, -1] >> n % 64).any() for rows in packed):
            raise ArtifactError("artifact bitmaps set bits past the last state")
        if n and int(arrays["state_start"].max()) >= len(_START_KINDS):
            raise ArtifactError("artifact start kinds are out of range")
        offsets = arrays["succ_offsets"]
        targets = arrays["succ_targets"]
        # a truncated targets array would otherwise be silently sliced
        # short in automaton(), dropping transitions — wrong answers,
        # not a crash, so it must be caught here
        if (
            int(offsets[0]) != 0
            or targets.shape != (int(offsets[-1]),)
            or (offsets[1:] < offsets[:-1]).any()
            or (targets.size and (targets.min() < 0 or targets.max() >= n))
        ):
            raise ArtifactError("artifact transition tables are inconsistent")
        try:
            self.options  # validates option names/values
        except ReproError as exc:
            # e.g. an option a future build added without a format bump:
            # unreadable-for-us must mean miss-and-recompile
            raise ArtifactError(
                f"artifact pipeline options are not readable: {exc}"
            ) from exc
        return self

    def verify(self) -> "CompiledArtifact":
        """Deep check: fingerprints and derived tables must match content.

        Recomputes the language fingerprint from the automaton arrays,
        re-binds the content-address ``key`` to (content, options) —
        so a manifest key can never point a shared store at different
        rules — and re-derives the packed match words and successor
        rows, which covers the engine execution path (the CSR, start
        kinds, reporting flags and report codes are inside the
        fingerprint).  Program arrays are checked for consistency
        (per-state CAM entry counts must match the placement's), not
        re-derived: re-running the mapper would be a recompile.
        """
        self.validate()
        automaton = self.automaton()
        actual = automaton.fingerprint
        if actual != self.fingerprint:
            raise ArtifactError(
                "artifact content does not match its recorded fingerprint "
                f"({actual[:12]}... != {self.fingerprint[:12]}...)"
            )
        actual_key = ruleset_fingerprint(automaton, self.options)
        if actual_key != self.key:
            raise ArtifactError(
                "artifact key does not match its content and options "
                f"({actual_key[:12]}... != {self.key[:12]}...)"
            )
        from repro.sim.backends import bitwords
        from repro.sim.backends.base import KernelTables

        derived = KernelTables.from_automaton(automaton).match_words
        if not np.array_equal(derived, self.arrays["match_words"]):
            raise ArtifactError(
                "artifact match tables do not match its symbol classes"
            )
        rows = self.arrays.get("succ_words")
        if rows is not None and not np.array_equal(
            rows, bitwords.successor_rows(*automaton.successor_csr(), len(rows))
        ):
            raise ArtifactError("artifact successor rows disagree with its CSR")
        if self.manifest.get("program") and not np.array_equal(
            np.diff(self.arrays["enc_offsets"]),
            self.arrays["map_state_entries"],
        ):
            raise ArtifactError("artifact CAM entries disagree with its placement")
        return self

    # -- (de)serialization -------------------------------------------------
    def _frame_parts(self) -> list:
        version = ARTIFACT_FORMAT_VERSION
        header = {"format_version": version, "manifest": self.manifest}
        return array_frame_parts(header, self.arrays)

    def to_bytes(self) -> bytes:
        """The single-frame form: a store file's and an upload's bytes."""
        return b"".join(self._frame_parts())

    def save(self, path: str | Path) -> Path:
        """Write atomically to ``path`` (tmp file + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # one tmp file per thread: two threads saving one key share none
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}"
        )
        try:
            with open(tmp, "wb") as fh:
                fh.writelines(self._frame_parts())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def from_bytes(cls, data) -> "CompiledArtifact":
        # the views outlive the call, a connection's buffer may not
        if not isinstance(data, bytes):
            data = bytes(data)
        return cls._read(np.frombuffer(data, np.uint8), "artifact bytes")

    @classmethod
    def load(cls, path: str | Path) -> "CompiledArtifact":
        try:
            buffer = np.fromfile(path, dtype=np.uint8)
        except FileNotFoundError:
            raise ArtifactError(f"no such artifact: {path}") from None
        except OSError as exc:
            raise ArtifactError(f"{path}: unreadable artifact ({exc})") from exc
        return cls._read(buffer, str(path))

    @classmethod
    def _read(cls, buffer: np.ndarray, what: str) -> "CompiledArtifact":
        if bytes(buffer[:2]) == b"PK":
            raise ArtifactError(
                f"{what}: not a compiled artifact of format version "
                f"{ARTIFACT_FORMAT_VERSION}: it is a zip, as format version "
                "1 wrote; recompile"
            )
        try:
            header, arrays = decode_array_frame(buffer)
        except FrameError as exc:
            raise ArtifactError(
                f"{what}: corrupt or truncated artifact ({exc})"
            ) from None
        version = header.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"{what}: artifact format version {version!r} is not "
                f"supported (this build reads v{ARTIFACT_FORMAT_VERSION}); "
                "recompile"
            )
        manifest = header.get("manifest")
        if not isinstance(manifest, dict):
            raise ArtifactError(f"{what}: not a compiled artifact")
        return cls(manifest=manifest, arrays=arrays).validate()
