"""Serializable compiled-ruleset artifacts ("compile once, load anywhere").

A :class:`CompiledArtifact` is the on-disk / on-the-wire form of one
pipeline product: a single ``.npz`` file (a zip of plain numpy arrays,
``allow_pickle=False`` end to end) holding every table the execution
kernels and the CAMA program need, plus a JSON *manifest* (format
version, content-addressed key, pipeline options, encoding parameters,
pass timings).  Loading an artifact rebuilds the
:class:`~repro.automata.nfa.Automaton`, a warm
:class:`~repro.sim.engine.Engine` (kernels are constructed from the
prebuilt :class:`~repro.sim.backends.base.KernelTables`, skipping every
derivation pass), and — when the encode/map passes ran — the full
:class:`~repro.core.compiler.CamaProgram`.

Artifacts are *content-addressed*: the manifest key is
``ruleset_fingerprint(automaton, options)``, so one byte of key names
exactly one (ruleset, compile-configuration) pair and a store lookup
can never return an artifact compiled under different options.

Anything unreadable — truncated files, non-zip bytes, missing arrays,
inconsistent shapes, or an incompatible ``format_version`` — raises
:class:`~repro.errors.ArtifactError`; cache layers treat that as a miss
and recompile.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.automata.nfa import STE, Automaton, StartKind
from repro.automata.symbols import SymbolClass
from repro.compile.fingerprint import ruleset_fingerprint
from repro.compile.ir import CompiledRuleset, PipelineOptions
from repro.errors import ArtifactError, ReproError

#: bumped on any incompatible change to the manifest or array schema
ARTIFACT_FORMAT_VERSION = 1

_START_KINDS = (StartKind.NONE, StartKind.ALL_INPUT, StartKind.START_OF_DATA)
_START_CODE = {kind: code for code, kind in enumerate(_START_KINDS)}

#: arrays every artifact must carry (program arrays are conditional)
_REQUIRED_ARRAYS = (
    "state_class_words",
    "state_start",
    "state_reporting",
    "succ_offsets",
    "succ_targets",
    "match_words",
)

_SWITCH_MODES = ("rcb", "fcb")
_TILE_MODES = ("rcb16", "fcb16", "mode32")


def _class_words(states) -> np.ndarray:
    """Per-state 256-bit symbol-class masks as (n, 4) little uint64."""
    words = np.zeros((len(states), 4), dtype="<u8")
    for i, ste in enumerate(states):
        mask = ste.symbol_class.mask
        for w in range(4):
            words[i, w] = (mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return words


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
    """

    manifest: dict
    arrays: dict[str, np.ndarray]
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
            "format_version": self.manifest["format_version"],
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
            # packed successor rows from a bit-parallel/native kernel:
            # optional (older artifacts lack it), lets warm loads skip
            # the per-state derivation loop entirely
            arrays["succ_words"] = tables.succ_words.astype("<u8")
        manifest: dict = {
            "format_version": ARTIFACT_FORMAT_VERSION,
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
            "timings": [t.to_dict() for t in compiled.timings],
        }
        if compiled.program is not None:
            cls._pack_program(compiled.program, manifest, arrays)
        return cls(manifest=manifest, arrays=arrays)

    @staticmethod
    def _pack_program(program, manifest: dict, arrays: dict) -> None:
        from repro.core.encoding.multi_zeros import MultiZerosEncoding
        from repro.core.encoding.one_zero import OneZeroEncoding
        from repro.core.encoding.prefix import PrefixEncoding

        choice = program.choice
        encoding = choice.encoding
        enc_meta: dict = {
            "alphabet_mask": format(encoding.alphabet.mask, "x"),
        }
        if isinstance(encoding, OneZeroEncoding):
            enc_meta["kind"] = "one-zero"
        elif isinstance(encoding, MultiZerosEncoding):
            enc_meta["kind"] = "multi-zeros"
            enc_meta["length"] = encoding.code_length
        elif isinstance(encoding, PrefixEncoding):
            enc_meta["kind"] = "prefix"
            enc_meta["suffix_length"] = encoding.suffix_length
            enc_meta["prefix_length"] = encoding.prefix_length
            enc_meta["prefix_zeros"] = encoding.prefix_zeros
            assignment = encoding.assignment
            symbols = sorted(assignment)
            arrays["enc_symbols"] = np.array(symbols, dtype=np.int64)
            arrays["enc_clusters"] = np.array(
                [assignment[s][0] for s in symbols], dtype=np.int64
            )
            arrays["enc_slots"] = np.array(
                [assignment[s][1] for s in symbols], dtype=np.int64
            )
        else:
            raise ArtifactError(
                f"cannot serialize encoding type {type(encoding).__name__}"
            )

        offsets = np.zeros(len(program.state_encodings) + 1, dtype=np.int64)
        patterns: list[int] = []
        negated = np.zeros(len(program.state_encodings), dtype=bool)
        for i, se in enumerate(program.state_encodings):
            patterns.extend(se.patterns)
            offsets[i + 1] = len(patterns)
            negated[i] = se.negated
        arrays["enc_offsets"] = offsets
        arrays["enc_patterns"] = np.array(patterns, dtype="<u8")
        arrays["enc_negated"] = negated

        mapping = program.mapping
        arrays["map_state_switch"] = mapping.state_switch.astype(np.int64)
        arrays["map_state_position"] = mapping.state_position.astype(np.int64)
        arrays["map_state_entries"] = mapping.state_entries.astype(np.int64)
        arrays["map_cross_edges"] = np.array(
            mapping.cross_edges, dtype=np.int64
        ).reshape(-1, 2)
        switches = mapping.switches
        arrays["switch_mode"] = np.array(
            [_SWITCH_MODES.index(s.mode) for s in switches], dtype=np.uint8
        )
        arrays["switch_entry_count"] = np.array(
            [s.entry_count for s in switches], dtype=np.int64
        )
        arrays["switch_in"] = np.array(
            [s.in_signals for s in switches], dtype=np.int64
        )
        arrays["switch_out"] = np.array(
            [s.out_signals for s in switches], dtype=np.int64
        )
        sw_offsets = np.zeros(len(switches) + 1, dtype=np.int64)
        flat: list[int] = []
        for i, s in enumerate(switches):
            flat.extend(s.states)
            sw_offsets[i + 1] = len(flat)
        arrays["switch_state_offsets"] = sw_offsets
        arrays["switch_state_flat"] = np.array(flat, dtype=np.int64)
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
        start = self.arrays["state_start"]
        reporting = self.arrays["state_reporting"]
        mask_bytes = (
            self.arrays["state_class_words"].astype("<u8", copy=False).tobytes()
        )
        states = [
            STE(
                ste_id=i,
                symbol_class=SymbolClass(
                    int.from_bytes(mask_bytes[32 * i : 32 * i + 32], "little")
                ),
                start=_START_KINDS[int(start[i])],
                reporting=bool(reporting[i]),
                report_code=codes[i],
                name=names[i],
            )
            for i in range(n)
        ]
        offsets = self.arrays["succ_offsets"]
        targets = self.arrays["succ_targets"].tolist()
        self._automaton = Automaton(
            name=meta["name"],
            states=states,
            _successors=[
                set(targets[int(offsets[i]) : int(offsets[i + 1])])
                for i in range(n)
            ],
        )
        return self._automaton

    def kernel_tables(self):
        """The prebuilt :class:`KernelTables` (start ids derived)."""
        from repro.sim.backends.base import KernelTables

        meta = self.manifest["automaton"]
        n = meta["num_states"]
        start = self.arrays["state_start"]
        codes = meta.get("report_codes") or [None] * n
        return KernelTables(
            match_words=np.ascontiguousarray(
                self.arrays["match_words"], dtype=np.uint64
            ),
            succ_offsets=self.arrays["succ_offsets"],
            succ_targets=self.arrays["succ_targets"],
            start_all=np.nonzero(start == 1)[0].astype(np.int64),
            start_sod=np.nonzero(start == 2)[0].astype(np.int64),
            reporting=self.arrays["state_reporting"].astype(bool),
            report_codes=list(codes),
            succ_words=(
                np.ascontiguousarray(
                    self.arrays["succ_words"], dtype=np.uint64
                )
                if "succ_words" in self.arrays
                else None
            ),
        )

    def engine(self, backend: str | None = None, **engine_kwargs):
        """A warm :class:`~repro.sim.engine.Engine` for this ruleset.

        ``backend`` overrides the artifact's recorded kernel; ``auto``
        re-runs the policy against the reconstructed automaton.  Kernel
        construction uses the prebuilt tables, so no derivation pass
        (match table, CSR, validation) runs.
        """
        from repro.errors import SimulationError
        from repro.sim.backends import get_backend
        from repro.sim.engine import Engine

        automaton = self.automaton()
        name = backend or self.backend or self.options.backend or "sparse"
        # "native" degrades to a plain BitParallelKernel on hosts
        # without the compiled library, so artifacts recorded as
        # "native" stay loadable anywhere
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

        automaton = self.automaton()
        encoding = self._rebuild_encoding(meta["encoding"])
        choice = EncodingChoice(
            encoding=encoding,
            scheme=meta["scheme"],
            code_length=meta["code_length"],
            alphabet_size=meta["alphabet_size"],
            mean_class_size_no=meta["mean_class_size_no"],
        )
        offsets = self.arrays["enc_offsets"]
        patterns = self.arrays["enc_patterns"].tolist()
        negated = self.arrays["enc_negated"]
        state_encodings = [
            StateEncoding(
                patterns=tuple(
                    patterns[int(offsets[i]) : int(offsets[i + 1])]
                ),
                negated=bool(negated[i]),
            )
            for i in range(len(automaton))
        ]

        sw_offsets = self.arrays["switch_state_offsets"]
        sw_flat = self.arrays["switch_state_flat"].tolist()
        switches = []
        for i, mode_code in enumerate(self.arrays["switch_mode"]):
            mode = _SWITCH_MODES[int(mode_code)]
            capacity = RCB_POSITIONS if mode == "rcb" else FCB_POSITIONS
            switches.append(
                SwitchPlan(
                    index=i,
                    mode=mode,
                    capacity_states=capacity,
                    capacity_entries=capacity,
                    states=sw_flat[int(sw_offsets[i]) : int(sw_offsets[i + 1])],
                    entry_count=int(self.arrays["switch_entry_count"][i]),
                    in_signals=int(self.arrays["switch_in"][i]),
                    out_signals=int(self.arrays["switch_out"][i]),
                )
            )
        tiles = [
            TilePlan(
                index=i,
                mode=_TILE_MODES[int(mode_code)],
                switch_indices=[
                    int(s) for s in self.arrays["tile_switches"][i] if s >= 0
                ],
            )
            for i, mode_code in enumerate(self.arrays["tile_mode"])
        ]
        map_meta = meta["mapping"]
        mapping = CamaMapping(
            automaton_name=map_meta["automaton_name"],
            code_length=map_meta["code_length"],
            switches=switches,
            tiles=tiles,
            state_switch=self.arrays["map_state_switch"].astype(np.int64),
            state_position=self.arrays["map_state_position"].astype(np.int64),
            state_entries=self.arrays["map_state_entries"].astype(np.int64),
            cross_edges=[
                (int(u), int(v)) for u, v in self.arrays["map_cross_edges"]
            ],
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
        try:
            assignment = {
                int(symbol): (int(cluster), int(slot))
                for symbol, cluster, slot in zip(
                    self.arrays["enc_symbols"],
                    self.arrays["enc_clusters"],
                    self.arrays["enc_slots"],
                )
            }
        except KeyError as exc:
            raise ArtifactError(
                "prefix-encoded artifact lacks its assignment arrays"
            ) from exc
        return PrefixEncoding(
            assignment,
            meta["suffix_length"],
            meta["prefix_length"],
            meta["prefix_zeros"],
        )

    # -- validation -------------------------------------------------------
    def validate(self) -> "CompiledArtifact":
        """Structural checks; raises :class:`ArtifactError` when broken."""
        version = self.manifest.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"artifact format version {version!r} is not supported "
                f"(this build reads v{ARTIFACT_FORMAT_VERSION}); recompile"
            )
        for key in ("key", "ruleset_fingerprint", "options", "automaton"):
            if key not in self.manifest:
                raise ArtifactError(f"artifact manifest lacks {key!r}")
        for key in ("key", "ruleset_fingerprint"):  # used as table keys
            if not isinstance(self.manifest[key], str):
                raise ArtifactError(f"artifact manifest {key!r} is not a string")
        missing = [a for a in _REQUIRED_ARRAYS if a not in self.arrays]
        if missing:
            raise ArtifactError(
                f"artifact lacks required arrays: {', '.join(missing)}"
            )
        meta = self.manifest["automaton"]
        n = meta.get("num_states")
        from repro.sim.backends import bitwords

        if (
            not isinstance(n, int)
            or self.arrays["state_class_words"].shape != (n, 4)
            or self.arrays["state_start"].shape != (n,)
            or self.arrays["state_reporting"].shape != (n,)
            or self.arrays["succ_offsets"].shape != (n + 1,)
            or self.arrays["match_words"].shape != (256, bitwords.num_words(n))
            or (
                "succ_words" in self.arrays
                and self.arrays["succ_words"].shape
                != (n, bitwords.num_words(n))
            )
        ):
            raise ArtifactError("artifact arrays are inconsistent; recompile")
        offsets = self.arrays["succ_offsets"]
        targets = self.arrays["succ_targets"]
        # a truncated targets array would otherwise be silently sliced
        # short in automaton(), dropping transitions — wrong answers,
        # not a crash, so it must be caught here
        if (
            int(offsets[0]) != 0
            or targets.shape != (int(offsets[-1]),)
            or (np.diff(offsets) < 0).any()
            or (targets.size and (targets.min() < 0 or targets.max() >= n))
        ):
            raise ArtifactError("artifact transition tables are inconsistent")
        try:
            self.options  # validates option names/values
        except ReproError as exc:
            # e.g. an option added by a future build without a format
            # bump: unreadable-for-us must mean miss-and-recompile, so
            # it has to surface as ArtifactError like every other skew
            raise ArtifactError(
                f"artifact pipeline options are not readable: {exc}"
            ) from exc
        return self

    def verify(self) -> "CompiledArtifact":
        """Deep check: fingerprints and derived tables must match content.

        Recomputes the language fingerprint from the automaton arrays,
        re-binds the content-address ``key`` to (content, options) —
        so a manifest key can never point a shared store at different
        rules — and re-derives the packed match words, which fully
        covers the engine execution path (the CSR, start kinds,
        reporting flags and report codes are all inside the
        fingerprint).  Program arrays are checked for internal
        consistency (per-state CAM entry counts must match the
        placement's), not re-derived: re-running the mapper would be a
        recompile.
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
        from repro.sim.backends.base import KernelTables

        derived = KernelTables.from_automaton(automaton).match_words
        stored = np.ascontiguousarray(
            self.arrays["match_words"], dtype=np.uint64
        )
        if derived.shape != stored.shape or not np.array_equal(derived, stored):
            raise ArtifactError(
                "artifact match tables do not match its symbol classes"
            )
        if self.manifest.get("program"):
            entries = self.arrays["enc_offsets"]
            per_state = entries[1:] - entries[:-1]
            if not np.array_equal(
                per_state, self.arrays["map_state_entries"]
            ):
                raise ArtifactError(
                    "artifact CAM entries disagree with its placement"
                )
        return self

    # -- (de)serialization -------------------------------------------------
    def to_bytes(self) -> bytes:
        """The single-file ``.npz`` wire form (manifest included)."""
        buffer = io.BytesIO()
        self._write(buffer)
        return buffer.getvalue()

    def _write(self, fh) -> None:
        np.savez(
            fh,
            manifest=np.array(json.dumps(self.manifest)),
            **self.arrays,
        )

    def save(self, path: str | Path) -> Path:
        """Write atomically to ``path`` (tmp file + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                self._write(fh)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompiledArtifact":
        return cls._read(io.BytesIO(data), what="artifact bytes")

    @classmethod
    def load(cls, path: str | Path) -> "CompiledArtifact":
        path = Path(path)
        if not path.exists():
            raise ArtifactError(f"no such artifact: {path}")
        with open(path, "rb") as fh:
            return cls._read(fh, what=str(path))

    @classmethod
    def _read(cls, fh, *, what: str) -> "CompiledArtifact":
        try:
            with np.load(fh, allow_pickle=False) as npz:
                if "manifest" not in npz.files:
                    raise ArtifactError(f"{what}: not a compiled artifact")
                manifest = json.loads(str(npz["manifest"]))
                arrays = {
                    name: npz[name]
                    for name in npz.files
                    if name != "manifest"
                }
        except ArtifactError:
            raise
        except Exception as exc:  # zip/format/JSON corruption
            raise ArtifactError(
                f"{what}: corrupt or truncated artifact ({exc})"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactError(f"{what}: artifact manifest is not an object")
        return cls(manifest=manifest, arrays=arrays).validate()
