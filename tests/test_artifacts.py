"""Tests for serialized compiled-ruleset artifacts and the disk store.

The acceptance property: a ruleset compiled and saved in one process,
loaded in another, produces *byte-identical* reports to an in-process
compile — checked here against both a fresh engine and the naive
differential oracle, including a genuine cross-process round trip.
Corruption, truncation and format-version skew must surface as
:class:`ArtifactError` (never a wrong answer) — a derandomized fuzz of
mutated frames checks it — and the on-disk store must hold its LRU
byte budget.
"""

import io
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_run
from repro.api.config import ScanConfig
from repro.automata import compile_regex_set
from repro.automata.nfa import Automaton, StartKind
from repro.compile import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactStore,
    CompiledArtifact,
    IncrementalCompiler,
    PipelineOptions,
    compile_ruleset,
)
from repro.core.machine import CamaMachine
from repro.errors import ArtifactError
from repro.frames import FRAME_MAGIC, FRAME_PREFIX, PREFIX_BYTES, decode_array_frame
from repro.service import MatchingService
from repro.sim.backends import NativeKernel
from repro.sim.engine import Engine
from repro.workloads.registry import get_benchmark

RULES = {"r1": "(a|b)e*cd+", "r2": "abc", "r3": "x+y"}
STREAM = b"aecdabcxxyaecddabcyx" * 50


def manual_automaton() -> Automaton:
    """Start kinds, negated classes, report codes, multiple components."""
    a = Automaton(name="manual")
    s0 = a.add_state("[ab]", start=StartKind.START_OF_DATA)
    s1 = a.add_state("[^ab]", reporting=True, report_code="neg")
    s2 = a.add_state("*", start=StartKind.ALL_INPUT, name="anything")
    s3 = a.add_state("[a-m]", reporting=True, report_code="lower")
    s4 = a.add_state("[xyz]", start=StartKind.ALL_INPUT, reporting=True)
    a.add_transition(s0, s1)
    a.add_transition(s1, s1)
    a.add_transition(s2, s3)
    a.add_transition(s3, s3)
    a.add_transition(s4, s4)
    return a


def rulesets():
    return [
        ("regex", compile_regex_set(RULES, name="artifact-tests")),
        ("manual", manual_automaton()),
        ("registry", get_benchmark("Bro217", scale=1 / 64).automaton),
    ]


def keys_of(reports):
    return [(r.cycle, r.state_id, r.code) for r in reports]


@pytest.fixture(scope="module")
def compiled_regex():
    return compile_ruleset(
        compile_regex_set(RULES, name="artifact-tests"), backend="auto"
    )


@pytest.fixture(scope="module")
def artifact_bytes(compiled_regex):
    return CompiledArtifact.from_compiled(compiled_regex).to_bytes()


@pytest.fixture(scope="module")
def native_bytes():
    """A kernel with packed successor rows, a CAMA program and a state
    count that leaves padding bits in the last word."""
    automaton = compile_regex_set(RULES, name="native-artifact")
    compiled = compile_ruleset(automaton, backend="native")
    # the native kernel's tables on any host: one without the C loop
    # compiles the sparse kernel, which has no packed successor rows
    compiled.kernel = NativeKernel(compiled.automaton)
    artifact = CompiledArtifact.from_compiled(compiled)
    assert "succ_words" in artifact.arrays and artifact.num_states % 64
    return artifact.to_bytes()


class TestRoundTrip:
    @pytest.mark.parametrize("label,automaton", rulesets())
    def test_reports_identical_and_oracle_checked(self, label, automaton):
        compiled = compile_ruleset(automaton, backend="auto")
        loaded = CompiledArtifact.from_bytes(
            CompiledArtifact.from_compiled(compiled).to_bytes()
        )
        fresh = loaded.engine().run(STREAM)
        direct = Engine(automaton).run(STREAM)
        oracle = oracle_run(automaton, STREAM)
        assert keys_of(fresh.reports) == keys_of(direct.reports)
        assert keys_of(fresh.reports) == keys_of(oracle.reports)
        assert fresh.stats.num_reports == oracle.num_reports

    @pytest.mark.parametrize("backend", ["sparse", "native"])
    def test_backend_override_on_load(self, artifact_bytes, backend):
        loaded = CompiledArtifact.from_bytes(artifact_bytes)
        engine = loaded.engine(backend=backend)
        direct = Engine(loaded.automaton(), backend=backend)
        # "native" names the sparse kernel on a host without the library
        assert engine.backend_name == direct.backend_name
        assert keys_of(engine.run(STREAM).reports) == keys_of(
            direct.run(STREAM).reports
        )

    def test_a_recorded_bitparallel_kernel_loads_as_native(self, native_bytes):
        # format-2 artifacts written before the numpy bit-parallel kernel
        # went record it for a native compile on a host without the C
        # loop; their arrays are the ones the C loop reads
        header, body = _split(native_bytes)
        header["manifest"]["backend"] = "bitparallel"
        blob = _join(header, body)
        loaded = CompiledArtifact.from_bytes(blob)
        engine = loaded.engine()
        direct = Engine(loaded.automaton(), backend="native")
        assert engine.backend_name == direct.backend_name
        expected = keys_of(direct.run(STREAM).reports)
        assert keys_of(engine.run(STREAM).reports) == expected
        # an upload under the default (auto) config scans the same
        with MatchingService(ScanConfig()) as service:
            handle, _ = service.register_artifact(blob)
            assert keys_of(service.scan(handle, STREAM).reports) == expected

    def test_a_bitparallel_compile_option_is_unreadable(self, native_bytes):
        # the option is gone: a store treats such an artifact as a miss
        header, body = _split(native_bytes)
        header["manifest"]["options"]["backend"] = "bitparallel"
        with pytest.raises(ArtifactError, match="not readable"):
            CompiledArtifact.from_bytes(_join(header, body))

    def test_file_round_trip(self, compiled_regex, tmp_path):
        path = CompiledArtifact.from_compiled(compiled_regex).save(
            tmp_path / "rules.npz"
        )
        loaded = CompiledArtifact.load(path)
        assert loaded.key == compiled_regex.key
        assert loaded.verify() is loaded

    def test_automaton_reconstruction_is_faithful(self, compiled_regex):
        loaded = CompiledArtifact.from_bytes(
            CompiledArtifact.from_compiled(compiled_regex).to_bytes()
        )
        original = compiled_regex.automaton
        rebuilt = loaded.automaton()
        assert rebuilt.name == original.name
        assert len(rebuilt) == len(original)
        assert list(rebuilt.transitions()) == list(original.transitions())
        for a, b in zip(original.states, rebuilt.states):
            assert a.symbol_class == b.symbol_class
            assert a.start is b.start
            assert a.reporting == b.reporting
            assert a.report_code == b.report_code
            assert a.name == b.name

    @pytest.mark.parametrize("label,automaton", rulesets())
    def test_program_reconstruction_lock_step(self, label, automaton):
        compiled = compile_ruleset(automaton, backend=None)
        loaded = CompiledArtifact.from_bytes(
            CompiledArtifact.from_compiled(compiled).to_bytes()
        )
        program = loaded.program()
        assert program.summary() == compiled.program.summary()
        assert program.state_encodings == compiled.program.state_encodings
        data = STREAM[:200]
        machine_reports = CamaMachine(program).run(data).reports
        direct_reports = CamaMachine(compiled.program).run(data).reports
        assert keys_of(machine_reports) == keys_of(direct_reports)

    def test_engine_only_artifact_has_no_program(self, compiled_regex):
        compiled = compile_ruleset(
            compiled_regex.automaton, PipelineOptions(backend="sparse")
        )
        compiled.program = None  # serialize a kernel-only compilation
        artifact = CompiledArtifact.from_compiled(compiled)
        loaded = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="no CAMA program"):
            loaded.program()
        loaded.engine()  # the kernel tables are still there

    def test_stride2_not_serializable(self, compiled_regex):
        compiled = compile_ruleset(
            compiled_regex.automaton, stride=2, backend="sparse"
        )
        with pytest.raises(ArtifactError, match="stride-2"):
            CompiledArtifact.from_compiled(compiled)


class TestCorruption:
    def test_truncated_bytes_rejected(self, artifact_bytes):
        for cut in (0, 10, len(artifact_bytes) // 2, len(artifact_bytes) - 7):
            with pytest.raises(ArtifactError, match="corrupt|artifact"):
                CompiledArtifact.from_bytes(artifact_bytes[:cut])

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ArtifactError):
            CompiledArtifact.from_bytes(b"\x00\x01garbage" * 100)

    def test_version_1_zip_rejected_by_name(self):
        buffer = io.BytesIO()
        np.savez(buffer, manifest=np.array('{"format_version": 1}'))
        with pytest.raises(ArtifactError, match="format version 1"):
            CompiledArtifact.from_bytes(buffer.getvalue())

    def test_container_version_mismatch_rejected(self, artifact_bytes):
        header, body = _split(artifact_bytes)
        header["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        with pytest.raises(ArtifactError, match="format version 3"):
            CompiledArtifact.from_bytes(_join(header, body))

    def test_padding_bits_past_the_last_state_rejected(self, native_bytes):
        # the C loop would read successor rows past its tables
        artifact = CompiledArtifact.from_bytes(native_bytes)
        words = artifact.arrays["match_words"].copy()
        words[ord("a"), -1] |= np.uint64(1 << 63)
        artifact.arrays["match_words"] = words
        with pytest.raises(ArtifactError, match="past the last state"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_verify_detects_successor_row_tamper(self, native_bytes):
        artifact = CompiledArtifact.from_bytes(native_bytes)
        rows = artifact.arrays["succ_words"].copy()
        rows[0, 0] ^= np.uint64(1)
        artifact.arrays["succ_words"] = rows
        tampered = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="successor rows"):
            tampered.verify()

    def test_non_artifact_npz_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(ArtifactError, match="not a compiled artifact"):
            CompiledArtifact.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such artifact"):
            CompiledArtifact.load(tmp_path / "absent.npz")

    def test_version_mismatch_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        with pytest.raises(ArtifactError, match="format version"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_missing_array_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        del artifact.arrays["match_words"]
        with pytest.raises(ArtifactError, match="lacks required arrays"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_inconsistent_shapes_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["state_reporting"] = artifact.arrays[
            "state_reporting"
        ][:-1]
        with pytest.raises(ArtifactError, match="inconsistent"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_verify_detects_content_tamper(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        reporting = artifact.arrays["state_reporting"].copy()
        reporting[0] = not reporting[0]
        artifact.arrays["state_reporting"] = reporting
        tampered = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="fingerprint"):
            tampered.verify()

    def test_verify_detects_match_table_tamper(self, artifact_bytes):
        # match words are derived data outside the fingerprint: verify
        # must re-derive them, not trust them
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["match_words"] = np.zeros_like(
            artifact.arrays["match_words"]
        )
        tampered = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="match tables"):
            tampered.verify()

    def test_verify_detects_key_swap(self, artifact_bytes):
        # a manifest key pointing at some other ruleset's cache slot
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.manifest["key"] = "f" * 64
        swapped = CompiledArtifact.from_bytes(artifact.to_bytes())
        with pytest.raises(ArtifactError, match="key"):
            swapped.verify()

    def test_truncated_transition_targets_rejected(self, artifact_bytes):
        # silently sliced-short successor lists would mean *wrong
        # matches*, not a crash — validate() must refuse them
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["succ_targets"] = artifact.arrays["succ_targets"][:-1]
        with pytest.raises(ArtifactError, match="transition tables"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_out_of_range_transition_target_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        targets = artifact.arrays["succ_targets"].copy()
        targets[0] = artifact.num_states + 5
        artifact.arrays["succ_targets"] = targets
        with pytest.raises(ArtifactError, match="transition tables"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_wrong_match_word_count_rejected(self, artifact_bytes):
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.arrays["match_words"] = np.zeros((256, 99), dtype=np.uint64)
        with pytest.raises(ArtifactError, match="inconsistent"):
            CompiledArtifact.from_bytes(artifact.to_bytes())

    def test_unknown_option_field_is_artifact_error(self, artifact_bytes):
        # a future build's option without a format bump must read as
        # "unreadable artifact" (a cache miss), not escape as ReproError
        artifact = CompiledArtifact.from_bytes(artifact_bytes)
        artifact.manifest["options"]["vectorize"] = True
        with pytest.raises(ArtifactError, match="options"):
            CompiledArtifact.from_bytes(artifact.to_bytes())


class TestStore:
    def test_put_get_round_trip(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = CompiledArtifact.from_compiled(compiled_regex)
        store.put(artifact)
        assert store.contains(artifact.key)
        loaded = store.get(artifact.key)
        assert loaded is not None and loaded.key == artifact.key
        assert store.stats.hits == 1

    def test_get_missing_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("f" * 64) is None
        assert store.stats.misses == 1

    def test_bad_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(Exception, match="bad artifact key"):
            store.path("../escape")

    def test_corrupt_entry_deleted_and_counted(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = CompiledArtifact.from_compiled(compiled_regex)
        path = store.put(artifact)
        path.write_bytes(path.read_bytes()[:100])  # truncate in place
        assert store.get(artifact.key) is None
        assert store.stats.invalid == 1
        assert not path.exists(), "corrupt artifact should be deleted"

    def test_lru_byte_budget_eviction(self, tmp_path):
        automata = {
            name: compile_regex_set({name: pattern}, name=name)
            for name, pattern in (
                ("one", "abc+de"),
                ("two", "(x|y)z*w"),
                ("three", "q+rs"),
            )
        }
        artifacts = {
            name: CompiledArtifact.from_compiled(
                compile_ruleset(a, backend="sparse")
            )
            for name, a in automata.items()
        }
        one_size = len(artifacts["one"].to_bytes())
        store = ArtifactStore(tmp_path, max_bytes=int(one_size * 2.5))
        store.put(artifacts["one"])
        store.put(artifacts["two"])
        assert store.get(artifacts["one"].key) is not None  # refresh LRU
        store.put(artifacts["three"])  # over budget: evict LRU = "two"
        assert store.stats.evictions >= 1
        assert store.contains(artifacts["three"].key)
        assert store.contains(artifacts["one"].key)
        assert not store.contains(artifacts["two"].key)

    def test_version_1_file_is_a_counted_miss(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = CompiledArtifact.from_compiled(compiled_regex)
        path = store.path(artifact.key)
        with open(path, "wb") as fh:  # what format version 1 left there
            np.savez(fh, manifest=np.array('{"format_version": 1}'))
        assert store.get(artifact.key) is None
        assert (store.stats.invalid, store.stats.misses) == (1, 1)
        assert not path.exists()

    def test_clear(self, compiled_regex, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(CompiledArtifact.from_compiled(compiled_regex))
        store.clear()
        assert len(store) == 0 and store.total_bytes() == 0


class TestCrossProcess:
    def test_save_in_one_process_load_in_another(self, tmp_path):
        """The acceptance flow: compile+save in a *fresh* interpreter,
        load here, byte-identical reports vs in-process compile."""
        out = tmp_path / "xproc.npz"
        script = f"""
import json, sys
from repro.automata import compile_regex_set
from repro.compile import CompiledArtifact, compile_ruleset

rules = json.loads({json.dumps(json.dumps(RULES))})
automaton = compile_regex_set(rules, name="artifact-tests")
compiled = compile_ruleset(automaton, backend="auto")
CompiledArtifact.from_compiled(compiled).save({str(out)!r})
print(compiled.key)
"""
        src_dir = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        loaded = CompiledArtifact.load(out)
        assert loaded.key == result.stdout.strip()
        automaton = compile_regex_set(RULES, name="artifact-tests")
        fresh = loaded.engine().run(STREAM)
        direct = Engine(automaton).run(STREAM)
        oracle = oracle_run(automaton, STREAM)
        assert keys_of(fresh.reports) == keys_of(direct.reports)
        assert keys_of(fresh.reports) == keys_of(oracle.reports)


def _split(blob: bytes) -> tuple[dict, bytes]:
    """An artifact frame's header (references left as written) and the
    attachment bytes after it."""
    _, _, header_bytes, _, _ = FRAME_PREFIX.unpack_from(blob)
    end = PREFIX_BYTES + header_bytes
    return json.loads(blob[PREFIX_BYTES:end]), blob[end:]


def _join(header: dict, body: bytes, count_delta=0, length_delta=0) -> bytes:
    """A frame of an edited header and ``body``, its checksum renewed:
    the edit reaches the loader's checks past the checksum."""
    text = json.dumps(header).encode()
    prefix = FRAME_PREFIX.pack(
        FRAME_MAGIC,
        len(header["arrays"]) + 1 + count_delta,
        len(text),
        len(body) + length_delta,
        10,
    )
    frame = prefix + text + body[:-4]
    return frame + zlib.crc32(frame).to_bytes(4, "little")


class TestFrameFormat:
    def test_file_upload_and_to_bytes_are_one_frame(self, compiled_regex, tmp_path):
        artifact = CompiledArtifact.from_compiled(compiled_regex)
        blob = artifact.to_bytes()
        assert artifact.save(tmp_path / "rules.cama").read_bytes() == blob
        assert blob[0] == FRAME_MAGIC
        header, _ = _split(blob)
        assert header["format_version"] == ARTIFACT_FORMAT_VERSION == 2
        assert "timings" not in header["manifest"]
        assert set(header["arrays"]) == set(artifact.arrays)

    def test_views_are_aligned_and_read_only(self, artifact_bytes, tmp_path):
        path = tmp_path / "rules.cama"
        path.write_bytes(artifact_bytes)
        # the same frame one byte into a buffer: every view is copied
        shifted = np.frombuffer(b"\0" + artifact_bytes, np.uint8)[1:]
        for arrays in (
            CompiledArtifact.load(path).arrays,
            CompiledArtifact.from_bytes(artifact_bytes).arrays,
            CompiledArtifact.from_bytes(memoryview(b"\0" + artifact_bytes)[1:]).arrays,
            decode_array_frame(shifted)[1],
        ):
            for name, array in arrays.items():
                # an empty array has no data to misalign
                assert not array.size or (
                    array.ctypes.data % array.dtype.itemsize == 0
                ), name
                assert not array.flags.writeable, name

    def test_changed_bit_fails_the_checksum(self, native_bytes, tmp_path):
        # a bit flipped in a stored table must be a miss, not a wrong
        # match: one bit of the last (1-byte) array, which no
        # structural check would notice
        store = ArtifactStore(tmp_path)
        artifact = CompiledArtifact.from_bytes(native_bytes)
        path = store.put(artifact)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 1
        path.write_bytes(bytes(blob))
        assert store.get(artifact.key) is None
        assert store.stats.invalid == 1

    def test_unknown_dtype_and_wrong_length_rejected(self, artifact_bytes):
        for field, value in (("dtype", "<f8"), ("dtype", ">u8"), ("shape", [7])):
            header, body = _split(artifact_bytes)
            entry = header["arrays"]["match_words"]
            entry[{"dtype": 0, "shape": 1}[field]] = value
            with pytest.raises(ArtifactError, match="match_words"):
                CompiledArtifact.from_bytes(_join(header, body))

    def test_equal_compiles_write_equal_files(self, tmp_path):
        """Two cold compiles of one ruleset, in two processes, into two
        fresh stores write byte-identical artifact files."""
        script = f"""
from repro.compile import ArtifactStore, IncrementalCompiler, PipelineOptions
from repro.workloads.registry import get_benchmark

automaton = get_benchmark("Bro217", scale=1 / 64).automaton
store = ArtifactStore({str(tmp_path / "a")!r})
IncrementalCompiler(store, PipelineOptions(backend="auto")).compile(automaton)
"""
        src_dir = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        here = ArtifactStore(tmp_path / "b")
        automaton = get_benchmark("Bro217", scale=1 / 64).automaton
        IncrementalCompiler(here, PipelineOptions(backend="auto")).compile(automaton)
        there = ArtifactStore(tmp_path / "a")
        assert here.keys() == there.keys() and len(here.keys()) > 1
        for key in here.keys():
            assert here.path(key).read_bytes() == there.path(key).read_bytes()


#: what a fuzzed artifact runs on, against the oracle
FUZZ_INPUT = STREAM[:96]
#: ways to break a frame; the header edits re-serialize the header
#: (dropping its alignment padding, so views land misaligned too)
MUTATIONS = ("flip", "header-flip", "truncate", "extend", "dtype", "shape",
             "count", "lengths", "reference")  # fmt: skip


def _mutate(blob: bytes, kind: str, data) -> bytes:
    _, _, header_bytes, _, _ = FRAME_PREFIX.unpack_from(blob)
    if kind in ("flip", "header-flip"):
        end = PREFIX_BYTES + header_bytes if kind == "header-flip" else len(blob)
        at = data.draw(st.integers(0, end - 1))
        return blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=64))
    header, body = _split(blob)
    name = data.draw(st.sampled_from(sorted(header["arrays"])))
    entry = header["arrays"][name]
    if kind == "dtype":
        entry[0] = data.draw(
            st.sampled_from(["<u8", "<i8", "|u1", "|b1", "<u4", ">u8", "<f8", "", 8, None])
        )
    elif kind == "shape":
        entry[1] = data.draw(
            st.one_of(
                st.lists(st.integers(-2, 300), max_size=3),
                st.just(entry[1][::-1]),
                st.just([*entry[1], 1]),
                st.just(7),
            )
        )
    elif kind == "reference":
        entry[2] = {"$bytes": entry[2]["$bytes"] + data.draw(st.integers(-9, 9))}
    else:
        delta = data.draw(st.integers(-3, 3).filter(bool))
        if kind == "count":
            return _join(header, body, count_delta=delta)
        return _join(header, body, length_delta=delta)
    return _join(header, body)


class TestFuzzedArtifacts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_frame_is_an_error_or_a_correct_engine(self, native_bytes, data):
        """Every mutation is an ArtifactError or loads to an engine that
        runs (built before the deep check, as a store load builds it)
        and, once verified, agrees with the oracle."""
        mutated = _mutate(native_bytes, data.draw(st.sampled_from(MUTATIONS)), data)
        try:
            loaded = CompiledArtifact.from_bytes(mutated)
            run = loaded.engine().run(FUZZ_INPUT)
            loaded.verify()
        except ArtifactError:
            return
        expected = oracle_run(loaded.automaton(), FUZZ_INPUT)
        assert keys_of(run.reports) == keys_of(expected.reports)
