"""Golden ruleset keys: fingerprints, artifact keys and component keys
are pinned as literals, so a store or handle written by an earlier
build stays valid and every process computes the same key.

A router and its nodes compute handles in different processes, so the
keys must not depend on the hash seed or on set iteration order; CI runs
this file under ``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``.
"""

from repro.automata import compile_regex_set
from repro.compile import PipelineOptions, component_fingerprint, ruleset_fingerprint
from repro.service.ruleset import artifact_options
from repro.sim.backends.native import native_available

BARE = "aa2304a639d4851b56510b8d199c7cf59b24fbe3b2916c41a4c53fa73ce304a8"
DEFAULT_OPTIONS = "7e90a151549ad58eed20d17c2527ebf8088e0bace82f4466c2f6f03c5d5ae631"
NATIVE_OPTIONS = "6fe63a2a4caf4344ee5501c75a6211a1534bf220653d90e4ace96e8694e78f50"
COMPONENT = "eaff30b3f5a931817ec16a51afaea48341b61fd161922d7a18ab1f4b8b686760"
COMPONENT_NATIVE = (
    "11bb29d566ace2d77c4f9faf087a720e11d44a04fc3b3a2e7cece71e0dd9b370"
)


def golden_rules():
    return compile_regex_set(
        {"r1": "(a|b)e*cd+", "r2": "x[0-9]+y", "r3": "^st?u"}, name="golden"
    )


def test_bare_fingerprint():
    rules = golden_rules()
    assert (len(rules), rules.num_transitions()) == (12, 15)
    assert ruleset_fingerprint(rules) == rules.fingerprint == BARE


def test_artifact_keys():
    rules = golden_rules()
    assert ruleset_fingerprint(rules, PipelineOptions()) == DEFAULT_OPTIONS
    assert ruleset_fingerprint(rules, artifact_options("native")) == (
        NATIVE_OPTIONS
    )


def test_component_fingerprint():
    rules = golden_rules()
    component = [8, 9, 10, 11]
    assert component_fingerprint(rules, component) == COMPONENT
    assert component_fingerprint(rules, component[::-1]) == COMPONENT
    assert (
        component_fingerprint(rules, component, artifact_options("native"))
        == COMPONENT_NATIVE
    )
    # the keyed form equals the standalone sub-automaton's
    assert rules.subautomaton(component).fingerprint == COMPONENT


def artifact_digest(artifacts) -> str:
    """SHA-256 over compiled artifacts' content, pass timings excluded.

    Per artifact: the manifest without ``timings`` (canonical JSON),
    then every array's name, dtype, shape and bytes, in name order.
    ``to_bytes()`` is no stand-in: the manifest carries wall-clock pass
    timings, so it differs between runs.
    """
    import hashlib
    import json

    h = hashlib.sha256()
    for artifact in artifacts:
        manifest = {k: v for k, v in artifact.manifest.items() if k != "timings"}
        h.update(json.dumps(manifest, sort_keys=True).encode())
        for name in sorted(artifact.arrays):
            array = artifact.arrays[name]
            h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
            h.update(array.tobytes())
    return h.hexdigest()


#: every component artifact of a cold incremental compile, pinned so a
#: faster compile cannot change what it writes
COMPILED_DIGESTS = {
    ("Snort", "native"): (
        "3f248da9dc25b7801ade5695de53386fca1d8d24f7480f82c79ea147caae0737"
    ),
    ("Ranges1", "sparse"): (
        "2be8903d9fd7da96f772bb5f72eae5b8a2eb47851cfe69308a719fc6295130b8"
    ),
    ("TCP", "native"): (
        "d6d8de40cccb8cfd82c1cb8f69c66c872ecb3ae8784c9f5f2b2158f21ffce332"
    ),
    ("Dotstar03", None): (
        "91079a65e418b40a046ba22d94c8d085a8c9460c39982d53bb97e4ea87813053"
    ),
}


def test_component_artifacts_are_pinned(tmp_path):
    from repro.compile import ArtifactStore, IncrementalCompiler
    from repro.workloads.registry import get_benchmark

    for (name, backend), expected in COMPILED_DIGESTS.items():
        if backend == "native" and not native_available():
            # a host without the C loop compiles the sparse kernel's
            # tables: other arrays, another digest
            continue
        automaton = get_benchmark(name, 1 / 32).automaton
        # backend None compiles no kernel: the tables come from
        # KernelTables.from_automaton
        options = PipelineOptions(optimize=False, stride=1, backend=backend)
        compiler = IncrementalCompiler(
            ArtifactStore(tmp_path / f"{name}-{backend}"), options
        )
        composed = compiler.compile(automaton)
        assert artifact_digest(c.artifact for c in composed.components) == (
            expected
        ), (name, backend)
