"""Ruleset fingerprints: the cache keys of compiled artifacts.

A *ruleset fingerprint* digests an automaton's language-relevant
content — every state's symbol-class mask, start kind, reporting flag
and report code, plus the full transition relation — and deliberately
excludes its name and STE display names, so re-loading the same rules
under a different label still hits every cache.

Compiled *artifacts* additionally depend on how they were compiled:
stride, backend hint, optimization and encoding knobs all change the
output, so :func:`ruleset_fingerprint` mixes the
:class:`~repro.compile.ir.PipelineOptions` digest into the key when
options are given.  Fingerprints with different options can therefore
never alias one artifact (the ``test_fingerprint_covers_options``
regression locks this in).
"""

from __future__ import annotations

import hashlib

from repro.automata.nfa import Automaton
from repro.compile.ir import PipelineOptions


def ruleset_fingerprint(
    automaton: Automaton, options: PipelineOptions | None = None
) -> str:
    """A stable hex digest of the automaton's language-relevant content.

    With ``options``, the digest also covers the pipeline-relevant
    compile options (stride, backend hint, optimization and encoding
    flags) — use this form to key compiled *artifacts*; the bare form
    keys the ruleset's *language* (the service's ruleset table, whose
    records each own their compiled engines).
    """
    h = hashlib.sha256()
    h.update(len(automaton).to_bytes(8, "little"))
    for ste in automaton.states:
        h.update(ste.symbol_class.mask.to_bytes(32, "little"))
        # variable-length fields are length-prefixed so shifted record
        # boundaries cannot make different rulesets serialize alike
        start = ste.start.value.encode()
        h.update(len(start).to_bytes(1, "little"))
        h.update(start)
        h.update(b"\x01" if ste.reporting else b"\x00")
        code = (ste.report_code or "").encode()
        h.update(len(code).to_bytes(4, "little"))
        h.update(code)
    for u, v in automaton.transitions():
        h.update(u.to_bytes(8, "little"))
        h.update(v.to_bytes(8, "little"))
    if options is not None:
        _mix_options(h, options)
    return h.hexdigest()


def _mix_options(h: "hashlib._Hash", options: PipelineOptions) -> None:
    digest = options.digest().encode()
    h.update(b"\x00options")
    h.update(len(digest).to_bytes(2, "little"))
    h.update(digest)


def component_fingerprint(
    automaton: Automaton,
    component: list[int],
    options: PipelineOptions | None = None,
) -> str:
    """Digest of one connected component as a standalone ruleset.

    Byte-identical to ``ruleset_fingerprint(automaton.subautomaton(
    component), options)`` — the incremental compiler's cache keys must
    match what a cold per-component compile would produce — but computed
    directly on the parent automaton, so detecting unchanged components
    never materializes a sub-automaton (that is O(total transitions)
    per component; this is O(component)).

    Components inherit the parent's *relative* state order, which is
    what makes these keys stable under pattern reordering: permuting the
    patterns of a ruleset shifts each component's absolute ids but never
    reorders states within a component, so every component fingerprint
    — and hence :func:`composition_key` — is unchanged.
    """
    keep = sorted(set(component))
    remap = {old: new for new, old in enumerate(keep)}
    h = hashlib.sha256()
    h.update(len(keep).to_bytes(8, "little"))
    for old in keep:
        ste = automaton.states[old]
        h.update(ste.symbol_class.mask.to_bytes(32, "little"))
        start = ste.start.value.encode()
        h.update(len(start).to_bytes(1, "little"))
        h.update(start)
        h.update(b"\x01" if ste.reporting else b"\x00")
        code = (ste.report_code or "").encode()
        h.update(len(code).to_bytes(4, "little"))
        h.update(code)
    # subautomaton's transitions() iterates sources in local-id order
    # with sorted successors; the remap is monotonic, so sorting by old
    # id reproduces that exact byte order.
    for old in keep:
        u = remap[old]
        for v_old in sorted(automaton.successors(old)):
            v = remap.get(v_old)
            if v is None:
                continue
            h.update(u.to_bytes(8, "little"))
            h.update(v.to_bytes(8, "little"))
    if options is not None:
        _mix_options(h, options)
    return h.hexdigest()


def composition_key(component_keys) -> str:
    """Order-independent digest of a set of component fingerprints.

    Keys (any iterable of hex strings) are sorted before hashing, so
    any enumeration order of the same components — and any pattern
    order producing them — yields the same composition key.  Compile
    options need no extra mixing: each component key already embeds the
    options digest.
    """
    ordered = sorted(component_keys)
    h = hashlib.sha256()
    h.update(len(ordered).to_bytes(8, "little"))
    for key in ordered:
        raw = key.encode()
        h.update(len(raw).to_bytes(2, "little"))
        h.update(raw)
    return h.hexdigest()
