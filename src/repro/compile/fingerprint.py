"""Ruleset fingerprints: the cache keys of compiled artifacts.

A *ruleset fingerprint* digests an automaton's language-relevant
content — every state's symbol-class mask, start kind, reporting flag
and report code, plus the full transition relation — and deliberately
excludes its name and STE display names, so re-loading the same rules
under a different label still hits every cache.  The bare form is the
automaton's own memoized name, :attr:`~repro.automata.nfa.Automaton.
fingerprint`: computed once per automaton object, which it seals.

Compiled *artifacts* additionally depend on how they were compiled:
stride, backend hint, optimization and encoding knobs all change the
output, so :func:`ruleset_fingerprint` mixes the
:class:`~repro.compile.ir.PipelineOptions` digest into the key when
options are given.  Fingerprints with different options can therefore
never alias one artifact (the ``test_fingerprint_covers_options``
regression locks this in).  Every form runs the one serializer,
:func:`~repro.automata.nfa.language_digest`.
"""

from __future__ import annotations

import hashlib

from repro.automata.nfa import Automaton, language_digest
from repro.compile.ir import PipelineOptions


def ruleset_fingerprint(
    automaton: Automaton, options: PipelineOptions | None = None
) -> str:
    """A stable hex digest of the automaton's language-relevant content.

    The bare form is :attr:`Automaton.fingerprint` — the automaton's
    memoized name, which keys the service's ruleset table.  With
    ``options``, the digest also covers the pipeline-relevant compile
    options (stride, backend hint, optimization and encoding flags):
    use this form to key compiled *artifacts*.  It is not memoized.
    """
    if options is None:
        return automaton.fingerprint
    return language_digest(automaton, suffix=_options_suffix(options))


def _options_suffix(options: PipelineOptions | None) -> bytes:
    if options is None:
        return b""
    digest = options.digest().encode()
    return b"\x00options" + len(digest).to_bytes(2, "little") + digest


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
    return language_digest(
        automaton, sorted(set(component)), _options_suffix(options)
    )


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
