"""Incremental compilation: per-component artifacts, composed engines.

Transitions never cross weakly-connected components (the property the
sharded dispatcher already exploits), so a ruleset's compile output is
exactly the disjoint union of its components' compile outputs.  This
module turns that into a cache strategy:

* each reporting component is compiled to its own
  :class:`~repro.compile.artifact.CompiledArtifact`, keyed by
  :func:`~repro.compile.fingerprint.component_fingerprint` — a key that
  survives pattern reordering and any edit to *other* components;
* a cheap JSON *composition manifest*, keyed by the whole ruleset's
  :func:`~repro.compile.fingerprint.ruleset_fingerprint`, records which
  component keys compose the ruleset;
* recompiling after an edit detects unchanged components by fingerprint
  *before any pipeline pass runs* and reuses their cached artifacts;
  only genuinely new components go through the pipeline — concurrently,
  via a process pool, when more than one needs compiling;
* the composed result rebuilds dispatcher-ready shards by merging
  cached per-component kernel tables block-diagonally
  (:meth:`KernelTables.concat`) instead of re-deriving anything.

:func:`apply_update` is the automaton-level edit operation behind
``Ruleset.update(add=..., remove=...)`` and the server's hot-swap op:
it drops the components of removed report codes and merges freshly
parsed patterns, preserving every untouched component's relative state
order — and therefore its fingerprint.
"""

from __future__ import annotations

import multiprocessing
from collections import OrderedDict
from dataclasses import dataclass

from repro.automata.analysis import (
    balanced_component_groups,
    connected_components,
)
from repro.automata.nfa import Automaton
from repro.compile.artifact import CompiledArtifact
from repro.compile.fingerprint import (
    component_fingerprint,
    composition_key,
    ruleset_fingerprint,
)
from repro.compile.ir import PipelineOptions
from repro.compile.pipeline import compile_ruleset
from repro.compile.store import ArtifactStore
from repro.errors import ConfigError
from repro.telemetry.metrics import default_registry

MANIFEST_FORMAT_VERSION = 1

#: in-memory component-artifact cache entries kept when no store backs
#: the compiler (and as a first level in front of the store)
DEFAULT_MEMORY_ENTRIES = 512

_COMPONENTS = default_registry().counter(
    "repro_incremental_components_total",
    "Per-component incremental compile outcomes "
    "(memory/disk = cached artifact reused, compiled = pipeline ran)",
    ("outcome",),
)


def _compile_component_job(task):
    """Process-pool job: compile one component, return its artifact
    bytes and pass timings.

    Top-level so it pickles under any multiprocessing start method; the
    artifact round-trips as bytes because engines and kernels do not
    cross process boundaries.
    """
    sub, options = task
    compiled = compile_ruleset(sub, options)
    return CompiledArtifact.from_compiled(compiled).to_bytes(), compiled.timings


@dataclass
class ComponentCompile:
    """One component's share of a composed ruleset."""

    key: str
    #: the component's state ids in the *parent* automaton (sorted)
    states: list[int]
    artifact: CompiledArtifact
    reused: bool


@dataclass
class ComposedRuleset:
    """The output of an incremental compile: components + composition.

    Functionally equivalent to a monolithic
    :class:`~repro.compile.ir.CompiledRuleset` of the same automaton —
    :meth:`build_shards` produces shard/engine pairs whose merged scan
    reports are byte-identical to a cold compile (the dispatcher's
    report merge orders by ``(cycle, global state id)``, erasing any
    difference in per-shard state layout).
    """

    automaton: Automaton
    options: PipelineOptions
    #: artifact key of the whole ruleset (state-order dependent)
    key: str
    #: language fingerprint of the whole ruleset (no options)
    fingerprint: str
    #: order-independent digest of the component key set
    composition_key: str
    components: list[ComponentCompile]
    #: states in non-reporting components, dropped from execution
    num_dropped_states: int = 0

    @property
    def reused_components(self) -> int:
        return sum(1 for c in self.components if c.reused)

    @property
    def compiled_components(self) -> int:
        return sum(1 for c in self.components if not c.reused)

    @property
    def component_keys(self) -> tuple[str, ...]:
        return tuple(c.key for c in self.components)

    def manifest(self) -> dict:
        """The JSON composition manifest persisted next to the artifacts."""
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "key": self.key,
            "ruleset_fingerprint": self.fingerprint,
            "composition_key": self.composition_key,
            "options": self.options.to_dict(),
            "num_states": len(self.automaton),
            "num_dropped_states": self.num_dropped_states,
            "components": [
                {"key": c.key, "states": list(c.states)}
                for c in self.components
            ],
        }

    def build_shards(self, num_shards: int, backend=None):
        """Compose dispatcher-ready ``(shards, engines)`` from the cache.

        Components are packed into shard groups by the exact greedy
        rule :func:`make_shards` uses (same membership), but each
        shard's automaton and kernel tables are *composed* from the
        cached per-component artifacts — merged states plus a
        block-diagonal :meth:`KernelTables.concat` — so no table is
        re-derived from scratch.  A group's components are laid out by
        their first global state id, so a group whose components are
        contiguous id ranges runs in global state order (one such
        shard passes its reports through the dispatcher unmerged).
        """
        from repro.service.sharding import Shard
        from repro.sim.backends import KernelTables, get_backend
        from repro.sim.engine import Engine

        rebuild = get_backend(
            backend or self.options.backend or "sparse"
        ).from_tables
        groups = balanced_component_groups(
            [c.states for c in self.components], num_shards
        )
        shards: list = []
        engines: list = []
        for index, member_indices in enumerate(groups):
            merged = Automaton(name=f"{self.automaton.name}.shard{index}")
            global_ids: list[int] = []
            tables: list[KernelTables] = []
            sizes: list[int] = []
            for ci in sorted(
                member_indices, key=lambda ci: self.components[ci].states[0]
            ):
                part = self.components[ci]
                merged.merge(part.artifact.automaton())
                global_ids.extend(part.states)
                tables.append(part.artifact.kernel_tables())
                sizes.append(len(part.states))
            shards.append(
                Shard(index=index, automaton=merged, global_ids=global_ids)
            )
            engines.append(
                Engine.from_kernel(
                    rebuild(merged, KernelTables.concat(tables, sizes))
                )
            )
        return shards, engines


@dataclass
class IncrementalStats:
    reused_memory: int = 0
    reused_disk: int = 0
    compiled: int = 0

    @property
    def reused(self) -> int:
        return self.reused_memory + self.reused_disk


class IncrementalCompiler:
    """Compile rulesets component-by-component, reusing cached artifacts.

    Backed by an :class:`ArtifactStore` when one is given (one artifact
    file per component plus ``<ruleset key>.manifest.json`` sidecars) and
    always by a bounded in-memory artifact LRU, so storeless services
    still get fast updates within one process.

    Only stride-1, non-optimizing option sets are supported: the
    optimizer renumbers states globally and 2-striding fuses symbols
    across positions, either of which would break the per-component
    id arithmetic composition relies on.  (The service layer already
    forces exactly these options for its engines.)
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        options: PipelineOptions | None = None,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        options = options or PipelineOptions()
        if options.stride != 1 or options.optimize:
            raise ConfigError(
                "incremental compilation requires stride=1 and "
                "optimize=False (got stride="
                f"{options.stride}, optimize={options.optimize})"
            )
        self.options = options
        self.store = store
        self.stats = IncrementalStats()
        self._memory: OrderedDict[str, CompiledArtifact] = OrderedDict()
        self._memory_entries = memory_entries

    # -- cache plumbing ---------------------------------------------------

    def _lookup(self, key: str) -> CompiledArtifact | None:
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.reused_memory += 1
            _COMPONENTS.labels("memory").inc()
            return cached
        if self.store is not None:
            artifact = self.store.get(key)
            if artifact is not None:
                self._remember(artifact)
                self.stats.reused_disk += 1
                _COMPONENTS.labels("disk").inc()
                return artifact
        return None

    def _remember(self, artifact: CompiledArtifact) -> None:
        self._memory[artifact.key] = artifact
        self._memory.move_to_end(artifact.key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    # -- the incremental path ---------------------------------------------

    def plan(self, automaton: Automaton):
        """``(components, keys, cached)`` for ``automaton``'s reporting
        components — the unchanged-component detection step, run before
        any pipeline pass.  ``cached[i]`` is the reusable artifact or
        None when component ``i`` must be compiled."""
        automaton.validate()
        components = [
            comp
            for comp in connected_components(automaton)
            if any(automaton.states[s].reporting for s in comp)
        ]
        keys = [
            component_fingerprint(automaton, comp, self.options)
            for comp in components
        ]
        cached = [self._lookup(key) for key in keys]
        return components, keys, cached

    def compile(
        self,
        automaton: Automaton,
        *,
        workers: int = 1,
        mp_start_method: str | None = None,
    ) -> ComposedRuleset:
        """Compile ``automaton``, reusing every cached component.

        Missing components compile through the full pipeline — in a
        process pool of up to ``workers`` when more than one is missing
        (the same fan-out model as the dispatcher's sharded scans).
        """
        components, keys, cached = self.plan(automaton)
        missing = [i for i, artifact in enumerate(cached) if artifact is None]
        if missing:
            subs = [
                automaton.subautomaton(
                    components[i], name=f"{automaton.name}.c{i}"
                )
                for i in missing
            ]
            fresh = self._compile_missing(
                subs, workers=workers, mp_start_method=mp_start_method
            )
            for i, artifact in zip(missing, fresh):
                if artifact.key != keys[i]:
                    raise ConfigError(
                        "component artifact key mismatch: expected "
                        f"{keys[i][:12]}..., compiled {artifact.key[:12]}..."
                    )
                cached[i] = artifact
                self._remember(artifact)
            if self.store is not None:
                # one write batch: the store evicts once, after all of it
                self.store.put_many(fresh)
            self.stats.compiled += len(missing)
            for _ in missing:
                _COMPONENTS.labels("compiled").inc()
        compiled = set(missing)
        parts = [
            ComponentCompile(
                key=keys[i],
                states=components[i],
                artifact=cached[i],
                reused=i not in compiled,
            )
            for i in range(len(components))
        ]
        composed = ComposedRuleset(
            automaton=automaton,
            options=self.options,
            key=ruleset_fingerprint(automaton, self.options),
            fingerprint=automaton.fingerprint,
            composition_key=composition_key(keys),
            components=parts,
            num_dropped_states=len(automaton)
            - sum(len(c) for c in components),
        )
        if self.store is not None:
            self.store.put_manifest(composed.key, composed.manifest())
        return composed

    def _compile_missing(
        self,
        subs: list[Automaton],
        *,
        workers: int,
        mp_start_method: str | None,
    ) -> list[CompiledArtifact]:
        if workers > 1 and len(subs) > 1:
            ctx = multiprocessing.get_context(mp_start_method)
            tasks = [(sub, self.options) for sub in subs]
            with ctx.Pool(processes=min(workers, len(subs))) as pool:
                results = pool.map(_compile_component_job, tasks)
            artifacts = []
            for blob, timings in results:
                artifacts.append(CompiledArtifact.from_bytes(blob))
                artifacts[-1].timings = timings
            return artifacts
        return [
            CompiledArtifact.from_compiled(compile_ruleset(sub, self.options))
            for sub in subs
        ]


def incremental_compile(
    automaton: Automaton,
    options: PipelineOptions | None = None,
    *,
    store: ArtifactStore | None = None,
    workers: int = 1,
) -> ComposedRuleset:
    """One-call front door: compile ``automaton`` incrementally against
    ``store`` (cold when the store is empty or None)."""
    return IncrementalCompiler(store, options).compile(
        automaton, workers=workers
    )


# -- ruleset edits --------------------------------------------------------


def apply_update(
    automaton: Automaton,
    *,
    add=None,
    remove=None,
    name: str | None = None,
) -> Automaton:
    """A new automaton with patterns added and/or report codes removed.

    ``remove`` names report codes; each removed code drops its whole
    connected component.  A component carrying both removed and kept
    codes is refused — silently deleting the kept patterns would be a
    correctness trap.  ``add`` is a mapping ``{code: pattern}`` (or a
    plain list of patterns, each reporting its own text), parsed exactly
    like :func:`~repro.automata.glushkov.compile_regex_set`.

    Untouched components keep their relative state order, so their
    :func:`component_fingerprint` — and the incremental compiler's
    cached artifacts — survive the edit.
    """
    from repro.automata.glushkov import compile_regex_set

    if not add and not remove:
        raise ConfigError("apply_update needs add= and/or remove=")
    new_name = name or automaton.name
    keep: list[int]
    if remove:
        remove_set = {str(code) for code in remove}
        keep = []
        found: set[str] = set()
        for comp in connected_components(automaton):
            codes = {
                automaton.states[s].report_code
                for s in comp
                if automaton.states[s].reporting
            }
            hit = codes & remove_set
            if not hit:
                keep.extend(comp)
                continue
            kept_codes = codes - remove_set
            if kept_codes:
                raise ConfigError(
                    f"cannot remove {sorted(hit)}: component also reports "
                    f"{sorted(kept_codes)}, which would be deleted with it"
                )
            found |= hit
        unknown = remove_set - found
        if unknown:
            raise ConfigError(
                f"cannot remove unknown report codes: {sorted(unknown)}"
            )
        keep.sort()
    else:
        keep = list(range(len(automaton)))
    updated = Automaton(name=new_name)
    if keep:
        updated = automaton.subautomaton(keep, name=new_name)
    if add:
        updated.merge(compile_regex_set(add, name=f"{new_name}.add"))
    if not len(updated):
        raise ConfigError("update would remove every pattern")
    updated.validate()
    return updated
