"""Incremental maintenance of closures, products, and checkers (§4.4).

The synthesis loop of §4 re-verifies ``M_a^c ∥ chaos(M_l^i)`` after every
learning step.  Each step touches only a handful of states of the
learned model ``M_l^i`` — one new transition, a few refusals — yet the
seed implementation rebuilt the chaotic closure, re-explored the full
product state space, and re-ran every fixpoint from scratch, making the
loop quadratic in practice.  This module carries all three structures
across iterations:

:class:`ClosureCache`
    Definition 9's closure decomposes per base state: the transitions
    leaving ``(s,0)``/``(s,1)`` depend only on ``s``'s local knowledge
    (outgoing transitions, refusals, labels).  The cache keeps the
    closure's maps, re-derives the transition group of exactly the
    states the learning step touched (named by the model's change
    journal), and reports them as the *dirty* closure states.

:class:`IncrementalProduct`
    The n-ary synchronous product, kept as its reachable joint states
    with their edges plus the exact breadth-first search of the product.
    Joint states built from a dirty local state are re-derived and the
    search resumes at the shallowest level whose expansion changed;
    joint states it no longer reaches are dropped.  The matching
    discipline of Definition 3 depends only on the components' *static*
    signal alphabets, so a left fold over the component transitions
    reproduces :func:`~repro.automata.composition.compose` /
    :func:`~repro.automata.composition.compose_all` exactly — which the
    optional ``validate`` mode re-checks against a full recompose,
    falling back to the from-scratch result on any mismatch.  The first
    (cold) exploration runs sharded with ``parallelism=K`` (see
    :mod:`repro.automata.sharding`), bit-identical to the sequential
    exploration for every ``K``.

:class:`IncrementalVerifier`
    Ties both together with the model checker's warm start
    (:class:`~repro.logic.checker.ModelChecker` with ``warm_from``):
    dirty closure states make dirty product states make checker seeds,
    and each formula is re-evaluated only where its inputs changed.

Soundness of the dirtiness propagation: a joint state's outgoing edges
are a function of its component-local transition groups, so a joint
state all of whose locals kept their groups verbatim has verbatim-equal
edges and labels; the checker then only needs seeds for the remaining
(changed or new) product states.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..logic.checker import ModelChecker

from ..errors import CompositionError, ModelError
from .analysis import BreadthFirstIndex
from .automaton import Automaton, State, Transition
from .chaos import (
    CHAOS_PROPOSITION,
    S_ALL,
    S_DELTA,
    ClosureState,
    chaotic_core_transitions,
    closure_state_transitions,
)
from .composition import Semantics, compose, compose_all, composable
from .incomplete import IncompleteAutomaton
from .interaction import InteractionUniverse
from .interning import StateInterner, mask_of_flags, mask_of_ids, resolve_dense_product
from ..obs.tracer import NULL_TRACER
from .sharding import (
    FLAT_PROCESS_WORKLOAD_FLOOR,
    SEQUENTIAL_WORKLOAD_FLOOR,
    ShardReport,
    WorkerPool,
    check_strategy,
    get_pool,
    resolve_checker_parallelism,
    resolve_parallelism,
    resolve_product_strategy,
    select_strategy,
    shard_of,
)

__all__ = [
    "ClosureUpdate",
    "ClosureCache",
    "ProductUpdate",
    "IncrementalProduct",
    "VerificationStep",
    "IncrementalVerifier",
]

#: Below this many dirty closure groups, the cache rebuilds inline even
#: when a worker pool is available (pool dispatch would dominate).
_CLOSURE_PARALLEL_FLOOR = 16

#: A warm product update patches in place while it invalidates at most
#: this share of the reachable joint states (or fewer than the floor
#: below); a larger delta re-explores from scratch.
_PRODUCT_PATCH_SHARE = 0.5
_PRODUCT_PATCH_FLOOR = 64


# --------------------------------------------------------------------- closure


@dataclass(frozen=True)
class ClosureUpdate:
    """One incremental closure step."""

    closure: Automaton
    dirty_states: frozenset[State]  #: closure states whose edges/labels changed
    reused_groups: int
    rebuilt_groups: int


class ClosureCache:
    """Maintains ``chaos(M_l^i)`` across learning steps of one model.

    ``update`` produces an automaton equal (up to name) to
    :func:`~repro.automata.chaos.chaotic_closure` of the given model,
    rebuilding only the per-state transition groups whose local
    knowledge — outgoing transitions, refusals, labels — changed since
    the previous call.
    """

    def __init__(
        self,
        universe: InteractionUniverse,
        *,
        deterministic_implementation: bool = True,
        parallelism: int | None = None,
        strategy: str | None = None,
        pool: WorkerPool | None = None,
        tracer=None,
    ):
        self.universe = universe
        self.deterministic_implementation = deterministic_implementation
        self.parallelism = resolve_parallelism(parallelism)
        self.strategy = check_strategy(strategy)
        self._pool = pool if pool is not None else get_pool()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._core = tuple(sorted(chaotic_core_transitions(universe), key=Transition.sort_key))
        #: per base state: its closure sources and their outgoing
        #: transitions, each slice sorted by :meth:`Transition.sort_key`.
        self._groups: dict[State, dict[State, tuple[Transition, ...]]] = {}
        self._group_sizes: dict[State, int] = {}
        self._signatures: dict[State, tuple] = {}
        self._previous_initial: frozenset[State] | None = None
        # The closure itself, patched in place group by group; every
        # update hands out a snapshot (C-level copies) of these three.
        self._by_source: dict[State, tuple[Transition, ...]] = {S_ALL: self._core}
        self._labels: dict[State, frozenset[str]] = {
            S_ALL: frozenset({CHAOS_PROPOSITION}),
            S_DELTA: frozenset({CHAOS_PROPOSITION}),
        }
        self._states: set[State] = {S_ALL, S_DELTA}
        self._count = len(self._core)
        #: (journal, version) of the last model seen, see
        #: :meth:`IncompleteAutomaton.changes_since`.
        self._lineage: "tuple[list, int] | None" = None

    def _signature(self, incomplete: IncompleteAutomaton, state: State) -> tuple:
        return (
            incomplete.automaton.transitions_from(state),
            incomplete.refused(state),
            incomplete.labels(state),
        )

    def _derive_groups(
        self, incomplete: IncompleteAutomaton, dirty_bases: Sequence[State]
    ) -> "list[tuple[Transition, ...]]":
        """Re-derive the closure groups of the dirty bases, in order.

        Group derivation is a pure function of one base state's local
        knowledge, so a large dirty report (e.g. warm-started knowledge,
        or the first update of a run) can fan out over the shared worker
        pool; ``map`` preserves task order, so the result is independent
        of scheduling.  Small reports rebuild inline — the common case
        after a single learning step is one or two dirty groups.
        """
        derive = lambda state: closure_state_transitions(  # noqa: E731
            incomplete,
            self.universe,
            state,
            deterministic_implementation=self.deterministic_implementation,
        )
        strategy = self.strategy
        if strategy is None:
            strategy = (
                "thread"
                if self.parallelism > 1 and len(dirty_bases) >= _CLOSURE_PARALLEL_FLOOR
                else "sequential"
            )
        if strategy != "thread":  # closures are cheap: never worth pickling
            strategy = "sequential"
        return self._pool.map(strategy, derive, list(dirty_bases), workers=self.parallelism)

    def update(self, incomplete: IncompleteAutomaton, *, name: str | None = None) -> ClosureUpdate:
        with self.tracer.span("closure.update", model=incomplete.name):
            update = self._update(incomplete, name=name)
        self.tracer.count("closure_cache_hits", update.reused_groups)
        self.tracer.count("closure_cache_misses", update.rebuilt_groups)
        return update

    def _update(self, incomplete: IncompleteAutomaton, *, name: str | None = None) -> ClosureUpdate:
        if (
            self.universe.inputs != incomplete.inputs
            or self.universe.outputs != incomplete.outputs
        ):
            raise ModelError(
                f"universe signals (I={sorted(self.universe.inputs)}, "
                f"O={sorted(self.universe.outputs)}) do not match automaton "
                f"{incomplete.name!r} (I={sorted(incomplete.inputs)}, "
                f"O={sorted(incomplete.outputs)})"
            )
        base_states = incomplete.states
        changed = (
            incomplete.changes_since(*self._lineage) if self._lineage is not None else None
        )
        if changed is None:
            # No lineage link to the last model (first update, or a model
            # built some other way): compare every state's knowledge.
            candidates = base_states
            gone = [s for s in self._groups if s not in base_states]
        else:
            # Learning only ever adds states, and the journal names every
            # state whose knowledge it touched.
            candidates = changed
            gone = []
        self._lineage = incomplete.lineage()
        # Canonical order: a frozenset's iteration order varies with the
        # hash seed, and it would leak into the patch order of the
        # closure maps (the ordering bug class audited in
        # ``tests/test_product_sharding.py``).
        dirty_bases: list[State] = []
        for state in sorted(candidates, key=repr):
            signature = self._signature(incomplete, state)
            if self._signatures.get(state) == signature:
                continue
            dirty_bases.append(state)
            self._signatures[state] = signature
        by_source, labels, states = self._by_source, self._labels, self._states
        rebuild = self._derive_groups(incomplete, dirty_bases)
        for state, group in zip(dirty_bases, rebuild):
            for source in self._groups.get(state, ()):
                del by_source[source]
            self._count -= self._group_sizes.get(state, 0)
            per_source: dict[State, list[Transition]] = {}
            for transition in group:
                per_source.setdefault(transition.source, []).append(transition)
            slices = {
                source: tuple(sorted(slice_, key=Transition.sort_key))
                for source, slice_ in per_source.items()
            }
            by_source.update(slices)
            self._groups[state] = slices
            self._group_sizes[state] = len(group)
            self._count += len(group)
            label = incomplete.labels(state)
            for tag in (False, True):
                doubled = ClosureState(state, tag)
                states.add(doubled)
                labels[doubled] = label
        for state in gone:
            for source in self._groups.pop(state):
                del by_source[source]
            self._count -= self._group_sizes.pop(state)
            del self._signatures[state]
            for tag in (False, True):
                doubled = ClosureState(state, tag)
                states.discard(doubled)
                del labels[doubled]
        rebuilt = len(dirty_bases)

        initial = frozenset(incomplete.initial)
        if self._previous_initial is not None and initial != self._previous_initial:
            # Initial-state changes don't alter any state's edges, but be
            # conservative: treat every doubled initial state as dirty.
            dirty_bases.extend(sorted(initial | self._previous_initial, key=repr))
        self._previous_initial = initial

        closure = Automaton._assemble(
            states=frozenset(states),
            inputs=incomplete.inputs,
            outputs=incomplete.outputs,
            by_source=dict(by_source),
            transition_count=self._count,
            initial=[ClosureState(q, tag) for q in incomplete.initial for tag in (False, True)],
            labels=dict(labels),
            name=name if name is not None else f"chaos({incomplete.name})",
        )
        dirty = frozenset(
            ClosureState(s, tag) for s in dirty_bases for tag in (False, True)
        )
        return ClosureUpdate(
            closure=closure,
            dirty_states=dirty,
            reused_groups=len(base_states) - rebuilt,
            rebuilt_groups=rebuilt,
        )


# --------------------------------------------------------------------- product


@dataclass(frozen=True)
class ProductUpdate:
    """One incremental product step."""

    automaton: Automaton
    dirty_states: frozenset[State]  #: joint states rebuilt this step (checker seeds)
    hits: int
    misses: int
    fell_back: bool
    #: merged per-shard dirty reports (one entry per shard, in shard order)
    shards: tuple[ShardReport, ...] = ()
    #: whether the id-space (dense) exploration ran this update
    dense: bool = False
    #: interner size after the update (0 on the legacy dict path)
    dense_states: int = 0
    #: 64-bit words of the packed reachable-set bitset (0 on the legacy path)
    bitset_words: int = 0


def _joint_edges(
    joint: tuple,
    components: Sequence[Automaton],
    in_prefix: Sequence[frozenset[str]],
    out_prefix: Sequence[frozenset[str]],
    strict: bool,
) -> tuple[tuple[Transition, ...], tuple]:
    """The outgoing product edges of one joint state, by left fold.

    Reproduces ``compose``'s matching per fold step: the accumulated
    prefix plays "first" with the *static* union alphabets
    ``in_prefix[k]``/``out_prefix[k]``, component ``k`` plays "second".
    A pure function of its arguments — shard workers (threads or forked
    processes) call it without any shared mutable state.
    """
    acc: list[tuple] = [
        (t.interaction, (t.target,)) for t in components[0].transitions_from(joint[0])
    ]
    for k in range(1, len(components)):
        component = components[k]
        comp_in, comp_out = component.inputs, component.outputs
        pref_in, pref_out = in_prefix[k], out_prefix[k]
        merged: list[tuple] = []
        for interaction, targets in acc:
            a, b = interaction.inputs, interaction.outputs
            for t in component.transitions_from(joint[k]):
                a2, b2 = t.interaction.inputs, t.interaction.outputs
                if strict:
                    if (a & comp_out) != b2 or (a2 & pref_out) != b:
                        continue
                else:
                    if (a & comp_out) != (b2 & pref_in) or (a2 & pref_out) != (b & comp_in):
                        continue
                merged.append((interaction.union(t.interaction), (*targets, t.target)))
        acc = merged
    # Every edge leaves ``joint``, so the canonical order of
    # :meth:`Transition.sort_key` reduces to (interaction, repr(target));
    # each target and the source are rendered once, not once per edge.
    rendered: dict = {}
    keys: dict = {}
    for pair in acc:
        if pair not in keys:
            target = pair[1]
            text = rendered.get(target)
            if text is None:
                text = rendered[target] = repr(target)
            keys[pair] = (pair[0].sort_key(), text)
    source_text = repr(joint)
    edges = []
    for pair in sorted(keys, key=keys.__getitem__):
        edge = Transition(joint, pair[0], pair[1])
        edge._skey = (source_text, *keys[pair])
        edges.append(edge)
    targets = tuple(dict.fromkeys(edge.target for edge in edges))
    return tuple(edges), targets


def _first_edges(edges: tuple[Transition, ...]) -> tuple[tuple[Transition, ...], tuple, tuple]:
    """``(edges, unique targets, first edge to each target)``, in edge order.

    The first edge to a target is the one a breadth-first search
    records as that target's parent when it discovers it from here.
    """
    firsts: dict = {}
    for edge in edges:
        firsts.setdefault(edge.target, edge)
    return edges, tuple(firsts), tuple(firsts.values())


@dataclass(frozen=True)
class _ShardTask:
    """One shard's work for one handoff round (picklable for processes)."""

    shard: int
    shards: int
    frontier: tuple
    visited: frozenset  #: own-shard joints already claimed (frontier included)
    components: tuple
    in_prefix: tuple
    out_prefix: tuple
    strict: bool
    cache: dict  #: read-only view of the edge cache (own-shard slice suffices)


@dataclass(frozen=True)
class _ShardDelta:
    """What one shard's local BFS produced in one handoff round."""

    shard: int
    states_explored: int
    by_source: dict
    labels: dict
    new_entries: dict  #: joint -> (edges, targets, label) recomputed this round
    claimed: tuple  #: own-shard joints first reached during this round
    handoffs: tuple  #: cross-shard targets, in discovery order
    hits: int
    misses: int


def _explore_shard(task: _ShardTask) -> _ShardDelta:
    """Run one shard's local BFS to exhaustion within its own shard.

    The worker owns every joint state whose stable hash maps to its
    shard: it explores those states (reusing cached edges where present,
    re-deriving the rest), follows own-shard targets immediately, and
    emits every cross-shard target as a handoff for the merge step.
    Because each joint state is explored by exactly one shard, the
    per-state results — edges, labels, hit/miss classification — are
    identical to the sequential exploration regardless of shard count or
    scheduling order.
    """
    shard, shards = task.shard, task.shards
    cache = task.cache
    components = task.components
    in_prefix, out_prefix, strict = task.in_prefix, task.out_prefix, task.strict
    visited = set(task.visited)
    queue = list(task.frontier)
    by_source: dict[State, tuple[Transition, ...]] = {}
    labels: dict[State, frozenset[str]] = {}
    new_entries: dict = {}
    claimed: list = []
    handoffs: list = []
    explored = hits = misses = 0
    while queue:
        joint = queue.pop()
        explored += 1
        entry = cache.get(joint)
        if entry is None:
            edges, targets = _joint_edges(joint, components, in_prefix, out_prefix, strict)
            label = frozenset().union(
                *(c.labels(local) for c, local in zip(components, joint))
            )
            entry = (edges, targets, label)
            new_entries[joint] = entry
            misses += 1
        else:
            edges, targets, label = entry
            hits += 1
        if edges:
            by_source[joint] = edges
        labels[joint] = label
        for target in targets:
            if shards > 1 and shard_of(target, shards) != shard:
                handoffs.append(target)
            elif target not in visited:
                visited.add(target)
                claimed.append(target)
                queue.append(target)
    return _ShardDelta(
        shard=shard,
        states_explored=explored,
        by_source=by_source,
        labels=labels,
        new_entries=new_entries,
        claimed=tuple(claimed),
        handoffs=tuple(handoffs),
        hits=hits,
        misses=misses,
    )


@dataclass(frozen=True)
class _DenseProductShared:
    """Per-update read-only context the dense shard workers derive from.

    Published through the module global :data:`_DENSE_PRODUCT_SHARED`
    *before* the worker crew is claimed: thread and inline workers read
    it directly, and a forked process crew inherits it by copy-on-write
    at fork time — the components are shipped to the children exactly
    once per update instead of being pickled into every round's tasks.
    """

    components: tuple
    in_prefix: tuple
    out_prefix: tuple
    strict: bool


_DENSE_PRODUCT_SHARED: _DenseProductShared | None = None


@dataclass(frozen=True)
class _DenseShardTask:
    """One shard's derivations for one BFS level (flat and picklable).

    Only *misses* travel: the parent classifies every frontier id
    against its live entry table before dispatch, so a worker's whole
    job is the expensive part — re-deriving product edges — and a level
    whose frontier is fully cached never leaves the parent at all.
    """

    shard: int
    #: (interned id, joint tuple) pairs in frontier order — the joint
    #: travels with the id because forked children cannot resolve ids
    #: interned after their snapshot was taken.
    misses: tuple


@dataclass(frozen=True)
class _DenseShardDelta:
    """What one dense shard worker derived in one BFS level."""

    shard: int
    #: (interned id, edges, target joints, label) in task order
    derived: tuple


def _explore_dense_shard(task: _DenseShardTask) -> _DenseShardDelta:
    """Derive the product edges of one shard's frontier misses.

    A pure function of the task and the fork/thread-shared per-update
    context: every joint state is derived by exactly its ``id % K``
    owner, so the per-state results are identical to the sequential
    exploration regardless of shard count, strategy, or scheduling.
    """
    shared = _DENSE_PRODUCT_SHARED
    components = shared.components
    in_prefix, out_prefix, strict = shared.in_prefix, shared.out_prefix, shared.strict
    derived = []
    for sid, joint in task.misses:
        edges, targets = _joint_edges(joint, components, in_prefix, out_prefix, strict)
        label = frozenset().union(
            *(c.labels(local) for c, local in zip(components, joint))
        )
        derived.append((sid, edges, targets, label))
    return _DenseShardDelta(shard=task.shard, derived=tuple(derived))


class IncrementalProduct:
    """Reusable n-ary synchronous product (Definition 3, folded left).

    Joint states are flat tuples ``(s₁, …, sₙ)`` of component-local
    states — exactly the state shape of :func:`compose` for ``n = 2``
    and :func:`compose_all` for larger ``n``.  After the first (cold)
    exploration the product lives on as its reachable joint states, their
    edges, and the exact breadth-first search of the product; a warm
    update re-derives only the joints that mention a dirty local, resumes
    the search at the shallowest level whose expansion changed, and drops
    the joints it no longer reaches (:meth:`_patch`).  The search tree is
    published on every snapshot as its
    :class:`~repro.automata.analysis.BreadthFirstIndex`, from which
    shortest counterexamples are read.

    With ``validate=True`` every update is cross-checked against a full
    recompose; a mismatch (which would indicate a bug in the fold) makes
    the product adopt the from-scratch result and flush its cache.

    With ``parallelism=K > 1`` the cold exploration is split into ``K``
    shards.  The *dense* exploration (``dense=True``, the default above
    the dense state floor or under ``REPRO_DENSE_PRODUCT``) interns
    every joint state into a delta-extendable
    :class:`~repro.automata.interning.StateInterner` as the BFS
    discovers it: ownership is plain ``id % K``, the visited set is a
    byte-flag buffer, frontiers are ``array('I')`` id batches, and the
    edge cache is an id-indexed entry list.  Rounds are BFS levels —
    the parent classifies each level's frontier against the live entry
    table and ships only the *misses* (as flat ``(id, joint)`` batches)
    to a per-update :class:`~repro.automata.sharding.ShardCrew`, whose
    forked workers inherit the components once at fork time instead of
    pickling cache slices per round.  The *legacy* exploration
    (``dense=False``) keeps the dict cache keyed by joint tuples with
    crc32-of-repr ownership and within-shard frontier chaining.  Either
    way, deltas merge in shard order and every per-state result is
    computed by exactly one owner shard, so the merged product — and
    every counter except the per-shard breakdown — is bit-identical to
    the sequential exploration for every shard count, strategy, and
    scheduling order.
    """

    def __init__(
        self,
        *,
        semantics: Semantics = "strict",
        validate: bool = False,
        parallelism: int | None = None,
        strategy: str | None = None,
        dense: bool | None = None,
        pool: WorkerPool | None = None,
        tracer=None,
    ):
        if semantics not in ("strict", "open"):
            raise CompositionError(f"unknown composition semantics {semantics!r}")
        self.semantics: Semantics = semantics
        self.validate = validate
        self.parallelism = resolve_parallelism(parallelism)
        self.strategy = check_strategy(strategy)
        self.dense = dense
        self.fallbacks = 0
        self._pool = pool if pool is not None else get_pool()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._interner: StateInterner | None = None
        #: a dense cold exploration's entry table: id -> (edges,
        #: array('I') target ids, labels), ``None`` for un-derived ids,
        #: aligned with the interner while the exploration runs.
        self._entries: list = []
        self._dense_active: bool | None = None
        self._reachable_mask = 0
        self._arity: int | None = None
        #: The product of the last update, patched in place by warm
        #: updates (``None`` until the first, cold, exploration): joint
        #: -> (sorted edges, unique targets, first edge per target,
        #: label) for every reachable joint state, plus the maps each
        #: snapshot is copied from.
        self._live: dict | None = None
        self._live_by_source: dict[State, tuple[Transition, ...]] = {}
        self._live_labels: dict[State, frozenset[str]] = {}
        self._live_count = 0
        #: per component position: local state -> reachable joints with it
        self._by_local: list[dict] = []
        #: The exact breadth-first search of the product — the order in
        #: which :func:`~repro.automata.analysis.shortest_run_to` pops
        #: states — as BFS levels over ``_order``.
        self._level: dict[State, int] = {}
        self._level_start: list[int] = []
        self._order: list[State] = []
        self._search = BreadthFirstIndex({}, {})
        self._search_initial: tuple = ()
        #: joint -> owning shard, and reachable joints per shard (K > 1)
        self._owner: dict[State, int] = {}
        self._shard_sizes: list[int] = []
        #: joint states the last update's breadth-first search expanded
        self.bfs_visited = 0

    @property
    def dense_states(self) -> int:
        """Interned joint states (0 unless the dense regime is active).

        The interner itself survives a dense→legacy flip (ids are never
        reassigned), but the counter reports 0 while legacy mode is
        active so it always matches the ``ProductUpdate`` fields.
        """
        if not self._dense_active or self._interner is None:
            return 0
        return len(self._interner)

    @property
    def bitset_words(self) -> int:
        """64-bit words a reachability bitset over the ids occupies."""
        return (self.dense_states + 63) // 64

    @property
    def reachable_mask(self) -> int:
        """Packed bitset of the last dense update's reachable ids."""
        if self._live is not None and self._dense_active and self._interner is not None:
            interner = self._interner
            return mask_of_ids(interner.ids_of(self._live), len(interner))
        return self._reachable_mask

    def _set_mode(self, dense: bool) -> None:
        """Activate one exploration regime.

        The toggle re-resolves per update (the environment or the size
        heuristic may change between learning steps).  The live product
        is regime-independent; the dense regime only adds interned ids
        for its joints, in search order.  Ids are never reassigned — the
        interner outlives a dense→legacy→dense round trip.
        """
        if self._dense_active == dense:
            return
        self._dense_active = dense
        if dense:
            if self._interner is None:
                self._interner = StateInterner()
            if self._live is not None:
                self._interner.intern_ids(self._order)

    def _check_composable(self, components: Sequence[Automaton]) -> None:
        for position, right in enumerate(components[1:], start=1):
            for left in components[:position]:
                if not composable(left, right):
                    raise CompositionError(
                        f"{left.name!r} and {right.name!r} are not composable: "
                        f"shared inputs {sorted(left.inputs & right.inputs)}, "
                        f"shared outputs {sorted(left.outputs & right.outputs)}"
                    )

    def _joint_bound(self) -> int:
        """Capped joint state-space bound: the product of component sizes."""
        bound = 1
        for size in self._component_sizes:
            bound *= max(size, 1)
            if bound > 10 * FLAT_PROCESS_WORKLOAD_FLOOR:
                break  # already clearly past every threshold we care about
        return bound

    def _select_strategy(self, dense: bool) -> str:
        """Pick an execution strategy for a cold exploration.

        The workload is the (capped) joint state-space bound.  Dense
        explorations pass ``flat=True`` — their shard payloads are id
        arrays, so the forked crew engages at the much lower flat
        workload floor.
        """
        if self.strategy is not None:
            return self.strategy if self.parallelism > 1 else "sequential"
        return select_strategy(self._joint_bound(), self.parallelism, flat=dense)

    def update(
        self,
        components: Sequence[Automaton],
        dirty_locals: Sequence[frozenset[State]],
        *,
        name: str | None = None,
    ) -> ProductUpdate:
        with self.tracer.span("product.update", arity=len(components)) as span:
            update = self._update(components, dirty_locals, name=name)
            span.set(hits=update.hits, misses=update.misses)
        return update

    def _update(
        self,
        components: Sequence[Automaton],
        dirty_locals: Sequence[frozenset[State]],
        *,
        name: str | None = None,
    ) -> ProductUpdate:
        components = list(components)
        if len(components) < 2:
            raise CompositionError("IncrementalProduct needs at least two components")
        if len(dirty_locals) != len(components):
            raise CompositionError("dirty_locals must align with components")
        if self._arity is None:
            self._arity = len(components)
        elif self._arity != len(components):
            raise CompositionError(
                f"IncrementalProduct was built for {self._arity} components, got {len(components)}"
            )
        self._check_composable(components)

        self._component_sizes = [len(c.states) for c in components]
        dense = resolve_dense_product(self.dense, state_count=self._joint_bound())
        self._set_mode(dense)

        dirty_sets = [frozenset(d) for d in dirty_locals]
        in_prefix: list[frozenset[str]] = [frozenset()]
        out_prefix: list[frozenset[str]] = [frozenset()]
        for component in components[:-1]:
            in_prefix.append(in_prefix[-1] | component.inputs)
            out_prefix.append(out_prefix[-1] | component.outputs)
        fold = (components, in_prefix, out_prefix, self.semantics == "strict")
        initial = [tuple(combo) for combo in iproduct(*(sorted(c.initial, key=repr) for c in components))]
        inputs = frozenset().union(*(c.inputs for c in components))
        outputs = frozenset().union(*(c.outputs for c in components))
        name = name if name is not None else " || ".join(c.name for c in components)

        patched = self._patch(fold, dirty_sets, initial) if self._live is not None else None
        if patched is None:
            # Cold: the first update, or a delta too large to patch.
            self._reset_live()
            strategy = self._select_strategy(dense)
            if dense:
                self._entries = [None] * len(self._interner)
            explore = self._explore_dense if dense else self._explore
            seen, by_source, labels, count, reports = explore(
                components, initial, in_prefix, out_prefix, fold[3], self.parallelism, strategy
            )
            automaton = Automaton._assemble(
                states=frozenset(seen),
                inputs=inputs,
                outputs=outputs,
                by_source=by_source,
                transition_count=count,
                initial=initial,
                labels=labels,
                name=name,
            )
            self._adopt(fold, by_source, labels, count, initial)
        else:
            reports = patched
            automaton = Automaton._assemble(
                states=frozenset(self._level),
                inputs=inputs,
                outputs=outputs,
                by_source=dict(self._live_by_source),
                transition_count=self._live_count,
                initial=initial,
                labels=dict(self._live_labels),
                name=name,
            )
        hits = sum(report.hits for report in reports)
        misses = sum(report.misses for report in reports)
        dirty_joints: frozenset[State] = frozenset().union(
            *(report.dirty_states for report in reports)
        )
        fell_back = False
        if self.validate:
            reference = self._full_recompose(components, name=automaton.name)
            if automaton != reference:
                self.fallbacks += 1
                fell_back = True
                self._reset_live()
                automaton = reference
                dirty_joints = frozenset(reference.states)
        if self._live is not None:
            self._search.automaton = automaton
            automaton._search_index = self._search
        return ProductUpdate(
            automaton=automaton,
            dirty_states=dirty_joints,
            hits=hits,
            misses=misses,
            fell_back=fell_back,
            shards=reports,
            dense=dense,
            dense_states=self.dense_states if dense else 0,
            bitset_words=(self.dense_states + 63) // 64 if dense else 0,
        )

    # ------------------------------------------------------- in-place patching

    def _reset_live(self) -> None:
        """Drop the live product: the next update explores from scratch."""
        self._live = None
        self._live_by_source = {}
        self._live_labels = {}
        self._live_count = 0
        self._by_local = []
        self._level = {}
        self._level_start = []
        self._order = []
        self._search.position.clear()
        self._search.parent.clear()
        self._search.automaton = None
        self._search_initial = ()
        self._owner = {}
        self._shard_sizes = [0] * self.parallelism

    def _adopt(
        self,
        fold: tuple,
        by_source: dict[State, tuple[Transition, ...]],
        labels: dict[State, frozenset[str]],
        count: int,
        initial: list[tuple],
    ) -> None:
        """Take a cold exploration's result over as the live product."""
        live: dict = {}
        by_local: list[dict] = [{} for _ in fold[0]]
        for joint, label in labels.items():
            edges = by_source.get(joint, ())
            live[joint] = (*_first_edges(edges), label)
            for k, local in enumerate(joint):
                by_local[k].setdefault(local, {})[joint] = None
        self._live = live
        self._by_local = by_local
        self._live_by_source = dict(by_source)
        self._live_labels = dict(labels)
        self._live_count = count
        self._entries = []  # subsumed by the live product
        shards = self.parallelism
        if shards > 1:
            owner = self._owner
            sizes = self._shard_sizes
            for joint in live:
                k = shard_of(joint, shards)
                owner[joint] = k
                sizes[k] += 1
        self._search_bfs(-1, tuple(sorted(set(initial), key=repr)), fold, {})

    def _derive(self, joint: tuple, fold: tuple) -> tuple:
        """A live entry: (edges, unique targets, first edge per target, label)."""
        components, in_prefix, out_prefix, strict = fold
        edges, _ = _joint_edges(joint, components, in_prefix, out_prefix, strict)
        label = frozenset().union(*(c.labels(local) for c, local in zip(components, joint)))
        return (*_first_edges(edges), label)

    def _discover(self, joint: tuple, fold: tuple, misses: dict) -> None:
        """Add a newly reachable joint state to the live product."""
        entry = self._derive(joint, fold)
        edges, _, _, label = entry
        self._live[joint] = entry
        if edges:
            self._live_by_source[joint] = edges
            self._live_count += len(edges)
        self._live_labels[joint] = label
        for k, local in enumerate(joint):
            self._by_local[k].setdefault(local, {})[joint] = None
        if self._dense_active:
            self._interner.intern_ids((joint,))
        shards = self.parallelism
        if shards > 1:
            k = shard_of(joint, shards)
            self._owner[joint] = k
            self._shard_sizes[k] += 1
        misses[joint] = None

    def _forget(self, joint: tuple) -> None:
        """Remove a joint state that is no longer reachable."""
        edges = self._live.pop(joint)[0]
        if edges:
            del self._live_by_source[joint]
            self._live_count -= len(edges)
        del self._live_labels[joint]
        for k, local in enumerate(joint):
            joints = self._by_local[k][local]
            del joints[joint]
            if not joints:
                del self._by_local[k][local]
        if self.parallelism > 1:
            self._shard_sizes[self._owner.pop(joint)] -= 1

    def _patch(
        self, fold: tuple, dirty_sets: list[frozenset[State]], initial: list[tuple]
    ) -> "tuple[ShardReport, ...] | None":
        """Patch the live product in place; ``None`` when the delta is too large.

        Only the joint states built from a dirty local state are
        re-derived.  The breadth-first search then resumes at the
        shallowest level holding a joint whose edges changed: levels
        above it are discovered by unchanged expansions, so they stand
        as they are, and every joint the resumed search does not reach
        again has become unreachable and is dropped.
        """
        live = self._live
        stale: dict = {}
        for k, dirty in enumerate(dirty_sets):
            by_local = self._by_local[k]
            for local in sorted(dirty, key=repr):
                joints = by_local.get(local)
                if joints:
                    stale.update(joints)
        if len(stale) > max(_PRODUCT_PATCH_FLOOR, _PRODUCT_PATCH_SHARE * len(live)):
            return None
        misses: dict = {}
        resume: int | None = None
        level = self._level
        for joint in stale:
            old_edges, _, _, old_label = old = live[joint]
            entry = self._derive(joint, fold)
            edges, label = entry[0], entry[3]
            if edges != old_edges:
                if resume is None or level[joint] < resume:
                    resume = level[joint]
                if old_edges:
                    del self._live_by_source[joint]
                if edges:
                    self._live_by_source[joint] = edges
                self._live_count += len(edges) - len(old_edges)
                live[joint] = entry
            elif label != old_label:
                live[joint] = (*old[:3], label)
            if label != old_label:
                self._live_labels[joint] = label
            misses[joint] = None
        initial_order = tuple(sorted(set(initial), key=repr))
        if initial_order != self._search_initial:
            resume = -1
        self.bfs_visited = 0
        if resume is not None:
            for joint in self._search_bfs(resume, initial_order, fold, misses):
                self._forget(joint)
                misses.pop(joint, None)
        return self._warm_reports(misses)

    def _search_bfs(
        self, resume: int, initial_order: tuple, fold: tuple, misses: dict
    ) -> list[State]:
        """Re-run the breadth-first search below level ``resume``.

        ``resume = -1`` restarts from the initial states.  Returns the
        joints of the old search that the new one no longer reaches.
        """
        live, level = self._live, self._level
        order, starts = self._order, self._level_start
        position, parent = self._search.position, self._search.parent
        if resume < 0:
            old_tail = list(order)
            order.clear()
            starts.clear()
            level.clear()
            position.clear()
            parent.clear()
            frontier: list = []
            for joint in initial_order:
                if joint in level:
                    continue
                if joint not in live:
                    self._discover(joint, fold, misses)
                level[joint] = 0
                parent[joint] = None
                position[joint] = len(order)
                order.append(joint)
                frontier.append(joint)
            starts.append(0)
            depth = 0
            self._search_initial = initial_order
        else:
            end = starts[resume + 1] if resume + 1 < len(starts) else len(order)
            old_tail = order[end:]
            del order[end:]
            del starts[resume + 1 :]
            for joint in old_tail:
                del level[joint]
                del position[joint]
                del parent[joint]
            frontier = order[starts[resume] : end]
            depth = resume
        visited = len(frontier)
        while frontier:
            depth += 1
            begin = len(order)
            found: list = []
            for joint in frontier:
                _, targets, firsts, _ = live[joint]
                for target, edge in zip(targets, firsts):
                    if target in level:
                        continue
                    if target not in live:
                        self._discover(target, fold, misses)
                    level[target] = depth
                    parent[target] = edge
                    position[target] = len(order)
                    order.append(target)
                    found.append(target)
            if found:
                starts.append(begin)
            visited += len(found)
            frontier = found
        self.bfs_visited = visited
        return [joint for joint in old_tail if joint not in level]

    def _warm_reports(self, misses: dict) -> tuple[ShardReport, ...]:
        """Per-shard reports of a patch: hits are the joints left standing."""
        live = self._live
        shards = self.parallelism
        if shards == 1:
            return (
                ShardReport(
                    shard=0,
                    states_explored=len(live),
                    hits=len(live) - len(misses),
                    misses=len(misses),
                    handoffs=0,
                    merge_conflicts=0,
                    dirty_states=frozenset(misses),
                ),
            )
        owner = self._owner
        missed = [0] * shards
        handoffs = [0] * shards
        conflicts = [0] * shards
        dirty: list[list] = [[] for _ in range(shards)]
        for joint in misses:
            k = owner[joint]
            missed[k] += 1
            dirty[k].append(joint)
            for target in live[joint][1]:
                k2 = owner[target]
                if k2 != k:
                    handoffs[k] += 1
                    if target not in misses:
                        conflicts[k2] += 1
        return tuple(
            ShardReport(
                shard=k,
                states_explored=self._shard_sizes[k],
                hits=self._shard_sizes[k] - missed[k],
                misses=missed[k],
                handoffs=handoffs[k],
                merge_conflicts=conflicts[k],
                dirty_states=frozenset(dirty[k]),
            )
            for k in range(shards)
        )

    def _explore(
        self,
        components: list[Automaton],
        initial: list[tuple],
        in_prefix: list[frozenset[str]],
        out_prefix: list[frozenset[str]],
        strict: bool,
        shards: int,
        strategy: str,
    ) -> tuple[set, dict, dict, int, tuple[ShardReport, ...]]:
        """Sharded BFS to the global fixpoint; merge deltas in shard order."""
        cache: dict = {}  #: joint -> (sorted outgoing edges, unique targets, labels)
        visited: list[set] = [set() for _ in range(shards)]
        frontiers: list[list] = [[] for _ in range(shards)]
        for joint in initial:
            k = shard_of(joint, shards)
            if joint not in visited[k]:
                visited[k].add(joint)
                frontiers[k].append(joint)

        # Forked processes cannot see the parent's cache, so ship each
        # worker its own shard's slice; threads and inline workers read
        # the shared dict directly (it is only written between rounds).
        if strategy == "process" and shards > 1:
            slices: list[dict] = [{} for _ in range(shards)]
            for joint, entry in cache.items():
                slices[shard_of(joint, shards)][joint] = entry
        else:
            slices = [cache] * shards

        by_source: dict[State, tuple[Transition, ...]] = {}
        labels: dict[State, frozenset[str]] = {}
        count = 0
        explored = [0] * shards
        hits = [0] * shards
        misses = [0] * shards
        handoffs = [0] * shards
        conflicts = [0] * shards
        dirty: list[set] = [set() for _ in range(shards)]
        adopt = shards == 1  # single shard: adopt the delta maps wholesale

        components_tuple = tuple(components)
        in_prefix_tuple = tuple(in_prefix)
        out_prefix_tuple = tuple(out_prefix)
        tracer = self.tracer
        round_index = 0
        runner = _explore_shard
        if tracer.enabled and strategy != "process" and shards > 1:
            # Workers time themselves and report on their shard's track.
            # Forked processes cannot reach this tracer, so their rounds
            # go unrecorded (only 200k+-state explorations take that path).
            # A single shard stays on the main track: emitting a
            # `product/shard-0` swimlane for K=1 runs only duplicated
            # the exploration time as a zero-information track in every
            # trace summary.
            round_box = [0]

            def runner(task: _ShardTask) -> _ShardDelta:
                begin = time.perf_counter()
                delta = _explore_shard(task)
                tracer.record(
                    "product.shard_round",
                    track=f"product/shard-{task.shard}",
                    start=begin,
                    duration=time.perf_counter() - begin,
                    round=round_box[0],
                )
                return delta

        while any(frontiers):
            tasks = [
                _ShardTask(
                    shard=k,
                    shards=shards,
                    frontier=tuple(frontiers[k]),
                    visited=frozenset(visited[k]) if strategy == "process" else visited[k],
                    components=components_tuple,
                    in_prefix=in_prefix_tuple,
                    out_prefix=out_prefix_tuple,
                    strict=strict,
                    cache=slices[k],
                )
                for k in range(shards)
                if frontiers[k]
            ]
            if tracer.enabled and strategy != "process" and shards > 1:
                round_box[0] = round_index
            deltas = self._pool.map(strategy, runner, tasks, workers=shards)
            # Merge in shard order (map preserves task order): each joint
            # state is owned by exactly one shard, so the merged maps are
            # conflict-free and their contents scheduling-independent.
            with tracer.span("product.merge", round=round_index, shards=len(deltas)):
                for delta in deltas:
                    k = delta.shard
                    cache.update(delta.new_entries)
                    if slices[k] is not cache:
                        slices[k].update(delta.new_entries)
                    if adopt and not by_source:
                        by_source = delta.by_source
                        labels = delta.labels
                    else:
                        by_source.update(delta.by_source)
                        labels.update(delta.labels)
                    count += sum(len(edges) for edges in delta.by_source.values())
                    visited[k].update(delta.claimed)
                    dirty[k].update(delta.new_entries)
                    explored[k] += delta.states_explored
                    hits[k] += delta.hits
                    misses[k] += delta.misses
                    handoffs[k] += len(delta.handoffs)
                next_frontiers: list[list] = [[] for _ in range(shards)]
                for delta in deltas:
                    for target in delta.handoffs:
                        k2 = shard_of(target, shards)
                        if target in visited[k2]:
                            conflicts[k2] += 1
                        else:
                            visited[k2].add(target)
                            next_frontiers[k2].append(target)
                frontiers = next_frontiers
            round_index += 1

        seen: set = set().union(*visited) if shards > 1 else visited[0]
        reports = tuple(
            ShardReport(
                shard=k,
                states_explored=explored[k],
                hits=hits[k],
                misses=misses[k],
                handoffs=handoffs[k],
                merge_conflicts=conflicts[k],
                dirty_states=frozenset(dirty[k]),
            )
            for k in range(shards)
        )
        return seen, by_source, labels, count, reports

    def _explore_dense_chained(
        self,
        components: list[Automaton],
        initial: list[tuple],
        in_prefix: list[frozenset[str]],
        out_prefix: list[frozenset[str]],
        strict: bool,
        shards: int,
    ) -> tuple[Iterable, dict, dict, int, tuple[ShardReport, ...]]:
        """One chained id-space BFS with analytic shard attribution.

        The fast path for the ``sequential`` strategy at every K: no
        crew, no rounds, no per-level allocations — a single queue walk
        that evaluates ``id % K`` only to *attribute* work (explored,
        hits, misses, handoffs, conflicts, dirty) to its owner shard.
        Because the BFS pops states in exactly the order the round
        protocol's frontiers enumerate them, the global emission
        sequence — and hence every published counter — is bit-identical
        to the crew-driven exploration; K>1 costs two modulo operations
        per edge over K=1.  Warm all-hit updates reduce to a single
        pass over the cached entry table.
        """
        interner = self._interner
        entries = self._entries
        # Direct slot access, same idiom as DenseGraph.from_successors:
        # this loop is the product hot path and a method call per popped
        # state (let alone per target) is measurable against it.
        ids = interner._ids
        store = interner._states
        before = len(store)
        initial_ids = interner.intern_ids(initial)
        added = len(store) - before
        if added:
            entries.extend([None] * added)

        visited = bytearray(len(store))
        queue = array("I")
        queue_append = queue.append
        for sid in initial_ids:
            if not visited[sid]:
                visited[sid] = 1
                queue_append(sid)

        explored = [0] * shards
        hits = [0] * shards
        misses = [0] * shards
        handoffs = [0] * shards
        conflicts = [0] * shards
        dirty: list[set] = [set() for _ in range(shards)]

        # Every visited id is enqueued exactly once and the queue drains
        # to the fixpoint, so the pop loop sees each reachable state
        # exactly once — the result maps are built inline instead of by
        # a second resolve-everything pass over the flag buffer.  The
        # reachable-state set is exactly the label map's key view.
        by_source: dict[State, tuple[Transition, ...]] = {}
        labels: dict[State, frozenset[str]] = {}
        count = 0
        index = 0
        ids_get = ids.get
        entries_append = entries.append
        store_append = store.append
        visited_append = visited.append
        while index < len(queue):
            sid = queue[index]
            index += 1
            k = sid % shards if shards > 1 else 0
            explored[k] += 1
            entry = entries[sid]
            if entry is None:
                state = store[sid]
                misses[k] += 1
                dirty[k].add(state)
                edges, targets = _joint_edges(
                    state, components, in_prefix, out_prefix, strict
                )
                label = frozenset().union(
                    *(c.labels(local) for c, local in zip(components, state))
                )
                # Interning and routing fused into one pass over the
                # (already deduplicated) targets: a state fresh to the
                # interner is by construction unvisited, so it is
                # claimed and enqueued without a flag probe.
                tids = array("I")
                tids_append = tids.append
                if shards == 1:
                    for target in targets:
                        tid = ids_get(target)
                        if tid is None:
                            tid = len(store)
                            ids[target] = tid
                            store_append(target)
                            entries_append(None)
                            visited_append(1)
                            queue_append(tid)
                        elif not visited[tid]:
                            visited[tid] = 1
                            queue_append(tid)
                        tids_append(tid)
                else:
                    for target in targets:
                        tid = ids_get(target)
                        if tid is None:
                            tid = len(store)
                            ids[target] = tid
                            store_append(target)
                            entries_append(None)
                            visited_append(0)
                        tids_append(tid)
                        owner = tid % shards
                        if owner != k:
                            handoffs[k] += 1
                        if visited[tid]:
                            if owner != k:
                                conflicts[owner] += 1
                        else:
                            visited[tid] = 1
                            queue_append(tid)
                entries[sid] = (edges, tids, label)
            else:
                hits[k] += 1
                edges, tids, label = entry
                state = store[sid]
                if shards == 1:
                    for tid in tids:
                        if not visited[tid]:
                            visited[tid] = 1
                            queue_append(tid)
                else:
                    for tid in tids:
                        owner = tid % shards
                        if owner != k:
                            handoffs[k] += 1
                        if visited[tid]:
                            if owner != k:
                                conflicts[owner] += 1
                        else:
                            visited[tid] = 1
                            queue_append(tid)
            if edges:
                by_source[state] = edges
                count += len(edges)
            labels[state] = label
        self._reachable_mask = mask_of_flags(visited)
        reports = tuple(
            ShardReport(
                shard=k,
                states_explored=explored[k],
                hits=hits[k],
                misses=misses[k],
                handoffs=handoffs[k],
                merge_conflicts=conflicts[k],
                dirty_states=frozenset(dirty[k]),
            )
            for k in range(shards)
        )
        return labels.keys(), by_source, labels, count, reports

    def _explore_dense(
        self,
        components: list[Automaton],
        initial: list[tuple],
        in_prefix: list[frozenset[str]],
        out_prefix: list[frozenset[str]],
        strict: bool,
        shards: int,
        strategy: str,
    ) -> tuple[set, dict, dict, int, tuple[ShardReport, ...]]:
        """Level-synchronized id-space BFS; merge deltas in shard order.

        Rounds are BFS levels for *every* shard count and strategy —
        workers never chain within a round, so the round structure (and
        with it every scheduling-independent counter) is identical at
        K=1 and K=8.  Fresh joint states are interned at merge time,
        per delta in shard order, in discovery order — every source of
        that order (the frontier, the tasks, ``_joint_edges``'s walk of
        canonical transition slices) is deterministic, so id assignment
        is a pure function of the exploration history, independent of
        the hash seed and of worker scheduling.  Emissions route in
        frontier order (shard by shard, state by state, target by
        target) against the byte-flag visited buffer; a cross-shard
        arrival at a claimed id is counted against the owner, exactly
        like the legacy merge protocol.

        The ``sequential`` strategy takes the chained fast path
        instead: one queue-driven BFS with *analytic* shard attribution
        (``id % K`` evaluated while counting, not while scheduling).
        The emission sequence — (source, target) pairs in BFS order —
        is identical under both schedules, so every published counter
        matches the round protocol's bit for bit, while K>1 costs
        nothing but the modulo bookkeeping.
        """
        if strategy == "sequential":
            return self._explore_dense_chained(
                components, initial, in_prefix, out_prefix, strict, shards
            )
        global _DENSE_PRODUCT_SHARED
        interner = self._interner
        entries = self._entries
        added = interner.extend(initial)
        if added:
            entries.extend([None] * added)

        visited = bytearray(len(interner))
        id_of = interner.id_of
        resolve = interner.resolve
        frontier = array("I")
        for joint in initial:
            sid = id_of(joint)
            if not visited[sid]:
                visited[sid] = 1
                frontier.append(sid)

        explored = [0] * shards
        hits = [0] * shards
        misses = [0] * shards
        handoffs = [0] * shards
        conflicts = [0] * shards
        dirty: list[set] = [set() for _ in range(shards)]

        tracer = self.tracer
        runner = _explore_dense_shard
        traced = tracer.enabled and strategy != "process" and shards > 1
        if traced:
            # Same span contract as the legacy path: workers time
            # themselves onto their shard's track; forked crews cannot
            # reach this tracer, and K=1 stays on the main track.
            round_box = [0]

            def runner(task: _DenseShardTask) -> _DenseShardDelta:
                begin = time.perf_counter()
                delta = _explore_dense_shard(task)
                tracer.record(
                    "product.shard_round",
                    track=f"product/shard-{task.shard}",
                    start=begin,
                    duration=time.perf_counter() - begin,
                    round=round_box[0],
                )
                return delta

        round_index = 0
        _DENSE_PRODUCT_SHARED = _DenseProductShared(
            components=tuple(components),
            in_prefix=tuple(in_prefix),
            out_prefix=tuple(out_prefix),
            strict=strict,
        )
        try:
            with self._pool.crew(strategy, shards) as crew:
                while frontier:
                    # Partition the level by id ownership and classify
                    # against the live entry table: only misses travel.
                    parts: list[array] = [array("I") for _ in range(shards)]
                    miss_lists: list[list] = [[] for _ in range(shards)]
                    for sid in frontier:
                        k = sid % shards
                        parts[k].append(sid)
                        if entries[sid] is None:
                            miss_lists[k].append((sid, resolve(sid)))
                    tasks = [
                        _DenseShardTask(shard=k, misses=tuple(miss_lists[k]))
                        for k in range(shards)
                        if miss_lists[k]
                    ]
                    if traced:
                        round_box[0] = round_index
                    deltas = crew.map(runner, tasks) if tasks else []
                    with tracer.span(
                        "product.merge", round=round_index, shards=len(deltas)
                    ):
                        for delta in deltas:
                            before = len(interner)
                            for sid, edges, targets, label in delta.derived:
                                entries[sid] = (
                                    edges,
                                    array("I", interner.intern_ids(targets)),
                                    label,
                                )
                            added = len(interner) - before
                            if added:
                                entries.extend([None] * added)
                                visited.extend(bytes(added))
                        next_frontier = array("I")
                        for k in range(shards):
                            part = parts[k]
                            explored[k] += len(part)
                            miss_count = len(miss_lists[k])
                            misses[k] += miss_count
                            hits[k] += len(part) - miss_count
                            dirty[k].update(joint for _, joint in miss_lists[k])
                            if shards == 1:
                                for sid in part:
                                    for tid in entries[sid][1]:
                                        if not visited[tid]:
                                            visited[tid] = 1
                                            next_frontier.append(tid)
                                continue
                            for sid in part:
                                for tid in entries[sid][1]:
                                    owner = tid % shards
                                    if owner != k:
                                        handoffs[k] += 1
                                    if visited[tid]:
                                        if owner != k:
                                            conflicts[owner] += 1
                                        continue
                                    visited[tid] = 1
                                    next_frontier.append(tid)
                        frontier = next_frontier
                    round_index += 1
        finally:
            _DENSE_PRODUCT_SHARED = None

        seen: set = set()
        by_source: dict[State, tuple[Transition, ...]] = {}
        labels: dict[State, frozenset[str]] = {}
        count = 0
        for sid, flag in enumerate(visited):
            if not flag:
                continue
            state = resolve(sid)
            seen.add(state)
            edges, _, label = entries[sid]
            if edges:
                by_source[state] = edges
                count += len(edges)
            labels[state] = label
        self._reachable_mask = mask_of_flags(visited)
        reports = tuple(
            ShardReport(
                shard=k,
                states_explored=explored[k],
                hits=hits[k],
                misses=misses[k],
                handoffs=handoffs[k],
                merge_conflicts=conflicts[k],
                dirty_states=frozenset(dirty[k]),
            )
            for k in range(shards)
        )
        return seen, by_source, labels, count, reports

    def _full_recompose(self, components: Sequence[Automaton], *, name: str) -> Automaton:
        # parallelism=1 pins the reference to the sequential from-scratch
        # fold: the validate cross-check must stay independent of the
        # sharded machinery (and of REPRO_PARALLELISM) to catch bugs in it.
        if len(components) == 2:
            return compose(
                components[0],
                components[1],
                semantics=self.semantics,
                name=name,
                parallelism=1,
            )
        return compose_all(components, semantics=self.semantics, name=name, parallelism=1)


# -------------------------------------------------------------------- verifier


@dataclass
class StepStats:
    """Counters for one :meth:`IncrementalVerifier.step`."""

    closure_groups_reused: int = 0
    closure_groups_rebuilt: int = 0
    product_hits: int = 0
    product_misses: int = 0
    dirty_states: int = 0
    affected_states: int = 0
    fell_back: bool = False
    #: shard count of the product exploration (0 when no product ran)
    product_shards: int = 0
    #: joint states explored per shard, in shard order
    shard_states_explored: tuple[int, ...] = ()
    #: cross-shard frontier handoffs emitted, summed over shards
    shard_handoffs: int = 0
    #: handoffs that arrived at an already-claimed target, summed over shards
    shard_merge_conflicts: int = 0
    #: interned joint states after the product update (0 on the legacy path)
    product_dense_states: int = 0
    #: 64-bit words of the packed reachable bitset (0 on the legacy path)
    product_bitset_words: int = 0
    #: joint states the product's breadth-first search expanded
    search_visited: int = 0


@dataclass(frozen=True)
class VerificationStep:
    """Everything one iteration of the loop needs from the verifier."""

    closures: tuple[Automaton, ...]
    composed: Automaton
    checker: "ModelChecker"
    stats: StepStats = field(compare=False)


class IncrementalVerifier:
    """The incremental verification engine behind ``incremental=True``.

    One instance accompanies one synthesis run; :meth:`step` consumes
    the current learned model(s) and yields closures, the composed
    product, and a warm-started checker that together are equal — as
    automata and as verdicts — to what the from-scratch pipeline
    (:func:`chaotic_closure` + :func:`compose`/:func:`compose_all` +
    cold :class:`ModelChecker`) produces.
    """

    def __init__(
        self,
        *,
        context: Automaton | None,
        universes: Sequence[InteractionUniverse],
        semantics: Semantics = "strict",
        deterministic_implementation: bool = True,
        validate: bool = False,
        parallelism: int | None = None,
        strategy: str | None = None,
        checker_parallelism: int | None = None,
        dense: bool | None = None,
        dense_product: bool | None = None,
        product_strategy: str | None = None,
        tracer=None,
    ):
        if not universes:
            raise ModelError("IncrementalVerifier needs at least one legacy universe")
        self.context = context
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dense = dense
        self.dense_product = dense_product
        # The product-specific strategy knob (or REPRO_PRODUCT_STRATEGY)
        # wins over the generic strategy= for the product exploration.
        self.product_strategy = resolve_product_strategy(product_strategy)
        self.parallelism = resolve_parallelism(parallelism)
        # The checker follows the product's shard count unless overridden
        # (explicitly or via REPRO_CHECKER_PARALLELISM): one knob shards
        # the whole verification step.
        self.checker_parallelism = resolve_checker_parallelism(
            checker_parallelism, fallback=self.parallelism
        )
        self.strategy = check_strategy(strategy)
        self._closure_caches = [
            ClosureCache(
                universe,
                deterministic_implementation=deterministic_implementation,
                parallelism=self.parallelism,
                strategy=strategy,
                tracer=self.tracer,
            )
            for universe in universes
        ]
        arity = (1 if context is not None else 0) + len(universes)
        self._product = (
            IncrementalProduct(
                semantics=semantics,
                validate=validate,
                parallelism=self.parallelism,
                strategy=(
                    self.product_strategy
                    if self.product_strategy is not None
                    else strategy
                ),
                dense=dense_product,
                tracer=self.tracer,
            )
            if arity > 1
            else None
        )
        self._checker: "ModelChecker | None" = None

    def step(
        self,
        models: Sequence[IncompleteAutomaton],
        *,
        closure_names: Sequence[str] | None = None,
        name: str | None = None,
    ) -> VerificationStep:
        with self.tracer.span("verify.step", models=len(models)):
            return self._step(models, closure_names=closure_names, name=name)

    def _step(
        self,
        models: Sequence[IncompleteAutomaton],
        *,
        closure_names: Sequence[str] | None = None,
        name: str | None = None,
    ) -> VerificationStep:
        from ..logic.checker import ModelChecker

        if len(models) != len(self._closure_caches):
            raise ModelError(
                f"expected {len(self._closure_caches)} models, got {len(models)}"
            )
        stats = StepStats()
        updates = []
        for position, (cache, model) in enumerate(zip(self._closure_caches, models)):
            closure_name = closure_names[position] if closure_names is not None else None
            update = cache.update(model, name=closure_name)
            stats.closure_groups_reused += update.reused_groups
            stats.closure_groups_rebuilt += update.rebuilt_groups
            updates.append(update)

        if self._product is None:
            composed = updates[0].closure
            dirty = updates[0].dirty_states
        else:
            components: list[Automaton] = []
            dirty_locals: list[frozenset[State]] = []
            if self.context is not None:
                components.append(self.context)
                dirty_locals.append(frozenset())
            for update in updates:
                components.append(update.closure)
                dirty_locals.append(update.dirty_states)
            product = self._product.update(components, dirty_locals, name=name)
            composed = product.automaton
            dirty = product.dirty_states
            stats.product_hits = product.hits
            stats.product_misses = product.misses
            stats.fell_back = product.fell_back
            stats.product_shards = len(product.shards)
            stats.shard_states_explored = tuple(
                report.states_explored for report in product.shards
            )
            stats.shard_handoffs = sum(report.handoffs for report in product.shards)
            stats.shard_merge_conflicts = sum(
                report.merge_conflicts for report in product.shards
            )
            stats.product_dense_states = product.dense_states
            stats.product_bitset_words = product.bitset_words
            stats.search_visited = self._product.bfs_visited

        stats.dirty_states = len(dirty)
        checker = ModelChecker(
            composed,
            warm_from=self._checker,
            dirty_states=dirty,
            parallelism=self.checker_parallelism,
            strategy=self.strategy,
            dense=self.dense,
            tracer=self.tracer,
        )
        self._checker = checker
        stats.affected_states = checker.stats.affected_states
        return VerificationStep(
            closures=tuple(update.closure for update in updates),
            composed=composed,
            checker=checker,
            stats=stats,
        )
