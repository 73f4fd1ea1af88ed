"""CTL/CCTL model checking over labeled automata (§2.1, §4.1).

The checker evaluates formulas over the automaton's state graph with
*maximal path* semantics: a path is maximal when it is infinite or ends
in a deadlock state.  This matters because the paper's verification
obligation is always ``φ ∧ ¬δ`` — deadlock states are first-class
citizens, not semantic accidents:

* ``AX φ`` is vacuously true in a deadlock state;
* ``AF φ`` fails in a deadlock state unless ``φ`` already holds there;
* ``EG φ`` is satisfied by a path that deadlocks while ``φ`` holds.

Unbounded operators use the standard least/greatest fixpoint
characterisations, computed with linear-time predecessor worklists
(insertion for least fixpoints, counted removal for greatest ones)
rather than whole-state-space sweeps.  Bounded (CCTL) operators use a
backward dynamic program over the remaining window, exploiting that
every transition takes exactly one time unit.

Dense integer-indexed core (``dense=True``, the default for large products)
---------------------------------------------------------------------------

On products of at least
:data:`~repro.automata.interning.DENSE_STATE_FLOOR` states (or whenever
forced via ``dense=True`` / ``REPRO_DENSE``), every solver runs over
the dense core of
:mod:`repro.automata.interning`: states are interned to contiguous ids
(one :class:`~repro.automata.interning.StateInterner` shared down the
warm chain, so ids survive learning steps), the transition relation is
CSR adjacency arrays, membership is byte-per-state flag buffers, and
the bounded DPs are per-layer ``pre∀``/``pre∃`` images (numpy-
accelerated when available and worthwhile, pure stdlib otherwise).
Shard ownership is ``id % K`` instead of crc32-of-repr.  Everything
observable — sat sets, verdicts, ``fixpoint_work`` and its per-shard
split, handoff counts — is bit-identical to the legacy dict/set
solvers, which remain available via ``dense=False`` (or
``REPRO_DENSE=0``) as the differential oracle.  Only the state↔id
conversion crosses the boundary: caches, warm structures, and the
public API keep frozensets, so dense and dict checkers warm-start from
each other freely.

Sharded fixpoints (``parallelism=K``)
-------------------------------------

With ``parallelism=K > 1`` every unbounded fixpoint solve is split into
``K`` shards.  The dense core owns states by ``id % K``; the legacy
dict solvers key ownership by the same stable crc32-of-repr the
product BFS uses (:func:`~repro.automata.sharding.shard_of`).  Each
shard runs a private worklist over the states it owns; discoveries
whose predecessors live in another shard are emitted as *handoffs* and
routed between rounds, in shard order, until no shard holds work — a
global fixpoint.  Because the fixpoints are confluent (chaotic
iteration converges to the same set regardless of processing order) and
every state is admitted/removed by exactly one owner shard, the
satisfaction sets, verdicts, counterexamples, and the total
``fixpoint_work`` counter are bit-identical to the sequential solver
for every shard count, execution strategy, and scheduling order; only
the per-shard breakdown (:attr:`CheckerStats.shard_fixpoint_work`,
:attr:`CheckerStats.shard_handoffs`) varies with ``K``.  Shard workers
execute on the reusable worker pool of :mod:`repro.automata.sharding`
— inline below the workload floor, threads above it (fixpoints close
over the checker's predecessor maps, so forked processes are never
worth the pickling and a forced ``strategy="process"`` is clamped to
threads).

Warm start (incremental re-checking)
------------------------------------

``ModelChecker(automaton, warm_from=prev, dirty_states=seeds)`` takes
over the successor and predecessor maps and the per-formula values of
a checker built for the *previous* version of the automaton and patches
them in place.  ``seeds`` must contain every state whose outgoing
transitions or labels differ from the previous automaton (new states
are detected automatically).  A formula's value is re-evaluated only
where its inputs changed: at the seeds, and where an operand's value
flipped.  Unbounded ``AG``/``EF`` keep witness chains to their goal
states and re-derive a lost witness locally before cascading; other
fixpoints and the bounded operators are re-solved over the states that
can reach a change, with every other state supplying a fixed boundary.
This update sits above the solver variants (dict, dense, sharded), so
results and work counters are the same for all of them.  A large
structural delta falls back to the from-scratch evaluation (see
``docs/performance.md``).
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field

from ..automata.automaton import Automaton, State
from ..automata.interning import DenseGraph, StateInterner, flags_of_ids, resolve_dense
from ..automata.sharding import (
    WorkerPool,
    check_strategy,
    get_pool,
    resolve_checker_parallelism,
    select_strategy,
    shard_of,
)
from ..errors import FormulaError
from ..obs.tracer import NULL_TRACER
from .formulas import (
    AF,
    AG,
    AU,
    AX,
    And,
    Deadlock,
    EF,
    EG,
    EU,
    EX,
    FalseF,
    Formula,
    Implies,
    Interval,
    Not,
    Or,
    Prop,
    TrueF,
)

__all__ = ["CheckResult", "CheckerStats", "ModelChecker", "check"]


class CheckResult:
    """Outcome of checking one formula against one automaton.

    ``satisfying`` is materialised on first access: the synthesis loop
    reads only ``holds`` and ``violating_initial``, and copying a sat set
    the size of the product on every iteration would cost more than the
    incremental re-check that produced it.
    """

    __slots__ = ("formula", "holds", "violating_initial", "_satisfying")

    def __init__(
        self,
        formula: Formula,
        holds: bool,
        satisfying: "frozenset[State] | Callable[[], frozenset[State]]",
        violating_initial: frozenset[State],
    ):
        self.formula = formula
        self.holds = holds
        self._satisfying = satisfying
        self.violating_initial = violating_initial

    @property
    def satisfying(self) -> frozenset[State]:
        value = self._satisfying
        if not isinstance(value, frozenset):
            value = value()
            self._satisfying = value
        return value

    def _key(self) -> tuple:
        return (self.formula, self.holds, self.satisfying, self.violating_initial)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"CheckResult(formula={self.formula!r}, holds={self.holds!r}, "
            f"satisfying={self.satisfying!r}, violating_initial={self.violating_initial!r})"
        )

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class CheckerStats:
    """Work counters, mainly interesting for warm-started checkers.

    :meth:`as_dict` reports every counter under the ``checker_*``
    namespace, mirroring the ``product_*`` namespace of the incremental
    product's :class:`~repro.automata.incremental.StepStats` — the two
    vocabularies meet on ``IterationRecord`` and in synthesis reports.
    """

    successors_reused: int = 0  #: states whose successor entry stayed in place (warm)
    sat_reused: int = 0  #: warm formulas whose value changed on no state
    sat_patched: int = 0  #: warm formulas re-evaluated only where their inputs changed
    sat_computed: int = 0  #: formulas evaluated from scratch
    affected_states: int = 0  #: states whose edges or labels changed (0 when cold)
    fixpoint_work: int = 0  #: worklist insertions/removals (warm: states re-decided)
    shards: int = 1  #: shard count of the checker's fixpoint solves
    shard_handoffs: int = 0  #: cross-shard worklist handoffs across all solves
    dense_states: int = 0  #: interned ids resident in the dense core (0 = dict mode)
    bitset_words: int = 0  #: 64-bit words per dense satisfaction bitset
    _sharded_work: list[int] = field(default_factory=list, repr=False)

    @property
    def shard_fixpoint_work(self) -> tuple[int, ...]:
        """Per-shard split of :attr:`fixpoint_work`.

        Work done outside the sharded solvers (bounded-operator dynamic
        programs, which stay sequential, and warm re-evaluation) is
        attributed to shard 0, so ``sum(shard_fixpoint_work) ==
        fixpoint_work`` always holds.
        """
        if self.shards <= 1 or not self._sharded_work:
            return (self.fixpoint_work,) + (0,) * (self.shards - 1)
        work = list(self._sharded_work)
        work[0] += self.fixpoint_work - sum(work)
        return tuple(work)

    def as_dict(self) -> dict[str, object]:
        return {
            "checker_successors_reused": self.successors_reused,
            "checker_sat_reused": self.sat_reused,
            "checker_sat_patched": self.sat_patched,
            "checker_sat_computed": self.sat_computed,
            "checker_affected_states": self.affected_states,
            "checker_fixpoint_work": self.fixpoint_work,
            "checker_shards": self.shards,
            "checker_shard_fixpoint_work": list(self.shard_fixpoint_work),
            "checker_shard_handoffs": self.shard_handoffs,
            "checker_dense_states": self.dense_states,
            "checker_bitset_words": self.bitset_words,
        }

    def publish_to(self, registry) -> None:
        """Snapshot every ``checker_*`` counter into a metrics registry.

        Gauge semantics (``MetricsRegistry.absorb``): the stats object
        is cumulative per checker, so re-publishing never double-counts.
        """
        registry.absorb(self.as_dict())


#: A warm checker patches in place while at most this share of the
#: states changed (or fewer than the floor below); a larger delta — and
#: a per-formula re-solve region above the same share — is solved from
#: scratch.
_WARM_SHARE = 0.5
_WARM_FLOOR = 64
#: Longest witness chain a lost AG/EF witness is re-derived through
#: locally before the loss cascades to the states relying on it.
_RESCUE_DEPTH = 64

_REACH_OPERATORS = (AG, EF)


class _Record:
    """One formula's value over the live graph, patched in place.

    A state satisfies the formula iff ``(state in members) != inverted``.
    Reach-shaped records (unbounded ``AG``/``EF``) keep ``members`` as a
    witness map: each member state that can reach a *goal* (a ``¬φ``
    state for ``AG φ``, a ``φ`` state for ``EF φ``) maps to a successor
    one step closer along an acyclic witness chain, or to ``None`` when
    it is a goal itself; ``backers`` inverts the map and ``roots`` lists
    the goals.  A cold evaluation stores its frozenset result as
    ``members`` (``backers is None``): the mutable forms are built only
    once the record is patched or its goals are asked for.  ``delta``
    holds the states whose value flipped in the current generation, plus
    the new states (``None`` after a cold evaluation: every state may
    have changed).
    """

    __slots__ = ("members", "inverted", "delta", "backers", "roots")

    def __init__(self, members, *, inverted: bool = False, delta=None, backers=None, roots=None):
        self.members = members
        self.inverted = inverted
        self.delta = delta
        self.backers = backers
        self.roots = roots

    def holds_at(self, state: State) -> bool:
        return (state in self.members) != self.inverted


class ModelChecker:
    """A reusable checker for one automaton.

    Satisfaction sets are memoised per (sub)formula, so checking several
    properties — or re-explaining subformulas during counterexample
    construction — does not repeat fixpoint computations.

    Parameters
    ----------
    automaton:
        The model to check.
    warm_from:
        A checker previously built for an *earlier version* of the same
        automaton.  Its successor and predecessor maps and its formula
        values are taken over and patched in place; the earlier checker
        stays usable but answers later queries by re-building its own
        maps from its (immutable) automaton.
    dirty_states:
        Required with ``warm_from``: every state of ``automaton`` whose
        outgoing transitions or labels differ from the warm checker's
        automaton.  States absent from the warm automaton are treated as
        dirty automatically; removed states need no mention (their
        erstwhile predecessors must have changed and hence be listed).
    parallelism:
        Shard count for the unbounded fixpoint solves (see the module
        docstring).  ``None`` defers to ``REPRO_CHECKER_PARALLELISM``,
        defaulting to 1 (sequential).  Results are bit-identical for
        every value.
    strategy:
        Force how shard workers execute (``sequential``/``thread``;
        ``process`` is accepted but clamped to ``thread``).  ``None``
        picks by workload, like the product BFS.
    pool:
        The :class:`~repro.automata.sharding.WorkerPool` to run shard
        workers on; defaults to the process-wide shared pool.
    dense:
        Run the fixpoint solvers over the dense integer-indexed core
        (interned ids + CSR adjacency + flag buffers) instead of the
        legacy dict/set worklists.  ``None`` defers to ``REPRO_DENSE``
        when set, otherwise picks dense iff the product has at least
        :data:`~repro.automata.interning.DENSE_STATE_FLOOR` states —
        below that, interning and flag conversion cost more than the
        per-object tax they remove.  Results, verdicts, and every work
        counter are bit-identical either way — the dict solvers remain
        as the differential oracle.
    tracer:
        A :class:`repro.obs.Tracer` receiving ``checker.fixpoint`` /
        ``checker.bounded`` spans and per-shard ``checker.shard_round``
        spans (on ``checker/shard-K`` tracks).  Defaults to the no-op
        tracer; the environment is deliberately *not* consulted here —
        only the synthesis entry points resolve ``REPRO_TRACE``.
    """

    def __init__(
        self,
        automaton: Automaton,
        *,
        warm_from: "ModelChecker | None" = None,
        dirty_states: Iterable[State] = (),
        parallelism: int | None = None,
        strategy: str | None = None,
        pool: WorkerPool | None = None,
        dense: bool | None = None,
        tracer=None,
    ):
        self.automaton = automaton
        self.parallelism = resolve_checker_parallelism(parallelism)
        self.strategy = check_strategy(strategy)
        self._pool = pool if pool is not None else get_pool()
        self.dense = resolve_dense(dense, state_count=len(automaton.states))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = CheckerStats(shards=self.parallelism)
        if self.parallelism > 1:
            self.stats._sharded_work = [0] * self.parallelism
        self._cache: dict[Formula, frozenset[State]] = {}
        self._layer_memo: dict[tuple, list[frozenset[State]]] = {}
        self._formula_layers: dict[tuple, list[frozenset[State]]] = {}
        self._records: dict[Formula, _Record] = {}
        #: the previous generation's records and bounded layers (warm only)
        self._inherited: dict[Formula, _Record] = {}
        self._warm_layers: dict[tuple, list[frozenset[State]]] = {}
        #: this generation's structural delta (warm only): the states
        #: whose edges or labels changed, in canonical order, the
        #: removed states, and the new ones
        self._touched: list[State] = []
        self._removed: list[State] = []
        self._added: frozenset[State] = frozenset()
        self._added_order: list[State] = []
        self._retired = False
        self._graph: DenseGraph | None = None
        self._owner_flags: bytearray | None = None
        self._interner: StateInterner | None = None
        self._owner: dict[State, int] | None = None
        taken = warm_from._hand_over() if warm_from is not None else None
        if taken is None or not self._take_over(taken, dirty_states):
            self._build_maps()
        self._setup_ids()
        if self.dense:
            self.stats.dense_states = len(self._interner)
            self.stats.bitset_words = (len(self._interner) + 63) // 64

    def _setup_ids(self) -> None:
        """Dense ids and crc32 shard owners, extended down the warm chain."""
        states = self.automaton.states
        if self.dense:
            # One interner travels down the warm chain: surviving states
            # keep their ids, fresh ones are appended in repr-sorted
            # order (delta extension), so shard ownership (id % K) and
            # every dense structure stay stable across learning steps.
            # The CSR graph is built lazily on the first dense solve.
            if self._interner is None:
                self._interner = StateInterner(states)
            else:
                self._interner.extend(self._added)
        else:
            self._interner = None
        if self.parallelism > 1 and not self.dense:
            # crc32-of-repr ownership, carried down the warm chain when
            # the shard count matches (most states survive a learning step).
            shards = self.parallelism
            owner = self._owner
            if owner is None:
                self._owner = {state: shard_of(state, shards) for state in states}
            else:
                for state in self._removed:
                    owner.pop(state, None)
                for state in self._added_order:
                    owner[state] = shard_of(state, shards)
        else:
            self._owner = None

    # ------------------------------------------------------------ live maps

    def _build_maps(self) -> None:
        """Cold construction of the successor/predecessor maps.

        States are walked in ``repr`` order, so every map's insertion
        order — and with it every later warm patch — is independent of
        the hash seed.
        """
        automaton = self.automaton
        successors: dict[State, tuple[State, ...]] = {}
        deadlocks: set[State] = set()
        for state in sorted(automaton.states, key=repr):
            succ = tuple(
                sorted({t.target for t in automaton.transitions_from(state)}, key=repr)
            )
            successors[state] = succ
            if not succ:
                deadlocks.add(state)
        predecessors: dict[State, dict[State, None]] = {}
        for state, succ in successors.items():
            for target in succ:
                predecessors.setdefault(target, {})[state] = None
        self._successors = successors
        self._predecessors = predecessors
        self._deadlock_set = deadlocks
        self._inherited = {}
        self._warm_layers = {}
        self._touched = []
        self._removed = []
        self._added = frozenset()
        self._added_order = []
        self._interner = None
        self._owner = None

    def _hand_over(self) -> tuple | None:
        """Give the live maps and formula values to a successor checker.

        The structures are patched in place from then on, so this
        checker retires: a later query rebuilds its maps from its own
        automaton (:meth:`_revive`).
        """
        if self._retired:
            return None
        for formula, record in self._records.items():
            if isinstance(formula, _REACH_OPERATORS) and formula.interval is None:
                self._witness(formula, record)
        taken = (
            self.automaton.states,
            self._successors,
            self._predecessors,
            self._deadlock_set,
            self._records,
            self._formula_layers,
            self._interner,
            self._owner if self.parallelism > 1 else None,
            self.parallelism,
        )
        self._retired = True
        self._successors = self._predecessors = self._deadlock_set = None
        self._records = {}
        self._inherited = {}
        self._graph = None
        self._owner_flags = None
        self._owner = None
        return taken

    def _revive(self) -> None:
        if self._retired:
            self._retired = False
            self._build_maps()
            self._setup_ids()

    def _take_over(self, taken: tuple, dirty_states: Iterable[State]) -> bool:
        """Patch the previous checker's maps into this automaton's.

        Returns False (leaving nothing taken over) when the structural
        delta is too large to patch.
        """
        (old_states, successors, predecessors, deadlocks, records, layers,
         interner, owner, shards) = taken
        automaton = self.automaton
        states = automaton.states
        removed = old_states - states
        added = states - old_states
        touched = set(added)
        touched.update(state for state in dirty_states if state in states)
        if len(touched) + len(removed) > max(_WARM_FLOOR, _WARM_SHARE * len(states)):
            return False
        ordered_removed = sorted(removed, key=repr)
        ordered_touched = sorted(touched, key=repr)
        for state in ordered_removed:
            for target in successors.pop(state, ()):
                preds = predecessors.get(target)
                if preds is not None:
                    preds.pop(state, None)
            predecessors.pop(state, None)
            deadlocks.discard(state)
        for state in ordered_touched:
            succ = tuple(
                sorted({t.target for t in automaton.transitions_from(state)}, key=repr)
            )
            old = successors.get(state)
            if old != succ:
                for target in old or ():
                    preds = predecessors.get(target)
                    if preds is not None:
                        preds.pop(state, None)
                for target in succ:
                    predecessors.setdefault(target, {})[state] = None
                successors[state] = succ
            if succ:
                deadlocks.discard(state)
            else:
                deadlocks.add(state)
        self._successors = successors
        self._predecessors = predecessors
        self._deadlock_set = deadlocks
        self._inherited = records
        self._warm_layers = layers
        self._touched = ordered_touched
        self._removed = ordered_removed
        self._added = added
        self._added_order = [state for state in ordered_touched if state in added]
        self._interner = interner
        self._owner = owner if shards == self.parallelism else None
        self.stats.affected_states = len(ordered_touched) + len(ordered_removed)
        self.stats.successors_reused = len(states) - len(ordered_touched)
        return True

    # ------------------------------------------------------------- public API

    def sat(self, formula: Formula) -> frozenset[State]:
        """The set of states satisfying ``formula``."""
        cached = self._cache.get(formula)
        if cached is None:
            self._revive()
            record = self._record(formula)
            cached = self._cache.get(formula)
            if cached is None:
                if record.inverted:
                    cached = self.automaton.states.difference(record.members)
                else:
                    cached = frozenset(record.members)
                self._cache[formula] = cached
        return cached

    def holds(self, formula: Formula) -> bool:
        """``M ⊨ φ``: every initial state satisfies the formula."""
        self._revive()
        record = self._record(formula)
        return all(record.holds_at(q) for q in self.automaton.initial)

    def check(self, formula: Formula) -> CheckResult:
        self._revive()
        record = self._record(formula)
        violating = frozenset(q for q in self.automaton.initial if not record.holds_at(q))
        return CheckResult(formula, not violating, lambda: self.sat(formula), violating)

    @property
    def deadlock_states(self) -> frozenset[State]:
        self._revive()
        return frozenset(self._deadlock_set)

    def successors(self, state: State) -> tuple[State, ...]:
        self._revive()
        return self._successors[state]

    def invariant_breaches(self, formula: AG) -> "Collection[State] | None":
        """The states violating the body of an unbounded ``AG φ``.

        Read off the maintained witness structure (no sat set is
        materialised); ``None`` for any other formula shape.
        """
        if not isinstance(formula, AG) or formula.interval is not None:
            return None
        self._revive()
        record = self._record(formula)
        self._witness(formula, record)
        return record.roots

    # ------------------------------------------------------------ evaluation

    def _record(self, formula: Formula) -> _Record:
        record = self._records.get(formula)
        if record is None:
            previous = self._inherited.pop(formula, None)
            if previous is not None:
                record = self._patch(formula, previous)
            if record is None:
                record = self._cold_record(formula)
            self._records[formula] = record
        return record

    def _cold_record(self, formula: Formula) -> _Record:
        self.stats.sat_computed += 1
        result = self._evaluate(formula)
        self._cache[formula] = result
        return _Record(result)

    def _evaluate(self, formula: Formula) -> frozenset[State]:
        """Evaluate ``formula`` from scratch over the whole state space."""
        states = self.automaton.states
        if isinstance(formula, TrueF):
            return states
        if isinstance(formula, FalseF):
            return frozenset()
        if isinstance(formula, Prop):
            label_map = self.automaton._labels
            name = formula.name
            return frozenset(s for s in states if name in label_map.get(s, ()))
        if isinstance(formula, Deadlock):
            return frozenset(self._deadlock_set)
        if isinstance(formula, Not):
            return states - self.sat(formula.operand)
        if isinstance(formula, And):
            return self.sat(formula.left) & self.sat(formula.right)
        if isinstance(formula, Or):
            return self.sat(formula.left) | self.sat(formula.right)
        if isinstance(formula, Implies):
            return (states - self.sat(formula.left)) | self.sat(formula.right)
        if isinstance(formula, (AX, EX)):
            return self._evaluate_next(formula, self.sat(formula.operand))
        if isinstance(formula, (AF, EF, AG, EG)):
            operand = self.sat(formula.operand)
            operator = type(formula).__name__
            if formula.interval is not None:
                return self._layers_for(formula, operator, operand, formula.interval, None)[0]
            return self._unbounded_unary(operator, operand, states, frozenset())
        if isinstance(formula, (AU, EU)):
            left, right = self.sat(formula.left), self.sat(formula.right)
            universal = isinstance(formula, AU)
            if formula.interval is not None:
                return self._bounded_until(formula, left, right, formula.interval, None, universal=universal)
            return self._unbounded_until(left, right, states, frozenset(), universal=universal)
        raise FormulaError(f"unknown formula node {formula!r}")

    def _evaluate_next(self, formula: "AX | EX", operand: frozenset[State]) -> frozenset[State]:
        universal = isinstance(formula, AX)
        states = self.automaton.states
        if self.dense:
            graph, ids, resolve = self._dense_ready()
            candidates = [ids[s] for s in states]
            member = self._dense_flags(operand)
            if universal:
                hits = graph.pre_forall(member, candidates, require_successor=False)
            else:
                hits = graph.pre_exists(member, candidates)
            return frozenset(resolve[i] for i in hits)
        successors = self._successors
        if universal:
            return frozenset(s for s in states if all(t in operand for t in successors[s]))
        return frozenset(s for s in states if any(t in operand for t in successors[s]))

    # ------------------------------------------------------------- warm patch
    #
    # A warm record is patched from the previous generation's record and
    # this generation's structural delta, above every solver variant
    # (dict, dense, sharded): a state is re-evaluated only when its own
    # edges or label changed or a value it depends on changed.  Children
    # are patched first; a child evaluated cold leaves no delta, and its
    # parent is then evaluated cold as well.

    def _patch(self, formula: Formula, record: _Record) -> _Record | None:
        children = formula.children()
        deltas = []
        for child in children:
            delta = self._record(child).delta
            if delta is None:
                return None
            deltas.append(delta)
        removed = self._removed
        if isinstance(formula, _REACH_OPERATORS) and formula.interval is None:
            if record.backers is None:
                return None  # witnessed only at hand-over; never patch a cold result
            delta = self._patch_reach(formula, record, deltas[0])
        elif isinstance(formula, (AF, EG, AU, EU)) or getattr(formula, "interval", None) is not None:
            delta = self._patch_region(formula, record, deltas)
            if delta is None:
                return None
        else:
            members = record.members = set(record.members) if isinstance(
                record.members, frozenset
            ) else record.members
            if removed:
                members.difference_update(removed)
            if isinstance(formula, (Prop, Deadlock)):
                candidates = self._touched
            elif isinstance(formula, (TrueF, FalseF)):
                candidates = self._added_order
            elif isinstance(formula, (AX, EX)):
                candidates = dict.fromkeys(self._touched)
                predecessors = self._predecessors
                for state in deltas[0]:
                    candidates[state] = None
                    for pred in predecessors.get(state, ()):
                        candidates[pred] = None
            else:  # Not, And, Or, Implies
                candidates = dict.fromkeys(deltas[0])
                for extra in deltas[1:]:
                    candidates.update(extra)
            value = self._pointwise(formula)
            delta = {}
            for state in candidates:
                now = value(state)
                if now != (state in members):
                    if now:
                        members.add(state)
                    else:
                        members.discard(state)
                    delta[state] = None
                elif state in self._added:
                    delta[state] = None
        record.delta = delta
        if delta:
            self.stats.sat_patched += 1
        else:
            self.stats.sat_reused += 1
        return record

    def _pointwise(self, formula: Formula) -> Callable[[State], bool]:
        """The value of a non-fixpoint formula at one state."""
        if isinstance(formula, TrueF):
            return lambda state: True
        if isinstance(formula, FalseF):
            return lambda state: False
        if isinstance(formula, Prop):
            label_map = self.automaton._labels
            name = formula.name
            return lambda state: name in label_map.get(state, ())
        if isinstance(formula, Deadlock):
            deadlocks = self._deadlock_set
            return deadlocks.__contains__
        if isinstance(formula, Not):
            operand = self._records[formula.operand]
            return lambda state: not operand.holds_at(state)
        if isinstance(formula, (And, Or, Implies)):
            left = self._records[formula.left].holds_at
            right = self._records[formula.right].holds_at
            if isinstance(formula, And):
                return lambda state: left(state) and right(state)
            if isinstance(formula, Or):
                return lambda state: left(state) or right(state)
            return lambda state: (not left(state)) or right(state)
        operand = self._records[formula.operand].holds_at
        successors = self._successors
        if isinstance(formula, AX):
            return lambda state: all(operand(t) for t in successors[state])
        return lambda state: any(operand(t) for t in successors[state])

    def _witness(self, formula: "AG | EF", record: _Record) -> None:
        """Turn a cold ``AG``/``EF`` record into its witness structure.

        Built by a backward search from the goals over the current maps;
        states are visited in the canonical order of the successor map,
        so the witness choice does not depend on the hash seed.
        """
        if record.backers is not None:
            return
        result = record.members
        inverted = isinstance(formula, AG)
        reach_set = self.automaton.states - result if inverted else result
        goal = self._records[formula.operand]
        witness: dict[State, State | None] = {}
        backers: dict[State, dict[State, None]] = {}
        roots: dict[State, None] = {}
        queue: list[State] = []
        for state in self._successors:
            if state in reach_set and goal.holds_at(state) != inverted:
                witness[state] = None
                roots[state] = None
                queue.append(state)
        predecessors = self._predecessors
        for target in queue:
            for pred in predecessors.get(target, ()):
                if pred in reach_set and pred not in witness:
                    witness[pred] = target
                    backers.setdefault(target, {})[pred] = None
                    queue.append(pred)
        record.members, record.inverted = witness, inverted
        record.backers, record.roots = backers, roots

    def _patch_reach(self, formula: "AG | EF", record: _Record, goal_delta: dict) -> dict:
        """Patch the states that can reach a goal (``¬φ`` for AG, ``φ`` for EF).

        Lost witnesses are first re-derived locally — through a
        successor whose witness chain provably avoids every broken
        state — and only the rest cascade to the states relying on them.
        """
        inverted = record.inverted
        operand = self._records[formula.operand]

        def goal(state: State) -> bool:
            return operand.holds_at(state) != inverted

        witness, backers, roots = record.members, record.backers, record.roots
        successors, predecessors = self._successors, self._predecessors
        before: dict[State, bool] = {}
        broken: dict[State, None] = {}

        def unlink(state: State, *, track: bool = True) -> None:
            if track and state not in before:
                before[state] = True
            target = witness.pop(state)
            if target is None:
                del roots[state]
            else:
                supported = backers.get(target)
                if supported is not None:
                    supported.pop(state, None)

        def link(state: State, target: State | None) -> None:
            if state not in before:
                before[state] = state in witness
            witness[state] = target
            if target is None:
                roots[state] = None
            else:
                backers.setdefault(target, {})[state] = None

        for state in self._removed:
            if state in witness:
                unlink(state, track=False)
            for backer in backers.pop(state, ()):
                if backer in witness:
                    broken[backer] = None
        for state in self._removed:
            broken.pop(state, None)
        changed = dict.fromkeys(self._touched)
        changed.update(goal_delta)
        joined: list[State] = []
        candidates: list[State] = []
        for state in changed:
            if state not in successors:
                continue
            if goal(state):
                if state in witness:
                    if witness[state] is not None:
                        unlink(state)
                        link(state, None)
                    broken.pop(state, None)
                else:
                    link(state, None)
                    joined.append(state)
            elif state in witness:
                target = witness[state]
                if target is None or target not in successors[state]:
                    broken[state] = None
            else:
                candidates.append(state)
        for state in candidates:
            for target in successors[state]:
                if target in witness:
                    link(state, target)
                    joined.append(state)
                    break
        self._propagate_reach(record, joined, link)

        # Local re-derivation, in order: a state whose chain reaches a
        # goal without meeting an unresolved broken state is sound.
        def chain_ok(state: State) -> bool:
            for _ in range(_RESCUE_DEPTH):
                if state in broken or state not in witness:
                    return False
                state = witness[state]
                if state is None:
                    return True
            return False

        unresolved: list[State] = []
        for state in list(broken):
            rescued = False
            for target in successors[state]:
                if target != state and target in witness and chain_ok(target):
                    del broken[state]
                    unlink(state)
                    link(state, target)
                    rescued = True
                    break
            if not rescued:
                unresolved.append(state)
        # Cascade: everything whose witness chain runs through an
        # unresolved state loses its justification, then re-joins if it
        # still reaches a goal through the surviving witnesses.
        dropped: list[State] = []
        for state in unresolved:
            if state in witness:
                unlink(state)
                dropped.append(state)
        for state in dropped:
            for backer in backers.pop(state, ()):
                if backer in witness:
                    unlink(backer)
                    dropped.append(backer)
        rejoined: list[State] = []
        for state in dropped:
            if state in witness:
                continue
            for target in successors[state]:
                if target in witness:
                    link(state, target)
                    rejoined.append(state)
                    break
        self._propagate_reach(record, rejoined, link)
        self.stats.fixpoint_work += len(before)
        delta = {state: None for state, was in before.items() if (state in witness) != was}
        for state in self._added_order:
            delta[state] = None
        return delta

    def _propagate_reach(self, record: _Record, joined: list[State], link) -> None:
        """Backward search from newly joined states over non-members."""
        witness = record.members
        predecessors = self._predecessors
        for target in joined:
            for pred in predecessors.get(target, ()):
                if pred not in witness:
                    link(pred, target)
                    joined.append(pred)

    def _patch_region(self, formula: Formula, record: _Record, deltas: list[dict]) -> dict | None:
        """Re-solve a fixpoint or bounded operator over its changed region.

        The region is every state that can reach a state whose edges,
        label or operand values changed; all other states keep their
        values, which bound the re-solve.  ``None`` when the region is
        too large to be worth patching.
        """
        states = self.automaton.states
        region: dict[State, None] = dict.fromkeys(self._touched)
        for delta in deltas:
            region.update(delta)
        predecessors = self._predecessors
        queue = list(region)
        for state in queue:
            for pred in predecessors.get(state, ()):
                if pred not in region:
                    region[pred] = None
                    queue.append(pred)
        if len(region) > max(_WARM_FLOOR, _WARM_SHARE * len(states)):
            return None
        members = record.members
        if isinstance(members, frozenset):
            members = record.members = set(members)
        if self._removed:
            members.difference_update(self._removed)
        domain = frozenset(region)
        boundary = frozenset(members.difference(domain))
        interval = getattr(formula, "interval", None)
        if isinstance(formula, (AU, EU)):
            left, right = self.sat(formula.left), self.sat(formula.right)
            universal = isinstance(formula, AU)
            if interval is not None:
                result = self._bounded_until(
                    formula, left, right, interval, domain, universal=universal
                )
                if result is None:
                    return None
            else:
                result = self._unbounded_until(left, right, domain, boundary, universal=universal)
        else:
            operand = self.sat(formula.operand)
            operator = type(formula).__name__
            if interval is not None:
                layers = self._layers_for(formula, operator, operand, interval, domain)
                if layers is None:
                    return None
                result = layers[0]
            else:
                result = self._unbounded_unary(operator, operand, domain, boundary)
        delta = {}
        for state in region:
            now = state in result
            if now != (state in members):
                if now:
                    members.add(state)
                else:
                    members.discard(state)
                delta[state] = None
            elif state in self._added:
                delta[state] = None
        return delta

    # ------------------------------------------------------- unbounded cases

    def _solve_exists_reach(
        self,
        goal: frozenset[State],
        through: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``lfp Z = goal ∪ (through ∩ pre∃(Z))`` over ``domain``.

        Out-of-domain successors contribute through ``boundary`` (their
        final values).  ``through=None`` means "all states" (EF).
        """
        if self.dense:
            return self._dense_exists_reach(goal, through, domain, boundary)
        if self.parallelism > 1:
            return self._sharded_exists_reach(goal, through, domain, boundary)
        result: set[State] = set()
        queue: deque[State] = deque()

        def admit(state: State) -> None:
            if state not in result:
                result.add(state)
                queue.append(state)
                self.stats.fixpoint_work += 1

        for state in goal & domain:
            admit(state)
        if boundary:
            for state in domain:
                if state in result:
                    continue
                if through is not None and state not in through:
                    continue
                # boundary ⊆ complement of domain, so no domain test needed.
                if any(t in boundary for t in self._successors[state]):
                    admit(state)
        while queue:
            target = queue.popleft()
            for state in self._predecessors.get(target, ()):
                if state in result or state not in domain:
                    continue
                if through is not None and state not in through:
                    continue
                admit(state)
        return boundary | frozenset(result)

    def _solve_forall_reach(
        self,
        goal: frozenset[State],
        gate: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``lfp Z = goal ∪ (gate ∩ ¬δ ∩ pre∀(Z))`` over ``domain``."""
        if self.dense:
            return self._dense_forall_reach(goal, gate, domain, boundary)
        if self.parallelism > 1:
            return self._sharded_forall_reach(goal, gate, domain, boundary)
        result: set[State] = set(goal & domain)
        pending: dict[State, int] = {}
        queue: deque[State] = deque(result)
        self.stats.fixpoint_work += len(result)
        for state in domain:
            if state in result:
                continue
            if gate is not None and state not in gate:
                continue
            successors = self._successors[state]
            if not successors:
                continue  # deadlock: AF-style obligations fail here
            count = 0
            for target in successors:
                if target in domain:
                    count += 1  # decremented as in-domain targets are admitted
                elif target not in boundary:
                    count = -1  # an out-of-domain successor that never satisfies
                    break
            if count < 0:
                continue
            if count == 0:
                result.add(state)
                queue.append(state)
                self.stats.fixpoint_work += 1
            else:
                pending[state] = count
        while queue:
            target = queue.popleft()
            for state in self._predecessors.get(target, ()):
                count = pending.get(state)
                if count is None:
                    continue
                count -= 1
                if count == 0:
                    del pending[state]
                    result.add(state)
                    queue.append(state)
                    self.stats.fixpoint_work += 1
                else:
                    pending[state] = count
        return boundary | frozenset(result)

    def _solve_forall_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``gfp Z = keep ∩ pre∀(Z)`` over ``domain``, via the complement.

        A state violates ``AG keep`` iff it can reach — within the
        domain — a ``¬keep`` state or an out-of-domain successor whose
        fixed (boundary) value is unsatisfied, so only the *violating*
        region is ever traversed: when the invariant (mostly) holds,
        the solve is (nearly) free.  Deadlock states satisfy any
        invariant they locally satisfy, matching the maximal-path
        reading of ``pre∀``.  Callers pass the full state set as the
        domain (a global complement solve beats patching here because
        no per-edge scan of the surviving region is needed at all).
        """
        if self.dense:
            return self._dense_forall_invariant(keep, domain, boundary)
        if self.parallelism > 1:
            return self._sharded_forall_invariant(keep, domain, boundary)
        removed = set(domain - keep)
        queue: deque[State] = deque(removed)
        if boundary:
            good = domain | boundary
            for state in domain & keep:
                if state in removed:
                    continue
                if any(t not in good for t in self._successors[state]):
                    removed.add(state)
                    queue.append(state)
        self.stats.fixpoint_work += len(removed)
        while queue:
            state = queue.popleft()
            for pred in self._predecessors.get(state, ()):
                if pred not in removed and pred in domain:
                    removed.add(pred)
                    queue.append(pred)
                    self.stats.fixpoint_work += 1
        return boundary | ((keep & domain) - removed)

    def _solve_exists_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        """``gfp Z = keep ∩ (δ ∪ pre∃(Z))`` over ``domain``.

        As in :meth:`_solve_forall_invariant`, ``boundary`` and
        ``domain`` are disjoint, so support counting needs only one
        membership test per edge.
        """
        if self.dense:
            return self._dense_exists_invariant(keep, domain, boundary)
        if self.parallelism > 1:
            return self._sharded_exists_invariant(keep, domain, boundary)
        alive = set(keep & domain)
        good = alive | boundary if boundary else alive
        support: dict[State, int] = {}
        queue: deque[State] = deque()
        for state in alive:
            successors = self._successors[state]
            if not successors:
                continue  # deadlock: stays by the δ disjunct
            count = sum(1 for target in successors if target in good)
            if count == 0:
                queue.append(state)
            else:
                support[state] = count
        while queue:
            state = queue.popleft()
            if state not in alive:
                continue
            alive.discard(state)
            self.stats.fixpoint_work += 1
            for pred in self._predecessors.get(state, ()):
                if pred in alive and pred in support:
                    support[pred] -= 1
                    if support[pred] == 0:
                        del support[pred]
                        queue.append(pred)
        return boundary | frozenset(alive)

    # ----------------------------------------------------------- dense core
    #
    # The dense solvers are exact mirrors of the dict/set solvers, re-
    # expressed over interned ids: membership tests hit flat flag
    # buffers (one byte per state), worklists are plain id lists, and
    # edge scans walk the CSR adjacency arrays.  Conversion to and from
    # frozensets happens only at the solve boundary — every cache, warm
    # structure, and public API keeps the frozenset vocabulary, so dense
    # and dict checkers warm-start from each other freely.  Admission
    # order can differ from the dict solvers, but the fixpoints are
    # confluent, every state is admitted/removed exactly once, and the
    # handoff count depends only on edges and ownership — so sat sets
    # and all work counters are bit-identical (the differential tests
    # pin this).
    #
    # With parallelism=K the solve usually runs *inline*: one worklist,
    # admissions attributed to their owner shard (id % K), cross-shard
    # edges counted as handoffs analytically.  Because each state is
    # expanded exactly once whatever the schedule, this accounting is
    # provably identical to the round-based protocol's — without its
    # coordination overhead.  The genuine round protocol still runs
    # when a tracer wants per-shard ``checker.shard_round`` spans or an
    # execution strategy is forced.

    def _dense_ready(self):
        """The (graph, state→id map, id→state list) triple, built lazily."""
        graph = self._graph
        interner = self._interner
        assert interner is not None
        if graph is None:
            graph = DenseGraph.from_successors(interner, self._successors)
            self._graph = graph
        return graph, interner._ids, interner._states

    def _dense_flags(self, states: Iterable[State]) -> bytearray:
        """Byte-per-state membership flags over the interned id space."""
        assert self._graph is not None
        flags = bytearray(self._graph.size)
        ids = self._interner._ids
        for state in states:
            flags[ids[state]] = 1
        return flags

    def _owner_bytes(self) -> bytearray:
        """Shard owner of every id: contiguous ``id % K`` (no hashing)."""
        owner = self._owner_flags
        if owner is None:
            shards = self.parallelism
            owner = bytearray(i % shards for i in range(self._graph.size))
            self._owner_flags = owner
        return owner

    def _dense_wants_rounds(self) -> bool:
        return self.parallelism > 1 and (
            self.strategy is not None or self.tracer.enabled
        )

    def _dense_exists_reach(
        self,
        goal: frozenset[State],
        through: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        if self._dense_wants_rounds():
            return self._dense_rounds_exists_reach(goal, through, domain, boundary)
        own = self._owner_bytes() if self.parallelism > 1 else None
        work = [0] * self.parallelism if own is not None else None
        handoffs = 0
        dom = bytearray(graph.size)
        for state in domain:
            dom[ids[state]] = 1
        thr = self._dense_flags(through) if through is not None else None
        admitted = bytearray(graph.size)
        queue: list[int] = []
        push = queue.append
        for state in goal:
            ident = ids[state]
            if dom[ident] and not admitted[ident]:
                admitted[ident] = 1
                push(ident)
                if own is not None:
                    work[own[ident]] += 1
        if boundary:
            bnd = self._dense_flags(boundary)
            fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
            for state in domain:
                ident = ids[state]
                if admitted[ident]:
                    continue
                if thr is not None and not thr[ident]:
                    continue
                for edge in range(fwd_off[ident], fwd_off[ident + 1]):
                    if bnd[fwd_tgt[edge]]:
                        admitted[ident] = 1
                        push(ident)
                        if own is not None:
                            work[own[ident]] += 1
                        break
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources
        head = 0
        if own is None:
            while head < len(queue):
                target = queue[head]
                head += 1
                for edge in range(rev_off[target], rev_off[target + 1]):
                    pred = rev_src[edge]
                    if admitted[pred] or not dom[pred]:
                        continue
                    if thr is not None and not thr[pred]:
                        continue
                    admitted[pred] = 1
                    push(pred)
            self.stats.fixpoint_work += len(queue)
        else:
            while head < len(queue):
                target = queue[head]
                head += 1
                home = own[target]
                for edge in range(rev_off[target], rev_off[target + 1]):
                    pred = rev_src[edge]
                    if not dom[pred]:
                        continue
                    if thr is not None and not thr[pred]:
                        continue
                    if own[pred] != home:
                        handoffs += 1
                    if not admitted[pred]:
                        admitted[pred] = 1
                        push(pred)
                        work[own[pred]] += 1
            self._account_sharded(work, handoffs)
        return boundary | frozenset(resolve[i] for i in queue)

    def _dense_forall_reach(
        self,
        goal: frozenset[State],
        gate: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        if self._dense_wants_rounds():
            return self._dense_rounds_forall_reach(goal, gate, domain, boundary)
        own = self._owner_bytes() if self.parallelism > 1 else None
        work = [0] * self.parallelism if own is not None else None
        handoffs = 0
        dom = bytearray(graph.size)
        for state in domain:
            dom[ids[state]] = 1
        gatef = self._dense_flags(gate) if gate is not None else None
        bnd = self._dense_flags(boundary) if boundary else None
        admitted = bytearray(graph.size)
        pending = [0] * graph.size
        queue: list[int] = []
        push = queue.append
        for state in goal:
            ident = ids[state]
            if dom[ident] and not admitted[ident]:
                admitted[ident] = 1
                push(ident)
                if own is not None:
                    work[own[ident]] += 1
        fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
        for state in domain:
            ident = ids[state]
            if admitted[ident]:
                continue
            if gatef is not None and not gatef[ident]:
                continue
            lo, hi = fwd_off[ident], fwd_off[ident + 1]
            if lo == hi:
                continue  # deadlock: AF-style obligations fail here
            count = 0
            for edge in range(lo, hi):
                target = fwd_tgt[edge]
                if dom[target]:
                    count += 1  # decremented as in-domain targets are admitted
                elif bnd is None or not bnd[target]:
                    count = -1  # an out-of-domain successor that never satisfies
                    break
            if count < 0:
                continue
            if count == 0:
                admitted[ident] = 1
                push(ident)
                if own is not None:
                    work[own[ident]] += 1
            else:
                pending[ident] = count
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources
        head = 0
        while head < len(queue):
            target = queue[head]
            head += 1
            home = own[target] if own is not None else 0
            for edge in range(rev_off[target], rev_off[target + 1]):
                pred = rev_src[edge]
                if own is not None:
                    if not dom[pred]:
                        continue
                    if own[pred] != home:
                        handoffs += 1
                count = pending[pred]
                if count == 0:
                    continue
                count -= 1
                pending[pred] = count
                if count == 0:
                    admitted[pred] = 1
                    push(pred)
                    if own is not None:
                        work[own[pred]] += 1
        if own is None:
            self.stats.fixpoint_work += len(queue)
        else:
            self._account_sharded(work, handoffs)
        return boundary | frozenset(resolve[i] for i in queue)

    def _dense_forall_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        if self._dense_wants_rounds():
            return self._dense_rounds_forall_invariant(keep, domain, boundary)
        own = self._owner_bytes() if self.parallelism > 1 else None
        work = [0] * self.parallelism if own is not None else None
        handoffs = 0
        dom = bytearray(graph.size)
        for state in domain:
            dom[ids[state]] = 1
        keepf = self._dense_flags(keep)
        removed = bytearray(graph.size)
        queue: list[int] = []
        push = queue.append
        for state in domain:
            ident = ids[state]
            if not keepf[ident]:
                removed[ident] = 1
                push(ident)
                if own is not None:
                    work[own[ident]] += 1
        if boundary:
            good = bytearray(dom)
            for state in boundary:
                good[ids[state]] = 1
            fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
            for state in domain:
                ident = ids[state]
                if removed[ident] or not keepf[ident]:
                    continue
                for edge in range(fwd_off[ident], fwd_off[ident + 1]):
                    if not good[fwd_tgt[edge]]:
                        removed[ident] = 1
                        push(ident)
                        if own is not None:
                            work[own[ident]] += 1
                        break
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources
        head = 0
        while head < len(queue):
            target = queue[head]
            head += 1
            home = own[target] if own is not None else 0
            for edge in range(rev_off[target], rev_off[target + 1]):
                pred = rev_src[edge]
                if not dom[pred]:
                    continue
                if own is not None and own[pred] != home:
                    handoffs += 1
                if not removed[pred]:
                    removed[pred] = 1
                    push(pred)
                    if own is not None:
                        work[own[pred]] += 1
        if own is None:
            self.stats.fixpoint_work += len(queue)
        else:
            self._account_sharded(work, handoffs)
        return boundary | ((keep & domain) - frozenset(resolve[i] for i in queue))

    def _dense_exists_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        if self._dense_wants_rounds():
            return self._dense_rounds_exists_invariant(keep, domain, boundary)
        own = self._owner_bytes() if self.parallelism > 1 else None
        work = [0] * self.parallelism if own is not None else None
        handoffs = 0
        dom = bytearray(graph.size)
        for state in domain:
            dom[ids[state]] = 1
        alive = bytearray(graph.size)
        alive_ids: list[int] = []
        for state in keep:
            ident = ids[state]
            if dom[ident] and not alive[ident]:
                alive[ident] = 1
                alive_ids.append(ident)
        # Support counting tests membership in the *initial* keep∩domain
        # (plus boundary), exactly like the dict solver's static `good`.
        static = bytes(alive)
        good = bytearray(alive)
        for state in boundary:
            good[ids[state]] = 1
        support = [0] * graph.size
        queue: list[int] = []
        push = queue.append
        fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
        for ident in alive_ids:
            lo, hi = fwd_off[ident], fwd_off[ident + 1]
            if lo == hi:
                continue  # deadlock: stays by the δ disjunct
            count = 0
            for edge in range(lo, hi):
                if good[fwd_tgt[edge]]:
                    count += 1
            if count == 0:
                push(ident)
            else:
                support[ident] = count
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources
        head = 0
        discards = 0
        while head < len(queue):
            target = queue[head]
            head += 1
            if not alive[target]:
                continue
            alive[target] = 0
            discards += 1
            if own is not None:
                work[own[target]] += 1
            home = own[target] if own is not None else 0
            for edge in range(rev_off[target], rev_off[target + 1]):
                pred = rev_src[edge]
                if own is not None:
                    if not static[pred]:
                        continue
                    if own[pred] != home:
                        handoffs += 1
                if alive[pred] and support[pred] > 0:
                    support[pred] -= 1
                    if support[pred] == 0:
                        push(pred)
        if own is None:
            self.stats.fixpoint_work += discards
        else:
            self._account_sharded(work, handoffs)
        return boundary | frozenset(resolve[i] for i in alive_ids if alive[i])

    # The round-protocol twins of the dense solvers: identical seeds and
    # admission conditions, but per-shard worklists driven through
    # `_fixpoint_rounds` so forced strategies and per-shard tracer spans
    # behave exactly like the dict solvers.  Shared flat arrays replace
    # per-shard sets — safe because every entry is written only by its
    # owner shard (and read by others only via handoffs).

    def _dense_rounds_exists_reach(
        self,
        goal: frozenset[State],
        through: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        shards = self.parallelism
        own = self._owner_bytes()
        dom = bytearray(graph.size)
        dom_ids: list[int] = []
        for state in domain:
            ident = ids[state]
            dom[ident] = 1
            dom_ids.append(ident)
        thr = self._dense_flags(through) if through is not None else None
        admitted = bytearray(graph.size)
        queues: list[deque[int]] = [deque() for _ in range(shards)]
        inboxes: list[list[int]] = [[] for _ in range(shards)]
        work = [0] * shards
        for state in goal:
            ident = ids[state]
            if dom[ident] and not admitted[ident]:
                admitted[ident] = 1
                home = own[ident]
                queues[home].append(ident)
                work[home] += 1
        if boundary:
            bnd = self._dense_flags(boundary)
            fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
            for ident in dom_ids:
                if admitted[ident]:
                    continue
                if thr is not None and not thr[ident]:
                    continue
                for edge in range(fwd_off[ident], fwd_off[ident + 1]):
                    if bnd[fwd_tgt[edge]]:
                        admitted[ident] = 1
                        home = own[ident]
                        queues[home].append(ident)
                        work[home] += 1
                        break
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources

        def step(shard: int) -> list[tuple[int, int]]:
            queue = queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, int]] = []
            for ident in inbox:
                if not admitted[ident]:
                    admitted[ident] = 1
                    queue.append(ident)
                    work[shard] += 1
            while queue:
                target = queue.popleft()
                for edge in range(rev_off[target], rev_off[target + 1]):
                    pred = rev_src[edge]
                    if not dom[pred]:
                        continue
                    if thr is not None and not thr[pred]:
                        continue
                    home = own[pred]
                    if home != shard:
                        outbox.append((home, pred))
                    elif not admitted[pred]:
                        admitted[pred] = 1
                        queue.append(pred)
                        work[shard] += 1
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="exists_reach"
        )
        self._account_sharded(work, handoffs)
        return boundary | frozenset(resolve[i] for i in dom_ids if admitted[i])

    def _dense_rounds_forall_reach(
        self,
        goal: frozenset[State],
        gate: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        shards = self.parallelism
        own = self._owner_bytes()
        dom = bytearray(graph.size)
        dom_ids: list[int] = []
        for state in domain:
            ident = ids[state]
            dom[ident] = 1
            dom_ids.append(ident)
        goalf = self._dense_flags(goal)
        gatef = self._dense_flags(gate) if gate is not None else None
        bnd = self._dense_flags(boundary) if boundary else None
        admitted = bytearray(graph.size)
        pending = [0] * graph.size
        queues: list[deque[int]] = [deque() for _ in range(shards)]
        inboxes: list[list[int]] = [[] for _ in range(shards)]
        work = [0] * shards
        fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
        for ident in dom_ids:
            if goalf[ident]:
                admitted[ident] = 1
                home = own[ident]
                queues[home].append(ident)
                work[home] += 1
                continue
            if gatef is not None and not gatef[ident]:
                continue
            lo, hi = fwd_off[ident], fwd_off[ident + 1]
            if lo == hi:
                continue  # deadlock: AF-style obligations fail here
            count = 0
            for edge in range(lo, hi):
                target = fwd_tgt[edge]
                if dom[target]:
                    count += 1
                elif bnd is None or not bnd[target]:
                    count = -1
                    break
            if count < 0:
                continue
            if count == 0:
                admitted[ident] = 1
                home = own[ident]
                queues[home].append(ident)
                work[home] += 1
            else:
                pending[ident] = count
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources

        def step(shard: int) -> list[tuple[int, int]]:
            queue = queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, int]] = []

            def weaken(ident: int) -> None:
                # One decrement per admitted in-domain successor, so
                # inbox entries are deliberately *not* deduplicated.
                count = pending[ident]
                if count == 0:
                    return
                count -= 1
                pending[ident] = count
                if count == 0:
                    admitted[ident] = 1
                    queue.append(ident)
                    work[shard] += 1

            for ident in inbox:
                weaken(ident)
            while queue:
                target = queue.popleft()
                for edge in range(rev_off[target], rev_off[target + 1]):
                    pred = rev_src[edge]
                    if not dom[pred]:
                        continue
                    home = own[pred]
                    if home == shard:
                        weaken(pred)
                    else:
                        outbox.append((home, pred))
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="forall_reach"
        )
        self._account_sharded(work, handoffs)
        return boundary | frozenset(resolve[i] for i in dom_ids if admitted[i])

    def _dense_rounds_forall_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        shards = self.parallelism
        own = self._owner_bytes()
        dom = bytearray(graph.size)
        dom_ids: list[int] = []
        for state in domain:
            ident = ids[state]
            dom[ident] = 1
            dom_ids.append(ident)
        keepf = self._dense_flags(keep)
        good = None
        if boundary:
            good = bytearray(dom)
            for state in boundary:
                good[ids[state]] = 1
        removed = bytearray(graph.size)
        queues: list[deque[int]] = [deque() for _ in range(shards)]
        inboxes: list[list[int]] = [[] for _ in range(shards)]
        work = [0] * shards
        fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
        for ident in dom_ids:
            if keepf[ident]:
                if good is None:
                    continue
                for edge in range(fwd_off[ident], fwd_off[ident + 1]):
                    if not good[fwd_tgt[edge]]:
                        break
                else:
                    continue
            removed[ident] = 1
            home = own[ident]
            queues[home].append(ident)
            work[home] += 1
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources

        def step(shard: int) -> list[tuple[int, int]]:
            queue = queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, int]] = []
            for ident in inbox:
                if not removed[ident]:
                    removed[ident] = 1
                    queue.append(ident)
                    work[shard] += 1
            while queue:
                target = queue.popleft()
                for edge in range(rev_off[target], rev_off[target + 1]):
                    pred = rev_src[edge]
                    if not dom[pred]:
                        continue
                    home = own[pred]
                    if home != shard:
                        outbox.append((home, pred))
                    elif not removed[pred]:
                        removed[pred] = 1
                        queue.append(pred)
                        work[shard] += 1
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="forall_invariant"
        )
        self._account_sharded(work, handoffs)
        return boundary | (
            (keep & domain) - frozenset(resolve[i] for i in dom_ids if removed[i])
        )

    def _dense_rounds_exists_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        graph, ids, resolve = self._dense_ready()
        shards = self.parallelism
        own = self._owner_bytes()
        dom = bytearray(graph.size)
        for state in domain:
            dom[ids[state]] = 1
        alive = bytearray(graph.size)
        alive_ids: list[int] = []
        for state in keep:
            ident = ids[state]
            if dom[ident] and not alive[ident]:
                alive[ident] = 1
                alive_ids.append(ident)
        static = bytes(alive)
        good = bytearray(alive)
        for state in boundary:
            good[ids[state]] = 1
        support = [0] * graph.size
        queues: list[deque[int]] = [deque() for _ in range(shards)]
        inboxes: list[list[int]] = [[] for _ in range(shards)]
        work = [0] * shards
        fwd_off, fwd_tgt = graph.fwd_offsets, graph.fwd_targets
        for ident in alive_ids:
            lo, hi = fwd_off[ident], fwd_off[ident + 1]
            if lo == hi:
                continue  # deadlock: stays by the δ disjunct
            count = 0
            for edge in range(lo, hi):
                if good[fwd_tgt[edge]]:
                    count += 1
            if count == 0:
                queues[own[ident]].append(ident)
            else:
                support[ident] = count
        rev_off, rev_src = graph.rev_offsets, graph.rev_sources

        def step(shard: int) -> list[tuple[int, int]]:
            queue = queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, int]] = []

            def weaken(ident: int) -> None:
                count = support[ident]
                if count == 0:
                    return
                count -= 1
                support[ident] = count
                if count == 0:
                    queue.append(ident)

            for ident in inbox:
                weaken(ident)
            while queue:
                target = queue.popleft()
                if not alive[target]:
                    continue
                alive[target] = 0
                work[shard] += 1
                for edge in range(rev_off[target], rev_off[target + 1]):
                    pred = rev_src[edge]
                    if not static[pred]:
                        continue
                    home = own[pred]
                    if home == shard:
                        weaken(pred)
                    else:
                        outbox.append((home, pred))
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="exists_invariant"
        )
        self._account_sharded(work, handoffs)
        return boundary | frozenset(resolve[i] for i in alive_ids if alive[i])

    # ------------------------------------------------------ sharded fixpoints
    #
    # Each sharded solver mirrors its sequential twin exactly: the same
    # seeds, the same admission/removal conditions, the same per-event
    # work accounting — only the worklist is split by crc32-of-repr
    # ownership.  Workers touch nothing but their own shard's sets and
    # queues; cross-shard discoveries travel as (shard, state) handoffs
    # routed between rounds by `_fixpoint_rounds`.  Because the fixpoint
    # is confluent and every state is admitted/removed exactly once by
    # its owner, the merged result and the total work counter match the
    # sequential solver bit-for-bit; handoff counts depend only on the
    # edge structure and ownership, never on scheduling.

    def _shard_strategy(self, workload: int) -> str:
        strategy = self.strategy
        if strategy is None:
            strategy = select_strategy(workload, self.parallelism)
        if strategy == "process":
            # Worklists close over the shared predecessor map; pickling
            # it per shard would dwarf any solve, so threads stand in.
            strategy = "thread"
        return strategy

    def _fixpoint_rounds(
        self,
        strategy: str,
        inboxes: list[list[State]],
        queues: "list[deque[State]]",
        step,
        *,
        label: str = "",
    ) -> int:
        """Alternate parallel shard steps with deterministic handoff routing.

        ``step(shard)`` drains the shard's inbox and local worklist —
        mutating only that shard's structures — and returns its outbox
        of ``(shard, state)`` handoffs.  Outboxes are routed in shard
        order between rounds (``WorkerPool.map`` preserves task order);
        rounds continue until no shard holds work, i.e. until the
        global fixpoint.  Returns the number of handoffs emitted.

        With an enabled tracer, each shard's step of each round becomes
        one ``checker.shard_round`` span on the shard's own track — the
        worker times itself, so the span is faithful under any strategy
        that shares the tracer's address space (sequential/thread; the
        checker never runs ``process``, see :meth:`_shard_strategy`).
        """
        shards = len(inboxes)
        pool = self._pool
        tracer = self.tracer
        handoffs = 0
        round_index = 0
        worker = step
        if tracer.enabled:
            round_box = [0]

            def worker(shard: int):
                begin = time.perf_counter()
                outbox = step(shard)
                tracer.record(
                    "checker.shard_round",
                    track=f"checker/shard-{shard}",
                    start=begin,
                    duration=time.perf_counter() - begin,
                    solve=label,
                    round=round_box[0],
                )
                return outbox

        while True:
            active = [k for k in range(shards) if inboxes[k] or queues[k]]
            if not active:
                return handoffs
            if tracer.enabled:
                round_box[0] = round_index
            for outbox in pool.map(strategy, worker, active, workers=shards):
                handoffs += len(outbox)
                for target_shard, state in outbox:
                    inboxes[target_shard].append(state)
            round_index += 1

    def _account_sharded(self, work: list[int], handoffs: int) -> None:
        stats = self.stats
        stats.fixpoint_work += sum(work)
        for shard, amount in enumerate(work):
            stats._sharded_work[shard] += amount
        stats.shard_handoffs += handoffs

    def _sharded_exists_reach(
        self,
        goal: frozenset[State],
        through: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        shards = self.parallelism
        owner = self._owner
        assert owner is not None
        predecessors = self._predecessors
        successors = self._successors
        results: list[set[State]] = [set() for _ in range(shards)]
        queues: list[deque[State]] = [deque() for _ in range(shards)]
        inboxes: list[list[State]] = [[] for _ in range(shards)]
        work = [0] * shards

        for state in goal & domain:
            shard = owner[state]
            results[shard].add(state)
            queues[shard].append(state)
            work[shard] += 1
        if boundary:
            for state in domain:
                shard = owner[state]
                if state in results[shard]:
                    continue
                if through is not None and state not in through:
                    continue
                if any(t in boundary for t in successors[state]):
                    results[shard].add(state)
                    queues[shard].append(state)
                    work[shard] += 1

        def step(shard: int) -> list[tuple[int, State]]:
            result, queue = results[shard], queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, State]] = []
            for state in inbox:
                if state not in result:
                    result.add(state)
                    queue.append(state)
                    work[shard] += 1
            while queue:
                target = queue.popleft()
                for state in predecessors.get(target, ()):
                    if state not in domain:
                        continue
                    if through is not None and state not in through:
                        continue
                    home = owner[state]
                    if home != shard:
                        outbox.append((home, state))
                    elif state not in result:
                        result.add(state)
                        queue.append(state)
                        work[shard] += 1
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="exists_reach"
        )
        self._account_sharded(work, handoffs)
        return boundary | frozenset().union(*results)

    def _sharded_forall_reach(
        self,
        goal: frozenset[State],
        gate: frozenset[State] | None,
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        shards = self.parallelism
        owner = self._owner
        assert owner is not None
        predecessors = self._predecessors
        successors = self._successors
        results: list[set[State]] = [set() for _ in range(shards)]
        pendings: list[dict[State, int]] = [{} for _ in range(shards)]
        queues: list[deque[State]] = [deque() for _ in range(shards)]
        inboxes: list[list[State]] = [[] for _ in range(shards)]
        work = [0] * shards

        for state in domain:
            shard = owner[state]
            if state in goal:
                results[shard].add(state)
                queues[shard].append(state)
                work[shard] += 1
                continue
            if gate is not None and state not in gate:
                continue
            outgoing = successors[state]
            if not outgoing:
                continue  # deadlock: AF-style obligations fail here
            count = 0
            for target in outgoing:
                if target in domain:
                    count += 1  # decremented as in-domain targets are admitted
                elif target not in boundary:
                    count = -1  # an out-of-domain successor that never satisfies
                    break
            if count < 0:
                continue
            if count == 0:
                results[shard].add(state)
                queues[shard].append(state)
                work[shard] += 1
            else:
                pendings[shard][state] = count

        def step(shard: int) -> list[tuple[int, State]]:
            result, queue, pending = results[shard], queues[shard], pendings[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, State]] = []

            def weaken(state: State) -> None:
                # One decrement per admitted in-domain successor, so
                # inbox entries are deliberately *not* deduplicated.
                count = pending.get(state)
                if count is None:
                    return
                count -= 1
                if count == 0:
                    del pending[state]
                    result.add(state)
                    queue.append(state)
                    work[shard] += 1
                else:
                    pending[state] = count

            for state in inbox:
                weaken(state)
            while queue:
                target = queue.popleft()
                for state in predecessors.get(target, ()):
                    if state not in domain:
                        continue
                    home = owner[state]
                    if home == shard:
                        weaken(state)
                    else:
                        outbox.append((home, state))
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="forall_reach"
        )
        self._account_sharded(work, handoffs)
        return boundary | frozenset().union(*results)

    def _sharded_forall_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        shards = self.parallelism
        owner = self._owner
        assert owner is not None
        predecessors = self._predecessors
        successors = self._successors
        removeds: list[set[State]] = [set() for _ in range(shards)]
        queues: list[deque[State]] = [deque() for _ in range(shards)]
        inboxes: list[list[State]] = [[] for _ in range(shards)]
        work = [0] * shards

        good = domain | boundary if boundary else None
        for state in domain:
            if state in keep and (
                good is None or all(t in good for t in successors[state])
            ):
                continue
            shard = owner[state]
            removeds[shard].add(state)
            queues[shard].append(state)
            work[shard] += 1

        def step(shard: int) -> list[tuple[int, State]]:
            removed, queue = removeds[shard], queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, State]] = []
            for state in inbox:
                if state not in removed:
                    removed.add(state)
                    queue.append(state)
                    work[shard] += 1
            while queue:
                state = queue.popleft()
                for pred in predecessors.get(state, ()):
                    if pred not in domain:
                        continue
                    home = owner[pred]
                    if home != shard:
                        outbox.append((home, pred))
                    elif pred not in removed:
                        removed.add(pred)
                        queue.append(pred)
                        work[shard] += 1
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="forall_invariant"
        )
        self._account_sharded(work, handoffs)
        return boundary | ((keep & domain) - frozenset().union(*removeds))

    def _sharded_exists_invariant(
        self,
        keep: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        shards = self.parallelism
        owner = self._owner
        assert owner is not None
        predecessors = self._predecessors
        successors = self._successors
        alive_all = keep & domain
        good = alive_all | boundary if boundary else alive_all
        alives: list[set[State]] = [set() for _ in range(shards)]
        supports: list[dict[State, int]] = [{} for _ in range(shards)]
        queues: list[deque[State]] = [deque() for _ in range(shards)]
        inboxes: list[list[State]] = [[] for _ in range(shards)]
        work = [0] * shards

        for state in alive_all:
            shard = owner[state]
            alives[shard].add(state)
            outgoing = successors[state]
            if not outgoing:
                continue  # deadlock: stays by the δ disjunct
            count = sum(1 for target in outgoing if target in good)
            if count == 0:
                queues[shard].append(state)
            else:
                supports[shard][state] = count

        def step(shard: int) -> list[tuple[int, State]]:
            alive, support, queue = alives[shard], supports[shard], queues[shard]
            inbox, inboxes[shard] = inboxes[shard], []
            outbox: list[tuple[int, State]] = []

            def weaken(state: State) -> None:
                count = support.get(state)
                if count is None:
                    return
                count -= 1
                if count == 0:
                    del support[state]
                    queue.append(state)
                else:
                    support[state] = count

            for state in inbox:
                weaken(state)
            while queue:
                state = queue.popleft()
                if state not in alive:
                    continue
                alive.discard(state)
                work[shard] += 1
                for pred in predecessors.get(state, ()):
                    if pred not in alive_all:
                        continue
                    home = owner[pred]
                    if home == shard:
                        weaken(pred)
                    else:
                        outbox.append((home, pred))
            return outbox

        handoffs = self._fixpoint_rounds(
            self._shard_strategy(len(domain)), inboxes, queues, step, label="exists_invariant"
        )
        self._account_sharded(work, handoffs)
        return boundary | frozenset().union(*alives)

    def _unbounded_unary(
        self,
        operator: str,
        operand: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
    ) -> frozenset[State]:
        with self.tracer.span("checker.fixpoint", solve=operator, domain=len(domain)):
            if operator == "AG":  # gfp Z = φ ∩ pre∀(Z), via the violating complement
                return self._solve_forall_invariant(operand, domain, boundary)
            if operator == "EF":  # lfp Z = φ ∪ pre∃(Z)
                return self._solve_exists_reach(operand, None, domain, boundary)
            if operator == "AF":  # lfp Z = φ ∪ (¬δ ∩ pre∀(Z))
                return self._solve_forall_reach(operand, None, domain, boundary)
            if operator == "EG":  # gfp Z = φ ∩ (δ ∪ pre∃(Z))
                return self._solve_exists_invariant(operand, domain, boundary)
        raise AssertionError(operator)

    def _unbounded_until(
        self,
        left: frozenset[State],
        right: frozenset[State],
        domain: frozenset[State],
        boundary: frozenset[State],
        *,
        universal: bool,
    ) -> frozenset[State]:
        solve = "AU" if universal else "EU"
        with self.tracer.span("checker.fixpoint", solve=solve, domain=len(domain)):
            if universal:  # lfp Z = ψ ∪ (φ ∩ ¬δ ∩ pre∀(Z))
                return self._solve_forall_reach(right, left, domain, boundary)
            return self._solve_exists_reach(right, left, domain, boundary)

    # --------------------------------------------------------- bounded cases

    def bounded_layers(
        self, operator: str, operand: frozenset[State], interval: Interval
    ) -> list[frozenset[State]]:
        """Backward DP layers for a bounded unary operator.

        ``layers[k]`` is the satisfaction set of the operator with the
        window shifted ``k`` steps into the past, i.e. with remaining
        window ``[max(low-k, 0), high-k]``.  ``layers[0]`` is the
        satisfaction set of the operator itself; deeper layers are used
        by the counterexample generator to steer failing paths.
        """
        self._revive()
        memo_key = (operator, operand, interval.low, interval.high)
        cached = self._layer_memo.get(memo_key)
        if cached is None:
            cached = self._compute_layers(
                operator, operand, interval, self.automaton.states, None, frozenset()
            )
            self._layer_memo[memo_key] = cached
        return cached

    def _warm_layers_for(
        self, key: tuple, domain: "frozenset[State] | None"
    ) -> "tuple[list[frozenset[State]] | None, frozenset[State]]":
        """The previous generation's layers and the states keeping them.

        ``(None, ∅)`` for a cold solve (``domain is None``); raises
        ``LookupError`` when a warm solve has no previous layers.
        """
        if domain is None:
            return None, frozenset()
        warm_layers = self._warm_layers.get(key)
        if warm_layers is None:
            raise LookupError(key)
        return warm_layers, self.automaton.states - domain

    def _layers_for(
        self,
        formula: Formula,
        operator: str,
        operand: frozenset[State],
        interval: Interval,
        domain: "frozenset[State] | None",
    ) -> "list[frozenset[State]] | None":
        """Formula-keyed layers: from scratch, or patched over ``domain``.

        A warm solve (``domain`` given) keeps the previous generation's
        layers outside the domain; ``None`` when there are none.
        """
        key = (formula, interval.low, interval.high)
        cached = self._formula_layers.get(key)
        if cached is not None:
            return cached
        try:
            warm_layers, unaffected = self._warm_layers_for(key, domain)
        except LookupError:
            return None
        if warm_layers is not None and not domain and not self._removed:
            layers = warm_layers
        else:
            layers = self._compute_layers(
                operator,
                operand,
                interval,
                self.automaton.states if domain is None else domain,
                warm_layers,
                unaffected,
            )
        self._formula_layers[key] = layers
        memo_key = (operator, operand, interval.low, interval.high)
        self._layer_memo.setdefault(memo_key, layers)
        return layers

    def _compute_layers(
        self,
        operator: str,
        operand: frozenset[State],
        interval: Interval,
        domain: frozenset[State],
        warm_layers: "list[frozenset[State]] | None",
        unaffected: frozenset[State],
    ) -> list[frozenset[State]]:
        with self.tracer.span(
            "checker.bounded",
            solve=operator,
            domain=len(domain),
            window=interval.high - interval.low,
        ):
            return self._compute_layers_inner(
                operator, operand, interval, domain, warm_layers, unaffected
            )

    def _compute_layers_inner(
        self,
        operator: str,
        operand: frozenset[State],
        interval: Interval,
        domain: frozenset[State],
        warm_layers: "list[frozenset[State]] | None",
        unaffected: frozenset[State],
    ) -> list[frozenset[State]]:
        if self.dense:
            return self._dense_layers(operator, operand, interval, domain, warm_layers, unaffected)
        low, high = interval.low, interval.high

        def active(k: int) -> bool:  # is position k inside the window?
            return max(low - k, 0) == 0

        layers: list[frozenset[State]] = [frozenset()] * (high + 1)
        for k in range(high, -1, -1):
            satisfied: set[State] = set()
            last = k == high
            for state in domain:
                here = state in operand
                successors = self._successors[state]
                if operator == "AF":
                    if active(k) and here:
                        ok = True
                    elif last or not successors:
                        ok = False
                    else:
                        ok = all(t in layers[k + 1] for t in successors)
                elif operator == "EF":
                    if active(k) and here:
                        ok = True
                    elif last:
                        ok = False
                    else:
                        ok = any(t in layers[k + 1] for t in successors)
                elif operator == "AG":
                    ok = (not active(k) or here) and (
                        last or all(t in layers[k + 1] for t in successors)
                    )
                elif operator == "EG":
                    ok = (not active(k) or here) and (
                        last or not successors or any(t in layers[k + 1] for t in successors)
                    )
                else:
                    raise AssertionError(operator)
                if ok:
                    satisfied.add(state)
                self.stats.fixpoint_work += 1
            layer = frozenset(satisfied)
            if warm_layers is not None:
                layer |= warm_layers[k] & unaffected
            layers[k] = layer
        return layers

    def _dense_layers(
        self,
        operator: str,
        operand: frozenset[State],
        interval: Interval,
        domain: frozenset[State],
        warm_layers: "list[frozenset[State]] | None",
        unaffected: frozenset[State],
    ) -> list[frozenset[State]]:
        """The bounded unary DP as per-layer predecessor images.

        Each layer is one ``pre∀``/``pre∃`` image of the layer above it
        over the candidate ids — the per-state branch structure of the
        dict DP collapses into a kernel call plus set algebra on id
        lists, with the same per-layer work charge (``|domain|``).

        Cold solves keep the whole DP in id space: the next layer's
        flag buffer is written straight from the satisfied ids, so the
        per-layer cost is one kernel call plus the (contract-mandated)
        frozenset materialisation.  Warm solves patch each layer with
        the unaffected slice of the previous run first and therefore
        re-derive the flags from the patched frozenset.
        """
        low, high = interval.low, interval.high
        graph, ids, resolve = self._dense_ready()
        size = graph.size
        # ``array('I')`` candidate vectors: the numpy kernels convert
        # them via the buffer protocol instead of walking a list.
        dom_ids = array("I", sorted(ids[s] for s in domain))
        operand_flags = self._dense_flags(operand)
        holds_here = array("I", (i for i in dom_ids if operand_flags[i]))
        lacks_here = array("I", (i for i in dom_ids if not operand_flags[i]))
        work_per_layer = len(dom_ids)
        layers: list[frozenset[State]] = [frozenset()] * (high + 1)
        next_flags: bytearray | None = None
        for k in range(high, -1, -1):
            last = k == high
            active = max(low - k, 0) == 0  # is position k inside the window?
            if operator in ("AF", "EF"):
                base = holds_here if active else ()
                cand = lacks_here if active else dom_ids
                if last:
                    satisfied = list(base)
                elif operator == "AF":
                    satisfied = list(base) + graph.pre_forall(
                        next_flags, cand, require_successor=True
                    )
                else:
                    satisfied = list(base) + graph.pre_exists(next_flags, cand)
            else:  # AG / EG
                gate = holds_here if active else dom_ids
                if last:
                    satisfied = gate
                elif operator == "AG":
                    satisfied = graph.pre_forall(next_flags, gate, require_successor=False)
                elif operator == "EG":
                    satisfied = graph.pre_exists(next_flags, gate, empty_satisfies=True)
                else:
                    raise AssertionError(operator)
            self.stats.fixpoint_work += work_per_layer
            layer = frozenset(map(resolve.__getitem__, satisfied))
            if warm_layers is not None:
                layer |= warm_layers[k] & unaffected
            layers[k] = layer
            if k:
                if warm_layers is not None:
                    next_flags = self._dense_flags(layer)
                else:
                    next_flags = flags_of_ids(satisfied, size)
        return layers

    def _bounded_until(
        self,
        formula: Formula,
        left: frozenset[State],
        right: frozenset[State],
        interval: Interval,
        domain: "frozenset[State] | None",
        *,
        universal: bool,
    ) -> "frozenset[State] | None":
        key = (formula, interval.low, interval.high)
        cached = self._formula_layers.get(key)
        if cached is not None:
            return cached[0]
        try:
            warm_layers, unaffected = self._warm_layers_for(key, domain)
        except LookupError:
            return None
        if domain is None:
            domain = self.automaton.states
        low, high = interval.low, interval.high
        solve = "AU" if universal else "EU"
        layers: list[frozenset[State]] = [frozenset()] * (high + 1)
        with self.tracer.span(
            "checker.bounded", solve=solve, domain=len(domain), window=high - low
        ):
            if self.dense:
                layers = self._dense_until_layers(
                    left, right, interval, domain, unaffected, warm_layers,
                    universal=universal,
                )
            else:
                for k in range(high, -1, -1):
                    satisfied: set[State] = set()
                    last = k == high
                    for state in domain:
                        window_open = max(low - k, 0) == 0
                        if window_open and state in right:
                            satisfied.add(state)
                            continue
                        if last or state not in left:
                            continue
                        successors = self._successors[state]
                        if universal:
                            if successors and all(t in layers[k + 1] for t in successors):
                                satisfied.add(state)
                        else:
                            if any(t in layers[k + 1] for t in successors):
                                satisfied.add(state)
                        self.stats.fixpoint_work += 1
                    layer = frozenset(satisfied)
                    if warm_layers is not None:
                        layer |= warm_layers[k] & unaffected
                    layers[k] = layer
        self._formula_layers[key] = layers
        return layers[0]

    def _dense_until_layers(
        self,
        left: frozenset[State],
        right: frozenset[State],
        interval: Interval,
        domain: frozenset[State],
        unaffected: frozenset[State],
        warm_layers: "list[frozenset[State]] | None",
        *,
        universal: bool,
    ) -> list[frozenset[State]]:
        """The bounded-until DP over interned ids (see :meth:`_dense_layers`)."""
        low, high = interval.low, interval.high
        graph, ids, resolve = self._dense_ready()
        size = graph.size
        dom_ids = array("I", sorted(ids[s] for s in domain))
        left_flags = self._dense_flags(left)
        right_flags = self._dense_flags(right)
        right_here = [i for i in dom_ids if right_flags[i]]
        cand_open = array("I", (i for i in dom_ids if left_flags[i] and not right_flags[i]))
        cand_closed = array("I", (i for i in dom_ids if left_flags[i]))
        layers: list[frozenset[State]] = [frozenset()] * (high + 1)
        next_flags: bytearray | None = None
        for k in range(high, -1, -1):
            last = k == high
            window_open = max(low - k, 0) == 0
            base = right_here if window_open else ()
            cand = cand_open if window_open else cand_closed
            if last:
                satisfied = list(base)
            else:
                if universal:
                    hits = graph.pre_forall(next_flags, cand, require_successor=True)
                else:
                    hits = graph.pre_exists(next_flags, cand)
                satisfied = list(base) + hits
                self.stats.fixpoint_work += len(cand)
            layer = frozenset(map(resolve.__getitem__, satisfied))
            if warm_layers is not None:
                layer |= warm_layers[k] & unaffected
            layers[k] = layer
            if k:
                if warm_layers is not None:
                    next_flags = self._dense_flags(layer)
                else:
                    next_flags = flags_of_ids(satisfied, size)
        return layers


def check(automaton: Automaton, formula: Formula) -> CheckResult:
    """One-shot convenience wrapper around :class:`ModelChecker`."""
    return ModelChecker(automaton).check(formula)
