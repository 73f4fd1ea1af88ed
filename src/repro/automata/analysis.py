"""Reachability and structural analyses over automata.

These are the small graph algorithms everything else builds on:
breadth-first reachability, shortest witness runs, deadlock detection
(the ``δ`` of §2.1), and pruning of unreachable state combinations.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from .automaton import Automaton, State, Transition
from .runs import Run, run_of_transitions

__all__ = [
    "BreadthFirstIndex",
    "reachable_states",
    "prune_unreachable",
    "shortest_run_to",
    "reachable_deadlocks",
    "deadlock_witness",
    "transition_cover_runs",
]


def reachable_states(automaton: Automaton) -> frozenset[State]:
    """All states reachable from the initial set."""
    seen: set[State] = set(automaton.initial)
    queue: deque[State] = deque(automaton.initial)
    while queue:
        state = queue.popleft()
        for transition in automaton.transitions_from(state):
            if transition.target not in seen:
                seen.add(transition.target)
                queue.append(transition.target)
    return frozenset(seen)


def prune_unreachable(automaton: Automaton) -> Automaton:
    """A copy restricted to the reachable part of the state space."""
    reachable = reachable_states(automaton)
    if reachable == automaton.states:
        return automaton
    return automaton.replace(
        states=reachable,
        transitions=[t for t in automaton.transitions if t.source in reachable],
        labels={s: props for s, props in automaton.label_map.items() if s in reachable},
    )


class BreadthFirstIndex:
    """A maintained copy of the breadth-first search of one automaton.

    ``position`` numbers every reachable state in the order a fresh
    :func:`shortest_run_to` search pops it (initial states sorted by
    ``repr``, then each state's ``transitions_from`` in order, first
    discovery wins) and ``parent`` holds the discovering transition
    (``None`` for initial states).  The owner patches both maps in place
    as the automaton evolves (see
    :class:`~repro.automata.incremental.IncrementalProduct`) and
    re-points :attr:`automaton` at each new snapshot, so the index is
    only ever consulted for the automaton it currently describes.
    """

    __slots__ = ("automaton", "position", "parent")

    def __init__(self, position: dict, parent: dict):
        self.automaton: Automaton | None = None
        self.position = position
        self.parent = parent

    def first(self, goals: Iterable[State], limit: int = 1) -> list[State]:
        """The ``limit`` goal states a breadth-first search pops first."""
        position = self.position
        found = [state for state in goals if state in position]
        if limit == 1:
            return [min(found, key=position.__getitem__)] if found else []
        found.sort(key=position.__getitem__)
        return found[:limit]

    def run_to(self, state: State) -> Run:
        """The search tree's run from an initial state to ``state``."""
        parent = self.parent
        chain: list[Transition] = []
        transition = parent[state]
        while transition is not None:
            chain.append(transition)
            transition = parent[transition.source]
        if not chain:
            return Run(state)
        chain.reverse()
        return run_of_transitions(chain)


def shortest_run_to(
    automaton: Automaton,
    goal: Callable[[State], bool],
    *,
    goals: Iterable[State] | None = None,
) -> Run | None:
    """A shortest regular run from an initial state to a goal state.

    Returns ``None`` when no goal state is reachable.  Used by the
    counterexample generator to produce the *shortest* witness — the
    optimisation the paper's conclusion singles out as desirable for
    counterexample-guided testing.

    ``goals``, when given, must be exactly the states satisfying
    ``goal``; if the automaton carries a :class:`BreadthFirstIndex`,
    the run is then read off the maintained search tree instead of
    searching again — the same run, bit for bit.
    """
    index = automaton._search_index
    if goals is not None and index is not None and index.automaton is automaton:
        first = index.first(goals)
        return index.run_to(first[0]) if first else None
    parents: dict[State, Transition | None] = {}
    queue: deque[State] = deque()
    for state in sorted(automaton.initial, key=repr):
        parents[state] = None
        queue.append(state)
    target: State | None = None
    while queue:
        state = queue.popleft()
        if goal(state):
            target = state
            break
        for transition in automaton.transitions_from(state):
            if transition.target not in parents:
                parents[transition.target] = transition
                queue.append(transition.target)
    if target is None and not any(goal(s) for s in parents):
        return None
    if target is None:
        target = next(s for s in parents if goal(s))
    chain: list[Transition] = []
    cursor: State = target
    while parents[cursor] is not None:
        transition = parents[cursor]
        assert transition is not None
        chain.append(transition)
        cursor = transition.source
    chain.reverse()
    if not chain:
        return Run(target)
    return run_of_transitions(chain)


def reachable_deadlocks(automaton: Automaton) -> frozenset[State]:
    """Reachable states without outgoing transitions (``M ⊨ δ`` check)."""
    return frozenset(s for s in reachable_states(automaton) if automaton.is_deadlock(s))


def deadlock_witness(automaton: Automaton) -> Run | None:
    """A shortest run into a reachable deadlock state, or ``None``."""
    return shortest_run_to(automaton, automaton.is_deadlock)


def transition_cover_runs(automaton: Automaton, extra: Iterable[Transition] = ()) -> list[Run]:
    """Runs that jointly execute every reachable transition at least once.

    Used by the model-based testing support (§5) to build a transition
    coverage test suite from a behavioral model.
    """
    runs: list[Run] = []
    covered: set[Transition] = set()
    pending = [
        t
        for t in sorted(
            automaton.transitions, key=lambda t: (repr(t.source), t.interaction.sort_key(), repr(t.target))
        )
        if t.source in reachable_states(automaton)
    ]
    pending.extend(extra)
    for transition in pending:
        if transition in covered:
            continue
        prefix = shortest_run_to(automaton, lambda s, src=transition.source: s == src)
        if prefix is None:
            continue
        run = prefix.extend(transition.interaction, transition.target)
        covered.update(run.transitions())
        runs.append(run)
    return runs
