"""Runs and traces (Definitions 2 and 7 of the paper).

A *regular run* is an alternating sequence of states and interactions
``π = s₁, A₁/B₁, s₂, …`` where each ``(sᵢ, Aᵢ, Bᵢ, sᵢ₊₁)`` is a
transition.  A *deadlock run* additionally ends with a final interaction
``Aₙ/Bₙ`` that has **no** successor state — the attempted step is
blocked.  ``π|_{I/O}`` restricts a run to its observable *trace* (the
interaction sequence) and ``π|_S`` to its state sequence.

Runs are the common currency of the library: model-checking
counterexamples, test inputs, monitored executions, and learned behavior
are all runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..errors import ModelError
from .automaton import Automaton, State, Transition
from .interaction import Interaction

__all__ = ["Run", "Trace", "enumerate_runs", "enumerate_traces", "run_of_transitions"]

#: A trace ``π|_{I/O}``: the observable interaction sequence of a run.
Trace = tuple[Interaction, ...]


@dataclass(frozen=True)
class Run:
    """A regular or deadlock run.

    Attributes
    ----------
    start:
        The first state ``s₁``.
    steps:
        The executed steps, each a ``(interaction, target_state)`` pair.
    blocked:
        ``None`` for a regular run.  For a deadlock run, the final
        interaction ``Aₙ/Bₙ`` that was attempted in the last state but
        has no successor.
    """

    start: State
    steps: tuple[tuple[Interaction, State], ...] = field(default_factory=tuple)
    blocked: Interaction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    # ------------------------------------------------------------- properties

    @property
    def is_deadlock_run(self) -> bool:
        return self.blocked is not None

    @property
    def states(self) -> tuple[State, ...]:
        """``π|_S``: the visited state sequence."""
        return (self.start, *(state for _, state in self.steps))

    @property
    def last_state(self) -> State:
        """The state in which the run ends (where ``blocked`` applies)."""
        return self.steps[-1][1] if self.steps else self.start

    @property
    def trace(self) -> Trace:
        """``π|_{I/O}``: the observable trace, including a blocked tail."""
        interactions = tuple(interaction for interaction, _ in self.steps)
        if self.blocked is not None:
            interactions += (self.blocked,)
        return interactions

    def __len__(self) -> int:
        """The number of interactions (blocked attempt included)."""
        return len(self.steps) + (1 if self.blocked is not None else 0)

    # ------------------------------------------------------------- operations

    def extend(self, interaction: Interaction, target: State) -> "Run":
        """A new run with one more executed step appended."""
        if self.blocked is not None:
            raise ModelError("cannot extend a deadlock run: its last interaction is blocked")
        return Run(self.start, (*self.steps, (interaction, target)))

    def block(self, interaction: Interaction) -> "Run":
        """A new deadlock run ending with the given blocked interaction."""
        if self.blocked is not None:
            raise ModelError("run already ends in a blocked interaction")
        return Run(self.start, self.steps, blocked=interaction)

    def prefix(self, n_steps: int) -> "Run":
        """The regular run consisting of the first ``n_steps`` steps."""
        if not 0 <= n_steps <= len(self.steps):
            raise ValueError(f"prefix length {n_steps} out of range 0..{len(self.steps)}")
        return Run(self.start, self.steps[:n_steps])

    def transitions(self) -> tuple[Transition, ...]:
        """The executed steps as :class:`Transition` objects."""
        result = []
        current = self.start
        for interaction, target in self.steps:
            result.append(Transition(current, interaction, target))
            current = target
        return tuple(result)

    def project(self, component_index: int, inputs: frozenset[str], outputs: frozenset[str]) -> "Run":
        """Project a run of a composed automaton onto one component.

        The states of a pairwise parallel composition are tuples; the
        projection keeps component ``component_index`` of each state and
        restricts every interaction to the component's signals.  This is
        how a verification counterexample of ``M_a^c ∥ M_a^i`` becomes a
        test input for the legacy component (§4.2).
        """

        def pick(state: State) -> State:
            if not isinstance(state, tuple):
                raise ModelError(f"state {state!r} is not a composed (tuple) state")
            return state[component_index]

        # A run repeats a handful of interactions many times over:
        # restrict each distinct one once.
        restricted: dict[Interaction, Interaction] = {}
        steps = []
        for interaction, state in self.steps:
            local = restricted.get(interaction)
            if local is None:
                local = restricted[interaction] = interaction.restrict(inputs, outputs)
            steps.append((local, pick(state)))
        blocked = self.blocked.restrict(inputs, outputs) if self.blocked is not None else None
        return Run(pick(self.start), steps, blocked=blocked)

    # ------------------------------------------------------------- validation

    def is_run_of(self, automaton: Automaton) -> bool:
        """Is this a run of ``automaton`` per Definition 2?

        Checks that the start state is initial, every step is a
        transition, and — for a deadlock run — that the final interaction
        indeed has no successor from the last state.
        """
        if self.start not in automaton.initial:
            return False
        current = self.start
        for interaction, target in self.steps:
            if Transition(current, interaction, target) not in automaton.transitions:
                return False
            current = target
        if self.blocked is not None:
            for transition in automaton.transitions_from(current):
                if transition.interaction == self.blocked:
                    return False
        return True

    def __str__(self) -> str:
        parts = [repr(self.start)]
        for interaction, state in self.steps:
            parts.append(f"-{interaction}->")
            parts.append(repr(state))
        if self.blocked is not None:
            parts.append(f"-{self.blocked}-> ⊥")
        return " ".join(parts)


def run_of_transitions(transitions: Iterable[Transition], *, blocked: Interaction | None = None) -> Run:
    """Build a run from a connected transition sequence."""
    transitions = list(transitions)
    if not transitions:
        raise ModelError("cannot build a run from an empty transition sequence")
    current = transitions[0].source
    steps = []
    for transition in transitions:
        if transition.source != current:
            raise ModelError(
                f"transition sequence is not connected: {transition.source!r} != {current!r}"
            )
        steps.append((transition.interaction, transition.target))
        current = transition.target
    # One steps tuple for the whole run: extending step by step would
    # copy the growing tuple once per transition.
    return Run(transitions[0].source, tuple(steps), blocked=blocked)


def enumerate_runs(
    automaton: Automaton,
    max_steps: int,
    *,
    include_deadlock_runs: bool = True,
    blocked_universe: Iterable[Interaction] | None = None,
) -> Iterator[Run]:
    """Enumerate ``[M]`` up to a step bound (for tests and brute force).

    Yields every regular run with at most ``max_steps`` executed steps.
    With ``include_deadlock_runs`` the deadlock runs of Definition 2 are
    produced as well: for a *complete* automaton every interaction at a
    deadlock state is blocked, so a universe of candidate blocked
    interactions must be supplied via ``blocked_universe`` (defaulting to
    all interactions occurring anywhere in the automaton).
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    candidates = tuple(
        sorted(
            set(blocked_universe) if blocked_universe is not None else automaton.interactions,
            key=Interaction.sort_key,
        )
    )

    def blocked_here(state: State) -> Iterator[Interaction]:
        enabled = automaton.enabled(state)
        for interaction in candidates:
            if interaction not in enabled:
                yield interaction

    stack: list[Run] = [Run(state) for state in sorted(automaton.initial, key=repr)]
    while stack:
        run = stack.pop()
        yield run
        if include_deadlock_runs:
            for interaction in blocked_here(run.last_state):
                yield run.block(interaction)
        if len(run.steps) < max_steps:
            for transition in automaton.transitions_from(run.last_state):
                stack.append(run.extend(transition.interaction, transition.target))


def enumerate_traces(automaton: Automaton, max_steps: int) -> set[Trace]:
    """All observable traces of regular runs up to the step bound."""
    return {
        run.trace
        for run in enumerate_runs(automaton, max_steps, include_deadlock_runs=False)
    }
