"""Incomplete automata (Definitions 6 and 7 of the paper).

An incomplete automaton ``M = (S, I, O, T, T̄, Q)`` records *partial*
knowledge about a component: ``T`` holds the interactions known to be
possible, and the refusal set ``T̄ ⊆ S × ℘(I) × ℘(O)`` holds the
interactions known to be **impossible** (observed to block).  Everything
mentioned in neither set is simply *unknown* — the chaotic closure
(:mod:`repro.automata.chaos`) later interprets the unknown part
pessimistically.

Deadlock runs of an incomplete automaton exist only where ``T̄`` says so
(Definition 7): unknown interactions do not implicitly deadlock.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..errors import ModelError
from .automaton import Automaton, State, Transition
from .interaction import Interaction, InteractionUniverse
from .runs import Run

__all__ = ["Refusal", "IncompleteAutomaton"]


class Refusal:
    """One element of ``T̄``: interaction known to be blocked in a state."""

    __slots__ = ("state", "interaction", "_hash")

    def __init__(self, state: State, interaction: Interaction):
        self.state = state
        self.interaction = interaction

    def _key(self) -> tuple:
        return (self.state, self.interaction)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Refusal):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # Refusal sets are rebuilt on every learning step; cache the
        # hash so those set operations stay cheap (cf. Transition).
        try:
            return self._hash
        except AttributeError:
            value = hash((self.state, self.interaction))
            self._hash = value
            return value

    def __repr__(self) -> str:
        return f"Refusal({self.state!r}, {self.interaction})"


def _as_refusal(item: "Refusal | tuple") -> Refusal:
    if isinstance(item, Refusal):
        return item
    if isinstance(item, tuple):
        if len(item) == 2:
            state, interaction = item
            if not isinstance(interaction, Interaction):
                interaction = Interaction(*interaction)
            return Refusal(state, interaction)
        if len(item) == 3:
            state, inputs, outputs = item
            return Refusal(state, Interaction(inputs, outputs))
    raise TypeError(f"cannot interpret {item!r} as a refusal")


class IncompleteAutomaton:
    """Immutable incomplete automaton ``(S, I, O, T, T̄, Q)``.

    Definition 6's consistency requirement — no interaction is both a
    transition and a refusal — is validated at construction time.

    Models derived by the learning step also carry a private *change
    journal*: one list shared along a lineage of derivations, holding
    per step the base states whose local knowledge (outgoing
    transitions, refusals, labels) may have changed.  The incremental
    closure reads it to find its dirty groups without comparing every
    state (:meth:`changes_since`); it is bookkeeping, not part of the
    model's value.
    """

    __slots__ = ("automaton", "refusals", "_refused_by_state", "_journal", "_version")

    def __init__(
        self,
        *,
        states: Iterable[State] = (),
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        transitions: Iterable[Transition | tuple] = (),
        refusals: Iterable[Refusal | tuple] = (),
        initial: Iterable[State],
        labels: Mapping[State, Iterable[str]] | None = None,
        name: str = "M",
    ):
        self.automaton = Automaton(
            states=states,
            inputs=inputs,
            outputs=outputs,
            transitions=transitions,
            initial=initial,
            labels=labels,
            name=name,
        )
        self.refusals = frozenset(_as_refusal(r) for r in refusals)
        self._index_refusals()
        self._journal = None
        self._version = 0

    def _index_refusals(self) -> None:
        """Validate ``T̄`` against the automaton and index it by state."""
        automaton = self.automaton
        name = automaton.name
        refused: dict[State, set[Interaction]] = {}
        for refusal in self.refusals:
            if refusal.state not in automaton.states:
                raise ModelError(
                    f"incomplete automaton {name!r}: refusal {refusal!r} names an unknown state"
                )
            if not refusal.interaction.inputs <= automaton.inputs:
                raise ModelError(f"refusal {refusal!r} consumes signals outside I")
            if not refusal.interaction.outputs <= automaton.outputs:
                raise ModelError(f"refusal {refusal!r} produces signals outside O")
            refused.setdefault(refusal.state, set()).add(refusal.interaction)
        self._refused_by_state = {s: frozenset(i) for s, i in refused.items()}
        # Consistency (Definition 6): only states with refusals can clash.
        for state, refused_set in self._refused_by_state.items():
            for transition in automaton.transitions_from(state):
                if transition.interaction in refused_set:
                    raise ModelError(
                        f"incomplete automaton {name!r} is inconsistent (Definition 6): "
                        f"{transition!r} is both a transition and a refusal"
                    )

    # ---------------------------------------------------------------- access

    @property
    def name(self) -> str:
        return self.automaton.name

    @property
    def states(self) -> frozenset[State]:
        return self.automaton.states

    @property
    def inputs(self) -> frozenset[str]:
        return self.automaton.inputs

    @property
    def outputs(self) -> frozenset[str]:
        return self.automaton.outputs

    @property
    def transitions(self) -> frozenset[Transition]:
        return self.automaton.transitions

    @property
    def initial(self) -> frozenset[State]:
        return self.automaton.initial

    def labels(self, state: State) -> frozenset[str]:
        return self.automaton.labels(state)

    def refused(self, state: State) -> frozenset[Interaction]:
        """The interactions known to be blocked in ``state``."""
        if state not in self.states:
            raise ModelError(f"incomplete automaton {self.name!r} has no state {state!r}")
        return self._refused_by_state.get(state, frozenset())

    def status(self, state: State, interaction: Interaction) -> str:
        """``'known'``, ``'refused'``, or ``'unknown'`` for ``(s, A, B)``."""
        if any(
            t.interaction == interaction for t in self.automaton.transitions_from(state)
        ):
            return "known"
        if interaction in self.refused(state):
            return "refused"
        return "unknown"

    def is_deterministic(self) -> bool:
        """§2.6: ≤ 1 entry per ``(s, A, B)`` across ``T`` and ``T̄``."""
        seen: set[tuple[State, Interaction]] = set()
        for transition in self.transitions:
            key = (transition.source, transition.interaction)
            if key in seen:
                return False
            seen.add(key)
        for refusal in self.refusals:
            key = (refusal.state, refusal.interaction)
            if key in seen:
                return False
            seen.add(key)
        return len(self.initial) <= 1

    def is_complete(self, universe: InteractionUniverse) -> bool:
        """Definition 6's final completeness: every interaction decided."""
        for state in self.states:
            enabled = {t.interaction for t in self.automaton.transitions_from(state)}
            refused = self.refused(state)
            for interaction in universe:
                if (interaction in enabled) == (interaction in refused):
                    return False
        return True

    def knowledge_size(self) -> int:
        """``|T| + |T̄|`` — the strictly monotone progress measure of §4.4."""
        return self.automaton.transition_count + len(self.refusals)

    # ------------------------------------------------------------- lineage

    def lineage(self) -> "tuple[list[frozenset[State]], int]":
        """This model's change journal and its position in it.

        A model built directly (not derived by learning) roots a new,
        empty journal on first use.
        """
        if self._journal is None:
            self._journal = []
            self._version = 0
        return self._journal, self._version

    def changes_since(
        self, journal: "list[frozenset[State]]", version: int
    ) -> frozenset[State] | None:
        """Base states possibly changed since lineage position ``version``.

        ``None`` when this model does not descend from that position
        along ``journal`` — the caller must then compare every state.
        """
        if self._journal is not journal or self._version < version:
            return None
        if self._version == version:
            return frozenset()
        return frozenset().union(*journal[version : self._version])

    def _derive(
        self,
        automaton: Automaton,
        refusals: frozenset[Refusal],
        refused_by_state: dict[State, frozenset[Interaction]],
        touched: Iterable[State],
    ) -> "IncompleteAutomaton":
        """A model sharing everything the caller did not change.

        ``touched`` names every base state whose outgoing transitions,
        refusals or labels differ from this model's, or that is new.
        The caller guarantees consistency (Definition 6) of the result.
        """
        child = object.__new__(IncompleteAutomaton)
        child.automaton = automaton
        child.refusals = refusals
        child._refused_by_state = refused_by_state
        journal, version = self.lineage()
        if len(journal) == version:
            journal.append(frozenset(touched))
            child._journal = journal
            child._version = version + 1
        else:
            # A second derivation from the same model: start a new
            # lineage rather than interleave two histories in one journal.
            child._journal = None
            child._version = 0
        return child

    def with_refusals_at(
        self, state: State, interactions: Iterable[Interaction]
    ) -> "IncompleteAutomaton":
        """Add refusals at one known state, validating only the new ones.

        Every other state's refusal index is shared with this model.
        Raises :class:`ModelError` when a new refusal names an unknown
        state, stray signals, or an interaction that is also a known
        transition (Definition 6).
        """
        automaton = self.automaton
        present = self._refused_by_state.get(state, frozenset())
        known = {t.interaction for t in automaton.transitions_from(state)}
        fresh: list[Refusal] = []
        added: set[Interaction] = set()
        for interaction in interactions:
            if interaction in present or interaction in added:
                continue
            refusal = Refusal(state, interaction)
            if state not in automaton.states:
                raise ModelError(
                    f"incomplete automaton {self.name!r}: refusal {refusal!r} names an "
                    "unknown state"
                )
            if not interaction.inputs <= automaton.inputs:
                raise ModelError(f"refusal {refusal!r} consumes signals outside I")
            if not interaction.outputs <= automaton.outputs:
                raise ModelError(f"refusal {refusal!r} produces signals outside O")
            if interaction in known:
                raise ModelError(
                    f"incomplete automaton {self.name!r} is inconsistent (Definition 6): "
                    f"{refusal!r} is both a transition and a refusal"
                )
            added.add(interaction)
            fresh.append(refusal)
        if not fresh:
            return self
        refused_by_state = dict(self._refused_by_state)
        refused_by_state[state] = present | added
        return self._derive(
            automaton, self.refusals.union(fresh), refused_by_state, (state,)
        )

    # --------------------------------------------------------------- updates

    def replace(
        self,
        *,
        transitions: Iterable[Transition | tuple] | None = None,
        refusals: Iterable[Refusal | tuple] | None = None,
        states: Iterable[State] | None = None,
        initial: Iterable[State] | None = None,
        labels: Mapping[State, Iterable[str]] | None = None,
        name: str | None = None,
    ) -> "IncompleteAutomaton":
        return IncompleteAutomaton(
            states=self.states if states is None else states,
            inputs=self.inputs,
            outputs=self.outputs,
            transitions=self.transitions if transitions is None else transitions,
            refusals=self.refusals if refusals is None else refusals,
            initial=self.initial if initial is None else initial,
            labels=dict(self.automaton.label_map) if labels is None else labels,
            name=self.name if name is None else name,
        )

    # ------------------------------------------------------------------ runs

    def is_run(self, run: Run) -> bool:
        """Definition 7: deadlock runs must end in an explicit refusal."""
        if run.start not in self.initial:
            return False
        current = run.start
        for interaction, target in run.steps:
            if Transition(current, interaction, target) not in self.transitions:
                return False
            current = target
        if run.blocked is not None:
            return run.blocked in self.refused(current)
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncompleteAutomaton):
            return NotImplemented
        return self.automaton == other.automaton and self.refusals == other.refusals

    def __hash__(self) -> int:
        return hash((self.automaton, self.refusals))

    def __repr__(self) -> str:
        return (
            f"IncompleteAutomaton(name={self.name!r}, |S|={len(self.states)}, "
            f"|T|={len(self.transitions)}, |T̄|={len(self.refusals)})"
        )
