"""The learning step: merging observed runs into the model (§4.3).

Definition 11 merges a *regular* observed run into the incomplete
automaton: new states, new transitions, (new initial states).
Definition 12 merges a *deadlock* run: the blocked interaction becomes
a refusal in ``T̄``.  Both preserve observation conformance, so by
Lemma 7 the chaotic closure of the learned model remains a safe
abstraction (``M_r ⊑ M_a^{i+1}``).

Beyond the literal definitions, :func:`learn` supports the two refusal
modes discussed in §4.3's determinism argument:

* ``conservative`` — record only the single attempted interaction as
  refused (the letter of Definition 12);
* ``deterministic`` (default) — exploit that the implementation is
  (strongly) deterministic: if state ``s`` *reacted* to inputs ``A``
  with outputs ``B_obs``, then every ``(s, A, B)`` with ``B ≠ B_obs``
  is impossible and can be refused wholesale; if ``s`` did not react to
  ``A`` at all, every ``(s, A, B)`` can.  This is sound for the
  components the paper targets ("we will build components such that any
  non-determinism or pseudo non-determinism is excluded") and shortens
  the iteration series considerably.
"""

from __future__ import annotations

from typing import Literal

from ..automata.automaton import Automaton, Transition
from ..automata.incomplete import IncompleteAutomaton
from ..automata.interaction import InteractionUniverse
from ..automata.runs import Run
from ..errors import LearningError, ModelError
from .initial import StateLabeler

__all__ = ["RefusalMode", "learn", "learn_regular", "learn_blocked", "refuse"]

RefusalMode = Literal["conservative", "deterministic"]


def refuse(
    model: IncompleteAutomaton,
    state,
    interactions,
    *,
    allow_no_progress: bool = False,
) -> IncompleteAutomaton:
    """Add refusals at a known state, skipping already-known interactions.

    Used by the iterative synthesis after a *divergence*: when a
    deterministic component reacted to inputs ``A`` with outputs
    ``B_obs``, every other ``(A, B)`` at that state is impossible and
    can be refused without a dedicated deadlock run.
    """
    known = {t.interaction for t in model.automaton.transitions_from(state)}
    learned = model.with_refusals_at(
        state, (interaction for interaction in interactions if interaction not in known)
    )
    if learned is model and not allow_no_progress:
        raise LearningError(f"refusal update at {state!r} added nothing new")
    return learned


def learn_regular(
    model: IncompleteAutomaton, run: Run, *, labeler: StateLabeler | None = None
) -> IncompleteAutomaton:
    """Definition 11: merge a regular observed run into the model.

    The merge is *incremental*: a run only ever adds states and
    transitions, so instead of rebuilding (and re-sorting,
    re-validating) the whole automaton, only the per-source transition
    slices touched by the run are updated and everything else — states,
    labels, the refusal index — is shared with the previous model.
    """
    if run.blocked is not None:
        raise LearningError("learn_regular expects a regular run; use learn for deadlock runs")
    automaton = model.automaton
    known_by_source = automaton._by_source
    refused_by_state = model._refused_by_state
    new_transitions: list[Transition] = []
    seen_new: set[tuple] = set()

    # Walk the run against the per-source slices: a step the model already
    # knows costs a few lookups, and only new steps become Transitions.
    source = run.start
    for interaction, target in run.steps:
        refused = refused_by_state.get(source)
        if refused is not None and interaction in refused:
            raise LearningError(
                f"observed transition {Transition(source, interaction, target)!r} contradicts "
                "an earlier refusal: the component behaved non-deterministically"
            )
        known = False
        for existing in known_by_source.get(source, ()):
            other = existing.interaction
            if other is interaction or other == interaction:
                if existing.target != target:
                    raise LearningError(
                        f"observed transition {Transition(source, interaction, target)!r} "
                        f"conflicts with known {existing!r}: the component behaved "
                        "non-deterministically"
                    )
                known = True
        if not known and (source, interaction, target) not in seen_new:
            transition = Transition(source, interaction, target)
            if not interaction.inputs <= automaton.inputs:
                raise ModelError(
                    f"automaton {automaton.name!r}: transition {transition!r} consumes signals "
                    f"outside I={sorted(automaton.inputs)}"
                )
            if not interaction.outputs <= automaton.outputs:
                raise ModelError(
                    f"automaton {automaton.name!r}: transition {transition!r} produces signals "
                    f"outside O={sorted(automaton.outputs)}"
                )
            seen_new.add((source, interaction, target))
            new_transitions.append(transition)
        source = target

    if not new_transitions and run.start in automaton.initial:
        return model

    by_source = dict(automaton._by_source)
    added: dict = {}
    for transition in new_transitions:
        added.setdefault(transition.source, []).append(transition)
    for source, extra in added.items():
        by_source[source] = tuple(
            sorted((*by_source.get(source, ()), *extra), key=Transition.sort_key)
        )
    old_states = automaton.states
    extra_states = {
        state
        for transition in new_transitions
        for state in (transition.source, transition.target)
        if state not in old_states
    }
    labels = automaton._labels
    if labeler is not None and extra_states:
        labels = dict(labels)
        for state in extra_states:
            labels[state] = frozenset(labeler(state))
    merged = Automaton._assemble(
        states=old_states | extra_states | {run.start},
        inputs=automaton.inputs,
        outputs=automaton.outputs,
        by_source=by_source,
        transition_count=automaton.transition_count + len(new_transitions),
        initial=automaton.initial | {run.start},
        labels=labels,
        name=automaton.name,
    )
    # Refusal consistency for the new transitions was checked above and
    # no refusal state disappeared, so the index carries over verbatim.
    touched = set(added) | extra_states
    if run.start not in automaton.initial:
        touched.add(run.start)
    return model._derive(merged, model.refusals, refused_by_state, touched)


def learn_blocked(
    model: IncompleteAutomaton,
    run: Run,
    *,
    labeler: StateLabeler | None = None,
    mode: RefusalMode = "deterministic",
    universe: InteractionUniverse | None = None,
    observed_outputs: frozenset[str] | None = None,
) -> IncompleteAutomaton:
    """Definition 12 (with the deterministic extension): merge a deadlock run.

    The regular prefix is learned per Definition 11 first; the blocked
    tail then becomes refusals.  In ``deterministic`` mode a
    ``universe`` is required: with ``observed_outputs=None`` (no
    reaction at all) every interaction with the blocked inputs is
    refused; with observed outputs ``B_obs`` every interaction with the
    blocked inputs and outputs other than ``B_obs`` is refused.
    """
    if run.blocked is None:
        raise LearningError("learn_blocked expects a deadlock run with a blocked tail")
    prefix = Run(run.start, run.steps)
    merged = learn_regular(model, prefix, labeler=labeler)
    state = run.last_state
    known = {t.interaction for t in merged.automaton.transitions_from(state)}

    if mode == "conservative":
        candidates = [run.blocked]
    else:
        if universe is None:
            raise LearningError("deterministic refusal mode needs the interaction universe")
        candidates = [
            interaction
            for interaction in universe
            if interaction.inputs == run.blocked.inputs
            and (observed_outputs is None or interaction.outputs != observed_outputs)
        ]
        if run.blocked not in candidates and run.blocked not in known:
            candidates.append(run.blocked)
    for interaction in candidates:
        if interaction in known:
            raise LearningError(
                f"refusal of {interaction} at {state!r} contradicts a known transition: "
                "the component behaved non-deterministically"
            )
    learned = merged.with_refusals_at(state, candidates)
    if learned is merged:
        raise LearningError(
            f"deadlock run added no new refusal at {state!r}: the learning step made no progress"
        )
    return learned


def learn(
    model: IncompleteAutomaton,
    run: Run,
    *,
    labeler: StateLabeler | None = None,
    mode: RefusalMode = "deterministic",
    universe: InteractionUniverse | None = None,
    observed_outputs: frozenset[str] | None = None,
) -> IncompleteAutomaton:
    """Merge an observed run — regular or deadlock — into the model."""
    if run.blocked is None:
        return learn_regular(model, run, labeler=labeler)
    return learn_blocked(
        model,
        run,
        labeler=labeler,
        mode=mode,
        universe=universe,
        observed_outputs=observed_outputs,
    )
