"""Counterexample extraction for violated universal properties (§4.1).

The verification step of the iterative synthesis needs more than a
yes/no answer: a violated check must yield a *run* of the composed
automaton that witnesses the violation, because that run (projected
onto the legacy component) becomes the next test input (§4.2).

Supported formula shapes — exactly the compositional constraints the
paper works with (§2.4: invariants, upper/lower time bounds, ACTL):

* ``AG ψ`` with ``ψ`` a boolean combination of atoms: shortest run to a
  reachable state violating ``ψ`` (this covers the paper's pattern
  constraint ``A[] not(rear.convoy and front.noConvoy)`` and the
  deadlock check ``AG not deadlock``, whose witness ends *in* the
  deadlock state as in Listing 1.1);
* ``AG ψ`` where ``ψ`` contains bounded ``AF``/``AU`` obligations (the
  paper's maximal-delay constraints ``AG(¬p₁ ∨ AF_[1,d] p₂)``): the
  witness run reaches the trigger state and is extended along a path on
  which the obligation demonstrably fails;
* top-level ``AF``/``AF_[a,b]``/``AU``: a maximal (or window-exhausting)
  path avoiding the goal;
* conjunctions of the above: the first violated conjunct is explained.

The shortest-run policy implements the optimisation the paper's
conclusion asks for ("specific strategies in model checkers to derive
counterexamples (e.g., the shortest one)").
"""

from __future__ import annotations

from collections import deque

from ..automata.analysis import shortest_run_to
from ..automata.automaton import Automaton, State
from ..automata.runs import Run, run_of_transitions
from ..errors import CounterexampleError
from .checker import ModelChecker
from .formulas import (
    AF,
    AG,
    AU,
    And,
    Deadlock,
    FalseF,
    Formula,
    Implies,
    Not,
    Or,
    Prop,
    TrueF,
)

__all__ = ["counterexample", "counterexamples", "deadlock_counterexample"]

_BOOLEAN_NODES = (Prop, Deadlock, TrueF, FalseF, Not, And, Or, Implies)


def _is_boolean(formula: Formula) -> bool:
    return isinstance(formula, _BOOLEAN_NODES) and all(
        _is_boolean(child) for child in formula.children()
    )


def deadlock_counterexample(automaton: Automaton) -> Run | None:
    """A shortest run into a reachable deadlock state (``M ⊨ δ`` witness)."""
    return shortest_run_to(automaton, automaton.is_deadlock)


def counterexample(
    automaton: Automaton, formula: Formula, *, checker: ModelChecker | None = None
) -> Run | None:
    """A witness run for ``M ⊭ φ``, or ``None`` when the property holds."""
    if checker is None:
        checker = ModelChecker(automaton)
    if checker.holds(formula):
        return None
    return _explain(checker, formula)


def counterexamples(
    automaton: Automaton,
    formula: Formula,
    *,
    checker: ModelChecker | None = None,
    limit: int = 1,
) -> list[Run]:
    """Up to ``limit`` distinct witness runs for ``M ⊭ φ``.

    The paper's conclusion names this as an optimisation of the
    verification/testing interplay: "the interplay between the formal
    verification and the test could be improved when a number of
    counterexample[s] instead only single one could be derived from the
    model checker."  For ``AG ψ`` (and its conjunctions) the witnesses
    are shortest runs to the ``limit`` nearest *distinct* violating
    states, in breadth-first order; other shapes fall back to the single
    witness.  Returns an empty list when the property holds.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    if checker is None:
        checker = ModelChecker(automaton)
    if checker.holds(formula):
        return []
    target = formula
    if isinstance(formula, And):
        for conjunct in (formula.left, formula.right):
            if not checker.holds(conjunct):
                target = conjunct
                break
    if not isinstance(target, AG):
        return [_explain(checker, target)]

    breaches = checker.invariant_breaches(target)
    index = automaton._search_index
    if index is not None and index.automaton is automaton and breaches is not None:
        # The product maintains its breadth-first search tree: the
        # nearest violating states and their runs are read off it.
        return [
            _extend_for_body(checker, index.run_to(bad), target.operand)
            for bad in index.first(breaches, limit)
        ]
    body_sat = checker.sat(target.operand)
    # Breadth-first search collecting shortest runs to distinct bad states.
    parents: dict = {}
    queue: deque = deque()
    for state in sorted(automaton.initial, key=repr):
        parents[state] = None
        queue.append(state)
    bad_states: list = []
    while queue and len(bad_states) < limit:
        state = queue.popleft()
        if state not in body_sat:
            bad_states.append(state)
        for transition in automaton.transitions_from(state):
            if transition.target not in parents:
                parents[transition.target] = transition
                queue.append(transition.target)
    runs: list[Run] = []
    for bad in bad_states:
        chain = []
        cursor = bad
        while parents[cursor] is not None:
            transition = parents[cursor]
            chain.append(transition)
            cursor = transition.source
        chain.reverse()
        run = run_of_transitions(chain) if chain else Run(cursor)
        runs.append(_extend_for_body(checker, run, target.operand))
    return runs


def _explain(checker: ModelChecker, formula: Formula) -> Run:
    automaton = checker.automaton
    if isinstance(formula, And):
        for conjunct in (formula.left, formula.right):
            if not checker.holds(conjunct):
                return _explain(checker, conjunct)
        raise AssertionError("conjunction violated but both conjuncts hold")
    if isinstance(formula, AG):
        breaches = checker.invariant_breaches(formula)
        if breaches is not None:
            run = shortest_run_to(automaton, breaches.__contains__, goals=breaches)
        else:
            body_sat = checker.sat(formula.operand)
            run = shortest_run_to(automaton, lambda s: s not in body_sat)
        if run is None:
            raise CounterexampleError(
                f"{formula} is violated but no reachable violating state was found"
            )
        return _extend_for_body(checker, run, formula.operand)
    if isinstance(formula, (AF, AU)) or _is_boolean(formula):
        starts = [q for q in automaton.initial if q not in checker.sat(formula)]
        if not starts:
            raise AssertionError(f"{formula} violated but every initial state satisfies it")
        start = sorted(starts, key=repr)[0]
        return _extend_for_body(checker, Run(start), formula)
    raise CounterexampleError(
        f"cannot extract a counterexample for {formula}: only AG/AF/AU shapes and their "
        "conjunctions are supported (the compositional fragment of §2.4)"
    )


def _extend_for_body(checker: ModelChecker, run: Run, body: Formula) -> Run:
    """Extend a run ending in a ``¬body`` state to demonstrate the failure.

    For purely boolean bodies the violating state itself is the
    demonstration.  For bodies containing a failed ``AF``/``AU``
    obligation, the run is extended along a path on which the obligation
    fails (bounded: until the window is exhausted or the path deadlocks;
    unbounded: until a cycle or deadlock is closed).
    """
    if _is_boolean(body):
        return run
    state = run.last_state
    if isinstance(body, (Or, Implies)):
        disjuncts = (
            (Not(body.left), body.right) if isinstance(body, Implies) else (body.left, body.right)
        )
        # Every disjunct is violated at the state; explain the first temporal one.
        for disjunct in disjuncts:
            if not _is_boolean(disjunct):
                return _extend_for_body(checker, run, disjunct)
        return run
    if isinstance(body, And):
        for conjunct in (body.left, body.right):
            if state not in checker.sat(conjunct):
                return _extend_for_body(checker, run, conjunct)
        raise AssertionError("conjunction violated at state but conjuncts hold")
    if isinstance(body, AF) and body.interval is not None:
        return _extend_bounded_af(checker, run, body)
    if isinstance(body, AF) and body.interval is None:
        return _extend_unbounded_af(checker, run, body)
    if isinstance(body, AU) and body.interval is None:
        return _extend_unbounded_au(checker, run, body)
    raise CounterexampleError(f"cannot demonstrate failure of {body} along a single path")


def _extend_bounded_af(checker: ModelChecker, run: Run, body: AF) -> Run:
    assert body.interval is not None
    operand = checker.sat(body.operand)
    layers = checker.bounded_layers("AF", operand, body.interval)
    state = run.last_state
    for k in range(body.interval.high):
        successors = checker.successors(state)
        if not successors:
            return run  # the path deadlocks before the obligation is met
        bad = [t for t in successors if t not in layers[k + 1]]
        if not bad:
            raise AssertionError(f"{body} fails at {state!r} but every successor satisfies layer {k + 1}")
        state = sorted(bad, key=repr)[0]
        run = run.extend(_interaction_to(checker.automaton, run.last_state, state), state)
    return run


def _extend_unbounded_af(checker: ModelChecker, run: Run, body: AF) -> Run:
    operand = checker.sat(body.operand)
    failing = checker.automaton.states - checker.sat(body)
    visited: set[State] = set()
    state = run.last_state
    while True:
        if state in visited:
            return run  # lasso closed: an infinite path avoiding the goal
        visited.add(state)
        successors = [t for t in checker.successors(state) if t in failing and t not in operand]
        if not successors:
            if not checker.successors(state):
                return run  # deadlocks without reaching the goal
            # All failing continuations satisfy the operand eventually;
            # the failure must be a deadlock reachable through ¬operand.
            candidates = [t for t in checker.successors(state) if t in failing]
            if not candidates:
                return run
            successors = candidates
        state = sorted(successors, key=repr)[0]
        run = run.extend(_interaction_to(checker.automaton, run.last_state, state), state)


def _extend_unbounded_au(checker: ModelChecker, run: Run, body: AU) -> Run:
    right = checker.sat(body.right)
    failing = checker.automaton.states - checker.sat(body)
    visited: set[State] = set()
    state = run.last_state
    while True:
        if state in visited or state in right:
            return run
        visited.add(state)
        successors = [t for t in checker.successors(state) if t in failing and t not in right]
        if not successors:
            return run
        state = sorted(successors, key=repr)[0]
        run = run.extend(_interaction_to(checker.automaton, run.last_state, state), state)


def _interaction_to(automaton: Automaton, source: State, target: State):
    for transition in automaton.transitions_from(source):
        if transition.target == target:
            return transition.interaction
    raise CounterexampleError(f"no transition from {source!r} to {target!r}")
