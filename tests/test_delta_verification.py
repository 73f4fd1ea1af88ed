"""The delta-proportional verification step on the RailCab convoy.

The incremental engine patches the chaotic closure, the product, the
checker's maps and formula values, and the product's breadth-first
search tree in place, one learning delta at a time.  These tests pin
down the three claims that make that safe and worthwhile:

* every iteration's patched closure, product, sat sets and
  counterexamples equal the from-scratch pipeline (``chaotic_closure``
  + ``compose`` + a cold ``ModelChecker`` + a fresh breadth-first
  search);
* the verdict-relevant iteration records are those of the engine that
  rebuilt every layer each iteration (a golden digest recorded before
  the engine patched in place);
* the per-iteration work — closure groups rebuilt, product misses,
  checker seeds and re-decided states, search expansions — does not
  grow with the size of the component (work counters, not timers).
"""

from __future__ import annotations

import hashlib

import pytest

from repro import railcab
from repro.automata import chaotic_closure, compose
from repro.automata.incremental import IncrementalVerifier
from repro.logic import DEADLOCK_FREE, ModelChecker
from repro.logic.counterexample import counterexample, counterexamples
from repro.synthesis import IntegrationSynthesizer, SynthesisSettings, Verdict
from repro.testing.faults import FAULT_SEED_ENV

#: Verdict-relevant IterationRecord fields covered by the golden digest.
DIGEST_FIELDS = (
    "index",
    "counterexample",
    "observed_run",
    "test_verdict",
    "tests_executed",
    "replays_executed",
    "model_states",
    "model_transitions",
    "model_refusals",
    "closure_states",
    "closure_transitions",
    "composed_states",
    "knowledge_gained",
    "property_holds",
    "deadlock_free",
    "violated",
)

#: sha256 over ``repr`` of the DIGEST_FIELDS of every record of the
#: correct shuttle at ``convoy_ticks=48`` (104 iterations, PROVEN), as
#: produced by the engine that re-derived every layer each iteration.
GOLDEN_DIGEST_48 = "a786b2cf467dbf2294826d11306f9173631581914979b2ce4fd9a813787aff5e"


@pytest.fixture(autouse=True)
def _fault_free(monkeypatch):
    # The digest and the work counters describe the fault-free loop; the
    # chaos CI legs inject faults through the environment.
    monkeypatch.delenv(FAULT_SEED_ENV, raising=False)


def _convoy(ticks: int, **settings) -> IntegrationSynthesizer:
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        railcab.correct_rear_shuttle(convoy_ticks=ticks),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        settings=SynthesisSettings(max_iterations=4000, **settings),
    )


def _record_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(tuple(getattr(record, name) for name in DIGEST_FIELDS)).encode())
    return digest.hexdigest()


def _stats_of_every_step(monkeypatch) -> list:
    """Collect the StepStats of every verification step of a run."""
    collected: list = []
    original = IncrementalVerifier.step

    def step(self, models, **kwargs):
        result = original(self, models, **kwargs)
        collected.append(result.stats)
        return result

    monkeypatch.setattr(IncrementalVerifier, "step", step)
    return collected


@pytest.mark.parametrize(
    ("ticks", "settings"),
    [
        (8, {}),
        (24, {}),
        (8, {"parallelism": 2, "dense": True, "dense_product": True}),
    ],
    ids=["ticks-8", "ticks-24", "ticks-8-sharded-dense"],
)
def test_every_patched_step_equals_the_scratch_pipeline(monkeypatch, ticks, settings):
    synthesizer = _convoy(ticks, **settings)
    original = IncrementalVerifier.step
    compared: list[int] = []

    def step(self, models, **kwargs):
        result = original(self, models, **kwargs)
        closure = chaotic_closure(
            models[0],
            synthesizer.universe,
            deterministic_implementation=True,
            name=result.closures[0].name,
        )
        assert result.closures[0] == closure
        composed = compose(
            synthesizer.context, closure, semantics=synthesizer.composition_semantics
        )
        assert result.composed == composed
        index = result.composed._search_index
        assert index is not None and index.automaton is result.composed
        warm, cold = result.checker, ModelChecker(composed)
        assert warm.deadlock_states == cold.deadlock_states
        for formula in (synthesizer.weakened_property, DEADLOCK_FREE):
            assert warm.sat(formula.operand) == cold.sat(formula.operand), formula
            assert warm.sat(formula) == cold.sat(formula), formula
            assert warm.check(formula).holds == cold.check(formula).holds
            # The maintained search tree yields the fresh search's runs.
            assert counterexample(result.composed, formula, checker=warm) == counterexample(
                composed, formula, checker=cold
            )
            assert counterexamples(
                result.composed, formula, checker=warm, limit=3
            ) == counterexamples(composed, formula, checker=cold, limit=3)
        compared.append(len(composed.states))
        return result

    monkeypatch.setattr(IncrementalVerifier, "step", step)
    result = synthesizer.run()
    assert result.verdict is Verdict.PROVEN
    assert len(compared) == result.iteration_count


def test_records_match_the_golden_digest():
    result = _convoy(48).run()
    assert result.verdict is Verdict.PROVEN
    assert result.iteration_count == 104
    assert _record_digest(result.iterations) == GOLDEN_DIGEST_48


def test_retained_results_survive_later_patches(monkeypatch):
    """Snapshots handed out earlier never change when later steps patch."""
    collected: list = []
    original = IncrementalVerifier.step

    def step(self, models, **kwargs):
        result = original(self, models, **kwargs)
        collected.append(
            (result, result.composed.states, result.closures[0].transition_count)
        )
        return result

    monkeypatch.setattr(IncrementalVerifier, "step", step)
    synthesizer = _convoy(8)
    result = synthesizer.run()
    assert result.final_closure == chaotic_closure(
        result.final_model, synthesizer.universe, deterministic_implementation=True
    )
    first, states, transitions = collected[0]
    assert first.composed.states == states
    assert first.closures[0].transition_count == transitions
    # A retired checker rebuilds its own maps and answers for its own
    # automaton, not for the one its structures were handed on to.
    assert first.checker.sat(DEADLOCK_FREE) == ModelChecker(first.composed).sat(DEADLOCK_FREE)


def test_work_per_iteration_does_not_grow_with_the_component(monkeypatch):
    collected = _stats_of_every_step(monkeypatch)

    def means(ticks: int) -> dict[str, float]:
        collected.clear()
        result = _convoy(ticks).run()
        assert result.verdict is Verdict.PROVEN
        warm = collected[1:]  # the first step is the cold exploration
        work = {
            "closure_groups_rebuilt": [s.closure_groups_rebuilt for s in warm],
            "product_misses": [s.product_misses for s in warm],
            "checker_seeds": [s.affected_states for s in warm],
            "checker_fixpoint_work": [
                record.checker_fixpoint_work for record in result.iterations[1:]
            ],
            "search_visited": [s.search_visited for s in warm],
        }
        return {name: sum(values) / len(values) for name, values in work.items()}

    small, large = means(48), means(192)
    for name, value in large.items():
        assert value <= 1.5 * small[name], (name, small[name], value)
