"""Prefix-resumed testing: sessions change the work, never the answers.

Inside a synthesis run the robust executor keeps an execution session
per component, so a test that extends the run the component just
executed continues from the live component instead of resetting and
re-driving the prefix.  The oracle here is a tiny reference executor
kept in this file: it resets before every live test and every replay,
which is what the loop did before sessions existed.  Every test
execution, replayed observation and learned model must equal the
reference's; dropped sessions (a raising step, a killed host) must fall
back to a reset; and the live work per resumed test must not grow with
the size of the component.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro import railcab
from repro.automata import Interaction, Run
from repro.automata.incomplete import IncompleteAutomaton
from repro.errors import LearningError, ModelError
from repro.legacy import Instrumentation
from repro.legacy.interface import interface_of
from repro.legacy.remote import RemotePolicy, rehost
from repro.synthesis import (
    IntegrationSynthesizer,
    MultiLegacySynthesizer,
    SynthesisSettings,
    Verdict,
)
from repro.synthesis import iterate as iterate_module
from repro.synthesis.learning import learn_regular
from repro.testing import (
    FaultKind,
    FaultProfile,
    FaultyComponent,
    Recording,
    RetryPolicy,
    RobustExecutor,
    TestVerdict,
    execute_test,
)
from repro.testing import robust as robust_module
from repro.testing.faults import FAULT_SEED_ENV
from repro.testing import test_case_from_counterexample as case_from_counterexample
from repro.testing import test_case_from_trace as case_from_trace
from repro.testing.executor import ExecutionSession, RecordedStep, TestExecution
from repro.testing.replay import ReplayResult, replay
from repro.testing.testcase import TestCase, TestStep

@pytest.fixture(autouse=True)
def _fault_free(monkeypatch):
    # Sessions are the fault-free path (validated runs never resume);
    # the chaos CI legs inject faults through the environment.
    monkeypatch.delenv(FAULT_SEED_ENV, raising=False)


# ------------------------------------------------------ reference oracle


def reference_execute(component, testcase, *, port="port", session=None):
    """Live phase from reset, every time (the session is ignored)."""
    component.reset()
    recorded = []
    verdict, divergence = TestVerdict.CONFIRMED, None
    try:
        with component.instrumented(Instrumentation.MINIMAL, live=True):
            for index, step in enumerate(testcase.steps):
                outcome = component.step(step.inputs)
                outputs = frozenset() if outcome.blocked else outcome.outputs
                recorded.append(
                    RecordedStep(
                        outcome.period, step.inputs, outputs, step.expected_outputs, outcome.blocked
                    )
                )
                if outcome.blocked:
                    verdict, divergence = TestVerdict.BLOCKED, index
                    break
                if outputs != step.expected_outputs:
                    verdict, divergence = TestVerdict.DIVERGED, index
                    break
    finally:
        component.reset()
    return TestExecution(
        testcase=testcase,
        verdict=verdict,
        divergence_index=divergence,
        recording=Recording(component=component.name, steps=tuple(recorded)),
        port=port,
    )


def reference_replay(component, recording, *, port="port", session=None):
    """Full-instrumentation replay from reset, every time."""
    component.reset()
    try:
        with component.instrumented(Instrumentation.FULL, live=False):
            start = component.monitor_state()
            steps, blocked = [], None
            for record in recording.steps:
                outcome = component.step(record.inputs)
                assert outcome.blocked == record.blocked
                if record.blocked:
                    blocked = Interaction(record.inputs, record.expected_outputs)
                    break
                assert outcome.outputs == record.observed_outputs
                steps.append((outcome.interaction, component.monitor_state()))
            probe_free = not component.probe_effect_active
    finally:
        component.reset()
    return ReplayResult(component.name, Run(start, tuple(steps), blocked=blocked), probe_free, port)


def reference_learn_regular(model, run, *, labeler=None):
    """Definition 11 by rebuilding the model from its transition set."""
    transitions = run.transitions()
    for transition in transitions:
        if transition.interaction in model._refused_by_state.get(transition.source, ()):
            raise LearningError("refusal contradiction")
        for known in model.automaton.transitions_from(transition.source):
            if known.interaction == transition.interaction and known.target != transition.target:
                raise LearningError("conflicting target")
    states = set(model.states) | {run.start} | {t.target for t in transitions}
    labels = {state: model.labels(state) for state in model.states}
    for state in states - model.states:
        labels[state] = frozenset(labeler(state)) if labeler is not None else frozenset()
    return IncompleteAutomaton(
        states=states,
        inputs=model.inputs,
        outputs=model.outputs,
        transitions=set(model.transitions) | set(transitions),
        refusals=model.refusals,
        initial=set(model.initial) | {run.start},
        labels=labels,
        name=model.name,
    )


def model_fingerprint(model):
    automaton = model.automaton
    return (
        sorted(map(repr, automaton.transitions)),
        sorted(map(repr, model.refusals)),
        sorted(map(repr, automaton.states)),
        sorted(map(repr, automaton.initial)),
        sorted((repr(state), sorted(automaton.labels(state))) for state in automaton.states),
    )


# --------------------------------------------------------------- harness


def convoy(ticks, component=None, **settings):
    return IntegrationSynthesizer(
        railcab.front_role_automaton(),
        component if component is not None else railcab.correct_rear_shuttle(convoy_ticks=ticks),
        railcab.PATTERN_CONSTRAINT,
        labeler=railcab.rear_state_labeler,
        port="rearRole",
        settings=SynthesisSettings(max_iterations=4000, **settings),
    )


class Capture:
    """Records every execution, replay and learned model of one run."""

    def __init__(self, monkeypatch, *, execute, replay_function, models=True):
        self.executions, self.replays, self.models = [], [], []
        self.resumed_live_steps = []

        def execute_wrapper(component, testcase, *, port="port", session=None):
            before = (component.steps_executed, component.resets)
            execution = execute(component, testcase, port=port, session=session)
            if session is not None and component.resets == before[1]:
                self.resumed_live_steps.append(component.steps_executed - before[0])
            self.executions.append(execution)
            return execution

        def replay_wrapper(component, recording, *, port="port", session=None):
            result = replay_function(component, recording, port=port, session=session)
            self.replays.append(result)
            return result

        monkeypatch.setattr(robust_module, "execute_test", execute_wrapper)
        monkeypatch.setattr(robust_module, "replay", replay_wrapper)
        for name in ("learn_regular", "learn_blocked", "refuse") if models else ():
            original = getattr(iterate_module, name)

            def learner(*args, _original=original, **kwargs):
                model = _original(*args, **kwargs)
                self.models.append(model_fingerprint(model))
                return model

            monkeypatch.setattr(iterate_module, name, learner)


def captured_run(monkeypatch, build, *, reference):
    with monkeypatch.context() as patch:
        capture = Capture(
            patch,
            execute=reference_execute if reference else execute_test,
            replay_function=reference_replay if reference else replay,
        )
        synthesizer = build()
        result = synthesizer.run()
    return synthesizer, result, capture


def assert_same_testing(ours_capture, ref_capture, *, ordered_replays=True):
    assert len(ours_capture.executions) == len(ref_capture.executions) > 0
    for mine, theirs in zip(ours_capture.executions, ref_capture.executions):
        assert mine.verdict is theirs.verdict
        assert mine.divergence_index == theirs.divergence_index
        assert mine.recording == theirs.recording
        assert mine == theirs
    ours = [r.observed_run for r in ours_capture.replays]
    theirs = [r.observed_run for r in ref_capture.replays]
    if not ordered_replays:  # slots replay on parallel threads
        ours, theirs = sorted(ours, key=repr), sorted(theirs, key=repr)
    assert ours == theirs
    # Not vacuous: some tests did resume.
    assert ours_capture.resumed_live_steps


# ------------------------------------------------------ (a) differential


@pytest.mark.parametrize("ticks,per_iteration", [(8, 1), (24, 1), (24, 3)])
def test_resumed_run_equals_reset_and_replay_reference(monkeypatch, ticks, per_iteration):
    def build():
        return convoy(ticks, counterexamples_per_iteration=per_iteration)

    ours_synth, ours, ours_capture = captured_run(monkeypatch, build, reference=False)
    ref_synth, ref, ref_capture = captured_run(monkeypatch, build, reference=True)

    assert ours.verdict is ref.verdict is Verdict.PROVEN
    assert_same_testing(ours_capture, ref_capture)
    assert ours_capture.models == ref_capture.models
    assert ours.iterations == ref.iterations
    assert model_fingerprint(ours.final_model) == model_fingerprint(ref.final_model)
    assert ours_synth.component.steps_executed < ref_synth.component.steps_executed
    assert ours_synth.component.resets < ref_synth.component.resets


def test_multi_legacy_run_equals_reset_and_replay_reference(monkeypatch):
    def build():
        return MultiLegacySynthesizer(
            None,
            [railcab.correct_front_shuttle(), railcab.correct_rear_shuttle(convoy_ticks=8)],
            railcab.PATTERN_CONSTRAINT,
            labelers={
                "frontShuttle": railcab.front_state_labeler,
                "rearShuttle": railcab.rear_state_labeler,
            },
            settings=SynthesisSettings(counterexamples_per_iteration=2),
        )

    ours_synth, ours, ours_capture = captured_run(monkeypatch, build, reference=False)
    _, ref, ref_capture = captured_run(monkeypatch, build, reference=True)
    assert ours.verdict is ref.verdict is Verdict.PROVEN
    assert_same_testing(ours_capture, ref_capture, ordered_replays=False)
    assert ours.iterations == ref.iterations
    assert {name: model_fingerprint(m) for name, m in ours.final_models.items()} == {
        name: model_fingerprint(m) for name, m in ref.final_models.items()
    }
    assert all(slot.component.period == 0 for slot in ours_synth.slots)


def test_learn_regular_matches_rebuilding_reference(monkeypatch):
    pairs = []
    original = iterate_module.learn_regular

    def recording_learner(model, run, **kwargs):
        pairs.append((model, run, kwargs))
        return original(model, run, **kwargs)

    monkeypatch.setattr(iterate_module, "learn_regular", recording_learner)
    assert convoy(24).run().verdict is Verdict.PROVEN
    assert pairs
    for model, run, kwargs in pairs:
        assert model_fingerprint(learn_regular(model, run, **kwargs)) == model_fingerprint(
            reference_learn_regular(model, run, **kwargs)
        )


def test_learn_regular_keeps_its_three_checks():
    component = railcab.correct_rear_shuttle(convoy_ticks=8)
    result = convoy(8, component).run()
    model = result.final_model
    run = next(
        record.observed_run
        for record in reversed(result.iterations)
        if record.observed_run is not None and record.observed_run.steps
    )
    start, (interaction, target) = run.start, run.steps[0]
    # A run of known steps changes nothing.
    assert learn_regular(model, run) is model
    # Conflicting target: a known step that leads somewhere else.
    with pytest.raises(LearningError, match="conflicts with known"):
        learn_regular(model, Run(start, ((interaction, "elsewhere"),)))
    # Refusal contradiction: a step observed where it was refused before.
    known = {t.interaction for t in model.automaton.transitions_from(start)}
    fresh = next(
        candidate
        for candidate in interface_of(component).universe()
        if candidate not in known and candidate not in model.refused(start)
    )
    refusing = model.with_refusals_at(start, [fresh])
    with pytest.raises(LearningError, match="contradicts an earlier refusal"):
        learn_regular(refusing, Run(start, ((fresh, target),)))
    # Signal bounds, checked for new transitions.
    with pytest.raises(ModelError, match="outside I"):
        learn_regular(model, Run(start, ((Interaction({"alien"}, ()), start),)))


def test_projection_and_test_cases_equal_per_step_construction():
    result = convoy(24).run()
    inputs = railcab.correct_rear_shuttle(convoy_ticks=24).inputs
    outputs = railcab.correct_rear_shuttle(convoy_ticks=24).outputs
    runs = [record.counterexample for record in result.iterations if record.counterexample]
    assert runs
    for run in runs:
        naive = Run(
            run.start[1],
            tuple((i.restrict(inputs, outputs), state[1]) for i, state in run.steps),
            blocked=run.blocked.restrict(inputs, outputs) if run.blocked is not None else None,
        )
        assert run.project(1, inputs, outputs) == naive
        steps = [TestStep(i.inputs, i.outputs) for i, _ in naive.steps]
        if naive.blocked is not None:
            steps.append(TestStep(naive.blocked.inputs, naive.blocked.outputs))
        expected = TestCase(name="counterexample-test", steps=tuple(steps), source_run=run)
        built = case_from_counterexample(
            run, component_index=1, inputs=inputs, outputs=outputs
        )
        assert built == expected


# ------------------------------------------------------------ (b) faults


def long_trace():
    """A long real trace of the 8-tick convoy, from a proven run."""
    result = convoy(8).run()
    run = max(
        (record.observed_run for record in result.iterations if record.observed_run),
        key=lambda observed: len(observed.steps),
    )
    return [interaction for interaction, _ in run.steps]


def cases(trace):
    return [
        case_from_trace(trace[:length], name=f"prefix-{length}")
        for length in (len(trace) // 3, 2 * len(trace) // 3, len(trace))
    ]


def assert_matches_reference(execution, testcase, ticks=8):
    reference = reference_execute(railcab.correct_rear_shuttle(convoy_ticks=ticks), testcase)
    assert execution.verdict is reference.verdict
    assert execution.divergence_index == reference.divergence_index
    assert execution.recording == reference.recording


def test_raising_step_drops_the_session_and_the_next_test_resets():
    first, second, third = cases(long_trace())
    component = FaultyComponent(railcab.correct_rear_shuttle(convoy_ticks=8), FaultProfile())
    executor = RobustExecutor(RetryPolicy(validate=False, max_attempts=1))
    with executor.resumable():
        outcome = executor.execute(component, first)
        assert outcome.verdict is TestVerdict.CONFIRMED
        executor.replay_once(component, outcome.execution.recording, armed=False)
        session = executor._sessions[component]
        assert len(session.steps) == len(first.steps)

        # The next test resumes, so its first armed step is mid-test.
        component.profile = FaultProfile.single(FaultKind.TRANSIENT_ERROR, 1.0)
        steps, resets = component.steps_executed, component.resets
        failed = executor.execute(component, second)
        assert failed.inconclusive
        assert component.steps_executed == steps  # raised before stepping
        assert component.resets == resets + 1  # no reset on entry; one on the way out
        assert session.steps == () and component.period == 0

        component.profile = FaultProfile()
        resets = component.resets
        outcome = executor.execute(component, third)
        assert component.resets == resets + 1  # dropped session: reset on entry
        assert_matches_reference(outcome.execution, third)
        assert len(session.steps) == len(third.steps)
    assert component.period == 0


def test_killed_host_drops_the_session_and_the_next_test_resets():
    first, second, _ = cases(long_trace())
    policy = RemotePolicy(step_deadline=10.0, spawn_timeout=60.0)
    executor = RobustExecutor(RetryPolicy())
    with rehost(railcab.correct_rear_shuttle(convoy_ticks=8), policy) as remote:
        with executor.resumable():
            outcome = executor.execute(remote, first)
            executor.replay_once(remote, outcome.execution.recording, armed=False)
            assert len(executor._sessions[remote].steps) == len(first.steps)
            os.kill(remote.pid, signal.SIGKILL)
            remote._process.wait(timeout=10)
            outcome = executor.execute(remote, second)
            # The resumed attempt met the dead host; the retry ran from reset.
            assert outcome.faults == 1 and outcome.retries == 1
            assert_matches_reference(outcome.execution, second)
        assert remote.period == 0


def test_stale_guard_falls_back_to_reset():
    first, second, _ = cases(long_trace())
    component = railcab.correct_rear_shuttle(convoy_ticks=8)
    session = ExecutionSession()
    execute_test(component, first, session=session)
    component.step(first.steps[0].inputs)  # someone else drives it
    resets = component.resets
    execution = execute_test(component, second, session=session)
    assert component.resets == resets + 1
    assert_matches_reference(execution, second)


def test_diverged_step_is_kept_as_observed_and_resumed():
    trace = long_trace()
    cut = len(trace) // 2
    wrong = TestStep(trace[cut].inputs, frozenset({"no such output"}))
    diverging = TestCase(name="diverging", steps=(*case_from_trace(trace[:cut]).steps, wrong))
    component = railcab.correct_rear_shuttle(convoy_ticks=8)
    session = ExecutionSession()
    execution = execute_test(component, diverging, session=session)
    assert execution.verdict is TestVerdict.DIVERGED and execution.divergence_index == cut
    extending = case_from_trace(trace[: cut + 2])
    resets, steps = component.resets, component.steps_executed
    execution = execute_test(component, extending, session=session)
    assert component.resets == resets and component.steps_executed == steps + 1
    assert_matches_reference(execution, extending)


def test_replaying_an_older_recording_reseeds_the_session():
    first, second, third = cases(long_trace())
    component = railcab.correct_rear_shuttle(convoy_ticks=8)
    session = ExecutionSession()
    older = execute_test(component, second, session=session)
    execute_test(component, first, session=session)  # cannot resume: resets
    result = replay(component, older.recording, session=session)
    reference = reference_replay(railcab.correct_rear_shuttle(convoy_ticks=8), older.recording)
    assert result.observed_run == reference.observed_run
    assert session.steps == second.steps
    resets = component.resets
    execution = execute_test(component, third, session=session)
    assert component.resets == resets  # resumed at the end of the replayed run
    assert_matches_reference(execution, third)


def test_validated_and_deadline_runs_take_the_session_less_path():
    first, _, _ = cases(long_trace())
    for policy in (RetryPolicy(validate=True), RetryPolicy(test_timeout=30.0)):
        component = railcab.correct_rear_shuttle(convoy_ticks=8)
        executor = RobustExecutor(policy)
        with executor.resumable():
            resets = component.resets
            executor.execute(component, first)
            assert component.period == 0
            assert component.resets >= resets + 2
            assert executor._sessions == {}


# ---------------------------------------------------------- (c) after run


def test_component_is_back_at_period_zero_after_run():
    synthesizer = convoy(24)
    assert synthesizer.run().verdict is Verdict.PROVEN
    assert synthesizer.component.period == 0
    assert synthesizer.robust._sessions is None


def test_component_is_back_at_period_zero_when_run_raises(monkeypatch):
    calls = []
    original = iterate_module.learn_regular

    def failing(model, run, **kwargs):
        calls.append(run)
        if len(calls) == 5:
            raise RuntimeError("learning failed")
        return original(model, run, **kwargs)

    monkeypatch.setattr(iterate_module, "learn_regular", failing)
    synthesizer = convoy(24)
    with pytest.raises(RuntimeError, match="learning failed"):
        synthesizer.run()
    assert synthesizer.component.period == 0
    assert synthesizer.robust._sessions is None


def test_remote_counters_equal_in_process_counters():
    local = convoy(8)
    local_result = local.run()
    policy = RemotePolicy(step_deadline=10.0, spawn_timeout=60.0)
    remote = convoy(8, remote=policy)
    try:
        remote_result = remote.run()
        counters = (
            remote.component.steps_executed,
            remote.component.resets,
            remote.component.state_probes,
        )
    finally:
        remote.component.close()
    assert remote_result.iterations == local_result.iterations
    component = local.component
    assert counters == (component.steps_executed, component.resets, component.state_probes)


# ------------------------------------------------- (d) work, not a timer


def live_work(monkeypatch, ticks):
    with monkeypatch.context() as patch:
        capture = Capture(patch, execute=execute_test, replay_function=replay, models=False)
        synthesizer = convoy(ticks)
        result = synthesizer.run()
    assert result.verdict is Verdict.PROVEN
    steps = capture.resumed_live_steps
    assert steps
    return sum(steps) / len(steps), synthesizer.component.resets / result.total_tests


def test_live_steps_per_resumed_test_do_not_grow_with_the_component(monkeypatch):
    small, _ = live_work(monkeypatch, 48)
    large, resets_per_test = live_work(monkeypatch, 192)
    assert large <= 1.5 * small
    assert resets_per_test <= 1.5
