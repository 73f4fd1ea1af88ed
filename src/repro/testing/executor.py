"""Test execution against the live legacy component (§4.2, §5 phase 1).

The executor drives the component period by period with the test case's
inputs under **minimal** instrumentation (messages and periods only —
state probes would suffer the probe effect live).  It produces:

* a verdict — ``CONFIRMED`` (every period reacted exactly as the
  counterexample predicted: a *real* integration error, Lemma 6),
  ``DIVERGED`` (some period produced different outputs), or ``BLOCKED``
  (some period had no reaction at all);
* the recording needed for the deterministic replay phase.

An :class:`ExecutionSession` lets consecutive tests share the live
component: a test whose first steps are exactly the steps the component
executed since its last reset continues from the component's current
state instead of resetting and re-driving that prefix (see
``docs/performance.md``, "Prefix-resumed testing").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..automata.interaction import Interaction
from ..legacy.component import Instrumentation, LegacyComponent
from .monitor import MessageEvent, message_events
from .testcase import TestCase, TestStep, shared_step

__all__ = [
    "TestVerdict",
    "RecordedStep",
    "Recording",
    "TestExecution",
    "ExecutionSession",
    "execute_test",
]


class TestVerdict(Enum):
    __test__ = False  # not a pytest class, despite the name

    CONFIRMED = "confirmed"
    DIVERGED = "diverged"
    BLOCKED = "blocked"
    #: The execution could not be completed fault-free within its retry
    #: budget (see :mod:`repro.testing.robust`).  Never produced by
    #: :func:`execute_test` itself; never merged into the model and never
    #: reported as a real integration error — Lemma 6 requires a
    #: validated fault-free run for CONFIRMED.
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RecordedStep:
    """Minimal per-period record: what was fed and what was observed."""

    period: int
    inputs: frozenset[str]
    observed_outputs: frozenset[str]
    expected_outputs: frozenset[str]
    blocked: bool


@dataclass(frozen=True)
class Recording:
    """The minimal-event recording of one test execution.

    Contains everything deterministic replay needs: the exact input
    feed (with period numbers) and the observed reactions.
    """

    component: str
    steps: tuple[RecordedStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class TestExecution:
    """Outcome of executing one test case."""

    __test__ = False  # not a pytest class, despite the name

    testcase: TestCase
    verdict: TestVerdict
    divergence_index: int | None
    recording: Recording
    port: str = "port"

    @property
    def confirmed(self) -> bool:
        return self.verdict is TestVerdict.CONFIRMED

    @property
    def events(self) -> tuple[MessageEvent, ...]:
        """Minimal events reflecting what was observed at the ports.

        Rendered lazily: the synthesis loop executes thousands of tests
        but only reports ever read the listing text.
        """
        try:
            return self._events
        except AttributeError:
            actual_trace = tuple(
                Interaction(record.inputs, record.observed_outputs)
                for record in self.recording.steps
            )
            events = tuple(message_events(actual_trace, port=self.port))
            object.__setattr__(self, "_events", events)
            return events


def _observed_step(period: int, step: TestStep, outputs: frozenset[str], blocked: bool) -> RecordedStep:
    return RecordedStep(
        period=period,
        inputs=step.inputs,
        observed_outputs=outputs,
        expected_outputs=step.expected_outputs,
        blocked=blocked,
    )


class ExecutionSession:
    """What one component did since its last reset, kept between tests.

    The session remembers the steps executed since the last reset — as
    shared :class:`TestStep` objects expecting what was *observed*, and
    as :class:`RecordedStep` records whose expected outputs are the
    observed ones — plus the last replayed observed run.  A guard
    snapshot of the component's black-box counters (``steps_executed``,
    ``resets``, and ``pid`` for an out-of-process host) detects anyone
    else driving the component or a host respawn; a stale guard, like
    any exception, drops the session and the next test resets.

    Sound for the strongly deterministic components §4.3 requires: a
    test that starts with exactly the executed steps would drive the
    component through the same states from reset.
    """

    __slots__ = ("steps", "records", "observed", "_recording", "_guard")

    def __init__(self) -> None:
        self.drop()

    def drop(self) -> None:
        """Forget everything: the next test starts from reset."""
        self.steps: tuple[TestStep, ...] = ()
        self.records: tuple[RecordedStep, ...] = ()
        self.observed = None  #: the last replayed observed run, if any
        self._recording: Recording | None = None
        self._guard: tuple | None = None

    @staticmethod
    def _counters(component) -> tuple:
        return (component.steps_executed, component.resets, getattr(component, "pid", None))

    def resumable(self, component, testcase: TestCase) -> int:
        """How many leading steps of ``testcase`` the component already did.

        Non-zero only when the test starts with *all* executed steps —
        same inputs, expected outputs equal to the observed ones — and
        nobody touched the component since.
        """
        count = len(self.steps)
        if (
            count
            and len(testcase.steps) >= count
            and self._guard == self._counters(component)
            and testcase.steps[:count] == self.steps
        ):
            return count
        return 0

    def commit(
        self,
        component,
        steps: tuple[TestStep, ...],
        records: tuple[RecordedStep, ...],
        recording: Recording,
    ) -> None:
        """Record the component's executed steps after a finished run."""
        self.steps = steps
        self.records = records
        self._recording = recording
        self._guard = self._counters(component)

    def adopt(self, component, recording: Recording, observed) -> None:
        """The component just replayed ``recording`` from reset."""
        if recording is not self._recording:
            executed = [record for record in recording.steps if not record.blocked]
            records = tuple(_as_observed(record) for record in executed)
            steps = tuple(
                shared_step(Interaction(record.inputs, record.observed_outputs))
                for record in executed
            )
            self.commit(component, steps, records, recording)
        else:
            self._guard = self._counters(component)
        self.observed = observed


def _as_observed(record: RecordedStep) -> RecordedStep:
    """``record`` expecting what it observed (as a resumed test would)."""
    if record.expected_outputs == record.observed_outputs:
        return record
    return RecordedStep(
        period=record.period,
        inputs=record.inputs,
        observed_outputs=record.observed_outputs,
        expected_outputs=record.observed_outputs,
        blocked=False,
    )


def execute_test(
    component: LegacyComponent,
    testcase: TestCase,
    *,
    port: str = "port",
    session: ExecutionSession | None = None,
) -> TestExecution:
    """Run a test case against the component from its initial state.

    Execution stops at the first divergence or blocking — the remainder
    of the counterexample is meaningless once the real component has
    left the predicted path.

    Without a ``session`` the component is reset on entry and on exit.
    With one, a test that extends the session's executed steps continues
    from the live component (any other test resets first), the
    component stays where the test left it, and the session records the
    executed steps.  Either way the result equals a from-reset
    execution's.
    """
    steps = testcase.steps
    resumed = session.resumable(component, testcase) if session is not None else 0
    if resumed:
        recorded = list(session.records)
    else:
        component.reset()
        recorded = []
    verdict = TestVerdict.CONFIRMED
    divergence_index: int | None = None
    finished = False
    try:
        with component.instrumented(Instrumentation.MINIMAL, live=True):
            for index in range(resumed, len(steps)):
                step = steps[index]
                outcome = component.step(step.inputs)
                if outcome.blocked:
                    recorded.append(_observed_step(outcome.period, step, frozenset(), blocked=True))
                    verdict = TestVerdict.BLOCKED
                    divergence_index = index
                    break
                recorded.append(_observed_step(outcome.period, step, outcome.outputs, blocked=False))
                if outcome.outputs != step.expected_outputs:
                    verdict = TestVerdict.DIVERGED
                    divergence_index = index
                    break
        finished = True
    finally:
        if session is None or not finished:
            # A step that raises (unknown port, injected fault, timeout)
            # must not leave the component mid-run for the next caller.
            if session is not None:
                session.drop()
            component.reset()
    recording = Recording(component=component.name, steps=tuple(recorded))
    if session is not None:
        # Keep the steps the component took: a refused step left it where
        # it was, and a diverged one is kept as what it observed.
        kept = len(recorded) if divergence_index is None else divergence_index
        kept_steps, kept_records = steps[:kept], recording.steps[:kept]
        if verdict is TestVerdict.DIVERGED:
            last = recorded[-1]
            kept_steps += (shared_step(Interaction(last.inputs, last.observed_outputs)),)
            kept_records += (_as_observed(last),)
        session.commit(component, kept_steps, kept_records, recording)
    return TestExecution(
        testcase=testcase,
        verdict=verdict,
        divergence_index=divergence_index,
        recording=recording,
        port=port,
    )
