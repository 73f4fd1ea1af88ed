"""Deriving test cases from verification counterexamples (§5).

"The test case is directly derived from the counterexample": a
counterexample of the composed check ``M_a^c ∥ M_a^i ⊨ φ ∧ ¬δ`` is a
run of the composition; restricting it to the legacy component's
signals yields the period-by-period inputs to feed and outputs to
expect.  Idle periods are kept — they carry the timing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.interaction import Interaction
from ..automata.runs import Run

__all__ = [
    "TestStep",
    "TestCase",
    "shared_step",
    "test_case_from_counterexample",
    "test_case_from_trace",
]


@dataclass(frozen=True)
class TestStep:
    """One period of a test: inputs to offer, outputs to expect."""

    __test__ = False  # not a pytest class, despite the name

    inputs: frozenset[str]
    expected_outputs: frozenset[str]

    @property
    def interaction(self) -> Interaction:
        return Interaction(self.inputs, self.expected_outputs)


@dataclass(frozen=True)
class TestCase:
    """A finite test derived from a counterexample run."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    steps: tuple[TestStep, ...]
    source_run: Run | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def trace(self) -> tuple[Interaction, ...]:
        return tuple(step.interaction for step in self.steps)


#: One :class:`TestStep` per distinct interaction, shared by every test
#: case the factories below build.  Interactions are hash-consed and
#: few, so the table stays as small as the interaction intern table; the
#: sharing lets the executor match a test against the steps a component
#: already executed by identity instead of field by field.
_SHARED_STEPS: dict[Interaction, TestStep] = {}


def shared_step(interaction: Interaction) -> TestStep:
    """The shared test step offering and expecting ``interaction``."""
    step = _SHARED_STEPS.get(interaction)
    if step is None:
        step = _SHARED_STEPS[interaction] = TestStep(interaction.inputs, interaction.outputs)
    return step


def test_case_from_trace(
    trace: "tuple[Interaction, ...] | list[Interaction]", *, name: str = "test"
) -> TestCase:
    """Package a plain interaction sequence as a test case."""
    return TestCase(name=name, steps=tuple(map(shared_step, trace)))


def test_case_from_counterexample(
    counterexample: Run,
    *,
    component_index: int,
    inputs: frozenset[str],
    outputs: frozenset[str],
    name: str = "counterexample-test",
) -> TestCase:
    """Project a composed counterexample onto the legacy component.

    ``component_index`` selects the legacy component's position within
    the composed (tuple) states; ``inputs``/``outputs`` are its signal
    sets.  The blocked tail of a deadlock counterexample becomes the
    final test step — the step whose refusal the test will try to
    confirm.
    """
    projected = counterexample.project(component_index, inputs, outputs)
    steps = [shared_step(interaction) for interaction, _ in projected.steps]
    if projected.blocked is not None:
        steps.append(shared_step(projected.blocked))
    return TestCase(name=name, steps=tuple(steps), source_run=counterexample)
