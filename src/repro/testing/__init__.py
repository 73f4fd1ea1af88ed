"""Counterexample-based testing with deterministic replay (§5).

Counterexamples become test cases; test cases are executed against the
live component under minimal instrumentation; recordings are replayed
offline under full instrumentation to obtain state-annotated runs for
the learning step.
"""

from .executor import (
    ExecutionSession,
    RecordedStep,
    Recording,
    TestExecution,
    TestVerdict,
    execute_test,
)
from .faults import FaultKind, FaultProfile, FaultyComponent
from .monitor import (
    MessageEvent,
    MonitorEvent,
    StateEvent,
    TimingEvent,
    events_for_run,
    message_events,
    render_events,
)
from .replay import ReplayResult, replay
from .robust import Quarantine, RetryPolicy, RobustExecution, RobustExecutor
from .scenario import (
    LARGE_EVERY,
    CampaignConfig,
    ConfigOutcome,
    Scenario,
    ScenarioEvaluation,
    ScenarioSpec,
    SlotSpec,
    baseline_verdicts,
    build_scenario,
    default_matrix,
    evaluate_scenario,
    full_matrix,
    generate_scenario,
    ground_truth,
    run_scenario,
    spec_fingerprint,
)
from .shrink import ddmin, disagreement_predicate, shrink_scenario
from .suite import Coverage, SuiteReport, generate_suite, run_suite
from .tracelog import parse_events, run_from_events
from .testcase import TestCase, TestStep, test_case_from_counterexample, test_case_from_trace

__all__ = [
    "TestCase",
    "TestStep",
    "test_case_from_counterexample",
    "test_case_from_trace",
    "TestVerdict",
    "TestExecution",
    "Recording",
    "RecordedStep",
    "ExecutionSession",
    "execute_test",
    "ReplayResult",
    "replay",
    "FaultKind",
    "FaultProfile",
    "FaultyComponent",
    "RetryPolicy",
    "RobustExecutor",
    "RobustExecution",
    "Quarantine",
    "generate_suite",
    "run_suite",
    "SuiteReport",
    "Coverage",
    "MessageEvent",
    "StateEvent",
    "TimingEvent",
    "MonitorEvent",
    "message_events",
    "events_for_run",
    "render_events",
    "parse_events",
    "run_from_events",
    "ScenarioSpec",
    "SlotSpec",
    "Scenario",
    "CampaignConfig",
    "ConfigOutcome",
    "ScenarioEvaluation",
    "build_scenario",
    "generate_scenario",
    "ground_truth",
    "run_scenario",
    "default_matrix",
    "full_matrix",
    "evaluate_scenario",
    "baseline_verdicts",
    "spec_fingerprint",
    "LARGE_EVERY",
    "ddmin",
    "disagreement_predicate",
    "shrink_scenario",
]
