"""The benchmark's workloads: inputs, known answers, and one timed verdict.

Each workload builds its inputs and certifies its expected answers in
``setup()``, lists the units of one count-bounded pass in ``units(seed)``,
and times a single verdict in ``run(unit, trace, sink)``.  A unit's
outcome is *failed* when its verdict differs from the known answer, when
it raises, or when it ends in ``BUDGET_EXCEEDED`` where a proof is
expected (a wrong verdict like any other).
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from layers import LayerTrace, record_counts, timed

from repro import IntegrationSynthesizer, SynthesisSettings, Verdict, integration, railcab
from repro.testing.scenario import generate_scenario, ground_truth

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: Scenario-factory seeds of the scenario-mix pass.  Fixed, so that every
#: benchmark seed integrates the same population (see README.md for the
#: measured spread of seed-dependent blocks); the benchmark seed orders it.
SCENARIO_SEEDS = range(0, 100)


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    counts: Counter = field(default_factory=Counter)
    host_peak_rss_mb: float = 0.0


def _verdict_name(verdict: Verdict) -> str:
    return {
        Verdict.PROVEN: "proven",
        Verdict.REAL_VIOLATION: "violation",
        Verdict.BUDGET_EXCEEDED: "budget-exceeded",
    }[verdict]


def _peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MB (0 when unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Convoy:
    """The RailCab convoy loop on one rear shuttle (one verdict per unit)."""

    #: The correct shuttle is proven at every size (§4.4 terminates).
    expected = Verdict.PROVEN

    def __init__(self, ticks: int, *, remote: bool = False, max_iterations: int | None = None,
                 shuttle=None):
        self.remote = remote
        self.settings = SynthesisSettings(max_iterations=max_iterations, remote=remote or None)
        self.shuttle = shuttle or (lambda: railcab.correct_rear_shuttle(convoy_ticks=ticks))

    def setup(self) -> None:
        self.context = railcab.front_role_automaton()

    def units(self, seed: str) -> list:
        return [0]

    def run(self, unit, trace: LayerTrace | None, sink: list) -> Outcome:
        component = self.shuttle()
        host_rss = 0.0
        # A user pays for spawning and for shutting down the remote host on
        # every integration, so both are inside the timed span.
        with timed(trace, sink):
            synthesizer = IntegrationSynthesizer(
                self.context,
                component,
                railcab.PATTERN_CONSTRAINT,
                labeler=railcab.rear_state_labeler,
                port="rearRole",
                settings=self.settings,
            )
            try:
                result = synthesizer.run()
                if self.remote and trace is not None:  # a per-layer metric
                    host_rss = _peak_rss_mb(synthesizer.component.pid)
            finally:
                if self.remote:
                    synthesizer.component.close()
        counts = record_counts([result])
        counts["verdicts"] = 1
        return Outcome(
            ok=result.verdict is self.expected,
            detail=f"{_verdict_name(result.verdict)} after {result.iteration_count} iterations",
            counts=counts,
            host_peak_rss_mb=host_rss,
        )


class ScenarioMix:
    """``integrate()`` over generated scenarios with certified answers."""

    def __init__(self, seeds=SCENARIO_SEEDS):
        self.seeds = list(seeds)
        self.settings = SynthesisSettings()

    def setup(self) -> None:
        self.scenarios = [generate_scenario(seed) for seed in self.seeds]
        self.expected = []
        for scenario in self.scenarios:
            truth = ground_truth(scenario)
            truth.pop("scenario")
            spec = scenario.spec
            stamped = (
                {"joint": spec.expectation}
                if "joint" in truth
                else {slot.name: slot.expectation for slot in spec.slots}
            )
            if truth != stamped:
                raise RuntimeError(
                    f"{scenario.name}: model-checked truth {truth} differs from the "
                    f"factory's certified expectation {stamped}"
                )
            self.expected.append(truth)
        # Warm lazy imports and pools before timing starts.
        for index in range(min(2, len(self.scenarios))):
            outcome = self.run(index, None, [])
            if not outcome.ok:
                raise RuntimeError(f"warm-up scenario failed: {outcome.detail}")

    def units(self, seed: str) -> list[int]:
        order = list(range(len(self.scenarios)))
        random.Random(seed).shuffle(order)
        return order

    def run(self, index: int, trace: LayerTrace | None, sink: list) -> Outcome:
        scenario = self.scenarios[index]
        with timed(trace, sink):
            # Through the module attribute, so the traced run sees the wrapper.
            report = integration.integrate(
                scenario.architecture, scenario.components, settings=self.settings
            )
        results = list(report.placements.values())
        verdicts = {name: _verdict_name(r.verdict) for name, r in report.placements.items()}
        if report.joint is not None:
            results.append(report.joint)
            verdicts["joint"] = _verdict_name(report.joint.verdict)
        if not report.architecture.ok:
            verdicts = {key: "architecture-failed" for key in self.expected[index]}
        counts = record_counts(results)
        counts["verdicts"] = 1
        expected = self.expected[index]
        return Outcome(
            ok=verdicts == expected,
            detail=f"{scenario.name}: got {verdicts}, expected {expected}",
            counts=counts,
        )


_LINE = re.compile(r"^(verdict|iterations|tests executed): (\S+)", re.MULTILINE)


class CliRailcab:
    """Cold ``python -m repro railcab`` subprocesses, one at a time."""

    #: Spawns per pass: throughput is taken over whole passes.
    PASS = 10

    #: The CLI's default shuttle is the faulty one of Figure 6.
    expected = "real-violation"

    def __init__(self, args=("railcab",)):
        self.args = list(args)

    def setup(self) -> None:
        # The worker waits while a CLI child runs.  On one CPU together,
        # the worker's speed meter measures the CPU the child runs on.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
        # Certify the known answer in process before timing any subprocess.
        result = IntegrationSynthesizer(
            railcab.front_role_automaton(),
            railcab.faulty_rear_shuttle(),
            railcab.PATTERN_CONSTRAINT,
            labeler=railcab.rear_state_labeler,
            port="rearRole",
        ).run()
        if result.verdict is not Verdict.REAL_VIOLATION:
            raise RuntimeError(f"faulty shuttle gave {result.verdict}")

    def units(self, seed: str) -> list[int]:
        return list(range(self.PASS))

    def run(self, unit, trace: LayerTrace | None, sink: list) -> Outcome:
        summary = None
        if trace is None:
            with timed(None, sink):
                process = subprocess.run(
                    [sys.executable, "-m", "repro", *self.args],
                    cwd=CHECKOUT, capture_output=True, text=True, timeout=150,
                )
        else:
            cache = CHECKOUT / ".perfbench_cache"
            cache.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as scratch:
                out = Path(scratch) / "trace.json"
                command = [sys.executable, str(HERE / "cli_traced.py"), str(out), *self.args]
                with timed(trace, sink):
                    process = subprocess.run(
                        command, cwd=CHECKOUT, capture_output=True, text=True, timeout=150
                    )
                    if process.returncode == 0:
                        summary = json.loads(out.read_text())
                        trace.absorb(summary["trace"])
        fields = dict(_LINE.findall(process.stdout))
        counts = Counter(verdicts=1)
        if summary is not None:
            counts.update(summary["counts"])
        else:
            counts["tests"] = int(fields.get("tests executed", -1))
            counts["iterations"] = int(fields.get("iterations", -1))
        ok = (
            process.returncode == 0
            and fields.get("verdict") == self.expected
            and counts["tests"] == int(fields.get("tests executed", -1))
        )
        return Outcome(
            ok=ok,
            detail=f"exit {process.returncode}, verdict {fields.get('verdict')}: "
            + process.stderr[-300:],
            counts=counts,
        )


def make(name: str):
    """The workload object behind a BENCHMARK.json workload name."""
    if name == "convoy-384":
        return Convoy(384, max_iterations=2000)
    if name == "convoy-remote":
        return Convoy(96, remote=True)
    if name == "scenario-mix":
        return ScenarioMix()
    if name == "cli-railcab":
        return CliRailcab()
    raise KeyError(name)
