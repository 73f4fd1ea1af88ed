"""Tests of the benchmark itself: known answers, counts, tracing, hermeticity.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import layers
import run as bench
import worker
import workloads
from layers import LayerTrace, traced
from repro import Verdict, railcab

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _verdict(workload, unit=0, trace=None):
    sink: list[float] = []
    outcome = workload.run(unit, trace, sink)
    return outcome, sink


@pytest.fixture(scope="module")
def small_mix():
    # Seeds 0-5 hold single-slot, separate and joint multi-slot scenarios.
    mix = workloads.ScenarioMix(seeds=range(0, 6))
    mix.setup()
    return mix


# ------------------------------------------------------------ known answers


def test_convoy_with_the_faulty_shuttle_is_a_failed_operation():
    convoy = workloads.Convoy(8, shuttle=railcab.faulty_rear_shuttle)
    convoy.setup()
    outcome, sink = _verdict(convoy)
    assert not outcome.ok and "violation" in outcome.detail
    assert len(sink) == 1


def test_budget_exceeded_where_a_proof_is_expected_is_a_failed_operation():
    convoy = workloads.Convoy(32, max_iterations=3)
    convoy.setup()
    outcome, _ = _verdict(convoy)
    assert not outcome.ok and "budget-exceeded" in outcome.detail


def test_correct_convoy_matches_its_known_answer():
    convoy = workloads.Convoy(8)
    convoy.setup()
    outcome, _ = _verdict(convoy)
    assert outcome.ok, outcome.detail


def test_flipped_scenario_expectation_is_a_failed_operation(small_mix):
    for index in range(len(small_mix.scenarios)):
        assert _verdict(small_mix, index)[0].ok
    original = small_mix.expected[3]
    flip = {"proven": "violation", "violation": "proven"}
    small_mix.expected[3] = {key: flip[value] for key, value in original.items()}
    try:
        assert not _verdict(small_mix, 3)[0].ok
    finally:
        small_mix.expected[3] = original


def test_exceptions_are_counted_as_failures_not_crashes():
    class Broken:
        def run(self, unit, trace, sink):
            sink.append(1.0)
            raise RuntimeError("component exploded")

    failures: list[str] = []
    sink: list[float] = []
    assert worker._attempt(Broken(), 7, None, sink, failures) is None
    assert sink == [] and "component exploded" in failures[0]


def test_speed_meter_samples_during_a_verdict_and_removes_its_own_time():
    class Busy:
        def run(self, unit, trace, sink):
            with layers.timed(None, sink):
                deadline = time.perf_counter() + 0.5
                while time.perf_counter() < deadline:
                    pass
            return workloads.Outcome(ok=True)

    executed, raw, times, outcomes = worker._passes(Busy(), [0], 0.1, [])
    assert executed == [0] and outcomes[0].ok
    # The loop ends at a wall-clock deadline, so the ruler ticks inside it
    # are taken out of its 0.5 s.
    assert 0.4 < raw[0] < 0.5
    assert 0.2 < times[0] / raw[0] < 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_cli_wrong_answer_is_a_failed_operation():
    # The correct shuttle proves, so "real-violation" is the wrong answer.
    cli = workloads.CliRailcab(args=("railcab", "--shuttle", "correct"))
    outcome, _ = _verdict(cli)
    assert not outcome.ok


# ------------------------------------------------------------------ counts


def test_count_metrics_repeat_exactly(small_mix):
    convoy = workloads.Convoy(16)
    convoy.setup()
    assert _verdict(convoy)[0].counts == _verdict(convoy)[0].counts
    for index in range(len(small_mix.scenarios)):
        assert _verdict(small_mix, index)[0].counts == _verdict(small_mix, index)[0].counts
    cli = workloads.CliRailcab()
    first, second = _verdict(cli)[0], _verdict(cli)[0]
    assert first.ok and first.counts == second.counts


def test_traced_and_untraced_counts_agree(small_mix):
    convoy = workloads.Convoy(16)
    convoy.setup()
    untraced = [_verdict(small_mix, i)[0].counts for i in range(6)] + [_verdict(convoy)[0].counts]
    trace = LayerTrace()
    with traced(trace):
        traced_counts = [_verdict(small_mix, i, trace)[0].counts for i in range(6)]
        traced_counts.append(_verdict(convoy, 0, trace)[0].counts)
    assert traced_counts == untraced


# ------------------------------------------------------------------ tracing


def test_self_times_add_up_to_the_verdict_time(small_mix):
    convoy = workloads.Convoy(24)
    convoy.setup()
    remote = workloads.Convoy(16, remote=True)
    remote.setup()
    cli = workloads.CliRailcab()
    trace = LayerTrace()
    counts = Counter()
    with traced(trace):
        for index in range(len(small_mix.scenarios)):
            layers.merge_counts(counts, _verdict(small_mix, index, trace)[0].counts)
        for workload in (convoy, remote, cli):
            layers.merge_counts(counts, _verdict(workload, 0, trace)[0].counts)
    summary = trace.summary()
    verdict_s = summary["total_s"][layers.ROOT]
    assert sum(summary["self_s"].values()) == pytest.approx(verdict_s, rel=1e-9)
    assert summary["top_s"] == pytest.approx(verdict_s, rel=1e-9)
    labels = {label for _, _, label in layers.TARGETS} | {layers.ROOT}
    assert set(summary["self_s"]) <= labels

    # The per-layer self-time metrics, scaled back by their bases, and the
    # unattributed loop time account for the whole traced verdict time.
    metrics = {name: value for name, (value, _, _) in
               layers.layer_metrics(summary, counts, {}).items()}
    iterations, tests = counts["iterations"], counts["tests"]
    steps = sum(summary["calls"].get(f"{c}.step", 0) for c in ("LegacyComponent", "RemoteComponent"))
    attributed_ms = (
        iterations * sum(metrics[name] for name in (
            "automata.closure_ms_per_iter", "automata.product_ms_per_iter",
            "automata.verify_step_self_ms_per_iter", "logic.checker_build_ms_per_iter",
            "logic.check_ms_per_iter", "logic.counterexample_ms_per_iter",
            "synthesis.learn_ms_per_iter", "synthesis.loop_self_ms_per_iter"))
        + tests * (metrics["testing.execute_self_ms_per_test"]
                   + metrics["testing.replay_ms_per_test"])
        + counts["verdicts"] * metrics["integration.facade_ms_per_verdict"]
        + 1e3 * sum(summary["self_s"][label] for label in (
            "legacy.step", "legacy.reset", "legacy.rpc", "legacy.spawn"))
    )
    assert steps > 0 and summary["calls"]["FrameChannel.send"] > 0
    assert summary["total_s"]["legacy.rpc"] < verdict_s
    assert attributed_ms == pytest.approx(verdict_s * 1e3, rel=1e-6)


def test_every_wrapped_function_is_the_original_again():
    before = layers.bindings()
    trace = LayerTrace()
    convoy = workloads.Convoy(8)
    convoy.setup()
    with traced(trace):
        for owner, attribute, original, *_ in before:
            assert vars(owner)[attribute] is not original
        _verdict(convoy, 0, trace)
    for owner, attribute, original, *_ in before:
        assert vars(owner)[attribute] is original
    assert layers.bindings() == before


def test_call_counts_survive_concurrent_threads():
    trace = LayerTrace()
    count = lambda: None  # noqa: E731
    threads = [
        threading.Thread(
            target=lambda: [trace.call("testing.replay", "replay", count, (), {})
                            for _ in range(5000)]
        )
        for _ in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert trace.calls["replay"] == 6 * 5000
    assert trace.summary()["self_s"] == {}  # off-thread calls are not timed


def test_traced_block_restores_on_error():
    before = layers.bindings()
    with pytest.raises(RuntimeError):
        with traced(LayerTrace()):
            raise RuntimeError("interrupted")
    for owner, attribute, original, *_ in before:
        assert vars(owner)[attribute] is original


# ------------------------------------------------------------ hermeticity


def test_hermetic_env_scrubs_outer_knobs_and_pins_the_hash_seed():
    outer = {
        "PATH": "/bin",
        "REPRO_TRACE": "trace.jsonl",
        "REPRO_FAULT_SEED": "3",
        "REPRO_REMOTE": "1",
        "REPRO_BLACKBOX": "dumps",
        "PYTHONHASHSEED": "random",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONWARNINGS": "error",
    }
    env = bench.hermetic_env(ROOT, outer)
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONHASHSEED"] == "0"
    assert "PYTHONDONTWRITEBYTECODE" not in env and "PYTHONWARNINGS" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert Path(env["PYTHONPYCACHEPREFIX"]).is_relative_to(ROOT)
    assert env["PATH"] == "/bin"


def _bench(*args, cwd=ROOT, env=None, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_outer_repro_knobs_do_not_reach_any_child(tmp_path):
    # If REPRO_TRACE leaked into a CLI child, it would write this file.
    leak = tmp_path / "leaked-trace.jsonl"
    env = {"PATH": "/usr/bin:/bin", "REPRO_TRACE": str(leak), "REPRO_FAULT_SEED": "1"}
    done = _bench("--workload", "cli-railcab", "--seed", "1", "--seconds", "1", env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert not leak.exists()


# ---------------------------------------------------------------- contract


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_contract(trace, section):
    done = _bench("--workload", "cli-railcab", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name in expected:  # every metric is printed by name before the JSON line
        assert any(line.startswith(name + " ") for line in done.stdout.splitlines())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cli-railcab", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_spec_names_match_the_metrics_the_code_produces():
    produced = set(layers.layer_metrics(LayerTrace().summary(), {}, {}))
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    for name in bench.WORKLOADS:
        assert workloads.make(name) is not None
    assert Verdict.PROVEN is workloads.make("convoy-384").expected
