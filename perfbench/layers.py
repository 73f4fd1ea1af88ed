"""Outside-in layer tracing: spans around the public entry points of repro.

The traced run wraps, from this file, the public function or method that
serves as each layer's entry point (``TARGETS``), records nested spans in
memory, and restores every original object when the ``traced`` block
exits.  Nothing inside ``src/`` is edited or instrumented, and an untraced
run executes the unwrapped code.

A span's self time is its duration minus the durations of the wrapped
spans it directly encloses, so the self times of all spans of one verdict
add up to that verdict's root span exactly.  Calls made on threads other
than the tracing thread (the multi-legacy loop replays slot chunks on a
thread pool) are counted but not timed: their wall time stays inside the
enclosing span of the tracing thread, which waits for them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

#: (module, attribute path, span label).  Several entry points may share a
#: label; call counts are kept per entry point.
TARGETS = (
    ("repro.automata.incremental", "ClosureCache.update", "automata.closure"),
    ("repro.automata.incremental", "IncrementalProduct.update", "automata.product"),
    ("repro.automata.incremental", "IncrementalVerifier.step", "automata.verify_step"),
    ("repro.logic.checker", "ModelChecker.__init__", "logic.checker_build"),
    ("repro.logic.checker", "ModelChecker.check", "logic.check"),
    ("repro.logic.counterexample", "counterexample", "logic.counterexample"),
    ("repro.logic.counterexample", "counterexamples", "logic.counterexample"),
    ("repro.testing.robust", "RobustExecutor.execute", "testing.execute"),
    ("repro.testing.replay", "replay", "testing.replay"),
    ("repro.legacy.component", "LegacyComponent.step", "legacy.step"),
    ("repro.legacy.component", "LegacyComponent.reset", "legacy.reset"),
    ("repro.legacy.remote", "RemoteComponent.__init__", "legacy.spawn"),
    ("repro.legacy.remote", "RemoteComponent.step", "legacy.step"),
    ("repro.legacy.remote", "RemoteComponent.reset", "legacy.reset"),
    ("repro.legacy.remote", "FrameChannel.send", "legacy.rpc"),
    ("repro.legacy.remote", "FrameChannel.receive", "legacy.rpc"),
    ("repro.synthesis.learning", "learn_regular", "synthesis.learn"),
    ("repro.synthesis.learning", "learn_blocked", "synthesis.learn"),
    ("repro.synthesis.learning", "refuse", "synthesis.learn"),
    ("repro.synthesis.iterate", "IntegrationSynthesizer.run", "synthesis.run"),
    ("repro.synthesis.multi", "MultiLegacySynthesizer.run", "synthesis.multi_run"),
    ("repro.integration", "integrate", "integration.integrate"),
)

ROOT = "verdict"
RUN_LABELS = ("synthesis.run", "synthesis.multi_run")
STEP_LABEL = "automata.verify_step"
#: Spans whose self time is loop time no layer claims.
UNATTRIBUTED = (ROOT, *RUN_LABELS)


class LayerTrace:
    """In-memory span accumulator for one process."""

    def __init__(self):
        self.thread = threading.get_ident()
        self._stack: list[list] = []  # [label, seconds of wrapped children]
        self._open: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: inclusive time, counted once for spans nested in their own label
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._calls_lock = threading.Lock()
        #: seconds of top-level spans (a root, or spans absorbed from a child)
        self.top_s = 0.0
        #: per synthesizer run: the iteration durations in seconds
        self.iterations: list[list[float]] = []
        self._step_starts: list[list[float]] = []
        #: record counts of every synthesizer run seen (see record_counts)
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, label: str):
        frame = self._enter(label)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter() - start)

    def _enter(self, label: str) -> list:
        frame = [label, 0.0]
        self._stack.append(frame)
        self._open[label] += 1
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        label = frame[0]
        self._stack.pop()
        self._open[label] -= 1
        self.self_s[label] += elapsed - frame[1]
        if not self._open[label]:
            self.total_s[label] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self.top_s += elapsed

    def call(self, label: str, key: str, function, args, kwargs):
        with self._calls_lock:
            self.calls[key] += 1
        if threading.get_ident() != self.thread:
            return function(*args, **kwargs)
        if label == STEP_LABEL and self._step_starts:
            self._step_starts[-1].append(time.perf_counter())
        is_run = label in RUN_LABELS
        if is_run:
            self._step_starts.append([])
        frame = self._enter(label)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._exit(frame, end - start)
            if is_run:
                starts = self._step_starts.pop()
                self.iterations.append(
                    [b - a for a, b in zip(starts, starts[1:] + [end])]
                )
        if is_run:
            merge_counts(self.counts, record_counts([result]))
        return result

    def absorb(self, summary: dict) -> None:
        """Merge a child process's ``summary()`` below the open span."""
        for label, seconds in summary["self_s"].items():
            self.self_s[label] += seconds
        for label, seconds in summary["total_s"].items():
            self.total_s[label] += seconds
        self.calls.update(summary["calls"])
        self.iterations.extend(summary["iterations"])
        if self._stack:
            self._stack[-1][1] += summary["top_s"]
        else:
            self.top_s += summary["top_s"]

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "top_s": self.top_s,
            "iterations": self.iterations,
        }


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for one target."""
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    original = vars(owner)[attribute]  # defined there, never inherited
    return owner, attribute, original


def _wrapper(trace: LayerTrace, label: str, key: str, original):
    call = trace.call

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return call(label, key, original, args, kwargs)

    return wrapper


def bindings() -> list[tuple]:
    """Every place a target is reachable: (owner, attribute, original, label, key).

    Functions are also bound by name in each repro module that imported
    them (``from ..testing.replay import replay``); every such binding is
    listed so the wrapper is seen wherever the function is called from.
    """
    found = []
    for module_name, path, label in TARGETS:
        owner, attribute, original = _resolve(module_name, path)
        found.append((owner, attribute, original, label, path))
        if "." in path:
            continue
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    found.append((module, alias, original, label, path))
    return found


@contextmanager
def traced(trace: LayerTrace):
    """Install the layer wrappers for the duration of the block."""
    installed = []
    try:
        for owner, attribute, original, label, key in bindings():
            setattr(owner, attribute, _wrapper(trace, label, key, original))
            installed.append((owner, attribute, original))
        yield trace
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


@contextmanager
def timed(trace: LayerTrace | None, sink: list):
    """Time one verdict into ``sink``; under a trace, also as a root span."""
    with trace.span(ROOT) if trace is not None else nullcontext():
        start = time.perf_counter()
        try:
            yield
        finally:
            sink.append(time.perf_counter() - start)


# ------------------------------------------------------------ record counts


def record_counts(results) -> Counter:
    """Sum the loop counters over synthesis results (single or multi).

    Exact work counts, identical between an untraced and a traced run of
    the same verdicts.
    """
    counts = Counter()
    for result in results:
        counts["tests"] += result.total_tests
        counts["iterations"] += result.iteration_count
        for record in result.iterations:
            counts["useful_iterations"] += record.knowledge_gained > 0
            counts["product_misses"] += record.product_misses
            counts["affected_states"] += record.affected_states
            counts["fixpoint_work"] += record.checker_fixpoint_work
            counts["retries"] += record.test_retries
            counts["inconclusive"] += record.tests_inconclusive
            counts["composed_states_max"] = max(
                counts["composed_states_max"], record.composed_states
            )
    return counts


def merge_counts(total: Counter, more: dict) -> None:
    for key, value in more.items():
        if key == "composed_states_max":
            total[key] = max(total[key], value)
        else:
            total[key] += value


# ------------------------------------------------------- per-layer metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _growth(durations: list[float]) -> float | None:
    """Mean of the last decile of iterations over that of the first."""
    if len(durations) < 10:
        return None
    tenth = len(durations) // 10
    first = statistics.fmean(durations[:tenth])
    last = statistics.fmean(durations[-tenth:])
    return last / first if first else None


def layer_metrics(summary: dict, counts: dict, extra: dict) -> dict[str, tuple]:
    """Per-layer metrics as ``name -> (value, unit, base)``.

    ``summary`` is a :meth:`LayerTrace.summary` over the traced verdicts,
    ``counts`` their :func:`record_counts` totals, and ``extra`` carries
    what is measured outside the spans (host RSS, start-up probes, the
    traced/untraced wall-time ratio).
    """
    self_ms = {label: seconds * 1e3 for label, seconds in summary["self_s"].items()}
    total_ms = {label: seconds * 1e3 for label, seconds in summary["total_s"].items()}
    calls = summary["calls"]
    ms = lambda label: self_ms.get(label, 0.0)  # noqa: E731
    verdicts = counts.get("verdicts", 0)
    iterations = counts.get("iterations", 0)
    tests = counts.get("tests", 0)
    steps = calls.get("LegacyComponent.step", 0) + calls.get("RemoteComponent.step", 0)
    resets = calls.get("LegacyComponent.reset", 0) + calls.get("RemoteComponent.reset", 0)
    verdict_ms = total_ms.get(ROOT, 0.0)
    rpc_ms = total_ms.get("legacy.rpc", 0.0)
    spawns = calls.get("RemoteComponent.__init__", 0)
    iteration_ms = [seconds * 1e3 for run in summary["iterations"] for seconds in run]
    growths = [g for g in map(_growth, summary["iterations"]) if g is not None]
    per_iter = f"per iteration, {iterations} iterations over {verdicts} verdicts"
    per_test = f"per test, {tests} tests over {verdicts} verdicts"
    per_step = f"per component step, {steps} steps"
    quantiles = statistics.quantiles(iteration_ms, n=100) if len(iteration_ms) > 1 else None
    return {
        "automata.closure_ms_per_iter": (_ratio(ms("automata.closure"), iterations), "ms", per_iter),
        "automata.product_ms_per_iter": (_ratio(ms("automata.product"), iterations), "ms", per_iter),
        "automata.verify_step_self_ms_per_iter": (
            _ratio(ms("automata.verify_step"), iterations), "ms", per_iter),
        "automata.product_misses_per_iter": (
            _ratio(counts.get("product_misses", 0), iterations), "count", per_iter),
        "automata.affected_states_per_iter": (
            _ratio(counts.get("affected_states", 0), iterations), "count", per_iter),
        "automata.composed_states_max": (
            counts.get("composed_states_max", 0), "count", f"max over {iterations} iterations"),
        "logic.checker_build_ms_per_iter": (
            _ratio(ms("logic.checker_build"), iterations), "ms", per_iter),
        "logic.check_ms_per_iter": (_ratio(ms("logic.check"), iterations), "ms", per_iter),
        "logic.counterexample_ms_per_iter": (
            _ratio(ms("logic.counterexample"), iterations), "ms", per_iter),
        "logic.fixpoint_work_per_iter": (
            _ratio(counts.get("fixpoint_work", 0), iterations), "count", per_iter),
        "testing.execute_self_ms_per_test": (_ratio(ms("testing.execute"), tests), "ms", per_test),
        "testing.replay_ms_per_test": (_ratio(ms("testing.replay"), tests), "ms", per_test),
        "testing.replays_per_test": (_ratio(calls.get("replay", 0), tests), "count", per_test),
        "testing.retries": (counts.get("retries", 0), "count", f"total over {verdicts} verdicts"),
        "testing.inconclusive": (
            counts.get("inconclusive", 0), "count", f"total over {verdicts} verdicts"),
        "legacy.steps_per_test": (_ratio(steps, tests), "count", per_test),
        "legacy.resets_per_test": (_ratio(resets, tests), "count", per_test),
        "legacy.step_us": (
            _ratio((total_ms.get("legacy.step", 0.0)) * 1e3, steps), "us", per_step),
        "legacy.rpc_us_per_step": (_ratio(rpc_ms * 1e3, steps), "us", per_step),
        "legacy.rpc_calls_per_step": (_ratio(calls.get("FrameChannel.send", 0), steps),
                                      "count", per_step),
        "legacy.rpc_share": (_ratio(rpc_ms, verdict_ms), "ratio", "of traced verdict time"),
        "legacy.spawn_s": (_ratio(total_ms.get("legacy.spawn", 0.0) / 1e3, spawns), "s",
                           f"per host spawn, {spawns} spawns"),
        "legacy.host_peak_rss_mb": (extra.get("host_peak_rss_mb", 0.0), "MB",
                                    f"max over {spawns} hosts"),
        "synthesis.iterations_per_verdict": (_ratio(iterations, verdicts), "count",
                                             f"per verdict, {verdicts} verdicts"),
        "synthesis.iter_ms_p50": (statistics.median(iteration_ms) if iteration_ms else 0.0, "ms",
                                  f"{len(iteration_ms)} iterations"),
        "synthesis.iter_ms_p99": (quantiles[98] if quantiles else 0.0, "ms",
                                  f"{len(iteration_ms)} iterations"),
        "synthesis.iter_ms_growth": (statistics.median(growths) if growths else 0.0, "ratio",
                                     f"median over {len(growths)} runs of >=10 iterations"),
        "synthesis.learn_ms_per_iter": (_ratio(ms("synthesis.learn"), iterations), "ms", per_iter),
        "synthesis.loop_self_ms_per_iter": (
            _ratio(sum(ms(label) for label in UNATTRIBUTED), iterations), "ms", per_iter),
        "synthesis.useful_iter_ratio": (
            _ratio(counts.get("useful_iterations", 0), iterations), "ratio",
            f"iterations that gained knowledge, of {iterations}"),
        "synthesis.multi_share": (_ratio(total_ms.get("synthesis.multi_run", 0.0), verdict_ms),
                                  "ratio", "of traced verdict time"),
        "integration.facade_ms_per_verdict": (
            _ratio(ms("integration.integrate"), verdicts), "ms", f"per verdict, {verdicts} verdicts"),
        "startup.interpreter_s": (extra.get("interpreter_s", 0.0), "s", extra.get("startup_base", "")),
        "startup.import_s": (extra.get("import_s", 0.0), "s", extra.get("startup_base", "")),
        "startup.numpy_import_s": (extra.get("numpy_import_s", 0.0), "s",
                                   extra.get("startup_base", "")),
        "trace.overhead_ratio": (extra.get("overhead_ratio", 0.0), "ratio",
                                 extra.get("overhead_base", "")),
    }
