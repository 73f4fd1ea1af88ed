"""One fresh-interpreter benchmark worker.

Usage: ``python perfbench/worker.py CONFIG_JSON``.  The worker sets its
workload up, writes ``ready`` on its protocol stream (the parent times
interpreter start to this line as one set-up sample), samples the CPU
speed, and then, unless ``setup_only``, runs whole passes of the
workload until its share of the measuring time is spent.  With ``trace``
it then re-runs the very units it timed, under the layer wrappers.  The
last protocol line is a JSON object with the samples, counts and
failures.

**Speed meter.**  On a shared VM the speed of a vCPU drifts by 20-40%
within minutes, and every wall time drifts with it.  While a worker
measures, a real-time interval timer runs a fixed pure-Python ruler
(``ruler``) every ``METER_INTERVAL_S``, in the middle of whatever the
worker is doing.  Each verdict's wall time, less the ruler's CPU time
inside it, is multiplied by ``speed_scale`` of the ruler samples taken
while it ran, which gives seconds at the reference speed (the ruler
taking ``RULER_REFERENCE_S`` of CPU time).  The ruler calls nothing in
``repro``, so a change to the program cannot move it.  Set-up samples
are scaled by ruler runs made right after the set-up, in the same
process.

The protocol stream is the original stdout; everything else the process
prints goes to stderr.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter

from layers import LayerTrace, merge_counts, traced


#: The ruler's CPU time at the reference speed, about its median on the
#: 2-vCPU VM the bounds were set on.  Never change it, nor ``ruler``:
#: both fix the unit of every scaled timing the benchmark reports.
RULER_REFERENCE_S = 0.0033
METER_INTERVAL_S = 0.2
SETUP_RULER_SAMPLES = 9


def ruler() -> float:
    """CPU seconds of a fixed dict-and-sort loop (about 3 ms).

    The collector is off while it runs: a collection of the workload's
    heap inside the ruler would be timed as CPU speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table = {}
        for i in range(20000):
            table[i * 7 % 4001] = i
        sorted(table.items())
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(samples: list[float]) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return RULER_REFERENCE_S / statistics.fmean(samples)


class SpeedMeter:
    """Ruler samples taken on a ``SIGALRM`` interval timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, ruler seconds)
        #: CPU seconds of the ruler: the time it added to whatever ran on
        #: its CPU, including a child process pinned to the same CPU
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        seconds = ruler()
        self.samples.append((time.perf_counter(), seconds))
        self.spent += seconds

    def __enter__(self) -> "SpeedMeter":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL_S, METER_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """Speed scale of the samples within one interval of [start, end]."""
        near = [seconds for taken, seconds in self.samples
                if start - METER_INTERVAL_S <= taken <= end + METER_INTERVAL_S]
        nearest = min(self.samples, key=lambda sample: abs(sample[0] - end))[1]
        return speed_scale(near or [nearest])


def _passes(workload, units, budget: float, failures: list):
    """Run whole passes while the next one is predicted to fit the budget.

    Returns the executed units, the verdicts' wall times less the meter's
    ruler time, the same in reference seconds (in-process workloads), and
    the outcomes.
    """
    executed, raw, spans, outcomes, pass_seconds = [], [], [], [], []
    meter = SpeedMeter()
    with meter:
        while True:
            started = time.perf_counter()
            for unit in units:
                timed, spent, start = len(raw), meter.spent, time.perf_counter()
                outcomes.append(_attempt(workload, unit, None, raw, failures))
                executed.append(unit)
                if len(raw) > timed:
                    raw[-1] -= meter.spent - spent
                    spans.append((start, time.perf_counter()))
            pass_seconds.append(time.perf_counter() - started)
            if sum(pass_seconds) + max(pass_seconds) > budget:
                break
    times = [t * meter.scale(*span) for t, span in zip(raw, spans)]
    return executed, raw, times, outcomes


def _attempt(workload, unit, trace, sink: list, failures: list):
    """One verdict; exceptions and wrong answers are recorded as failures."""
    before = len(sink)
    try:
        outcome = workload.run(unit, trace, sink)
    except Exception:  # a failed operation, not a benchmark crash
        failures.append(f"unit {unit}: {traceback.format_exc(limit=3)}")
        del sink[before:]
        return None
    if not outcome.ok:
        failures.append(f"unit {unit}: {outcome.detail}")
    return outcome


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    config = json.loads(sys.argv[1])
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import workloads

    workload = workloads.make(config["workload"])
    workload.setup()
    protocol.write("ready\n")
    protocol.flush()
    setup_scale = speed_scale([ruler() for _ in range(SETUP_RULER_SAMPLES)])
    if config.get("setup_only"):
        protocol.write(json.dumps({"setup_scale": setup_scale}) + "\n")
        protocol.flush()
        return 0

    failures: list[str] = []
    units = workload.units(f"{config['seed']}/{config['worker']}")
    executed, raw, times, outcomes = _passes(workload, units, config["budget"], failures)
    counts = Counter()
    for outcome in outcomes:
        if outcome is not None:
            merge_counts(counts, outcome.counts)
    result = {
        "attempted": len(executed),
        "failed": len(failures),
        "failures": failures[:5],
        "setup_scale": setup_scale,
        "times": times,
        "raw_times": raw,
        "completed": sum(outcome is not None and outcome.ok for outcome in outcomes),
        "counts": counts,
        "peak_rss_mb": _rss_mb(
            resource.RUSAGE_CHILDREN if config["workload"] == "cli-railcab" else resource.RUSAGE_SELF
        ),
    }

    if config.get("trace"):
        trace = LayerTrace()
        traced_times: list[float] = []
        traced_counts = Counter()
        host_rss = 0.0
        with traced(trace):
            for unit, untraced in zip(executed, outcomes):
                outcome = _attempt(workload, unit, trace, traced_times, failures)
                result["attempted"] += 1
                if outcome is None:
                    continue
                merge_counts(traced_counts, outcome.counts)
                host_rss = max(host_rss, outcome.host_peak_rss_mb)
                if untraced is None:
                    continue  # already a failure of the untraced pass
                shared = set(outcome.counts) & set(untraced.counts)
                if any(outcome.counts[key] != untraced.counts[key] for key in shared):
                    failures.append(f"unit {unit}: traced counts differ from untraced")
        result["failed"] = len(failures)
        result["failures"] = failures[:5]
        result["traced"] = {
            "summary": trace.summary(),
            "counts": traced_counts,
            "times": traced_times,
            "untraced_seconds": sum(raw),
            "host_peak_rss_mb": host_rss,
        }

    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
