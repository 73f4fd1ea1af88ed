"""Benchmark entry point for the verify -> test -> learn loop.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is a closed loop with one client: the parent starts fresh worker
interpreters strictly one at a time (``perfbench/worker.py``), first
``SETUP_PROBES`` that only set up, then ``WORKERS`` that set up and
measure a share of ``--seconds`` each.  Timings are in reference seconds,
scaled by the workers' speed meter (see ``worker.py``).  Every verdict is
checked against its known answer.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
The lines before it print every metric with its unit, base and sample
count.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LayerTrace, layer_metrics, merge_counts  # noqa: E402

WORKLOADS = ("convoy-384", "convoy-remote", "scenario-mix", "cli-railcab")
#: Measuring workers per run; pooling fresh processes averages out the
#: per-process differences a single interpreter shows.  Every worker
#: completes at least one verdict, so convoy-384 (one ~8 s verdict per
#: worker) measures three verdicts, about 25 s, at ``--seconds 20``.
WORKERS = {"convoy-384": 3, "convoy-remote": 5}
DEFAULT_WORKERS = 2
#: Extra set-up-only interpreters, so ``setup_s`` is a median of
#: SETUP_PROBES + WORKERS cold set-ups.
SETUP_PROBES = 5
STARTUP_PROBES = 5
#: A worker is killed after this many seconds plus three times its budget.
WORKER_GRACE_S = 60.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not a failed verdict)."""


def hermetic_env(root: Path, environ=os.environ) -> dict[str, str]:
    """The environment of every process the benchmark starts.

    Drops every ``REPRO_*`` knob (tracing, fault injection, rehosting,
    parallelism...) and every ``PYTHON*`` setting of the outer shell,
    pins the hash seed, and points the bytecode cache into the checkout.
    Children of the workers (component hosts, CLI runs) inherit it.
    """
    env = {
        key: value
        for key, value in environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench_cache" / "pycache")
    return env


def warm_bytecode(root: Path, env: dict[str, str]) -> None:
    """Compile the package and the benchmark before any set-up is timed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=root,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def spawn_worker(root: Path, env: dict[str, str], config: dict) -> tuple[float, dict]:
    """Run one worker; return (interpreter start to ready, its result).

    The set-up time is in reference seconds (see ``worker.py``), scaled by
    the ruler samples the worker takes right after it is ready.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(WORKER_GRACE_S + 3 * config.get("budget", 0), process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchmarkError(f"{config['workload']} worker exited with {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    return setup_s * result["setup_scale"], result


def startup_probes(root: Path, env: dict[str, str]) -> dict:
    """Bare interpreter start and ``import repro`` cost in fresh processes."""
    interpreter, package, numpy = [], [], []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        interpreter.append(time.perf_counter() - start)
        report = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            cwd=root, env=env, check=True, capture_output=True, text=True,
        ).stderr
        cumulative = {}
        for line in report.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        package.append(cumulative.get("repro", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "interpreter_s": statistics.median(interpreter),
        "import_s": statistics.median(package),
        "numpy_import_s": statistics.median(numpy),
        "startup_base": f"median of {STARTUP_PROBES} fresh interpreters",
    }


def percentile(values: list[float], fraction: float) -> float:
    """Inclusive linear-interpolation percentile (defined for n >= 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(results: list[dict], setups: list[float]) -> dict[str, tuple]:
    times = [t for result in results for t in result["times"]]
    wall = statistics.median(t for result in results for t in result["raw_times"])
    counts = Counter()
    for result in results:
        merge_counts(counts, result["counts"])
    completed = sum(r["completed"] for r in results)
    seconds = sum(times)
    n = len(times)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} cold set-ups"),
        "verdict_s_p50": (statistics.median(times), "s",
                          f"{n} verdicts (wall-clock median {wall:.6g} s)"),
        "verdict_s_p90": (percentile(times, 0.9), "s", f"{n} verdicts"),
        "throughput_per_s": (
            completed / seconds, "1/s",
            f"{completed} correct verdicts in whole passes, {seconds:.2f} s of verdicts"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB",
                        f"max over {len(results)} workers"),
        "tests_per_verdict": (counts["tests"] / counts["verdicts"], "count",
                              f"{counts['tests']} tests over {counts['verdicts']} verdicts"),
    }


def per_layer(results: list[dict], extra: dict) -> dict[str, tuple]:
    trace = LayerTrace()
    counts = Counter()
    traced = untraced = 0.0
    for result in results:
        trace.absorb(result["traced"]["summary"])
        merge_counts(counts, result["traced"]["counts"])
        traced += sum(result["traced"]["times"])
        untraced += result["traced"]["untraced_seconds"]
        extra["host_peak_rss_mb"] = max(
            extra.get("host_peak_rss_mb", 0.0), result["traced"]["host_peak_rss_mb"]
        )
    extra["overhead_ratio"] = traced / untraced if untraced else 0.0
    extra["overhead_base"] = f"traced {traced:.2f} s over untraced {untraced:.2f} s, same verdicts"
    return layer_metrics(trace.summary(), counts, extra)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    (root / ".perfbench_cache").mkdir(exist_ok=True)
    env = hermetic_env(root)
    try:
        warm_bytecode(root, env)
        base = {"workload": args.workload, "seed": args.seed}
        setups = [
            spawn_worker(root, env, {**base, "setup_only": True})[0]
            for _ in range(SETUP_PROBES)
        ]
        results = []
        workers = WORKERS.get(args.workload, DEFAULT_WORKERS)
        for index in range(workers):
            setup_s, result = spawn_worker(root, env, {
                **base, "worker": index, "budget": args.seconds / workers, "trace": args.trace,
            })
            setups.append(setup_s)
            results.append(result)
        for result in results:
            for failure in result["failures"]:
                print(f"FAILED {failure}")
        if not any(result["times"] for result in results):
            raise BenchmarkError("no verdict completed")
        metrics = (
            per_layer(results, startup_probes(root, env))
            if args.trace
            else end_to_end(results, setups)
        )
    except (BenchmarkError, subprocess.CalledProcessError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    width = max(map(len, metrics))
    for name, (value, unit, base_text) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} {base_text}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
