"""Steadiness report: two sets of benchmark runs, compared metric by metric.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py [--out FILE]
    python3 perfbench/steadiness.py --report FILE

Each of two sets runs ``perfbench/run.py`` once per seed 1..10 and
workload of BENCHMARK.json, for its ``run_seconds``, workloads
interleaved seed by seed.  For every metric and workload the report
prints each set's median, quartiles and spread (interquartile distance
over the median), and the relative drift of each later set's median from
the first.  A pair is flagged when its spread exceeds its bound from
BENCHMARK.json, or when a later median is worse than the first by more
than the bound (``setup_s`` is checked for drift only).  The five pairs
that failed the previous attempt at this benchmark are listed first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)
FIRST = (
    ("scenario-mix", "throughput_per_s"),
    ("scenario-mix", "verdict_s_p50"),
    ("scenario-mix", "verdict_s_p90"),
    ("convoy-384", "setup_s"),
    ("convoy-remote", "setup_s"),
)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if process.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {process.returncode}\n{process.stderr}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def report(runs: list[dict], spec: dict) -> list[str]:
    """Format the per-pair lines; a trailing ``!`` marks a flagged pair."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = sorted({run["set"] for run in runs})
    pairs = sorted({(run["workload"], name) for run in runs for name in run["metrics"]})
    pairs = [pair for pair in FIRST if pair in pairs] + [p for p in pairs if p not in FIRST]
    lines = [f"{'workload':<14} {'metric':<38} {'set':>3} {'n':>3} {'median':>12} "
             f"{'q1':>12} {'q3':>12} {'spread':>7} {'drift':>7} {'bound':>6}"]
    for workload, name in pairs:
        bound = metrics.get(name, {}).get("bound")
        lower = metrics.get(name, {}).get("better", "lower") == "lower"
        first_median = None
        for index in sets:
            values = [run["metrics"][name]["value"] for run in runs
                      if run["set"] == index and run["workload"] == workload
                      and name in run["metrics"]]
            if len(values) < 2:
                continue
            quartiles = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            first_median = median if first_median is None else first_median
            drift = (median / first_median - 1) if first_median else 0.0
            worse = drift if lower else -drift
            width = spread(values)
            flagged = bound is not None and (
                (name != "setup_s" and width > bound) or worse > bound
            )
            lines.append(
                f"{workload:<14} {name:<38} {index:>3} {len(values):>3} {median:>12.6g} "
                f"{quartiles[0]:>12.6g} {quartiles[2]:>12.6g} {width:>7.3f} {drift:>+7.3f} "
                f"{bound if bound is not None else '-':>6}" + ("  !" if flagged else "")
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="append each run here as a JSON line")
    parser.add_argument("--report", type=Path, help="only print the report of saved runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.report:
        runs = [json.loads(line) for line in args.report.read_text().splitlines() if line]
    else:
        workloads = [w["name"] for w in spec["workloads"]]
        runs = []
        for index in range(1, SETS + 1):
            for seed in SEEDS:
                for workload in workloads:
                    result = run_once(workload, seed, spec["run_seconds"])
                    run = {"set": index, "workload": workload, "seed": seed, **result}
                    runs.append(run)
                    if args.out:
                        with args.out.open("a", encoding="utf-8") as handle:
                            handle.write(json.dumps(run) + "\n")
                    if not result["correct"]:
                        print(f"INCORRECT {workload} seed {seed}: {result}", file=sys.stderr)
    lines = report(runs, spec)
    print("\n".join(lines))
    return 1 if any(line.endswith("!") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
