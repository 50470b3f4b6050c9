"""Collect benchmark result sets and compare them against BENCHMARK.json bounds.

Usage (from the repository root)::

    # Run workloads over seeds 0..9 and append each result to a JSONL set.
    python3 e2ebench/compare.py collect --out base.jsonl --seeds 0-9 \\
        --workload tune_fast_mca --workload sweep_random_tables

    # Median and quartiles of every end-to-end metric, per workload; with a
    # second set, flag metrics whose median got worse by more than the bound.
    python3 e2ebench/compare.py compare base.jsonl [change.jsonl]

A set's spread is the distance between the first and third quartile as a
share of the median; it is flagged when it exceeds the metric's bound (the
bound is the largest change a comparison can resolve).  A change is taken
relative to the first set's median, except for ``error_gain``, which crosses
zero: its change is taken relative to the first set's ``default_error``
median.  A workload is flagged when any run in either set failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def collect(out: str, workloads: Sequence[str], seeds: Sequence[int]) -> int:
    """Append one untraced run per (workload, seed); 1 if any run failed a check."""
    benchmark = load_benchmark()
    command = [sys.executable if arg == "python3" else arg
               for arg in benchmark["command"]]
    status = 0
    for workload in workloads:
        for seed in seeds:
            completed = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(benchmark["run_seconds"]),
                           "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.stderr.write(completed.stderr)
                print(f"{workload} seed {seed}: exit {completed.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(out, "a") as stream:
                stream.write(json.dumps({"workload": workload, "seed": seed,
                                         "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            if not result["correct"] or result["failed"]:
                status = 1
    return status


Checked = Dict[str, List[int]]


def load_set(path: str) -> Tuple[Dict[str, Dict[str, List[float]]], Checked]:
    """``workload -> metric -> values``, and ``workload -> [failed, attempted]``.

    A run that reports ``correct`` false counts at least one failure.
    """
    values: Dict[str, Dict[str, List[float]]] = {}
    checked: Checked = {}
    with open(path) as stream:
        for line in stream:
            record = json.loads(line)
            result = record["result"]
            metrics = values.setdefault(record["workload"], {})
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            counts = checked.setdefault(record["workload"], [0, 0])
            counts[0] += max(result["failed"], 0 if result["correct"] else 1)
            counts[1] += result["attempted"]
    return values, checked


def summary(values: Sequence[float]) -> tuple:
    """``(median, first quartile, third quartile, spread)`` of one metric."""
    median = statistics.median(values)
    if len(values) > 1:
        first, _, third = statistics.quantiles(values, n=4)
    else:
        first = third = median
    spread = (third - first) / abs(median) if median else float("inf")
    return median, first, third, spread


def compare(base_path: str, change_path: Optional[str]) -> int:
    metrics = load_benchmark()["end_to_end"]
    base, base_checked = load_set(base_path)
    change, change_checked = load_set(change_path) if change_path else ({}, {})
    flagged = 0
    for workload in sorted(base):
        runs = len(next(iter(base[workload].values())))
        failed, attempted = base_checked[workload]
        header = f"{workload} ({runs} runs, {failed}/{attempted} checks failed"
        if workload in change:
            other_failed, other_attempted = change_checked[workload]
            header += f" | {other_failed}/{other_attempted} failed"
            failed += other_failed
        print(header + ")" + ("  FAILED-CHECKS" if failed else ""))
        flagged += bool(failed)
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            median, first, third, spread = summary(base[workload][name])
            notes = []
            if spread > bound:
                notes.append("SPREAD>BOUND")
            row = (f"  {name:<18} {median:>12.6g} [{first:.6g}, {third:.6g}] "
                   f"spread {spread:6.1%} bound {bound:.0%}")
            if workload in change:
                other, other_first, other_third, other_spread = summary(
                    change[workload][name])
                scale = abs(statistics.median(base[workload]["default_error"])
                            if name == "error_gain" else median)
                delta = (other - median) / scale if scale else 0.0
                worse = delta if metric["better"] == "lower" else -delta
                row += (f" | {other:>12.6g} [{other_first:.6g}, {other_third:.6g}] "
                        f"spread {other_spread:6.1%} change {delta:+.1%}")
                if other_spread > bound:
                    notes.append("SPREAD>BOUND")
                if worse > bound:
                    notes.append("WORSE>BOUND")
            if notes:
                flagged += 1
            print(row + ("  " + " ".join(sorted(set(notes))) if notes else ""))
    return 1 if flagged else 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect", help="run workloads into a JSONL set")
    run.add_argument("--out", required=True)
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    show = commands.add_parser("compare", help="summarize one set or compare two")
    show.add_argument("base")
    show.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args.out, args.workload, parse_seeds(args.seeds))
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
