#!/usr/bin/env python3
"""Run every workload on several seeds and record the figures.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload this makes one untraced run per seed and one traced
run on the first seed, one after another, and writes the environment,
each end-to-end metric's median, quartiles and spread (interquartile
distance over median), the per-layer metrics, and every run's output
digest.  Two commits can then be compared metric by metric and, for
identical results, digest by digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    digest = next(line.rsplit(" ", 1)[1] for line in lines if line.startswith("output digest"))
    return json.loads(lines[-1]), digest


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="range such as 1-10")
    p.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds for quartiles")
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    chosen = args.workloads or [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {
        "recorded": date.today().isoformat(),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in chosen:
        runs = [one_run(name, seed, seconds, 0) for seed in args.seeds]
        traced, trace_digest = one_run(name, args.seeds[0], seconds, 1)
        results = [r for r, _ in runs]
        entry = {
            "why": why.get(name, ""),
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": {
                metric: dict(summarize([r["metrics"][metric]["value"] for r in results]), unit=m["unit"])
                for metric, m in results[0]["metrics"].items()
            },
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "digests": {str(seed): d for seed, (_, d) in zip(args.seeds, runs)},
            "traced_digest_matches": trace_digest == runs[0][1],
        }
        record["workloads"][name] = entry
        print(name, json.dumps(entry["end_to_end"]), flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
