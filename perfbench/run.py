#!/usr/bin/env python3
"""Closed-loop certify benchmark for mobal.

    python3 perfbench/run.py --workload atsp-n8 --seed 1 --seconds 25 --trace 0

Run from the repository root.  One caller sends the corpus instances in
order and waits for each certify step (parse, approximate, oracle,
certificate) to finish before sending the next; every certificate is
checked.  Set-up builds the seeded corpus as text, so the timed step
receives only generated inputs.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A missing or unimportable program exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("mobal", "mobal.instances", "mobal.maxatsp", "mobal.maxsat", "mobal.balancing")

# import, corpus build and warm-up are each repeated this often per run
SETUP_REPS = 5


class ProgramMissing(Exception):
    pass


def import_program(reps: int = 1) -> float:
    """Import mobal from this checkout's src/, `reps` times from scratch,
    and return the median seconds one import took."""
    if not (SRC / "mobal" / "__init__.py").is_file():
        raise ProgramMissing(f"no mobal package under {SRC}")
    # the budget must be the library default, not one inherited from the shell
    os.environ.pop("MOBAL_BUDGET", None)
    sys.path.insert(0, str(SRC))
    durations = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "mobal" or m.startswith("mobal.")]:
            del sys.modules[name]
        t0 = perf_counter()
        for name in MODULES:
            importlib.import_module(name)
        durations.append(perf_counter() - t0)
    found = Path(sys.modules["mobal"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise ProgramMissing(f"mobal imported from {found}, not from {SRC}")
    return statistics.median(durations)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        import_s = import_program(SETUP_REPS)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import bench
    import workloads as wl

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        report = bench.measure_traced(w, args.seed, args.seconds, SETUP_REPS)
    else:
        report = bench.measure(w, args.seed, args.seconds, import_s, SETUP_REPS)

    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"why: {w.why}")
    for name, m in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:34} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':34} {report['failed_frac']:.6g} ratio  ({report['failed']}/{report['attempted']})")
    print(f"output digest over the first {w.count_set} instances: {report['digest']}")
    for problem in report["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
