"""Smoke test of the benchmark on tiny corpora.

    python3 -m pytest -q perfbench

It runs every step kind end to end, checks that the traced run removes
its wrappers and that work counts and output digests repeat exactly,
and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import bench  # noqa: E402  (needs mobal on the path)
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = (
    wl.Workload("tiny-atsp", "graph", ({"kind": "graph", "vertices": 4, "dim": 2, "bound": 9},), 4, 2, "tiny"),
    wl.Workload("tiny-atsp-k3", "graph", ({"kind": "graph", "vertices": 4, "dim": 3, "bound": 9},), 4, 2, "tiny"),
    wl.Workload(
        "tiny-sat",
        "cnf",
        tuple({"kind": "cnf", "m": m, "clauses": 2 * m, "dim": 2, "bound": 9} for m in (3, 4)),
        4,
        2,
        "tiny",
    ),
    wl.Workload(
        "tiny-balance",
        "balance",
        tuple({"kind": f"balance-{v}", "m": 5, "n": 1, "bound": 9} for v in ("paired", "integer", "combinatorial")),
        6,
        6,
        "tiny",
    ),
)
CONTRACT = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


def units(report: dict) -> dict[str, str]:
    return {k: m["unit"] for k, m in report["metrics"].items()}


def wrapped_targets() -> dict[str, object]:
    t = wl.make_tracer()
    return {
        f"{owner.__name__}.{attr}": (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
        for owner, attr, *_ in t._targets
    }


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_end_to_end(w):
    report = bench.measure(w, seed=3, seconds=0.05, import_s=0.01, setup_reps=2)
    assert report["correct"] and report["failed"] == 0, report["problems"]
    assert units(report) == END_TO_END
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert report["attempted"] >= 2 * w.corpus_size


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_traced_run_is_repeatable_and_unwraps(w):
    originals = wrapped_targets()
    first = bench.measure_traced(w, seed=5, seconds=0.05, setup_reps=1)
    assert wrapped_targets() == originals
    second = bench.measure_traced(w, seed=5, seconds=0.05, setup_reps=1)
    for report in (first, second):
        assert report["correct"], report["problems"]
        assert units(report) == PER_LAYER
    assert first["digest"] == second["digest"]
    for key in bench.WORK_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    m = {k: (v["value"], v["unit"]) for k, v in first["metrics"].items()}
    for solver in bench.APPROX_CHILDREN:
        if m[f"{solver}.s"][0]:
            assert abs(bench.approx_residual(m, solver)) < 1e-9


def test_untraced_and_traced_outputs_agree():
    w = TINY[2]
    assert bench.measure(w, 7, 0.05, 0.01, 1)["digest"] == bench.measure_traced(w, 7, 0.05, 1)["digest"]


def test_missing_function_reports_zero_calls():
    import mobal.maxsat as maxsat

    t = Tracer()
    t.span(maxsat, "no_such_function", "gone")
    t.install()
    t.uninstall()
    assert t.spans["gone"].calls == 0


def test_refuses_without_program(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atsp-n8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "error:" in proc.stderr
