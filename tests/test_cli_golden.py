"""Golden machine sections: a fixed matrix of CLI runs, byte for byte.

For each invocation, `tests/data/cli_golden.txt` holds the exit code,
the machine section (`report-begin` .. `report-end`) and stderr.  The
human section is left out because it carries wall time.  The matrix
covers `gen` for every kind; `maxsat`/`maxatsp` plain, `--oracle`,
`--certify`, `--certify --alpha 1/1` and a refused `--budget`;
`certify` and `balance` on every generated file; and `bench` on solver
and balance kinds.

Regenerate (only for a deliberate report change) with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mobal.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

FILES = {
    # the cnf instance misses an exact Pareto point at alpha 1/1 (exit 1)
    "cnf.wcnf": "--kind cnf --seed 33 --m 10 --clauses 15 --dim 2 --bound 9",
    "graph.txt": "--kind graph --seed 7 --vertices 5 --dim 2 --bound 30",
    # within the sweep's default budget but over the tour oracle's cap of
    # 9, so certify refuses it without running the approximation
    "graph10.txt": "--kind graph --seed 7 --vertices 10 --dim 2 --bound 30",
    "paired.bal": "--kind balance-paired --seed 7 --m 10 --n 2 --bound 50",
    "integer.bal": "--kind balance-integer --seed 7 --m 8 --n 1 --bound 9",
    "combinatorial.bal": "--kind balance-combinatorial --seed 7 --m 8 --n 2 --bound 20",
}

MATRIX = [f"gen {flags} --out {name}" for name, flags in FILES.items()]
for command, name in (("maxsat", "cnf.wcnf"), ("maxatsp", "graph.txt")):
    for extra in ("", " --oracle", " --certify", " --certify --alpha 1/1", " --budget 10"):
        MATRIX.append(f"{command} --in {name}{extra}")
MATRIX += [f"certify --in {name}" for name in FILES]
for variant in ("paired", "integer", "combinatorial"):
    for extra in ("", " --verify"):
        MATRIX.append(f"balance --variant {variant} --in {variant}.bal{extra}")
MATRIX += [
    "bench --kind graph --count 3 --seed 11 --vertices 4 --bound 9",
    "bench --kind cnf --count 3 --seed 11 --m 6 --clauses 8 --bound 9",
    "bench --kind balance-paired --count 20 --seed 3 --m 8 --n 2 --bound 9",
    "bench --kind balance-combinatorial --count 20 --seed 3 --m 8 --n 2 --bound 9",
]


def run_one(command: str) -> str:
    """One golden block: the command, its exit code, machine section, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command.split())
    lines = out.getvalue().splitlines()
    machine = lines[: lines.index("report-end") + 1] if "report-end" in lines else []
    block = [f"$ {command}", f"exit {code}", *machine]
    block += [f"stderr {line}" for line in err.getvalue().splitlines()]
    return "\n".join(block) + "\n"


def render_matrix() -> str:
    """Every block of MATRIX, run in the current directory, in order."""
    return "".join(run_one(command) for command in MATRIX)


def test_machine_sections_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = render_matrix().split("$ ")
    want = GOLDEN.read_text(encoding="ascii").split("$ ")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.stdout.write(render_matrix())
