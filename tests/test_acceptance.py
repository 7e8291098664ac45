"""Acceptance suite: one test per criterion, each printing a PASS line.

Sizes and tolerances are pinned here; every numeric comparison is exact
integer or exact rational arithmetic, zero tolerance.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mobal
from helpers import (
    contract_edge_by_edge,
    contract_ends,
    edge_set_weight,
    lift_tour,
    matching_claim_witness,
    matchings_by_subset_filter,
    naive_pareto_entries,
    nondominated,
    pareto_filter,
    path_decomposition,
    path_ends,
    random_cycle,
)
from mobal.balancing import (
    balance_combinatorial,
    balance_integer,
    balance_paired,
    verify_balance,
)
from mobal.graphs import (
    LabeledDigraph,
    is_hamiltonian_cycle,
    lift_edges,
)
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.maxatsp import maxatsp_approx, tsp_oracle
from mobal.maxsat import maxsat_approx, maxsat_oracle
from mobal.pareto import (
    SolutionSet,
    is_alpha_approx_set,
)
from mobal.rng import SplitMix64

HALF = Fraction(1, 2)


def report(criterion, name, ok, started, detail=""):
    took = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}"
          f" [{took:.1f}s]{suffix}", flush=True)
    assert ok, f"criterion {criterion} failed: {name} {detail}"


def test_criterion_1_balancing_soundness_and_existence():
    started = time.time()
    runs = {"paired": 0, "integer": 0, "combinatorial": 0}
    for variant, kind, seed0 in (
        ("paired", "balance-paired", 100_000),
        ("integer", "balance-integer", 200_000),
        ("combinatorial", "balance-combinatorial", 300_000),
    ):
        for i in range(1000):
            m = 1 + (i * 7) % 16
            n = 1 + (i % 2)
            inst = generate(
                GeneratorSpec(kind=kind, seed=seed0 + i, m=m, n=n, bound=50)
            )
            if variant == "paired":
                result = balance_paired(inst)
            elif variant == "integer":
                result = balance_integer(inst.x, inst.z)
            else:
                result = balance_combinatorial(inst)
            assert verify_balance(inst, result, variant), (variant, seed0 + i)
            runs[variant] += 1
    ok = all(v == 1000 for v in runs.values())
    report(1, "balancing soundness+existence", ok, started, "3x1000 instances")


def test_criterion_2_maxsat_half_guarantee():
    started = time.time()
    certified = 0
    for i in range(100):
        inst = generate(
            GeneratorSpec(
                kind="cnf",
                seed=400_000 + i,
                m=4 + (i % 7),          # up to 10 variables
                clauses=5 + (i % 11),   # up to 15 clauses
                dim=1 + (i % 2),
                bound=20,
            )
        )
        cert = is_alpha_approx_set(maxsat_approx(inst), maxsat_oracle(inst), HALF)
        if cert.ok:
            # re-check the integer-exact comparison 2*w(out) >= w(opt)
            exact = all(
                all(
                    2 * o >= r
                    for o, r in zip(
                        cert.candidates.entries[j][1], cert.reference.entries[i2][1]
                    )
                )
                for i2, j in cert.pairs
            )
            certified += exact
    report(2, "maxsat 1/2-guarantee", certified == 100, started, f"{certified}/100")


def test_criterion_3_maxatsp_half_guarantee():
    started = time.time()
    certified = 0
    for i in range(50):
        g = generate(
            GeneratorSpec(
                kind="graph",
                seed=500_000 + i,
                vertices=(4, 6, 8)[i % 3],
                dim=2,
                bound=30,
            )
        )
        cert = is_alpha_approx_set(maxatsp_approx(g), tsp_oracle(g), HALF)
        certified += cert.ok
    report(3, "maxatsp 1/2-guarantee", certified == 50, started, f"{certified}/50")


def test_criterion_4_contraction_expansion_identity():
    started = time.time()
    # the worked 4-vertex example: tour weight 13 = 8 + 5 after expansion
    w = {
        (0, 3): 1, (3, 0): 5, (3, 1): 1, (1, 3): 3,
        (1, 2): 1, (2, 1): 1, (2, 0): 1, (0, 2): 1,
        (0, 1): 2, (1, 0): 1, (3, 2): 7, (2, 3): 1,
    }
    g0 = LabeledDigraph.from_weights(4, {e: (c,) for e, c in w.items()})
    q0 = {(0, 1), (1, 3)}
    h0 = contract_ends(g0, {1, 3}, {0: 3})
    tour = lift_tour(g0, q0, lift_edges({0: 3}, {(0, 2), (2, 0)}))
    figure_ok = (
        h0.weight_map[(0, 2)] == (7,)
        and h0.weight_map[(2, 0)] == (1,)
        and h0 == contract_edge_by_edge(g0, path_decomposition(q0))
        and edge_set_weight(g0, tour) == (13,)
        and edge_set_weight(h0, {(0, 2), (2, 0)}) == (8,)
        and edge_set_weight(g0, q0) == (5,)
    )

    rng = SplitMix64(640_000)
    checked = 0
    while checked < 500:
        n = (4, 5, 6, 7)[rng.randint(0, 3)]
        g = generate(
            GeneratorSpec(
                kind="graph", seed=600_000 + checked, vertices=n, dim=2, bound=25
            )
        )
        cycle = random_cycle(g, rng)
        size = rng.randint(0, n - 2)
        picked = rng.sample(0, n - 1, size)
        q = tuple(sorted(cycle[j] for j in picked))
        tails, last = path_ends(q)
        h = contract_ends(g, tails, last)
        # the one-pass contraction is the edge-by-edge definition
        assert h == contract_edge_by_edge(g, path_decomposition(q)), (checked, q)
        if h.num_vertices < 2:
            continue
        t_prime = random_cycle(h, rng)
        t = lift_tour(g, q, lift_edges(last, t_prime))
        lhs = edge_set_weight(g, t)
        rhs = tuple(
            a + b
            for a, b in zip(edge_set_weight(h, t_prime), edge_set_weight(g, q))
        )
        assert lhs == rhs, (checked, q)
        assert is_hamiltonian_cycle(g, t)
        checked += 1
    report(4, "contraction/expansion identity", figure_ok and checked == 500,
           started, "500 triples + worked example")


def test_criterion_5_matching_claim_harness():
    started = time.time()
    rng = SplitMix64(777)
    good = 0
    for i in range(50):
        g = generate(
            GeneratorSpec(
                kind="graph",
                seed=700_000 + i,
                vertices=6 if i % 2 else 8,
                dim=2,
                bound=20,
            )
        )
        witness = matching_claim_witness(g, random_cycle(g, rng))
        if (
            len(witness.f_edges) <= 2
            and set(witness.f_edges) <= set(witness.cycle)
            and witness.ok
        ):
            good += 1
    report(5, "matching-claim harness", good == 50, started, f"{good}/50")


def test_criterion_6_oracle_cross_checks():
    started = time.time()
    rng = SplitMix64(31337)
    filter_ok = 0
    for _ in range(1000):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 40)
        entries = [
            ((i,), tuple(rng.randint(0, 30) for _ in range(dim)))
            for i in range(count)
        ]
        s = SolutionSet.build(entries)
        if pareto_filter(s).entries == tuple(naive_pareto_entries(list(s.entries))):
            filter_ok += 1
    matching_ok = 0
    for i in range(100):
        g = generate(
            GeneratorSpec(
                kind="graph",
                seed=800_000 + i,
                vertices=4 if i % 2 else 6,
                dim=2,
                bound=9,
            )
        )
        ours = ExactMatchingBackend(g).pareto_matchings()
        independent = matchings_by_subset_filter(g)
        front = set(nondominated(w for _, w in independent))
        if set(ours.weights()) == front and all(
            edge_set_weight(g, sol) == w for sol, w in ours
        ):
            matching_ok += 1
    ok = filter_ok == 1000 and matching_ok == 100
    report(6, "oracle cross-checks", ok, started,
           f"filter {filter_ok}/1000, matching {matching_ok}/100")


def _child_env():
    """This process's environment with the directory holding the imported
    ``mobal`` first on PYTHONPATH, so a child started in any working
    directory runs the code under test (a relative ``PYTHONPATH=src`` does
    not resolve from ``tmp_path``)."""
    env = dict(os.environ)
    root = str(Path(mobal.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return env


def _python(*args, cwd):
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _cli(*argv, cwd):
    return _python("-m", "mobal", *argv, cwd=cwd)


def _machine(stdout):
    """The report-begin..report-end section, or None if a marker is missing."""
    lines = stdout.splitlines()
    if "report-begin" not in lines or "report-end" not in lines:
        return None
    return "\n".join(lines[lines.index("report-begin"): lines.index("report-end") + 1])


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def test_criterion_7_report_determinism(tmp_path):
    started = time.time()
    failures = []
    code, stdout, stderr = _python(
        "-c", "import mobal; print(mobal.__file__)", cwd=tmp_path
    )
    child_file = stdout.strip()
    if code != 0 or Path(child_file).resolve() != Path(mobal.__file__).resolve():
        failures.append(
            f"child imports mobal from {child_file or None!r}, not "
            f"{mobal.__file__!r} (exit {code}, stderr: {_last_line(stderr)!r})"
        )
    wcnf = tmp_path / "i.wcnf"
    graph = tmp_path / "i.graph"
    bal = tmp_path / "i.balance"
    invocations = [
        ("gen", "--kind", "cnf", "--seed", "5", "--m", "6", "--clauses", "7",
         "--out", str(wcnf)),
        ("gen", "--kind", "graph", "--seed", "5", "--vertices", "4",
         "--out", str(graph)),
        ("gen", "--kind", "balance-paired", "--seed", "5", "--m", "6", "--n", "1",
         "--out", str(bal)),
        ("balance", "--variant", "paired", "--in", str(bal), "--verify"),
        ("maxsat", "--in", str(wcnf), "--certify", "--alpha", "1/2"),
        ("maxatsp", "--in", str(graph), "--certify", "--alpha", "1/2"),
        ("certify", "--in", str(graph)),
        ("bench", "--kind", "balance-integer", "--count", "5", "--seed", "3",
         "--m", "6", "--n", "1"),
    ]
    for argv in invocations:
        runs = [_cli(*argv, cwd=tmp_path) for _ in range(2)]
        broken = [r for r in runs if r[0] != 0 or _machine(r[1]) is None]
        if broken:
            code, stdout, stderr = broken[0]
            markers = "report" if _machine(stdout) else "no report markers"
            failures.append(
                f"{list(argv)}: exit {code}, {markers},"
                f" stderr: {_last_line(stderr)!r}"
            )
        elif _machine(runs[0][1]) != _machine(runs[1][1]):
            failures.append(f"{list(argv)}: machine sections differ")
    detail = f"{len(invocations)} invocations x2"
    if failures:
        detail += "; " + "; ".join(failures)
    report(7, "report determinism", not failures, started, detail)


def test_criterion_8_primary_only_suite():
    started = time.time()
    # no secondary component exists in this build; the whole suite above
    # runs against the primary alone
    report(8, "primary-only suite", True, started, "vacuous")
