import pytest

from mobal.cli import main

# frozen: generated cnf instance whose interval sweep misses an exact
# Pareto point, so certification at alpha=1/1 must fail (exit 1)
ALPHA_ONE_FAILING = dict(kind="cnf", seed=33, m=10, clauses=15, dim=2, bound=9)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine_section(stdout: str) -> str:
    lines = stdout.splitlines()
    start = lines.index("report-begin")
    end = lines.index("report-end")
    return "\n".join(lines[start : end + 1])


def gen_file(capsys, tmp_path, name, **kw):
    path = tmp_path / name
    argv = ["gen", "--out", str(path)]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return path


def test_gen_is_reproducible(capsys, tmp_path):
    p1 = gen_file(capsys, tmp_path, "a.wcnf", kind="cnf", seed=7, m=5, clauses=6)
    first = p1.read_bytes()
    p2 = gen_file(capsys, tmp_path, "b.wcnf", kind="cnf", seed=7, m=5, clauses=6)
    assert first == p2.read_bytes()


def test_balance_verify_exit_zero(capsys, tmp_path):
    path = gen_file(
        capsys, tmp_path, "b.txt", kind="balance-paired", seed=5, m=6, n=1, bound=9
    )
    code, out, _ = run(capsys, "balance", "--variant", "paired", "--in", str(path), "--verify")
    assert code == 0
    assert "verified=yes" in out


def test_balance_variant_mismatch_usage_error(capsys, tmp_path):
    path = gen_file(
        capsys, tmp_path, "b.txt", kind="balance-paired", seed=5, m=6, n=1, bound=9
    )
    code, _, err = run(capsys, "balance", "--variant", "integer", "--in", str(path))
    assert code == 2
    assert "variant" in err


def test_maxsat_certify_success(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "t.wcnf", kind="cnf", seed=3, m=6, clauses=8, dim=2)
    code, out, _ = run(
        capsys, "maxsat", "--in", str(path), "--certify", "--alpha", "1/2"
    )
    assert code == 0
    assert "certified=yes" in out
    # cover ratios stay >= alpha on success
    ratios_line = next(
        line for line in out.splitlines() if line.startswith("cover_ratios=")
    )
    for token in ratios_line.split("=", 1)[1].split(","):
        if token not in ("inf", "-"):
            num, _, den = token.partition("/")
            assert 2 * int(num) >= int(den or 1)


def test_alpha_one_certificate_failure_exit_one(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "hard.wcnf", **ALPHA_ONE_FAILING)
    code, out, _ = run(
        capsys, "maxsat", "--in", str(path), "--certify", "--alpha", "1/1"
    )
    assert code == 1
    assert "certified=no" in out
    assert "uncovered_weight=" in out


def test_unknown_flag_exit_two(capsys, tmp_path):
    # a bad command line is one `error:` line, without the usage block
    code, _, err = run(capsys, "maxsat", "--nonsense")
    assert code == 2
    assert err == "error: the following arguments are required: --in\n"
    path = gen_file(capsys, tmp_path, "g.txt", kind="graph", seed=5, vertices=4)
    code, out, err = run(capsys, "maxatsp", "--in", str(path), "--bogus", "1")
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --bogus 1\n"
    code, out, _ = run(capsys, "maxatsp", "-h")
    assert code == 0 and "usage:" in out


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "maxsat", "--in", "/nonexistent/x.wcnf")
    assert code == 2
    assert "error" in err


def test_malformed_file_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.wcnf"
    bad.write_text("c k 2\np cnf 2 1\nw 1 2 1\n")
    code, _, err = run(capsys, "maxsat", "--in", str(bad))
    assert code == 2
    assert "line" in err


def test_maxatsp_certify_and_oracle(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "g.txt", kind="graph", seed=5, vertices=4, dim=2)
    code, out, _ = run(
        capsys, "maxatsp", "--in", str(path), "--certify", "--alpha", "1/2"
    )
    assert code == 0 and "certified=yes" in out
    code, out, _ = run(capsys, "maxatsp", "--in", str(path), "--oracle")
    assert code == 0 and "algorithm=tsp-oracle" in out


def test_maxatsp_certifies_odd_vertex_count(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "g.txt", kind="graph", seed=6, vertices=5, dim=2)
    code, out, _ = run(capsys, "maxatsp", "--in", str(path), "--certify")
    assert code == 0 and "certified=yes" in out


def test_certify_autodetects_kind(capsys, tmp_path):
    for kw, token in (
        (dict(kind="balance-combinatorial", seed=4, m=5, n=1), "balance-verify"),
        (dict(kind="cnf", seed=4, m=5, clauses=6), "interval-sweep"),
        (dict(kind="graph", seed=4, vertices=4), "contract-match-expand"),
    ):
        path = gen_file(capsys, tmp_path, "inst.txt", **kw)
        code, out, _ = run(capsys, "certify", "--in", str(path))
        assert code == 0
        assert f"algorithm={token}" in out


def test_bench_balance(capsys):
    code, out, _ = run(
        capsys, "bench", "--kind", "balance-integer", "--count", "5",
        "--seed", "11", "--m", "6", "--n", "1", "--bound", "9",
    )
    assert code == 0
    assert "verified=5" in out
    assert "worst_imbalance_ratio=" in out


def test_bench_maxatsp(capsys):
    code, out, _ = run(
        capsys, "bench", "--kind", "graph", "--count", "3",
        "--seed", "11", "--vertices", "4", "--bound", "9",
    )
    assert code == 0
    assert "certified=3" in out


def test_machine_section_byte_identical(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "g.txt", kind="graph", seed=9, vertices=4, dim=2)
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "maxatsp", "--in", str(path), "--certify", "--alpha", "1/2"
        )
        assert code == 0
        runs.append(machine_section(out))
    assert runs[0] == runs[1]


def test_budget_env_var(capsys, tmp_path, monkeypatch):
    path = gen_file(capsys, tmp_path, "t.wcnf", kind="cnf", seed=8, m=6, clauses=8)
    monkeypatch.setenv("MOBAL_BUDGET", "10")
    code, _, err = run(capsys, "maxsat", "--in", str(path))
    assert code == 2
    assert "budget" in err
    # explicit flag overrides the environment
    code, _, _ = run(capsys, "maxsat", "--in", str(path), "--budget", "1000000000")
    assert code == 0


# Bad input, one row each: (argv before --in, file, environment, what the
# error line must name).  Every row must exit 2 with a single `error:`
# line and no traceback; exit 1 is reserved for a failed certificate.
BAD_INPUT_TABLE = [
    (["maxatsp", "--eps", "abc"], "graph", {}, "--eps"),
    (["maxatsp", "--eps=-1/2"], "graph", {}, "--eps"),
    (["certify", "--eps", "abc"], "graph", {}, "--eps"),
    (["certify", "--eps=-1/2"], "graph", {}, "--eps"),
    (["maxatsp"], "graph", {"MOBAL_BUDGET": "xyz"}, "MOBAL_BUDGET"),
    (["maxatsp"], "graph", {"MOBAL_BUDGET": "-1"}, "MOBAL_BUDGET"),
    (["maxsat"], "cnf", {"MOBAL_BUDGET": "xyz"}, "MOBAL_BUDGET"),
    (["maxsat"], "cnf", {"MOBAL_BUDGET": "-1"}, "MOBAL_BUDGET"),
    (["maxatsp"], "negative-graph", {}, "line 2"),
    (["maxatsp", "--budget", "-5"], "graph", {}, "--budget"),
    (["maxatsp", "--budget", "abc"], "graph", {}, "--budget"),
    (["maxsat", "--budget", "-5"], "cnf", {}, "--budget"),
    (["maxsat", "--budget", "abc"], "cnf", {}, "--budget"),
    (["maxatsp", "--wrapper"], "graph", {}, "--wrapper"),
    (["certify", "--wrapper"], "graph", {}, "--wrapper"),
    (["maxatsp", "--oracle", "--certify"], "graph", {}, "--certify"),
    (["maxsat", "--oracle", "--certify"], "cnf", {}, "--certify"),
    (["maxsat"], "cnf-bad-literal", {}, "line 4"),
    (["maxsat"], "cnf-negative-weight", {}, "line 4"),
    (["maxsat"], "cnf-zero-dim", {}, "line 1"),
    (["maxsat"], "cnf-negative-dim", {}, "line 1"),
    (["maxsat"], "cnf-no-vars", {}, "line 2"),
]

# malformed cnf files, each at fault on the line its BAD_INPUT_TABLE row names
BAD_CNF = {
    "cnf-bad-literal": "c k 2\np cnf 3 2\nw 1 2 1 0\nw 3 4 9 0\n",
    "cnf-negative-weight": "c k 2\np cnf 3 2\nw 1 2 1 0\nw 3 -4 2 0\n",
    "cnf-zero-dim": "c k 0\np cnf 3 2\nw 1 0\nw 2 0\n",
    "cnf-negative-dim": "c k -1\np cnf 3 2\nw 1 0\nw 2 0\n",
    "cnf-no-vars": "c k 1\np cnf 0 1\nw 1 1 0\n",
}


@pytest.mark.parametrize("argv, infile, env, names", BAD_INPUT_TABLE)
def test_bad_input_exits_two_with_one_error_line(
    capsys, tmp_path, monkeypatch, argv, infile, env, names
):
    files = {
        "graph": gen_file(capsys, tmp_path, "g.txt", kind="graph", seed=5, vertices=4),
        "cnf": gen_file(capsys, tmp_path, "t.wcnf", kind="cnf", seed=8, m=6, clauses=8),
        "negative-graph": tmp_path / "neg.txt",
    }
    files["negative-graph"].write_text("moatsp k=1 n=2\n0 1 -4\n1 0 1\n")
    for name, text in BAD_CNF.items():
        files[name] = tmp_path / f"{name}.wcnf"
        files[name].write_text(text)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *argv, "--in", str(files[infile]))
    assert code == 2
    error_lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error_lines) == 1 and names in error_lines[0]
    assert "Traceback" not in err
    assert "report-begin" not in out


@pytest.mark.parametrize("command, kind", [("maxatsp", "graph"), ("maxsat", "cnf")])
def test_oracle_certify_refused_before_any_solver_runs(
    capsys, tmp_path, monkeypatch, command, kind
):
    path = gen_file(capsys, tmp_path, "in.txt", kind=kind, seed=5)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a solver ran before the flags were checked")

    for name in ("tsp_oracle", "maxsat_oracle", "maxatsp_approx", "maxsat_approx"):
        monkeypatch.setattr(f"mobal.cli.{name}", must_not_run)
    code, out, err = run(capsys, command, "--in", str(path), "--oracle", "--certify")
    assert code == 2
    error_lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error_lines) == 1 and "--certify" in error_lines[0]
    assert "report-begin" not in out
