import pytest

from mobal import cli
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


@pytest.mark.parametrize("command", ["gen", "balance", "maxsat", "maxatsp", "certify", "bench"])
def test_every_subcommand_prints_its_help(capsys, command):
    # help renders every flag's type and the --oracle/--certify group
    code, out, err = run(capsys, command, "-h")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: mobal {command}")


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


def test_generator_flags_the_kind_does_not_read_are_ignored(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run(capsys, "gen", "--kind", "graph", "--m", "0", "--seed", "1", "--out", str(path))
    assert code == 0
    assert "kind=graph\nseed=1\nbound=10\ndim=2\nvertices=4\nout=" in out


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
    # the budget is set per call: the environment is not read
    path = gen_file(capsys, tmp_path, "t.wcnf", kind="cnf", seed=8, m=6, clauses=8)
    monkeypatch.setenv("MOBAL_BUDGET", "10")
    code, _, _ = run(capsys, "maxsat", "--in", str(path))
    assert code == 0
    code, _, err = run(capsys, "maxsat", "--in", str(path), "--budget", "10")
    assert code == 2
    assert "budget 10" in err


# Bad input, one row each: (argv before --in, file or None for no --in,
# environment, what the error line must name).  Every row must exit 2
# with a single `error:` line and no traceback; exit 1 is reserved for a
# failed certificate.  No row sets the environment today; the empty
# column is kept so that every row keeps its test id.
BAD_INPUT_TABLE = [
    (["maxatsp", "--eps", "abc"], "graph", {}, "--eps"),
    (["maxatsp", "--eps=-1/2"], "graph", {}, "--eps"),
    (["certify", "--eps", "abc"], "graph", {}, "--eps"),
    (["certify", "--eps=-1/2"], "graph", {}, "--eps"),
    (["maxatsp", "--certify", "--alpha", "abc"], "graph", {}, "--alpha"),
    (["maxatsp", "--certify", "--alpha", "3/2"], "graph", {}, "--alpha"),
    (["maxsat", "--certify", "--alpha", "abc"], "cnf", {}, "--alpha"),
    (["maxsat", "--certify", "--alpha", "3/2"], "cnf", {}, "--alpha"),
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
    (["certify", "--alpha", "abc"], "graph", {}, "--alpha"),
    (["certify", "--alpha", "3/2"], "cnf", {}, "--alpha"),
    (["bench", "--kind", "graph", "--alpha", "abc"], None, {}, "--alpha"),
    (["bench", "--kind", "cnf", "--alpha", "3/2"], None, {}, "--alpha"),
    (["bench", "--kind", "graph", "--count", "-1"], None, {}, "--count"),
    (["maxatsp"], "graph-short-header", {}, "line 1"),
    (["maxatsp"], "graph-short-weight", {}, "line 3"),
    (["balance", "--variant", "paired"], "paired-above-z", {}, "line 3"),
    (["balance", "--variant", "paired"], "paired-negative-z", {}, "line 4"),
    (["certify"], "combinatorial-negative", {}, "line 4"),
    (["balance", "--variant", "integer"], "integer-outside-band", {}, "line 2"),
    (["gen", "--kind", "balance-paired", "--n", "2", "--dim", "7", "--seed", "1", "--out", "x.bal"],
     None, {}, "--dim"),
    (["bench", "--kind", "balance-integer", "--count", "2", "--dim", "3"], None, {}, "--dim"),
    (["bench", "--kind", "balance-paired", "--count", "2", "--budget", "0"], None, {}, "--budget"),
    (["bench", "--kind", "balance-paired", "--count", "2", "--alpha", "1/3"], None, {}, "--alpha"),
    (["certify", "--budget", "0"], "balance", {}, "--budget"),
    (["certify", "--alpha", "1/7"], "balance", {}, "--alpha"),
    (["gen", "--kind", "graph", "--seed", "-1", "--out", "x.txt"], None, {}, "--seed"),
    (["gen", "--kind", "graph", "--seed", str(2**64), "--out", "x.txt"], None, {}, "--seed"),
    (["bench", "--kind", "graph", "--seed", "-1", "--count", "1"], None, {}, "--seed"),
    (["bench", "--kind", "cnf", "--seed", str(2**64 - 1), "--count", "2"], None, {}, "--seed"),
    (["maxsat"], "cnf-second-dim", {}, "line 2"),
    (["maxsat"], "cnf-late-second-dim", {}, "line 3"),
    (["maxsat"], "cnf-late-dim", {}, "line 2"),
    (["gen", "--kind", "graph", "--vertices", "1", "--seed", "1", "--out", "x.txt"],
     None, {}, "vertices must be >= 2"),
    (["gen", "--kind", "graph", "--bound", "-1", "--seed", "1", "--out", "x.txt"],
     None, {}, "bound must be >= 0"),
    (["certify"], "cnf-non-ascii", {}, "line 3"),
    (["maxsat"], "cnf-non-ascii", {}, "line 3"),
    (["maxatsp"], "graph-non-ascii", {}, "line 3"),
    (["certify"], "graph-non-ascii-crlf", {}, "line 3"),
    (["balance", "--variant", "paired"], "balance-non-ascii", {}, "line 3"),
    (["maxsat", "--in", "missing.wcnf"], None, {}, "--in"),
    (["certify", "--in", "."], None, {}, "--in"),
    (["balance", "--variant", "paired", "--in", "g.txt/x"], None, {}, "--in"),
    (["gen", "--kind", "graph", "--seed", "1", "--out", "."], None, {}, "--out"),
    (["gen", "--kind", "cnf", "--seed", "1", "--out", "no/such/dir.wcnf"], None, {}, "--out"),
    (["bench", "--kind", "cnf", "--count", "0", "--m", "99"], None, {}, "m=99 exceeds generator cap 20"),
    (["maxsat"], "cnf-no-clauses", {}, "line 2: need at least one clause"),
    (["maxsat"], "cnf-second-header", {}, "line 3: second 'p' header"),
    (["maxsat"], "cnf-dnf-header", {}, "line 2: header must be 'p cnf"),
    (["maxsat"], "cnf-no-literals", {}, "line 3: clause line needs 1 weights"),
    (["maxsat"], "cnf-zero-literal", {}, "line 3: clause needs nonzero literals"),
    (["maxsat"], "cnf-unrecognized-line", {}, "line 3: unrecognized line"),
    (["maxsat"], "cnf-no-header", {}, "line 1: missing 'p cnf' header"),
    (["maxsat"], "cnf-no-dim", {}, "line 1: missing 'c k <dim>' line"),
    (["maxsat"], "cnf-non-integer", {}, "line 2: expected integers"),
    (["maxatsp"], "graph-empty", {}, "line 1: empty graph file"),
    (["maxatsp"], "graph-duplicate-edge", {}, "line 3: duplicate edge (0, 1)"),
    (["maxatsp"], "graph-bad-k", {}, "line 1: bad integer in 'k=x'"),
    (["maxatsp"], "graph-long-header", {}, "line 1: header must be 'moatsp"),
    (["balance", "--variant", "paired"], "balance-short-header", {}, "line 1: header must be 'balance"),
    (["balance", "--variant", "paired"], "balance-zero-m", {}, "line 1: m and n must be >= 1"),
    (["balance", "--variant", "paired"], "balance-unknown-variant", {}, "line 1: unknown variant"),
]

# malformed files, each at fault on the line its BAD_INPUT_TABLE row names
BAD_FILES = {
    "cnf-bad-literal": "c k 2\np cnf 3 2\nw 1 2 1 0\nw 3 4 9 0\n",
    "cnf-negative-weight": "c k 2\np cnf 3 2\nw 1 2 1 0\nw 3 -4 2 0\n",
    "cnf-zero-dim": "c k 0\np cnf 3 2\nw 1 0\nw 2 0\n",
    "cnf-negative-dim": "c k -1\np cnf 3 2\nw 1 0\nw 2 0\n",
    "cnf-no-vars": "c k 1\np cnf 0 1\nw 1 1 0\n",
    "cnf-second-dim": "c k 2\nc k 1\np cnf 2 1\nw 1 1 0\n",
    "cnf-late-second-dim": "c k 2\np cnf 2 1\nc k 1\nw 1 1 0\n",
    "cnf-late-dim": "p cnf 2 1\nc k 1\nw 3 1 0\n",
    "graph-short-header": "moatsp k=2\n0 1 1 1\n1 0 1 1\n",
    "graph-short-weight": "moatsp k=2 n=2\n0 1 1 1\n1 0 1\n",
    "paired-above-z": "balance paired m=2 n=1\n3 0\n1 9\n0 1\n2 2\n4 4\n",
    "paired-negative-z": "balance paired m=1 n=1\n1 0\n0 1\n-1 2\n",
    "combinatorial-negative": "balance combinatorial m=2 n=1\n1 0\n1 1\n0 -2\n2 2\n",
    "integer-outside-band": "balance integer m=2 n=1\n3 -5\n1 1\n4 4\n",
    "cnf-no-clauses": "c k 2\np cnf 3 0\n",
    "cnf-second-header": "c k 1\np cnf 2 1\np cnf 2 1\nw 1 1 0\n",
    "cnf-dnf-header": "c k 1\np dnf 2 1\nw 1 1 0\n",
    "cnf-no-literals": "c k 1\np cnf 2 1\nw 1 0\n",
    "cnf-zero-literal": "c k 1\np cnf 2 1\nw 1 0 1 0\n",
    "cnf-unrecognized-line": "c k 1\np cnf 2 1\nx 1 1 0\n",
    "cnf-no-header": "c k 1\n",
    "cnf-no-dim": "p cnf 2 1\n",
    "cnf-non-integer": "c k 1\np cnf x 1\nw 1 1 0\n",
    "graph-empty": "",
    "graph-duplicate-edge": "moatsp k=1 n=2\n0 1 1\n0 1 1\n",
    "graph-bad-k": "moatsp k=x n=2\n0 1 1\n1 0 1\n",
    "graph-long-header": "moatsp k=1 n=2 x=1\n0 1 1\n1 0 1\n",
    "balance-short-header": "balance paired m=1\n1 0\n0 1\n1 1\n",
    "balance-zero-m": "balance paired m=0 n=1\n",
    "balance-unknown-variant": "balance mixed m=1 n=1\n1 0\n",
}

# files holding a non-ASCII byte, written as bytes
NON_ASCII_FILES = {
    "cnf-non-ascii": b"c k 2\np cnf 1 1\nw 1 1 1 0 \xc3\xa9\n",
    "graph-non-ascii": b"moatsp k=1 n=2\n0 1 4\n1 0 \xb5\n",
    "graph-non-ascii-crlf": b"moatsp k=1 n=2\r\n0 1 4\r\n1 0 4\xff\r\n",
    "balance-non-ascii": b"balance paired m=1 n=1\n1 0\n0 1 \xa0\n1 1\n",
}


@pytest.mark.parametrize("argv, infile, env, names", BAD_INPUT_TABLE)
def test_bad_input_exits_two_with_one_error_line(
    capsys, tmp_path, monkeypatch, argv, infile, env, names
):
    monkeypatch.chdir(tmp_path)  # a `gen` row must not write elsewhere
    files = {
        "graph": gen_file(capsys, tmp_path, "g.txt", kind="graph", seed=5, vertices=4),
        "cnf": gen_file(capsys, tmp_path, "t.wcnf", kind="cnf", seed=8, m=6, clauses=8),
        "balance": gen_file(capsys, tmp_path, "b.bal", kind="balance-paired", seed=5, n=2),
        "negative-graph": tmp_path / "neg.txt",
    }
    files["negative-graph"].write_text("moatsp k=1 n=2\n0 1 -4\n1 0 1\n")
    for name, text in BAD_FILES.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    for name, data in NON_ASCII_FILES.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_bytes(data)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if infile is not None:
        argv = [*argv, "--in", str(files[infile])]
    code, out, err = run(capsys, *argv)
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

    solver = cli._SOLVERS[kind]
    monkeypatch.setitem(
        cli._SOLVERS, kind, solver._replace(approx=must_not_run, oracle=must_not_run)
    )
    for argv, names in (
        ([command, "--oracle", "--certify"], "--certify"),
        ([command, "--certify", "--alpha", "abc"], "--alpha"),
        (["certify", "--alpha", "abc"], "--alpha"),
    ):
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 2
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1 and names in error_lines[0]
        assert "report-begin" not in out


def test_certify_refuses_over_oracle_cap_before_approximating(capsys, tmp_path, monkeypatch):
    # the approximation admits 10 vertices at two objectives, the tour
    # oracle does not (cap 9), so certifying asks the oracle first
    path = gen_file(capsys, tmp_path, "g10.txt", kind="graph", seed=5, vertices=10)

    def must_not_run(*args, **kwargs):
        raise AssertionError("the approximation ran before the oracle refused")

    solver = cli._SOLVERS["graph"]
    monkeypatch.setitem(cli._SOLVERS, "graph", solver._replace(approx=must_not_run))
    for argv in (
        ["certify", "--in", str(path)],
        ["maxatsp", "--certify", "--in", str(path)],
        ["bench", "--kind", "graph", "--vertices", "10", "--count", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: cycle oracle refuses 10 vertices (cap 9)\n"
        assert "report-begin" not in out


def test_bench_seed_range_refused_before_any_instance(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an instance was generated before --seed was checked")

    monkeypatch.setattr(cli, "generate", must_not_run)
    code, out, err = run(capsys, "bench", "--kind", "graph", "--seed", str(2**64 - 2), "--count", "3")
    assert code == 2
    assert err == f"error: --seed {2**64 - 2} with --count 3 runs past 2^64 - 1\n"
    assert "report-begin" not in out


def test_balance_flags_refused_before_any_search(capsys, tmp_path, monkeypatch):
    path = gen_file(capsys, tmp_path, "b.bal", kind="balance-combinatorial", seed=5)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a balancing search ran before the flags were checked")

    for variant in cli._BALANCERS:
        monkeypatch.setitem(cli._BALANCERS, variant, must_not_run)
    for argv, names in (
        (["certify", "--in", str(path), "--alpha", "1/2"], "--alpha"),
        (["bench", "--kind", "balance-combinatorial", "--budget", "5"], "--budget"),
        (["bench", "--kind", "balance-paired", "--dim", "2"], "--dim"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {names} does not apply to balancing\n"
        assert "report-begin" not in out
