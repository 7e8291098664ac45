"""Command-line front end: generate, solve, verify, certify, bench.

Every run prints a machine-readable section first, one `key=value` per
line between `report-begin` and `report-end`, then a human summary.
The machine section is byte-stable for a fixed invocation and seed --
wall time lives in the human part only.

Exit codes: 0 success (and certificate success), 1 certificate failure,
2 usage error (bad flags, malformed input, budget exceeded).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .balancing import (
    COMBINATORIAL,
    INTEGER,
    PAIRED,
    VARIANTS,
    BalancingInstance,
    balance_combinatorial,
    balance_deviation,
    balance_integer,
    balance_paired,
    verify_balance,
)
from .errors import MobalError, PreconditionError
from .instances import (
    BALANCE_KINDS,
    KINDS,
    SEED_LIMIT,
    GeneratorSpec,
    detect_kind,
    digest,
    generate,
    parse_balance,
    parse_cnf,
    parse_graph,
    serialize,
)
from .maxatsp import maxatsp_approx, tsp_oracle
from .maxsat import maxsat_approx, maxsat_oracle
from .pareto import ApproxCertificate, SolutionSet, is_alpha_approx_set

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2


@dataclass
class RunReport:
    """One run's findings: stable machine pairs plus a human summary."""

    command: str
    algorithm: str
    machine: list[tuple[str, str]] = field(default_factory=list)
    human: list[str] = field(default_factory=list)
    exit_code: int = EXIT_OK
    wall_time: float = 0.0

    def add(self, key: str, value) -> None:
        self.machine.append((key, str(value)))

    def note(self, label: str, value) -> None:
        self.human.append(f"  {label:<18} {value}")

    def render(self) -> str:
        lines = ["report-begin", f"command={self.command}", f"algorithm={self.algorithm}"]
        lines += [f"{k}={v}" for k, v in self.machine]
        lines.append(f"status={'ok' if self.exit_code == EXIT_OK else 'certificate-failed'}")
        lines.append("report-end")
        lines += self.human
        lines.append(f"  {'wall time':<18} {self.wall_time:.3f}s")
        return "\n".join(lines) + "\n"


def _fmt_vec(v) -> str:
    return ",".join(map(str, v))


def _fmt_ratio(r: Fraction | None) -> str:
    return "inf" if r is None else str(r)


def _fmt_weights(s: SolutionSet) -> str:
    return ";".join(_fmt_vec(w) for w in s.weights())


def _parse_alpha(text: str | None) -> Fraction:
    if text is None:
        return Fraction(1, 2)
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"--alpha: cannot parse fraction {text!r}")
    if not 0 < alpha <= 1:
        raise PreconditionError(f"--alpha must be in (0, 1], got {alpha}")
    return alpha


def _parse_budget(text: str | None) -> int | None:
    if text is None:
        return None
    try:
        budget = int(text)
    except ValueError:
        raise PreconditionError(f"--budget: cannot parse integer {text!r}")
    if budget < 0:
        raise PreconditionError(f"--budget must be >= 0, got {budget}")
    return budget


def _add_certificate(report: RunReport, cert: ApproxCertificate) -> None:
    report.add("alpha", cert.alpha)
    report.add("oracle_size", len(cert.reference))
    report.add("certified", "yes" if cert.ok else "no")
    ratios = cert.cover_ratios()
    report.add("cover_ratios", ",".join(_fmt_ratio(r) for r in ratios) or "-")
    finite = [r for r in ratios if r is not None]
    if cert.ok:
        report.add("cover_min", _fmt_ratio(min(finite) if finite else None))
    else:
        entry = cert.uncovered_entry()
        assert entry is not None
        report.add("uncovered_weight", _fmt_vec(entry[1]))
    if cert.ok:
        report.note("certificate", f"SUCCESS at alpha={cert.alpha} ({len(cert.pairs)} points covered)")
    else:
        report.note(
            "certificate",
            f"FAILED at alpha={cert.alpha}: weight {cert.uncovered_entry()[1]} uncovered",
        )
        report.exit_code = EXIT_CERT_FAILED


class _Solver(NamedTuple):
    algorithm: str
    oracle_algorithm: str
    parse: Callable
    approx: Callable
    oracle: Callable
    sizes: Callable  # instance -> ((report key, value), ...)


_SOLVERS = {
    "cnf": _Solver(
        "interval-sweep",
        "maxsat-oracle",
        parse_cnf,
        maxsat_approx,
        maxsat_oracle,
        lambda inst: (
            ("vars", inst.num_vars),
            ("clauses", len(inst.clauses)),
            ("objectives", inst.dimension),
        ),
    ),
    "graph": _Solver(
        "contract-match-expand",
        "tsp-oracle",
        parse_graph,
        maxatsp_approx,
        tsp_oracle,
        lambda g: (("vertices", g.num_vertices), ("objectives", g.dimension)),
    ),
}

_BALANCERS = {
    PAIRED: balance_paired,
    INTEGER: lambda inst: balance_integer(inst.x, inst.z),
    COMBINATORIAL: balance_combinatorial,
}

# generator flags shared by `gen` and `bench`, with their defaults; --dim
# is registered with None instead, so that `_add_shape` can tell it was given
_SHAPE = dict(bound=10, dim=2, m=4, n=1, clauses=4, vertices=4)


def _solve(solver: _Solver, inst, budget: int | None, alpha: Fraction | None):
    """The approximation and, unless alpha is None, its certificate.  The
    oracle runs first: it refuses an instance over its cap before any work."""
    if alpha is None:
        return solver.approx(inst, budget=budget), None
    reference = solver.oracle(inst)
    out = solver.approx(inst, budget=budget)
    return out, is_alpha_approx_set(out, reference, alpha)


def _check_seeds(seed: int, count: int = 1) -> None:
    """SplitMix64 would alias a seed outside [0, 2^64) to one inside."""
    if not 0 <= seed < SEED_LIMIT:
        raise PreconditionError(f"--seed must be in [0, 2^64), got {seed}")
    if seed + count > SEED_LIMIT:
        raise PreconditionError(f"--seed {seed} with --count {count} runs past 2^64 - 1")


def _refuse_for_balance(args, *flags: str) -> None:
    """Balancing has no budget, cover fraction or objective count, so an
    explicit flag setting one is refused rather than ignored."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise PreconditionError(f"--{flag} does not apply to balancing")


def _add_shape(report: RunReport, args, leading: tuple[str, ...]) -> dict[str, int]:
    """Report the leading keys, then bound, dim and the sizes of the kind,
    and return those generator flags.  A balance kind's vector dimension
    is 2n, so it takes no --dim."""
    if args.kind in BALANCE_KINDS:
        _refuse_for_balance(args, "dim")
        keys = ("bound", "m", "n")
    else:
        keys = ("bound", "dim") + (("m", "clauses") if args.kind == "cnf" else ("vertices",))
    for key in leading:
        report.add(key, getattr(args, key))
    shape = {}
    for key in keys:
        value = getattr(args, key)
        shape[key] = _SHAPE[key] if value is None else value
        report.add(key, shape[key])
    return shape


def _imbalance_ratio(dev, bound) -> Fraction:
    """Worst |deviation| / bound over the bounded components, else 0."""
    pairs = zip(dev, bound or ())
    return max((Fraction(abs(d), b) for d, b in pairs if b), default=Fraction(0))


# -- subcommands --------------------------------------------------------------


def _cmd_gen(args) -> RunReport:
    _check_seeds(args.seed)
    report = RunReport("gen", "splitmix64-generator")
    shape = _add_shape(report, args, ("kind", "seed"))
    text = serialize(args.kind, generate(GeneratorSpec(args.kind, args.seed, **shape)))
    Path(args.out).write_text(text, encoding="ascii")
    report.add("out", args.out)
    report.add("instance", "sha256:" + digest(text))
    report.note("generated", f"{args.kind} instance (seed {args.seed}) -> {args.out}")
    return report


def _run_balance(variant: str, inst: BalancingInstance, verify: bool, report: RunReport) -> None:
    result = _BALANCERS[variant](inst)
    report.add("variant", variant)
    report.add("m", inst.m)
    report.add("n", inst.n)
    intervals = ";".join(f"{a}:{b}" for a, b in result.family.intervals) or "-"
    report.add("intervals", intervals)
    report.add("in_sum", _fmt_vec(result.in_sum))
    report.add("out_sum", _fmt_vec(result.out_sum))
    report.add("correction", _fmt_vec(result.correction))
    dev, bound = balance_deviation(inst, result, variant)
    key = "slack" if bound is None else "deviation"
    report.add(key, _fmt_vec(dev))
    if bound is not None:
        report.add("bound", _fmt_vec(bound))
        report.add("imbalance_ratio", _imbalance_ratio(dev, bound))
    if verify:
        ok = verify_balance(inst, result, variant)
        report.add("verified", "yes" if ok else "no")
        if not ok:
            report.exit_code = EXIT_CERT_FAILED
        report.note("verification", "PASSED" if ok else "FAILED")
    report.note("intervals", intervals)
    report.note(key, _fmt_vec(dev) + (f" (bound {_fmt_vec(bound)})" if bound else ""))


def _cmd_balance(args) -> RunReport:
    report = RunReport("balance", f"balance-{args.variant}")
    text = Path(args.infile).read_text(encoding="ascii")
    variant, inst = parse_balance(text)
    if variant != args.variant:
        raise PreconditionError(
            f"file declares variant {variant!r} but --variant says {args.variant!r}"
        )
    report.add("instance", "sha256:" + digest(text))
    _run_balance(variant, inst, args.verify, report)
    return report


def _cmd_solve(args) -> RunReport:
    """`maxsat` and `maxatsp`: the approximation, or the oracle's front."""
    # checked before any work: the oracle alone can take seconds
    if args.oracle and args.certify:
        raise PreconditionError("--certify and --oracle are mutually exclusive")
    alpha = _parse_alpha(args.alpha)
    budget = _parse_budget(args.budget)
    solver = _SOLVERS[args.kind]
    report = RunReport(
        args.subcommand, solver.oracle_algorithm if args.oracle else solver.algorithm
    )
    text = Path(args.infile).read_text(encoding="ascii")
    inst = solver.parse(text)
    report.add("instance", "sha256:" + digest(text))
    for key, value in solver.sizes(inst):
        report.add(key, value)
    if args.oracle:
        out, cert = solver.oracle(inst), None
    else:
        out, cert = _solve(solver, inst, budget, alpha if args.certify else None)
    report.add("output_size", len(out))
    report.add("output_weights", _fmt_weights(out) or "-")
    report.note("output", f"{len(out)} Pareto candidate(s)")
    if cert is not None:
        _add_certificate(report, cert)
    return report


def _cmd_certify(args) -> RunReport:
    alpha = _parse_alpha(args.alpha)
    budget = _parse_budget(args.budget)
    text = Path(args.infile).read_text(encoding="ascii")
    kind = detect_kind(text)
    if kind == "balance":
        _refuse_for_balance(args, "budget", "alpha")
        report = RunReport("certify", "balance-verify")
        variant, inst = parse_balance(text)
        report.add("instance", "sha256:" + digest(text))
        _run_balance(variant, inst, True, report)
        return report
    solver = _SOLVERS[kind]
    report = RunReport("certify", solver.algorithm)
    inst = solver.parse(text)
    report.add("instance", "sha256:" + digest(text))
    out, cert = _solve(solver, inst, budget, alpha)
    report.add("output_size", len(out))
    _add_certificate(report, cert)
    return report


def _cmd_bench(args) -> RunReport:
    alpha = _parse_alpha(args.alpha)
    budget = _parse_budget(args.budget)
    if args.count < 0:
        raise PreconditionError(f"--count must be >= 0, got {args.count}")
    _check_seeds(args.seed, args.count)
    variant = BALANCE_KINDS.get(args.kind)
    if variant:
        _refuse_for_balance(args, "budget", "alpha")
    report = RunReport("bench", f"bench-{args.kind}")
    shape = _add_shape(report, args, ("kind", "count", "seed"))
    passed = 0  # verified balances or certified fronts
    worst_ratio = Fraction(0)
    cover_min: Fraction | None = None
    for i in range(args.count):
        instance = generate(GeneratorSpec(args.kind, args.seed + i, **shape))
        if variant:
            result = _BALANCERS[variant](instance)
            passed += verify_balance(instance, result, variant)
            ratio = _imbalance_ratio(*balance_deviation(instance, result, variant))
            worst_ratio = max(worst_ratio, ratio)
        else:
            _, cert = _solve(_SOLVERS[args.kind], instance, budget, alpha)
            passed += cert.ok
            for r in cert.cover_ratios():
                if r is not None:
                    cover_min = r if cover_min is None else min(cover_min, r)
    report.add("runs", args.count)
    if variant:
        report.add("verified", passed)
        report.add("worst_imbalance_ratio", worst_ratio)
        report.note("verified", f"{passed}/{args.count}")
        report.note("worst ratio", f"{worst_ratio} of the proven bound (no tightness claim)")
    else:
        report.add("alpha", alpha)
        report.add("certified", passed)
        report.add("cover_min", _fmt_ratio(cover_min))
        report.note("certified", f"{passed}/{args.count} at alpha={alpha}")
    if passed != args.count:
        report.exit_code = EXIT_CERT_FAILED
    return report


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, without the
    usage block, and exits 2; subcommand parsers inherit this class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mobal",
        description="Vector balancing and 1/2-approximate Pareto sets "
        "for multi-objective MaxSAT / MaxATSP",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--budget", default=None, help="operation budget override")
        p.add_argument("--alpha", default=None, help="exact cover fraction p/q (default 1/2)")

    def shape_flags(p, **defaults):
        p.add_argument("--kind", required=True, choices=KINDS)
        for key, default in {**_SHAPE, "dim": None, **defaults}.items():
            p.add_argument(f"--{key}", type=int, default=default)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    shape_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("balance", help="run one balancing search")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--verify", action="store_true", help="re-check the bound independently")
    p.set_defaults(handler=_cmd_balance)

    for command, kind, noun in (
        ("maxsat", "cnf", "a weighted CNF instance"),
        ("maxatsp", "graph", "a tour instance"),
    ):
        p = sub.add_parser(command, help=f"approximate or enumerate {noun}")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--oracle", action="store_true", help="exact Pareto front instead")
        p.add_argument("--certify", action="store_true", help="compare against the oracle")
        common(p)
        p.set_defaults(handler=_cmd_solve, kind=kind)

    p = sub.add_parser("certify", help="algorithm vs oracle on any instance file")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("bench", help="seeded sweep with aggregate report")
    shape_flags(p, m=6, clauses=8)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except (MobalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.wall_time = time.perf_counter() - start
    sys.stdout.write(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
