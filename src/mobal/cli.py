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

from .balancing import (
    COMBINATORIAL,
    INTEGER,
    PAIRED,
    VARIANTS,
    BalanceResult,
    BalancingInstance,
    balance_combinatorial,
    balance_integer,
    balance_paired,
    verify_balance,
)
from .errors import MobalError, PreconditionError
from .instances import (
    BALANCE_KINDS,
    KINDS,
    GeneratorSpec,
    detect_kind,
    digest,
    generate,
    parse_balance,
    parse_cnf,
    parse_graph,
    serialize_balance,
    serialize_cnf,
    serialize_graph,
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


def _parse_alpha(text: str) -> Fraction:
    try:
        alpha = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"cannot parse alpha fraction {text!r}")
    if not 0 < alpha <= 1:
        raise PreconditionError(f"alpha must be in (0, 1], got {alpha}")
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


# -- subcommands --------------------------------------------------------------


def _cmd_gen(args) -> RunReport:
    report = RunReport("gen", "splitmix64-generator")
    spec = GeneratorSpec(
        kind=args.kind,
        seed=args.seed,
        bound=args.bound,
        dim=args.dim,
        m=args.m,
        n=args.n,
        clauses=args.clauses,
        vertices=args.vertices,
    )
    instance = generate(spec)
    if args.kind in BALANCE_KINDS:
        text = serialize_balance(BALANCE_KINDS[args.kind], instance)
    elif args.kind == "cnf":
        text = serialize_cnf(instance)
    else:
        text = serialize_graph(instance)
    Path(args.out).write_text(text, encoding="ascii")
    for key in ("kind", "seed", "bound", "dim"):
        report.add(key, getattr(args, key))
    if args.kind in BALANCE_KINDS:
        report.add("m", args.m)
        report.add("n", args.n)
    elif args.kind == "cnf":
        report.add("m", args.m)
        report.add("clauses", args.clauses)
    else:
        report.add("vertices", args.vertices)
    report.add("out", args.out)
    report.add("instance", "sha256:" + digest(text))
    report.note("generated", f"{args.kind} instance (seed {args.seed}) -> {args.out}")
    return report


_BALANCERS = {
    PAIRED: balance_paired,
    INTEGER: lambda inst: balance_integer(inst.x, inst.z),
    COMBINATORIAL: balance_combinatorial,
}


def _balance_deviation(
    variant: str, inst: BalancingInstance, result: BalanceResult
) -> tuple[tuple[int, ...], tuple[int, ...] | None, Fraction]:
    """(deviation vector, bound vector or None, worst |dev|/bound ratio)."""
    dim, n = inst.dimension, inst.n
    if variant == PAIRED:
        total = [sum(v[c] for v in inst.x) + sum(v[c] for v in inst.y) for c in range(dim)]
        dev = tuple(
            2 * (result.in_sum[c] + result.out_sum[c]) - total[c] for c in range(dim)
        )
        bound = tuple(4 * n * inst.z[c] for c in range(dim))
    elif variant == INTEGER:
        dev = tuple(result.in_sum[c] - result.out_sum[c] for c in range(dim))
        bound = tuple(4 * n * inst.z[c] for c in range(dim))
    else:
        total = [sum(v[c] for v in inst.x) + sum(v[c] for v in inst.y) for c in range(dim)]
        lhs = [
            result.correction[c] + result.in_sum[c] + result.out_sum[c]
            for c in range(dim)
        ]
        # slack above the half-total target; nonnegative on success
        dev = tuple(2 * lhs[c] - total[c] for c in range(dim))
        bound = None
    ratio = Fraction(0)
    if bound is not None:
        for d, b in zip(dev, bound):
            if b:
                ratio = max(ratio, Fraction(abs(d), b))
    return dev, bound, ratio


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
    dev, bound, ratio = _balance_deviation(variant, inst, result)
    key = "slack" if variant == COMBINATORIAL else "deviation"
    report.add(key, _fmt_vec(dev))
    if bound is not None:
        report.add("bound", _fmt_vec(bound))
        report.add("imbalance_ratio", ratio)
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


def _refuse_oracle_certify(args) -> None:
    # checked before any work: the oracle alone can take seconds
    if args.oracle and args.certify:
        raise PreconditionError("--certify and --oracle are mutually exclusive")


def _cmd_maxsat(args) -> RunReport:
    _refuse_oracle_certify(args)
    report = RunReport("maxsat", "maxsat-oracle" if args.oracle else "interval-sweep")
    budget = _parse_budget(args.budget)
    text = Path(args.infile).read_text(encoding="ascii")
    inst = parse_cnf(text)
    report.add("instance", "sha256:" + digest(text))
    report.add("vars", inst.num_vars)
    report.add("clauses", len(inst.clauses))
    report.add("objectives", inst.dimension)
    if args.oracle:
        out = maxsat_oracle(inst)
    else:
        out = maxsat_approx(inst, budget=budget)
    report.add("output_size", len(out))
    report.add("output_weights", _fmt_weights(out) or "-")
    report.note("output", f"{len(out)} Pareto candidate(s)")
    if args.certify:
        cert = is_alpha_approx_set(out, maxsat_oracle(inst), _parse_alpha(args.alpha))
        _add_certificate(report, cert)
    return report


def _cmd_maxatsp(args) -> RunReport:
    _refuse_oracle_certify(args)
    report = RunReport(
        "maxatsp", "tsp-oracle" if args.oracle else "contract-match-expand"
    )
    budget = _parse_budget(args.budget)
    text = Path(args.infile).read_text(encoding="ascii")
    g = parse_graph(text)
    report.add("instance", "sha256:" + digest(text))
    report.add("vertices", g.num_vertices)
    report.add("objectives", g.dimension)
    if args.oracle:
        out = tsp_oracle(g)
    else:
        out = maxatsp_approx(g, budget=budget)
    report.add("output_size", len(out))
    report.add("output_weights", _fmt_weights(out) or "-")
    report.note("output", f"{len(out)} Pareto candidate(s)")
    if args.certify:
        cert = is_alpha_approx_set(out, tsp_oracle(g), _parse_alpha(args.alpha))
        _add_certificate(report, cert)
    return report


# kind -> (algorithm name, parser, approximation, oracle)
_SOLVERS = {
    "cnf": ("interval-sweep", parse_cnf, maxsat_approx, maxsat_oracle),
    "graph": ("contract-match-expand", parse_graph, maxatsp_approx, tsp_oracle),
}


def _cmd_certify(args) -> RunReport:
    budget = _parse_budget(args.budget)
    text = Path(args.infile).read_text(encoding="ascii")
    kind = detect_kind(text)
    if kind == "balance":
        report = RunReport("certify", "balance-verify")
        variant, inst = parse_balance(text)
        report.add("instance", "sha256:" + digest(text))
        _run_balance(variant, inst, True, report)
        return report
    algorithm, parse, approx, oracle = _SOLVERS[kind]
    report = RunReport("certify", algorithm)
    inst = parse(text)
    report.add("instance", "sha256:" + digest(text))
    out = approx(inst, budget=budget)
    report.add("output_size", len(out))
    cert = is_alpha_approx_set(out, oracle(inst), _parse_alpha(args.alpha))
    _add_certificate(report, cert)
    return report


def _cmd_bench(args) -> RunReport:
    report = RunReport("bench", f"bench-{args.kind}")
    alpha = _parse_alpha(args.alpha)
    budget = _parse_budget(args.budget)
    for key in ("kind", "count", "seed", "bound", "dim"):
        report.add(key, getattr(args, key))
    if args.kind in BALANCE_KINDS:
        report.add("m", args.m)
        report.add("n", args.n)
    elif args.kind == "cnf":
        report.add("m", args.m)
        report.add("clauses", args.clauses)
    else:
        report.add("vertices", args.vertices)
    successes = 0
    verified = 0
    certified = 0
    worst_ratio = Fraction(0)
    cover_min: Fraction | None = None
    for i in range(args.count):
        spec = GeneratorSpec(
            kind=args.kind,
            seed=args.seed + i,
            bound=args.bound,
            dim=args.dim,
            m=args.m,
            n=args.n,
            clauses=args.clauses,
            vertices=args.vertices,
        )
        instance = generate(spec)
        if args.kind in BALANCE_KINDS:
            variant = BALANCE_KINDS[args.kind]
            result = _BALANCERS[variant](instance)
            successes += 1
            if verify_balance(instance, result, variant):
                verified += 1
            _, _, ratio = _balance_deviation(variant, instance, result)
            worst_ratio = max(worst_ratio, ratio)
        else:
            _, _, approx, oracle = _SOLVERS[args.kind]
            out = approx(instance, budget=budget)
            cert = is_alpha_approx_set(out, oracle(instance), alpha)
            successes += 1
            certified += cert.ok
            for r in cert.cover_ratios():
                if r is not None:
                    cover_min = r if cover_min is None else min(cover_min, r)
    report.add("runs", successes)
    if args.kind in BALANCE_KINDS:
        report.add("verified", verified)
        report.add("worst_imbalance_ratio", worst_ratio)
        report.note("verified", f"{verified}/{args.count}")
        report.note("worst ratio", f"{worst_ratio} of the proven bound (no tightness claim)")
        if verified != args.count:
            report.exit_code = EXIT_CERT_FAILED
    else:
        report.add("alpha", alpha)
        report.add("certified", certified)
        report.add("cover_min", _fmt_ratio(cover_min))
        report.note("certified", f"{certified}/{args.count} at alpha={alpha}")
        if certified != args.count:
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

    def common(p, certifiable=True):
        p.add_argument("--budget", default=None, help="operation budget override")
        if certifiable:
            p.add_argument("--certify", action="store_true", help="compare against the oracle")
            p.add_argument("--alpha", default="1/2", help="exact cover fraction p/q")

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--clauses", type=int, default=4)
    p.add_argument("--vertices", type=int, default=4)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("balance", help="run one balancing search")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--verify", action="store_true", help="re-check the bound independently")
    p.set_defaults(handler=_cmd_balance)

    p = sub.add_parser("maxsat", help="approximate or enumerate a weighted CNF instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--oracle", action="store_true", help="exact Pareto front instead")
    common(p)
    p.set_defaults(handler=_cmd_maxsat)

    p = sub.add_parser("maxatsp", help="approximate or enumerate a tour instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--oracle", action="store_true", help="exact Pareto front instead")
    common(p)
    p.set_defaults(handler=_cmd_maxatsp)

    p = sub.add_parser("certify", help="algorithm vs oracle on any instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", default="1/2")
    common(p, certifiable=False)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("bench", help="seeded sweep with aggregate report")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--clauses", type=int, default=8)
    p.add_argument("--vertices", type=int, default=4)
    p.add_argument("--alpha", default="1/2")
    common(p, certifiable=False)
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
    except MobalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.wall_time = time.perf_counter() - start
    sys.stdout.write(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
