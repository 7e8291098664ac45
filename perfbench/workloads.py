"""Seeded workloads and the per-instance certify step for each kind.

Each workload cycles through a fixed list of generator settings, so
instance i of a corpus uses setting i mod len(settings) and the kinds
are interleaved in the order the closed loop sends them.  Instance
seeds come from SplitMix64 seeded with the run's --seed, so the same
seed always gives the same corpus text.

The certify step receives only the serialized text:

* graph:   parse -> maxatsp_approx -> tsp_oracle -> is_alpha_approx_set(1/2)
* cnf:     parse -> maxsat_approx  -> maxsat_oracle -> is_alpha_approx_set(1/2)
* balance: parse -> balance_<variant> -> verify_balance

The approximation runs with its default backend and default budget.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Any

import mobal.balancing as balancing
import mobal.instances as instances
import mobal.matching as matching
import mobal.maxatsp as maxatsp
import mobal.maxsat as maxsat
import mobal.pareto as pareto
from mobal.rng import SplitMix64

from tracing import Tracer, count_len, hooks

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "graph", "cnf" or "balance"
    settings: tuple[dict, ...]  # GeneratorSpec fields, cycled over
    # every run visits the whole corpus at least twice; slow workloads keep
    # it small so that each instance gets several visits in a run
    corpus_size: int
    # work counts and the output digest are taken over the first
    # `count_set` corpus instances
    count_set: int
    why: str

    def __post_init__(self):
        if not 1 <= self.count_set <= self.corpus_size:
            raise ValueError(f"{self.name}: need 1 <= count_set <= corpus_size")


def _balance_settings() -> tuple[dict, ...]:
    # three sizes, so that the median instance lies inside the middle size
    # class; with two equal classes it would sit in the gap between them
    # and jump from one to the other between runs
    return tuple(
        {"kind": f"balance-{variant}", "m": m, "n": n, "bound": 50}
        for m in (32, 48, 64)
        for n in (2, 3)
        for variant in ("paired", "integer", "combinatorial")
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "atsp-n8",
            "graph",
            ({"kind": "graph", "vertices": 8, "dim": 2, "bound": 30},),
            corpus_size=4,
            count_set=3,
            why="matching-bound MaxATSP: 1233 path sets each run a full matching "
            "enumeration; the backend is ~80% of solve time, the oracle ~3%",
        ),
        Workload(
            "atsp-n6-k3",
            "graph",
            ({"kind": "graph", "vertices": 6, "dim": 3, "bound": 30},),
            corpus_size=8,
            count_set=4,
            why="MaxATSP at 3 objectives: 3331 path sets on tiny contracted graphs, "
            "so per-call cost of contract/extend/expand and the dim>=3 filter dominate",
        ),
        Workload(
            "sat-m12-16",
            "cnf",
            tuple(
                {"kind": "cnf", "m": m, "clauses": 2 * m, "dim": 2, "bound": 20}
                for m in (12, 14, 16)
            ),
            corpus_size=9,
            count_set=6,
            why="MaxSAT m in {12,14,16}: sat_state and mask emission dominate, the "
            "2^m oracle matches approx at m=16; graphs and matching do no work",
        ),
        Workload(
            "balance-mix",
            "balance",
            _balance_settings(),
            corpus_size=108,
            count_set=108,
            why="paired, integer and combinatorial balancing at m in {32,48,64}, n in "
            "{2,3}: ~1 ms per instance, the only load on balancing, parsing is visible",
        ),
    )
}


# -- corpus ---------------------------------------------------------------------


def make_corpus(w: Workload, seed: int) -> list[str]:
    """Serialized instances of workload w for the given seed."""
    rng = SplitMix64(seed)
    corpus = []
    for i in range(w.corpus_size):
        setting = w.settings[i % len(w.settings)]
        spec = instances.GeneratorSpec(seed=rng.next_u64(), **setting)
        corpus.append(instances.serialize(spec.kind, instances.generate(spec)))
    return corpus


def warm_up(w: Workload) -> None:
    """Run the certify step once on a tiny instance of each setting's kind,
    so that lazy imports and first-call costs land in set-up.  Results are
    checked in the timed loop, not here."""
    for setting in w.settings:
        tiny = dict(setting, seed=1)
        if w.kind == "graph":
            tiny["vertices"] = 4
        elif w.kind == "cnf":
            tiny.update(m=4, clauses=4)
        else:
            tiny.update(m=4)
        spec = instances.GeneratorSpec(**tiny)
        STEPS[w.kind](instances.serialize(spec.kind, instances.generate(spec)))


# -- certify steps ----------------------------------------------------------------
# Each returns (certificate holds, solve seconds, output summary).  Every
# mobal function is looked up on its module at call time so the tracer's
# wrappers are seen.


def certify_graph(text: str) -> tuple[bool, float, Any]:
    g = instances.parse_graph(text)
    t0 = perf_counter()
    out = maxatsp.maxatsp_approx(g)
    solve_s = perf_counter() - t0
    ref = maxatsp.tsp_oracle(g)
    cert = pareto.is_alpha_approx_set(out, ref, HALF)
    return cert.ok, solve_s, out.weights()


def certify_cnf(text: str) -> tuple[bool, float, Any]:
    inst = instances.parse_cnf(text)
    t0 = perf_counter()
    out = maxsat.maxsat_approx(inst)
    solve_s = perf_counter() - t0
    ref = maxsat.maxsat_oracle(inst)
    cert = pareto.is_alpha_approx_set(out, ref, HALF)
    return cert.ok, solve_s, out.weights()


def certify_balance(text: str) -> tuple[bool, float, Any]:
    variant, inst = instances.parse_balance(text)
    t0 = perf_counter()
    if variant == balancing.PAIRED:
        res = balancing.balance_paired(inst)
    elif variant == balancing.INTEGER:
        res = balancing.balance_integer(inst.x, inst.z)
    else:
        res = balancing.balance_combinatorial(inst)
    solve_s = perf_counter() - t0
    ok = balancing.verify_balance(inst, res, variant)
    return ok, solve_s, (res.family.intervals, res.in_sum, res.out_sum, res.correction)


STEPS = {"graph": certify_graph, "cnf": certify_cnf, "balance": certify_balance}


def output_digest(outputs: list[Any]) -> str:
    h = hashlib.sha256()
    for i, out in enumerate(outputs):
        h.update(f"{i} {out!r}\n".encode("ascii"))
    return "sha256:" + h.hexdigest()


# -- tracing --------------------------------------------------------------------


def matching_backends() -> list[type]:
    """Concrete classes in mobal.matching that implement pareto_matchings.

    Wrapping them all, rather than naming one, keeps the default backend
    measured if the default changes."""
    return [
        cls
        for cls in vars(matching).values()
        if isinstance(cls, type)
        and cls.__module__ == matching.__name__
        and "pareto_matchings" in cls.__dict__
        and not getattr(cls, "_is_protocol", False)
    ]


def make_tracer() -> Tracer:
    """Spans at every module boundary the certify steps cross."""
    t = Tracer()
    for parse in ("parse_graph", "parse_cnf", "parse_balance"):
        t.span(instances, parse, "instances.parse")
    t.span(pareto, "is_alpha_approx_set", "pareto.certificate")

    t.span(maxatsp, "maxatsp_approx", "maxatsp.approx", count_len("maxatsp.front_out"))
    t.span(maxatsp, "tsp_oracle", "maxatsp.oracle", count_len("maxatsp.oracle_front"))
    t.count_yields(maxatsp, "path_set_candidates", "maxatsp.path_sets")
    t.span(maxatsp, "contract", "graphs.contract")
    for cls in matching_backends():
        t.span(cls, "pareto_matchings", "matching.backend", count_len("matching.backend.matchings_out"))
    t.span(maxatsp, "extend_matching", "maxatsp.extend")
    t.span(maxatsp, "expand", "graphs.expand")
    pool = hooks(count_len("pareto.pool_filter.in", 0), count_len("pareto.pool_filter.out"))
    t.span(maxatsp, "nondominated", "pareto.pool_filter", pool)

    t.span(maxsat, "maxsat_approx", "maxsat.approx", count_len("maxsat.front_out"))
    t.span(maxsat, "maxsat_oracle", "maxsat.oracle", count_len("maxsat.oracle_front"))
    t.span(maxsat, "sat_state", "maxsat.sat_state")
    t.span(maxsat, "pareto_filter", "pareto.pool_filter", hooks(pool, count_len("maxsat.masks", 0)))

    for variant in ("paired", "integer", "combinatorial"):
        t.span(balancing, f"balance_{variant}", f"balancing.{variant}")
    t.span(balancing, "verify_balance", "balancing.verify")
    return t
