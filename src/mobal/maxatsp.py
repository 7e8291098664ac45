"""Half-approximate Pareto sets for maximum asymmetric TSP with vector weights.

The core routine enumerates every vertex-disjoint path set F of at most
2k edges (2k = objective count, rounded up to even), contracts it, asks
a matching backend for Pareto-optimal matchings of the contracted graph,
completes each matching deterministically to a Hamiltonian cycle, and
expands it back through F.  Pooled, deduplicated and Pareto-filtered,
the emitted cycles 1/2-cover every Hamiltonian cycle of the input when
the matching backend is exact: every cycle T hides a small path set F
and a matching of weight at least w(T)/2 - w(F) in the F-contracted
graph, and expansion adds w(F) back.

The heavy-edge wrapper repeats the construction one level up: it
enumerates small path sets of even size (odd size when the vertex count
is odd, which also fixes the parity for the core), contracts them first,
and runs the core with eps = 1/|V| on the remainder.  The contracted
weight it adds back absorbs the (1 - eps) loss of an approximate
matching backend, so the 1/2 guarantee survives plugging in one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .balancing import BalancingInstance, balance_combinatorial
from .errors import BudgetExceededError, PreconditionError
from .graphs import (
    Edge,
    LabeledDigraph,
    contract,
    contract_edge_set,
    cycle_vertex_order,
    expand,
    is_hamiltonian_cycle,
    is_matching,
    is_vertex_disjoint_paths,
    iter_hamiltonian_cycles,
)
from .matching import ExactMatchingBackend, MatchingBackend, matching_count
from .maxsat import resolve_budget
from .pareto import SolutionSet, Weight, nondominated, pareto_front_witnesses

DEFAULT_MAXATSP_BUDGET = 10**6

Cycle = tuple[Edge, ...]


def even_objectives(dim: int) -> int:
    return dim + (dim % 2)


def path_set_candidates(
    g: LabeledDigraph, sizes: Iterable[int]
) -> Iterator[tuple[Edge, ...]]:
    """Vertex-disjoint path sets of g with the given edge counts.

    Deterministic order: sizes as given, within a size lexicographic
    over the sorted edge list.  Sets leaving fewer than two vertices
    after contraction are skipped (no Hamiltonian cycle would exist).
    """
    edges = g.edges()
    for size in sizes:
        if g.num_vertices - size < 2:
            continue
        for combo in combinations(edges, size):
            if is_vertex_disjoint_paths(combo):
                yield combo


def extend_matching(g: LabeledDigraph, matching: Iterable[Edge]) -> Cycle:
    """Deterministic completion of a matching to a Hamiltonian cycle.

    Matching edges and uncovered vertices are fragments; fragments are
    chained in order of their smallest start vertex and the cycle is
    closed from the last fragment back to the first.  Any completion
    preserves the matching's weight since edge weights are nonnegative.
    """
    m_edges = sorted(matching)
    if not is_matching(m_edges):
        raise PreconditionError("edge set is not a matching")
    for e in m_edges:
        if e not in g.weight_map:
            raise PreconditionError(f"matching edge {e} not in graph")
    if g.num_vertices < 2:
        raise PreconditionError("cannot build a cycle on fewer than two vertices")
    covered = {x for e in m_edges for x in e}
    fragments = [(u, v) for u, v in m_edges]
    fragments += [(x, x) for x in g.vertices if x not in covered]
    fragments.sort()
    cycle = list(m_edges)
    for (_, end), (nxt, _) in zip(fragments, fragments[1:]):
        cycle.append((end, nxt))
    cycle.append((fragments[-1][1], fragments[0][0]))
    result = tuple(sorted(cycle))
    if not is_hamiltonian_cycle(g, result):
        raise PreconditionError("completion failed; matching incompatible with graph")
    return result


def approx_cost_estimate(num_vertices: int, two_k: int) -> int:
    """Matchings of every contracted graph the core F-loop visits.

    The budget guard's yardstick: it counts what an exhaustive matching
    enumeration would visit; the subset DP's own cost is not modelled.
    """
    n = num_vertices
    num_edges = n * (n - 1)
    return sum(
        comb(num_edges, size) * matching_count(n - size)
        for size in range(two_k + 1)
        if n - size >= 2
    )


def wrapper_cost_estimate(num_vertices: int, two_k: int) -> int:
    n = num_vertices
    num_edges = n * (n - 1)
    sizes = [s for s in range(two_k + 1) if s % 2 == n % 2]
    return sum(
        comb(num_edges, s) * approx_cost_estimate(n - s, two_k)
        for s in sizes
        if n - s >= 2
    )


def _pool_to_set(pool: dict[Weight, set[Cycle]]) -> SolutionSet:
    front = nondominated(pool.keys())
    return SolutionSet.build(
        (enc, w) for w in front for enc in pool[w]
    )


def _merge_pools(dst: dict[Weight, set[Cycle]], src: dict[Weight, set[Cycle]]):
    for w, encs in src.items():
        dst.setdefault(w, set()).update(encs)


def maxatsp_approx(
    g: LabeledDigraph,
    eps: Fraction = Fraction(0),
    *,
    backend: MatchingBackend | None = None,
    budget: int | None = None,
    threads: int = 1,
) -> SolutionSet:
    """Contract-match-extend-expand sweep over all small path sets.

    Needs an even vertex count (the wrapper handles odd ones).  With the
    exact matching backend the output is a 1/2-approximate Pareto set of
    Hamiltonian cycles; with a (1 - eps)-approximate backend the factor
    degrades to (1/2 - eps) and the wrapper restores it.
    """
    if g.num_vertices < 2:
        raise PreconditionError("need at least two vertices")
    if g.num_vertices % 2:
        raise PreconditionError(
            "even vertex count required; use maxatsp_half_wrapper for odd graphs"
        )
    if eps < 0:
        raise PreconditionError(f"eps must be >= 0, got {eps}")
    budget = resolve_budget(budget, DEFAULT_MAXATSP_BUDGET)
    two_k = even_objectives(g.dimension)
    estimate = approx_cost_estimate(g.num_vertices, two_k)
    if estimate > budget:
        raise BudgetExceededError(
            f"~{estimate} matchings to enumerate exceed budget {budget} "
            f"({g.num_vertices} vertices, {two_k} objectives)"
        )
    if backend is None:
        backend = ExactMatchingBackend()

    candidates = list(path_set_candidates(g, range(two_k + 1)))

    def run(chunk: Sequence[tuple[Edge, ...]]) -> dict[Weight, set[Cycle]]:
        pool: dict[Weight, set[Cycle]] = {}
        for f in chunk:
            rec = contract(g, f)
            for m_enc, _ in backend.pareto_matchings(rec.contracted, eps):
                t_prime = extend_matching(rec.contracted, m_enc)
                t = expand(rec, t_prime)
                pool.setdefault(g.edge_set_weight(t), set()).add(t)
        return pool

    if threads > 1:
        chunks = [candidates[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as tp:
            results = list(tp.map(run, chunks))
        pool: dict[Weight, set[Cycle]] = {}
        for res in results:
            _merge_pools(pool, res)
    else:
        pool = run(candidates)
    return _pool_to_set(pool)


def maxatsp_half_wrapper(
    g: LabeledDigraph,
    *,
    backend: MatchingBackend | None = None,
    budget: int | None = None,
    threads: int = 1,
) -> SolutionSet:
    """Outer enumeration of heavy-edge candidate sets around the core.

    Path sets whose size matches the vertex-count parity (even sizes for
    even |V|, odd for odd -- experimental) are contracted up front, the
    core runs with eps = 1/|V| on each remainder, and all expanded
    outputs are pooled and filtered.
    """
    if g.num_vertices < 2:
        raise PreconditionError("need at least two vertices")
    budget = resolve_budget(budget, DEFAULT_MAXATSP_BUDGET)
    two_k = even_objectives(g.dimension)
    n = g.num_vertices
    estimate = wrapper_cost_estimate(n, two_k)
    if estimate > budget:
        raise BudgetExceededError(
            f"~{estimate} matchings to enumerate exceed budget {budget} "
            f"({n} vertices, {two_k} objectives, wrapper)"
        )
    if backend is None:
        backend = ExactMatchingBackend()
    eps = Fraction(1, n)
    sizes = [s for s in range(two_k + 1) if s % 2 == n % 2]
    candidates = list(path_set_candidates(g, sizes))
    if not candidates:
        raise PreconditionError(
            f"no admissible outer path set for {n} vertices at {two_k} objectives"
        )

    def run(chunk: Sequence[tuple[Edge, ...]]) -> dict[Weight, set[Cycle]]:
        pool: dict[Weight, set[Cycle]] = {}
        for f in chunk:
            rec = contract(g, f)
            inner = maxatsp_approx(
                rec.contracted, eps, backend=backend, budget=budget
            )
            for t_enc, _ in inner:
                t = expand(rec, t_enc)
                pool.setdefault(g.edge_set_weight(t), set()).add(t)
        return pool

    if threads > 1:
        chunks = [candidates[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as tp:
            results = list(tp.map(run, chunks))
        pool: dict[Weight, set[Cycle]] = {}
        for res in results:
            _merge_pools(pool, res)
    else:
        pool = run(candidates)
    return _pool_to_set(pool)


def tsp_oracle(g: LabeledDigraph, cap: int = 9) -> SolutionSet:
    """Exact Pareto front over all (|V| - 1)! Hamiltonian cycles.

    One canonical witness (smallest sorted edge tuple) per nondominated
    weight.
    """
    if g.num_vertices > cap:
        raise BudgetExceededError(
            f"cycle oracle refuses {g.num_vertices} vertices (cap {cap})"
        )
    return pareto_front_witnesses(
        (tuple(sorted(t)), g.edge_set_weight(t)) for t in iter_hamiltonian_cycles(g)
    )


@dataclass(frozen=True)
class ClaimWitness:
    """Constructive evidence that a cycle hides a heavy matching.

    Splitting the cycle into alternating odd/even edges and balancing
    their weights yields a path set `f_edges` (at most 2k edges) and an
    edge set `s_edges` containing it whose contraction `matching` is a
    matching of the F-contracted graph with
    w'(matching) >= w(cycle)/2 - w(f_edges), componentwise.
    """

    cycle: Cycle
    f_edges: tuple[Edge, ...]
    s_edges: tuple[Edge, ...]
    matching: tuple[Edge, ...]
    contracted: LabeledDigraph
    cycle_weight: Weight
    f_weight: Weight
    matching_weight: Weight

    @property
    def ok(self) -> bool:
        return all(
            2 * mw >= cw - 2 * fw
            for mw, cw, fw in zip(self.matching_weight, self.cycle_weight, self.f_weight)
        ) and is_matching(self.matching)


def matching_claim_witness(g: LabeledDigraph, cycle: Iterable[Edge]) -> ClaimWitness:
    """Build the witness for one Hamiltonian cycle of g.

    Requires an even vertex count larger than the padded objective count
    (so the witness path set is a proper subset of the cycle).
    """
    cycle = tuple(sorted(cycle))
    if not is_hamiltonian_cycle(g, cycle):
        raise PreconditionError("not a Hamiltonian cycle of g")
    n = g.num_vertices
    if n % 2:
        raise PreconditionError("witness construction needs an even vertex count")
    two_k = even_objectives(g.dimension)
    if n <= two_k:
        raise PreconditionError(
            f"{n} vertices too few for {two_k} objectives; F could swallow the cycle"
        )
    order = cycle_vertex_order(cycle)
    seq = [(order[i], order[(i + 1) % n]) for i in range(n)]
    odd = seq[0::2]
    even = seq[1::2]
    pad = two_k - g.dimension

    def padded(e: Edge) -> Weight:
        return g.weight_map[e] + (0,) * pad

    inst = BalancingInstance(
        x=tuple(padded(e) for e in odd),
        y=tuple(padded(e) for e in even),
    )
    res = balance_combinatorial(inst)
    intervals = res.family.intervals
    in_interval = {
        i for a, b in intervals for i in range(a, b + 1)
    }
    p = n // 2
    s_edges = {even[b - 1] for _, b in intervals}
    s_edges |= {odd[i - 1] for i in in_interval}
    s_edges |= {even[i - 1] for i in range(1, p + 1) if i not in in_interval}
    f_edges = set()
    for a, b in intervals:
        f_edges.add(odd[a - 1])
        f_edges.add(even[b - 1])
    rec = contract(g, f_edges)
    mprime = contract_edge_set(rec.paths, s_edges)
    return ClaimWitness(
        cycle=cycle,
        f_edges=tuple(sorted(f_edges)),
        s_edges=tuple(sorted(s_edges)),
        matching=tuple(sorted(mprime)),
        contracted=rec.contracted,
        cycle_weight=g.edge_set_weight(cycle),
        f_weight=g.edge_set_weight(f_edges),
        matching_weight=rec.contracted.edge_set_weight(mprime),
    )


__all__ = [
    "ClaimWitness",
    "Cycle",
    "DEFAULT_MAXATSP_BUDGET",
    "approx_cost_estimate",
    "even_objectives",
    "extend_matching",
    "matching_claim_witness",
    "maxatsp_approx",
    "maxatsp_half_wrapper",
    "path_set_candidates",
    "tsp_oracle",
    "wrapper_cost_estimate",
]
