"""Half-approximate Pareto sets for maximum asymmetric TSP with vector weights.

One sweep serves every vertex count n.  With 2k the objective count
rounded up to even, it enumerates every vertex-disjoint path set F of
0..2k edges when n is even, or of 1..2k+1 edges when n is odd,
contracts it, asks a matching backend for Pareto-optimal matchings of
the contracted graph G/F, completes each matching deterministically to
a Hamiltonian cycle, and expands it back through F.  Pooled,
deduplicated and Pareto-filtered, the emitted cycles 1/2-cover every
Hamiltonian cycle of the input when the matching backend is exact.

Even n: every cycle T hides a path set F of at most 2k edges and a
matching of G/F of weight at least w(T)/2 - w(F), componentwise, and
expansion adds w(F) back.

Odd n: every tour T of G has an edge e, and T/e is a tour of the even
graph G/e with w'(T/e) = w(T) - w(e).  By the even case, G/e has a path
set F' of at most 2k edges and a matching M of (G/e)/F' with
w'(M) >= w'(T/e)/2 - w'(F').  Let F = {e} + lift(F'), the edges of G
that e and F' stand for: a path set of G with 1..2k+1 edges whose
contraction G/F equals (G/e)/F', labels and weights included, and
w(F) = w(e) + w'(F').  The sweep meets M at F, and expansion gives a
tour of G of weight at least w'(M) + w(F) >= w(T)/2 + w(e)/2 >= w(T)/2.
Conversely, every path set of G with 1..2k+1 edges is {e} + lift(F')
for each of its edges e, so the sweep asks the backend exactly what
contracting one edge and sweeping the even remainder would ask, once
per path set instead of once per edge of it.  Contracting larger odd
path sets first would also reach path sets of 2k+2..n-2 edges; the
proof needs none of them, and none exists when n <= 2k+3.

Path sets that share a contracted graph: G/F depends on F only through
its tails, which vanish, and the map from each path's head to its last
vertex, whose outgoing row the head takes.  The interior vertices of a
path vanish with it, so their order, and which path holds them, cannot
be seen in G/F.  Path sets with the same tails and head -> last map
therefore get the same matching front, the same contracted tours T'
and the same lifted edges (last(a), b) for each edge (a, b) of T'.
Only F differs between them: the tour of G is F plus the lifted edges,
of weight w(F) + w'(T').  The sweep asks the backend once per distinct
contracted graph and keeps its lifted tours for the later path sets of
the same size.  Two path sets can share a graph only when |F| >= 3 and
some vertex is interior (|F| exceeds the number of paths): two edges
on one path leave their one interior vertex a single place.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from operator import add
from typing import Iterable, Iterator

from .balancing import BalancingInstance, balance_combinatorial
from .errors import BudgetExceededError, PreconditionError
from .graphs import (
    Edge,
    LabeledDigraph,
    contract,
    contract_ends,
    cycle_vertex_order,
    is_hamiltonian_cycle,
    is_matching,
    iter_hamiltonian_cycles,
    lift_edges,
    lift_tour,
)
from .matching import ExactMatchingBackend, MatchingBackend
from .pareto import SolutionSet, Weight, even_objectives, nondominated, pareto_front_witnesses

DEFAULT_MAXATSP_BUDGET = 10**6
# `tsp_oracle` enumerates all (n - 1)! tours
ORACLE_VERTEX_CAP = 9

Cycle = tuple[Edge, ...]


def path_set_candidates(
    g: LabeledDigraph, sizes: Iterable[int]
) -> Iterator[tuple[Edge, ...]]:
    """Vertex-disjoint path sets of g with the given edge counts.

    Deterministic order: sizes as given, within a size lexicographic
    over the sorted edge list.  Sets leaving fewer than two vertices
    after contraction are skipped (no Hamiltonian cycle would exist).

    Sets grow depth-first in edge order.  An edge (u, v) joins only when
    u has no successor yet, v has no predecessor yet, and the path
    starting at v does not end at u (it would close a cycle).  Every
    subset of a path set is a path set, so this visits exactly the
    path-set combinations of each size, in combination order.
    """
    edges = g.edges()
    succ: dict[int, int] = {}
    has_pred: set[int] = set()
    chosen: list[Edge] = []

    def grow(first: int, need: int) -> Iterator[tuple[Edge, ...]]:
        if not need:
            yield tuple(chosen)
            return
        for i in range(first, len(edges) - need + 1):
            e = edges[i]
            u, v = e
            if u in succ or v in has_pred:
                continue
            end = v
            while end in succ:
                end = succ[end]
            if end == u:
                continue
            succ[u] = v
            has_pred.add(v)
            chosen.append(e)
            yield from grow(i + 1, need - 1)
            chosen.pop()
            has_pred.discard(v)
            del succ[u]

    for size in sizes:
        if g.num_vertices - size < 2:
            continue
        yield from grow(0, size)


def extend_matching(g: LabeledDigraph, matching: Iterable[Edge]) -> Cycle:
    """Deterministic completion of a matching to a Hamiltonian cycle.

    Checks that the edges form a matching of g, then chains them as
    `_chain_fragments` does and returns the sorted cycle.
    """
    m_edges = sorted(matching)
    if not is_matching(m_edges):
        raise PreconditionError("edge set is not a matching")
    for e in m_edges:
        if e not in g.weight_map:
            raise PreconditionError(f"matching edge {e} not in graph")
    if g.num_vertices < 2:
        raise PreconditionError("cannot build a cycle on fewer than two vertices")
    return tuple(sorted(_chain_fragments(g.vertices, m_edges)))


def _chain_fragments(vertices: Iterable[int], m_edges: Iterable[Edge]) -> list[Edge]:
    """Edges of the cycle that completes a matching on `vertices`.

    Matching edges and uncovered vertices are fragments; fragments are
    chained in order of their smallest start vertex and the cycle is
    closed from the last fragment back to the first.  Any completion
    preserves the matching's weight since edge weights are nonnegative.

    For a matching of a complete graph on at least two vertices the
    result is a Hamiltonian cycle without a further check: the fragments
    partition the vertices (a matching shares no endpoint), each
    connecting edge joins two distinct fragments (or closes the only
    fragment, a matching edge, when n = 2), and the graph is complete,
    so every connecting edge exists.
    """
    cycle = list(m_edges)
    covered = {x for e in cycle for x in e}
    fragments = cycle + [(x, x) for x in vertices if x not in covered]
    fragments.sort()
    for (_, end), (nxt, _) in zip(fragments, fragments[1:]):
        cycle.append((end, nxt))
    cycle.append((fragments[-1][1], fragments[0][0]))
    return cycle


def _path_set_counts(n: int, two_k: int) -> dict[int, int]:
    """Path sets the sweep visits, by edge count s: 0..2k at even n and
    1..2k+1 at odd n, with n - s >= 2.  The path sets with s edges of a
    complete digraph split its n vertices into n - s ordered lists, so
    there are C(n - 1, s) * n! / (n - s)! of them, the Lah number L(n, n - s)."""
    odd = n % 2
    sizes = range(odd, two_k + odd + 1)
    return {s: comb(n - 1, s) * factorial(n) // factorial(n - s) for s in sizes if n - s >= 2}


def approx_cost_estimate(num_vertices: int, two_k: int) -> int:
    """Vertex subsets the matching DP can solve, 2^(n - |F|) for each path
    set F the sweep visits.  Exact, not a model: this equals
    `sum(2 ** (n - len(f)) for f in path_set_candidates(g, sizes))`."""
    counts = _path_set_counts(num_vertices, two_k)
    return sum(count << (num_vertices - s) for s, count in counts.items())


def maxatsp_approx(
    g: LabeledDigraph,
    *,
    backend: MatchingBackend | None = None,
    budget: int | None = None,
) -> SolutionSet:
    """Contract-match-extend-expand sweep over all small path sets.

    The output 1/2-covers every Hamiltonian cycle of g.  Path sets have
    0..2k edges for an even vertex count and 1..2k+1 for an odd one;
    the module docstring proves the guarantee for both.
    """
    if g.num_vertices < 2:
        raise PreconditionError("need at least two vertices")
    if budget is None:
        budget = DEFAULT_MAXATSP_BUDGET
    two_k = even_objectives(g.dimension)
    counts = _path_set_counts(g.num_vertices, two_k)
    estimate = approx_cost_estimate(g.num_vertices, two_k)
    if estimate > budget:
        raise BudgetExceededError(
            f"~{estimate} DP subsets over {sum(counts.values())} path sets exceed "
            f"budget {budget} ({g.num_vertices} vertices, {two_k} objectives)"
        )
    # one backend serves the whole sweep; the exact one is built for g, so
    # every contracted graph (contraction rewrites only head rows) shares
    # its head-free states
    if backend is None:
        backend = ExactMatchingBackend(g)
    pool: dict[Weight, set[Cycle]] = {}
    # (lifted edges, w'(T')) of every tour T' of each contracted graph
    # that a later path set of the same size can share (module docstring)
    shared: dict[tuple, list[tuple[tuple[Edge, ...], Weight]]] = {}
    size = -1
    for f in path_set_candidates(g, counts):
        if len(f) != size:
            size = len(f)
            shared.clear()
        tails, last = _path_ends(f)
        key = None
        if size >= 3 and size > len(last):  # some vertex is interior
            key = (tails, tuple(sorted(last.items())))
        tours = shared.get(key)
        if tours is None:
            h = contract_ends(g, tails, last)
            tours = []
            for m_enc, _ in backend.pareto_matchings(h):
                lifted = lift_edges(last, _chain_fragments(h.vertices, m_enc))
                tours.append((lifted, g.edge_set_weight(lifted)))
            if key is not None:
                shared[key] = tours
        f_weight = g.edge_set_weight(f)
        for lifted, w in tours:
            t = lift_tour(g, f, lifted)
            pool.setdefault(tuple(map(add, f_weight, w)), set()).add(t)
    front = nondominated(pool.keys())
    return SolutionSet.build((enc, w) for w in front for enc in pool[w])


def _path_ends(f: Iterable[Edge]) -> tuple[frozenset[int], dict[int, int]]:
    """Tails of a path set and each head's last vertex, in one pass.

    Trusted: f must be a path set, as `path_set_candidates` yields.
    """
    succ = dict(f)
    tails = frozenset(succ.values())
    last = {}
    for head, v in succ.items():
        if head not in tails:
            while v in succ:
                v = succ[v]
            last[head] = v
    return tails, last


def tsp_oracle(g: LabeledDigraph) -> SolutionSet:
    """Exact Pareto front over all (|V| - 1)! Hamiltonian cycles.

    One canonical witness (smallest sorted edge tuple) per nondominated
    weight.
    """
    if g.num_vertices > ORACLE_VERTEX_CAP:
        raise BudgetExceededError(
            f"cycle oracle refuses {g.num_vertices} vertices (cap {ORACLE_VERTEX_CAP})"
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
    # Contraction leaves S - F as it is.  On the cycle, the edge entering a
    # tail of F is an F edge, and no edge of S - F leaves a path's last
    # vertex: after odd[a-1] comes even[a-1], in S only when a == b and
    # then in F; after even[b-1] comes the next odd edge (odd[0] when
    # b = p), in S only when an interval starts at its index and then in F.
    mprime = s_edges - f_edges
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
    "extend_matching",
    "matching_claim_witness",
    "maxatsp_approx",
    "path_set_candidates",
    "tsp_oracle",
]
