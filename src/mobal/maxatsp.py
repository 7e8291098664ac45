"""Half-approximate Pareto sets for maximum asymmetric TSP with vector weights.

One sweep serves every vertex count n.  With 2k the objective count
rounded up to even, it enumerates every vertex-disjoint path set F of
0..2k edges when n is even, or of 1..2k+1 edges when n is odd,
hands its ends to a matching backend for Pareto-optimal matchings of
the contracted graph G/F, and weighs each matching's deterministic
completion to a Hamiltonian cycle, expanded back through F.  The cycles
of the front weights, built for the final front alone, 1/2-cover every
Hamiltonian cycle of the input.

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
therefore get the same matching front and contracted tours T', which
lift to the same edges (last(a), b) for each edge (a, b) of T'; only F
differs, and the tour of G weighs w(F) + w'(T').  The sweep asks the
backend once per distinct contracted graph and keeps its weighed
matchings for the later path sets of the same size.  Two path sets can
share a graph only when |F| >= 3 and some vertex is interior (|F|
exceeds the number of paths): two edges on one path leave their one
interior vertex a single place.

When n - 2 is one of the sweep's sizes (n <= 2k+2 at even n, n <= 2k+3
at odd n), the sweep emits exactly the set of all (n-1)!
Hamiltonian cycles of G.  Drop any two edges of a tour T; the
other n - 2 edges form two vertex-disjoint paths covering V, a path set
F of T that `path_set_candidates` yields.  G/F has two vertices, so its
only Hamiltonian cycle is the 2-cycle, and `_chain_fragments` turns
every matching of G/F into it, the empty one included.  The exact
backend's front is never empty, and lifting the 2-cycle through F
gives the one tour of G that contains F, which is T.  Every emitted
tour is a Hamiltonian cycle of G, so the emissions are every tour and
nothing else, and every tour of each front weight is kept.  So
`maxatsp_approx` skips path sets, contraction and the backend and reads
g's tour front, `g._table.tour_front`, which `tsp_oracle` reads too: one
weigh-first pass per graph.  The output is the sweep's, byte for byte.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, SearchInvariantError
from .graphs import Edge, LabeledDigraph, is_hamiltonian_cycle, lift_edges
from .matching import ExactMatchingBackend
from .pareto import PackedFront, SolutionSet, even_objectives

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


def _chain_fragments(vertices: Iterable[int], m_edges: Iterable[Edge]) -> list[Edge]:
    """Edges of the cycle that completes a matching on `vertices`: its
    edges, then an edge (end, start) joining each fragment to the next
    (`_fragment_pairs`).  Any completion preserves the matching's weight
    since edge weights are nonnegative.

    For a matching of a complete graph on at least two vertices the
    result is a Hamiltonian cycle without a further check: the fragments
    partition the vertices (a matching shares no endpoint), each
    connecting edge joins two distinct fragments (or closes the only
    fragment, a matching edge, when n = 2), and the graph is complete,
    so every connecting edge exists.
    """
    cycle = list(m_edges)
    return cycle + [(end, start) for (_, end), (start, _) in _fragment_pairs(vertices, cycle)]


def _fragment_pairs(vertices: Iterable[int], m_edges: Sequence[Edge]) -> Iterable[tuple[Edge, Edge]]:
    """Each fragment of a matching on `vertices`, a matching edge or an
    uncovered vertex x as (x, x), by start vertex, with the next one; the
    last fragment's next is the first."""
    covered = {x for e in m_edges for x in e}
    fragments = [*m_edges, *[(x, x) for x in vertices if x not in covered]]
    fragments.sort()
    return zip(fragments, fragments[1:] + fragments[:1])


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


def maxatsp_approx(g: LabeledDigraph, *, budget: int | None = None) -> SolutionSet:
    """Contract-match-extend-expand sweep over all small path sets, whose
    output 1/2-covers every Hamiltonian cycle of g (module docstring).
    When n - 2 is a path-set size the sweep would emit every tour, so it
    reads g's tour front instead.  `approx_cost_estimate` is the only size guard."""
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
    if g.num_vertices - 2 in counts:
        return SolutionSet.build((t, w) for w, ts in g._table.tour_front.items() for t in ts)
    # one backend, built for g, answers every path set from its ends
    # and shares DP states between them (`mobal.matching`)
    return _sweep(g, counts, ExactMatchingBackend(g))


def _sweep(
    g: LabeledDigraph, sizes: Iterable[int], backend: ExactMatchingBackend
) -> SolutionSet:
    """Every tour of each front weight that the sweep over path sets of the
    given sizes emits, one backend call per distinct contracted graph.
    Tours are weighed in g's `_table.packing`, which bounds every tour
    of g, as w(F) + w'(M) plus the edges completing M to T', weighed
    from their lifted ends off M's fragments.  An online front keeps
    (F, last, M) while no other weight dominates its own, so only the
    final front's matchings are completed, lifted, sorted and checked."""
    packing, weight_of = g._table.packing, g._table.weight_of
    front = PackedFront(packing)
    # (w'(T'), M) of each matching M of a contracted graph that a later
    # path set of the same size can share (module docstring)
    shared: dict[tuple, list[tuple[int, tuple[Edge, ...]]]] = {}
    size = -1
    for f in path_set_candidates(g, sizes):
        if len(f) != size:
            size = len(f)
            shared.clear()
        tails, last = _path_ends(f)
        key = None
        if size >= 3 and size > len(last):  # some vertex is interior
            key = (tails, tuple(sorted(last.items())))
        tours = shared.get(key)
        if tours is None:
            verts = [x for x in g.vertices if x not in tails]  # those of G/F
            tours = []
            for m_enc, p in backend.packed_matchings(tails, last):
                pairs = _fragment_pairs(verts, m_enc)
                p += sum([weight_of[(last.get(end, end), start)] for (_, end), (start, _) in pairs])
                tours.append((p, m_enc))
            if key is not None:
                shared[key] = tours
        f_weight = sum(map(weight_of.__getitem__, f))
        for p, m_enc in tours:
            front.offer(f_weight + p, (f, last, m_enc))
    out = []
    for p, kept in front.items.items():
        for f, last, m_enc in kept:
            cycle = _chain_fragments(set(g.vertices).difference(v for _, v in f), m_enc)
            out.append((tuple(sorted((*f, *lift_edges(last, cycle)))), packing.unpack(p)))
    if not all(is_hamiltonian_cycle(g, t) for t, _ in out):
        raise SearchInvariantError("expansion produced a non-Hamiltonian edge set")
    return SolutionSet.build(out)


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
    """Exact Pareto front over all (|V| - 1)! Hamiltonian cycles: the smallest
    sorted edge tuple of each weight of g's tour front, `g._table.tour_front`,
    which one pass over the vertex orders builds per graph for this and the
    every-tour shortcut.  At the cap, n = 9, the pass peaks at 4.3, 5.6 and 10.0
    MiB at dim 1, 2, 3 (tracemalloc, seed 3, bound 30); only the front stays."""
    if g.num_vertices > ORACLE_VERTEX_CAP:
        raise BudgetExceededError(
            f"cycle oracle refuses {g.num_vertices} vertices (cap {ORACLE_VERTEX_CAP})"
        )
    return SolutionSet.build((min(ts), w) for w, ts in g._table.tour_front.items())


__all__ = [
    "Cycle",
    "DEFAULT_MAXATSP_BUDGET",
    "approx_cost_estimate",
    "maxatsp_approx",
    "path_set_candidates",
    "tsp_oracle",
]
