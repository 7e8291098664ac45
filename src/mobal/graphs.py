"""Vector-weighted complete digraphs with path contraction and expansion.

Contracting an edge (u, v) merges v into u: u keeps its own incoming
edges and takes over v's outgoing weights, and v disappears.  Doing
that for every edge of a path, from its last edge back to its head h,
leaves h with the outgoing row of the path's last vertex and every
other surviving edge with its own weight.  A set of pairwise
vertex-disjoint paths is contracted in one pass by that rule,
w'(h, z) = w(last, z) for each head h, so the path order is
irrelevant.  Expansion is the inverse rewriting on a Hamiltonian cycle T
of the contracted graph: reinserting (u, v) replaces the unique outgoing
edge (u, x) of T by the detour (u, v), (v, x).  Expanding a cycle through
the contracted path set adds back exactly the contracted weight.

Edge sets double as solutions in three roles: matchings (no two edges
share any endpoint), path sets, and Hamiltonian cycles.  They are kept
as plain edge collections with predicate helpers; canonical encodings
are sorted edge tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import PreconditionError, SearchInvariantError
from .pareto import Weight, vec_add, vec_zero

Edge = tuple[int, int]


@dataclass(frozen=True)
class LabeledDigraph:
    """Complete loop-free digraph with a nonnegative weight vector per edge.

    Vertices are arbitrary distinct ints (contraction keeps original
    labels); freshly built graphs use 0..n-1.
    """

    vertices: tuple[int, ...]
    weight_map: dict[Edge, Weight]
    dimension: int

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if len(set(verts)) != len(verts) or not verts:
            raise PreconditionError("vertices must be distinct and nonempty")
        object.__setattr__(self, "vertices", verts)
        expected = {
            (u, v) for u in verts for v in verts if u != v
        }
        if set(self.weight_map) != expected:
            raise PreconditionError(
                "weight map must cover exactly all ordered pairs of distinct vertices"
            )
        if self.dimension < 1:
            raise PreconditionError("dimension must be >= 1")
        for e, w in self.weight_map.items():
            if len(w) != self.dimension:
                raise PreconditionError(f"edge {e} weight has wrong dimension")
            if any(c < 0 for c in w):
                raise PreconditionError(f"edge {e} weight {w} is negative")

    @classmethod
    def from_weights(cls, n: int, weights: Mapping[Edge, Weight]) -> "LabeledDigraph":
        """Graph on vertices 0..n-1; `weights` maps every ordered pair."""
        if n < 2:
            raise PreconditionError("need at least two vertices")
        some = next(iter(weights.values()))
        return cls(tuple(range(n)), {e: tuple(w) for e, w in weights.items()}, len(some))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def weight(self, u: int, v: int) -> Weight:
        return self.weight_map[(u, v)]

    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.weight_map))

    def edge_set_weight(self, edges: Iterable[Edge]) -> Weight:
        total = vec_zero(self.dimension)
        for e in edges:
            total = vec_add(total, self.weight_map[e])
        return total


def is_matching(edges: Iterable[Edge]) -> bool:
    """No two edges share a vertex, as head or as tail."""
    seen: set[int] = set()
    for u, v in edges:
        if u == v or u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def path_decomposition(edges: Iterable[Edge]) -> tuple[tuple[Edge, ...], ...]:
    """Split an edge set into vertex-disjoint simple paths, sorted by head.

    Raises PreconditionError when some vertex repeats a role or when a
    cycle hides in the set.
    """
    succ: dict[int, int] = {}
    has_in: set[int] = set()
    for u, v in edges:
        if u == v:
            raise PreconditionError(f"self-loop ({u}, {v}) is not a path edge")
        if u in succ:
            raise PreconditionError(f"vertex {u} has two outgoing edges")
        if v in has_in:
            raise PreconditionError(f"vertex {v} has two incoming edges")
        succ[u] = v
        has_in.add(v)
    heads = sorted(u for u in succ if u not in has_in)
    paths: list[tuple[Edge, ...]] = []
    visited = 0
    for head in heads:
        path: list[Edge] = []
        u = head
        while u in succ:
            path.append((u, succ[u]))
            u = succ[u]
        visited += len(path)
        paths.append(tuple(path))
    if visited != len(succ):
        raise PreconditionError("edge set contains a cycle")
    return tuple(paths)


def is_vertex_disjoint_paths(edges: Iterable[Edge]) -> bool:
    try:
        path_decomposition(edges)
    except PreconditionError:
        return False
    return True


def is_hamiltonian_cycle(g: LabeledDigraph, edges: Iterable[Edge]) -> bool:
    """One directed cycle visiting every vertex of g exactly once."""
    edge_list = list(edges)
    if len(edge_list) != g.num_vertices or g.num_vertices < 2:
        return False
    succ: dict[int, int] = {}
    for e in edge_list:
        if e not in g.weight_map:
            return False
        u, v = e
        if u in succ:
            return False
        succ[u] = v
    if set(succ) != set(g.vertices):
        return False
    if len(set(succ.values())) != g.num_vertices:
        return False
    # one cycle, not several: the walk from the start must visit everything
    start = g.vertices[0]
    u = succ[start]
    steps = 1
    while u != start:
        u = succ[u]
        steps += 1
    return steps == g.num_vertices


def cycle_edges(order: tuple[int, ...]) -> tuple[Edge, ...]:
    """Closed edge sequence visiting `order` and returning to its start."""
    return tuple(
        (order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    )


def cycle_vertex_order(edges: Iterable[Edge], start: int | None = None) -> tuple[int, ...]:
    """Vertices of a cycle in traversal order, beginning at `start`
    (default: smallest vertex)."""
    succ = {u: v for u, v in edges}
    if start is None:
        start = min(succ)
    order = [start]
    u = succ[start]
    while u != start:
        order.append(u)
        u = succ[u]
    return tuple(order)


def contract_edge(g: LabeledDigraph, edge: Edge) -> LabeledDigraph:
    """Merge v into u for edge (u, v).

    v and its incident edges vanish; u keeps its incoming weights and
    adopts v's outgoing ones: w'(u, z) = w(v, z).
    """
    u, v = edge
    if edge not in g.weight_map:
        raise PreconditionError(f"edge {edge} not in graph")
    wm: dict[Edge, Weight] = {}
    for (a, b), w in g.weight_map.items():
        if v in (a, b):
            continue
        wm[(a, b)] = g.weight_map[(v, b)] if a == u else w
    return LabeledDigraph(tuple(x for x in g.vertices if x != v), wm, g.dimension)


@dataclass(frozen=True)
class ContractionRecord:
    """Everything needed to undo a path-set contraction.

    `paths` lists each contracted path as ordered edges; `vertex_map`
    sends every original vertex to its surviving representative (the
    head of its path, or itself).
    """

    original: LabeledDigraph
    paths: tuple[tuple[Edge, ...], ...]
    contracted: LabeledDigraph
    vertex_map: dict[int, int]

    def contracted_edges(self) -> frozenset[Edge]:
        return frozenset(e for path in self.paths for e in path)

    def path_weight(self) -> Weight:
        return self.original.edge_set_weight(self.contracted_edges())


def contract(g: LabeledDigraph, q: Iterable[Edge]) -> ContractionRecord:
    """Contract a set of pairwise vertex-disjoint paths of g.

    Built in one pass: the tails of every path vanish, each head h takes
    the outgoing row of its path's last vertex, w'(h, z) = w(last, z),
    and every other surviving edge keeps its weight.  This is the graph
    that contracting each path edge-by-edge from its last edge yields,
    in any path order; only the final graph is validated.
    """
    q_edges = set(q)
    for e in q_edges:
        if e not in g.weight_map:
            raise PreconditionError(f"edge {e} not in graph")
    paths = path_decomposition(q_edges)
    vertex_map = {x: x for x in g.vertices}
    source: dict[int, int] = {}  # head -> last vertex of its path
    for path in paths:
        head = path[0][0]
        for _, tail in path:
            vertex_map[tail] = head
        source[head] = path[-1][1]
    verts = tuple(x for x in g.vertices if vertex_map[x] == x)
    wm = g.weight_map
    contracted = LabeledDigraph(
        verts,
        {(a, b): wm[(source.get(a, a), b)] for a in verts for b in verts if a != b},
        g.dimension,
    )
    return ContractionRecord(g, paths, contracted, vertex_map)


def expand_edge(t: frozenset[Edge], edge: Edge) -> frozenset[Edge]:
    """Reinsert (u, v): reroute the unique outgoing edge (u, x) via v."""
    u, v = edge
    out = [e for e in t if e[0] == u]
    if len(out) != 1:
        raise PreconditionError(f"cycle has {len(out)} outgoing edges at {u}")
    _, x = out[0]
    return frozenset(e for e in t if e[0] != u) | {(u, v), (v, x)}


def expand(rec: ContractionRecord, t: Iterable[Edge]) -> tuple[Edge, ...]:
    """Expand a Hamiltonian cycle of the contracted graph back through
    every contracted path.

    The result is a Hamiltonian cycle of the original graph containing
    all contracted edges, of weight w'(t) + w(paths).
    """
    t = frozenset(t)
    if not is_hamiltonian_cycle(rec.contracted, t):
        raise PreconditionError("t is not a Hamiltonian cycle of the contracted graph")
    current = t
    for path in rec.paths:
        for e in path:
            current = expand_edge(current, e)
    result = tuple(sorted(current))
    if not is_hamiltonian_cycle(rec.original, result):
        raise SearchInvariantError("expansion produced a non-Hamiltonian edge set")
    return result


def contract_edge_in_set(edges: frozenset[Edge], edge: Edge) -> frozenset[Edge]:
    # edge-set image of a single contraction: drop everything touching v,
    # re-source v's outgoing edges at u
    u, v = edge
    kept = {(a, b) for a, b in edges if v not in (a, b)}
    moved = {(u, b) for a, b in edges if a == v and b not in (u, v)}
    return frozenset(kept | moved)


def contract_edge_set(
    paths: tuple[tuple[Edge, ...], ...], edges: Iterable[Edge]
) -> frozenset[Edge]:
    """Image of an edge set under contracting `paths` (same edge order as
    the graph contraction)."""
    current = frozenset(edges)
    for path in paths:
        for e in reversed(path):
            current = contract_edge_in_set(current, e)
    return current


def relabel(g: LabeledDigraph, mapping: Mapping[int, int]) -> LabeledDigraph:
    """Graph with vertices renamed through a bijection (test helper)."""
    if sorted(mapping) != list(g.vertices) or len(set(mapping.values())) != len(mapping):
        raise PreconditionError("mapping must be a bijection on the vertices")
    wm = {(mapping[u], mapping[v]): w for (u, v), w in g.weight_map.items()}
    return LabeledDigraph(tuple(sorted(mapping.values())), wm, g.dimension)


def iter_hamiltonian_cycles(g: LabeledDigraph) -> Iterator[tuple[Edge, ...]]:
    """All (n-1)! directed Hamiltonian cycles, canonical start vertex."""
    from itertools import permutations

    if g.num_vertices < 2:
        raise PreconditionError("Hamiltonian cycles need at least two vertices")
    start = g.vertices[0]
    rest = g.vertices[1:]
    for perm in permutations(rest):
        yield cycle_edges((start,) + perm)
