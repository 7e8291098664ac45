"""Vector-weighted complete digraphs, and tours lifted through path sets.

Contracting an edge (u, v) merges v into u: u keeps its own incoming
edges and takes over v's outgoing weights, and v disappears.  Doing
that for every edge of a path, from its last edge back to its head h,
leaves h with the outgoing row of the path's last vertex and every
other surviving edge with its own weight.  So G/F, for a set F of
pairwise vertex-disjoint paths, is fixed by F's ends alone: the tails
that vanish and each head's last vertex, w'(h, z) = w(last[h], z), in
any path order.  The matching backend reads G/F off G and those ends
without building it.  Expansion inverts the contraction in one pass on
a Hamiltonian cycle T of G/F: each edge (h, x) leaving a head becomes
(last, x), every other edge of T stays (`lift_edges`), and adding the
path edges back adds back exactly the contracted weight.

Edge sets double as solutions in three roles: matchings (no two edges
share any endpoint), path sets, and Hamiltonian cycles.  They are kept
as plain edge collections; canonical encodings are sorted edge tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import PreconditionError
from .pareto import Weight

Edge = tuple[int, int]


def edge_fault(e: Edge, w: Weight, dimension: int) -> str | None:
    """Why edge e's weight w does not fit a graph of `dimension` objectives,
    or None; `LabeledDigraph` and the graph parser check every edge with it."""
    if len(w) != dimension:
        return f"edge {e} weight has wrong dimension"
    if min(w) < 0:
        return f"edge {e} weight {w} is negative"


@dataclass(frozen=True)
class LabeledDigraph:
    """Complete loop-free digraph with a nonnegative weight vector per edge.

    Vertices are at least two distinct ints, so that a tour exists
    (contraction keeps original labels); freshly built graphs use 0..n-1.
    """

    vertices: tuple[int, ...]
    weight_map: dict[Edge, Weight]
    dimension: int

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if len(set(verts)) != len(verts):
            raise PreconditionError("vertices must be distinct")
        if len(verts) < 2:
            raise PreconditionError("need at least two vertices")
        object.__setattr__(self, "vertices", verts)
        expected = {(u, v) for u in verts for v in verts if u != v}
        if set(self.weight_map) != expected:
            raise PreconditionError(
                "weight map must cover exactly all ordered pairs of distinct vertices"
            )
        if self.dimension < 1:
            raise PreconditionError("dimension must be >= 1")
        for e, w in self.weight_map.items():
            if fault := edge_fault(e, w, self.dimension):
                raise PreconditionError(fault)

    @classmethod
    def from_weights(cls, n: int, weights: Mapping[Edge, Weight]) -> "LabeledDigraph":
        """Graph on vertices 0..n-1; `weights` maps every ordered pair."""
        # an empty map gives dimension 0 and fails the coverage check
        some = next(iter(weights.values()), ())
        return cls(tuple(range(n)), {e: tuple(w) for e, w in weights.items()}, len(some))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.weight_map))


def is_hamiltonian_cycle(g: LabeledDigraph, edges: Iterable[Edge]) -> bool:
    """One directed cycle visiting every vertex of g exactly once.

    n edges of g with n distinct tails give every vertex one successor;
    they form one cycle iff the walk from a tail first returns to it at
    step n.  The walk takes at most n steps, so it also ends when two
    edges share a head and it runs into a cycle that misses its start.
    """
    edge_list = list(edges)
    n = g.num_vertices
    if len(edge_list) != n:
        return False
    if not all(e in g.weight_map for e in edge_list):
        return False
    succ = dict(edge_list)
    if len(succ) != n:
        return False
    start = u = edge_list[0][0]
    for _ in range(n - 1):
        u = succ[u]
        if u == start:
            return False
    return succ[u] == start


def lift_edges(last: Mapping[int, int], t: Iterable[Edge]) -> tuple[Edge, ...]:
    """The edges of g that the edges of a tour of G/F stand for.

    The inverse of contraction: a head h left the contraction with
    the outgoing row of its path's last vertex, so an edge (h, x) stands
    for (last[h], x) of the same weight, while every other edge,
    entering h included, stands for itself.
    """
    return tuple([(last.get(u, u), v) for u, v in t])

