"""Pareto-optimal matchings of complete digraphs.

The shipped backend is an exact Pareto dynamic program over vertex
subsets.  For a subset S and a vertex v of S, every matching of S
either leaves v uncovered or pairs it with some u in S - v through
(v, u) or (u, v), so

    f(S) = ND( f(S - v) union { w(e) + f(S - v - u) : u in S - v,
                                       e in {(v, u), (u, v)} } )

where ND drops entries whose weight another entry's weight dominates
(a dominated partial matching stays dominated after the same edges are
added to it and its dominator).  Witnesses follow one rule: every state
keeps, per key (weight, edge count), the smallest sorted edge tuple.
Keying by weight alone would not be exact: inserting one edge into two
sorted tuples keeps their order when they have equal length, but can
reverse it when one is a proper prefix of the other.  At the root the
smallest tuple per front weight is the witness, which is the canonical
one an exhaustive enumeration would pick.

A state f(S) so defined depends only on the weights of the edges inside
S, not on which vertex v the DP removes.  A backend is built for one
reference graph and answers graphs of its dimension on subsets of its
vertices.  A vertex is dirty when one of its outgoing weights differs
from the reference's; every edge lies in one outgoing row, so a
dirty-free subset has the reference's weights.  The DP removes the
lowest dirty vertex of S while there is one, else the lowest vertex.
States of subsets holding a dirty vertex stay local to the call, and
states of dirty-free subsets are shared across calls.  Contraction
rewrites only the rows of the path heads, so a sweep over the path sets
of the reference shares all head-free states.  An instance must not
serve concurrent callers.
"""

from __future__ import annotations

from bisect import bisect
from operator import add
from typing import Protocol

from .errors import BudgetExceededError, PreconditionError
from .graphs import Edge, LabeledDigraph
from .pareto import SolutionSet, Weight, nondominated, pareto_front_witnesses

# largest graph `ExactMatchingBackend` takes: its DP visits every vertex subset
VERTEX_CAP = 10


class MatchingBackend(Protocol):
    """Producer of exact Pareto sets of matchings."""

    def pareto_matchings(self, g: LabeledDigraph) -> SolutionSet:
        ...


# one DP state: (weight, edge count) -> smallest sorted edge tuple
_State = dict[tuple[Weight, int], tuple[Edge, ...]]


class ExactMatchingBackend:
    """Pareto subset DP, one canonical witness per front weight.

    DP states of the reference graph's vertex subsets (as bitmasks)
    persist across calls; see the module docstring for the reuse rule.
    """

    def __init__(self, reference: LabeledDigraph):
        self.reference = reference
        self._bit = {v: 1 << i for i, v in enumerate(reference.vertices)}
        self._memo: dict[int, _State] = {0: {((0,) * reference.dimension, 0): ()}}

    def pareto_matchings(self, g: LabeledDigraph) -> SolutionSet:
        if g.num_vertices > VERTEX_CAP:
            raise BudgetExceededError(
                f"exact matching backend refuses {g.num_vertices} vertices "
                f"(cap {VERTEX_CAP})"
            )
        ref = self.reference
        bit = self._bit
        verts = g.vertices
        if g.dimension != ref.dimension or any(v not in bit for v in verts):
            raise PreconditionError(
                "graph has another dimension or a vertex outside the backend's reference"
            )
        ref_wm = ref.weight_map
        labels = ref.vertices
        wm = g.weight_map
        dirty = 0
        for v in verts:
            if any(wm[(v, z)] != ref_wm[(v, z)] for z in verts if z != v):
                dirty |= bit[v]
        shared = self._memo
        local: dict[int, _State] = {}

        def candidates(mask: int) -> _State:
            """Every key reachable from the states below mask, unfiltered."""
            # remove a dirty vertex while one is left, so that every
            # dirty-free subset below is solved with the reference weights
            pick = (mask & dirty) or mask
            low = pick & -pick
            v = labels[low.bit_length() - 1]
            rest = mask ^ low
            best = dict(solve(rest))  # v uncovered
            others = rest
            while others:
                b = others & -others
                others ^= b
                u = labels[b.bit_length() - 1]
                sub = solve(rest ^ b)
                for e in ((v, u), (u, v)):
                    we = wm[e]
                    for (w, count), enc in sub.items():
                        key = (tuple(map(add, w, we)), count + 1)
                        i = bisect(enc, e)
                        cand = enc[:i] + (e,) + enc[i:]
                        cur = best.get(key)
                        if cur is None or cand < cur:
                            best[key] = cand
            return best

        def solve(mask: int) -> _State:
            memo = local if mask & dirty else shared
            state = memo.get(mask)
            if state is None:
                best = candidates(mask)
                front = nondominated(w for w, _ in best)
                state = {k: enc for k, enc in best.items() if k[0] in front}
                memo[mask] = state
            return state

        # the root is filtered once, by pareto_front_witnesses
        root = candidates(sum(bit[v] for v in verts))
        return pareto_front_witnesses((enc, w) for (w, _), enc in root.items())

