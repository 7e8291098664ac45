"""Pareto-optimal matchings of complete digraphs.

The shipped backend is an exact Pareto dynamic program over vertex
subsets.  For a subset S with lowest vertex v, every matching of S
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

The output is the exact Pareto front, so it trivially meets the
(1 - eps) contract for any eps.  The backend interface carries a
failure probability so that a randomized approximation scheme could be
plugged in without touching the callers; the exact backend reports 0.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from operator import add
from typing import Protocol

from .errors import BudgetExceededError
from .graphs import Edge, LabeledDigraph
from .pareto import SolutionSet, Weight, nondominated, pareto_front_witnesses


class MatchingBackend(Protocol):
    """Producer of (1 - eps)-approximate Pareto sets of matchings."""

    failure_probability: Fraction

    def pareto_matchings(self, g: LabeledDigraph, eps: Fraction) -> SolutionSet:
        ...


def matching_count(n: int) -> int:
    """Number of matchings in a complete digraph on n vertices."""
    return sum(
        comb(n, 2 * j) * factorial(2 * j) // factorial(j) for j in range(n // 2 + 1)
    )


# one DP state: (weight, edge count) -> smallest sorted edge tuple
_State = dict[tuple[Weight, int], tuple[Edge, ...]]


@dataclass
class ExactMatchingBackend:
    """Pareto subset DP, one canonical witness per front weight."""

    vertex_cap: int = 10
    failure_probability: Fraction = field(default=Fraction(0))

    def pareto_matchings(
        self, g: LabeledDigraph, eps: Fraction = Fraction(0)
    ) -> SolutionSet:
        if g.num_vertices > self.vertex_cap:
            raise BudgetExceededError(
                f"exact matching backend refuses {g.num_vertices} vertices "
                f"(cap {self.vertex_cap})"
            )
        verts = g.vertices
        wm = g.weight_map
        # subsets of verts as bitmasks; the memo lives for this call only
        memo: dict[int, _State] = {0: {((0,) * g.dimension, 0): ()}}

        def solve(mask: int) -> _State:
            state = memo.get(mask)
            if state is not None:
                return state
            low = mask & -mask
            v = verts[low.bit_length() - 1]
            rest = mask ^ low
            best = dict(solve(rest))  # v uncovered
            others = rest
            while others:
                bit = others & -others
                others ^= bit
                u = verts[bit.bit_length() - 1]
                sub = solve(rest ^ bit)
                for e in ((v, u), (u, v)):
                    we = wm[e]
                    for (w, count), enc in sub.items():
                        key = (tuple(map(add, w, we)), count + 1)
                        i = bisect(enc, e)
                        cand = enc[:i] + (e,) + enc[i:]
                        cur = best.get(key)
                        if cur is None or cand < cur:
                            best[key] = cand
            front = nondominated(w for w, _ in best)
            state = {k: enc for k, enc in best.items() if k[0] in front}
            memo[mask] = state
            return state

        root = solve((1 << len(verts)) - 1)
        return pareto_front_witnesses((enc, w) for (w, _), enc in root.items())


def matching_pareto(
    g: LabeledDigraph,
    eps: Fraction = Fraction(0),
    backend: MatchingBackend | None = None,
) -> SolutionSet:
    """(1 - eps)-approximate Pareto set of matchings of g.

    The default exact backend ignores eps and returns the true front.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if backend is None:
        backend = ExactMatchingBackend()
    return backend.pareto_matchings(g, eps)
