"""Pareto-optimal matchings of complete digraphs and of their contractions.

The backend is an exact Pareto dynamic program over vertex subsets.
For a subset S and a vertex v of S, every matching of S either
leaves v uncovered or pairs it with some u in S - v through
(v, u) or (u, v), so

    f(S) = ND( f(S - v) union { w(e) + f(S - v - u) : u in S - v,
                                       e in {(v, u), (u, v)} } )

where ND drops entries whose weight another entry's weight dominates (a
dominated partial matching stays dominated after the same edges are
added to it and its dominator).  A state key is one int, the packed
weight (`pareto.Packing`, bounded by the total of G's edges) above the
edge count (at most n // 2); an edge's key has a count of one, so adding
keys adds both, and `Packing.front` reads the weight bits alone.
Witnesses follow one rule: every state keeps, per key, the smallest
sorted edge tuple.  Keying by weight alone would not be exact: inserting
one edge into two sorted tuples keeps their order when they have equal
length, but can reverse it when one is a proper prefix of the other.
The root inserts no further edge, so it takes the front of its weights
first and builds, per front weight and whatever its count, the smallest
tuple alone: the canonical witness an exhaustive enumeration would
pick.  It must compare, not keep the first tuple of each weight: with
heads it removes a head, not the smallest vertex, so a matching
extended through that head need not sort first (with tail 5 and head 4
on six vertices, ((0, 4), (1, 2)) comes before ((0, 3), (1, 2));
`tests/test_matching.py`).

A backend is built for one reference graph G and answers G/F for path
sets F of G from F's ends alone: the tails, which vanish, and each head
h's last vertex last[h], whose outgoing row h takes (`mobal.graphs`).
So each surviving vertex reads the row of its row source: last[h] for
a head h, itself otherwise.  A state f(S) depends only on the weights
inside S, which the row sources of S's vertices fix, and not on which
vertex v the DP removes.  So a head-free subset has G's weights and its
state serves every call, and a state holding heads is keyed, exactly,
by its vertex mask and its heads' (h, last[h]) pairs.  The DP removes
heads first, the smallest head h0 last, so below the other heads a
state holds h0 alone, and the path sets a sweep visits in a row often
share h0's path and so those states.  Keyed states are kept only while
the calls with two or more heads keep (h0, last[h0]), and are dropped
when either changes; a call with one head removes it at the root and
makes no keyed state.  `packed_matchings` answers in packed ints, which
the MaxATSP sweep adds as they are; `pareto_matchings` unpacks them.
An instance must not serve concurrent callers.
"""

from __future__ import annotations

from bisect import bisect
from typing import Collection, Mapping

from .errors import PreconditionError
from .graphs import Edge, LabeledDigraph
from .pareto import SolutionSet

# one DP state: packed weight << count bits | edge count -> smallest sorted edge tuple
_State = dict[int, tuple[Edge, ...]]


class ExactMatchingBackend:
    """Pareto subset DP, one canonical witness per front weight.

    DP states of the reference graph's vertex subsets (as bitmasks)
    persist across calls; see the module docstring for the reuse rule.
    """

    def __init__(self, reference: LabeledDigraph):
        self.reference = reference
        self._index = {v: i for i, v in enumerate(reference.vertices)}
        self.packing = reference._table.packing  # `mobal.graphs.EdgeTable`
        self._cbits = cbits = (len(reference.vertices) // 2).bit_length()
        self._edge_keys = {e: (p << cbits) + 1 for e, p in reference._table.weight_of.items()}
        self._memo: dict[int, _State] = {0: {0: ()}}
        # states holding heads, while the smallest head's path is `_scope`
        self._keyed: dict[int, _State] = {}
        self._scope: tuple[int, int] | None = None

    # only tests call this, but perfbench times the backend through each class
    # here that defines it, and every `--trace 1` run reads that span
    def pareto_matchings(self, tails=(), last=None) -> SolutionSet:
        """The Pareto matchings of G/F, one smallest witness per front weight."""
        unpack = self.packing.unpack
        return SolutionSet.build((m, unpack(p)) for m, p in self.packed_matchings(tails, last))

    def packed_matchings(
        self, tails: Collection[int] = (), last: Mapping[int, int] | None = None
    ) -> list[tuple[tuple[Edge, ...], int]]:
        """(matching, packed weight) per front weight of G/F, weights descending."""
        last = last or {}
        index = self._index
        labels = self.reference.vertices
        n = len(labels)
        tails, ends = set(tails), set(last.values())
        named = index.keys() >= {*tails, *last} and len(tails) < n
        if not (named and ends <= tails and len(ends) == len(last) and tails.isdisjoint(last)):
            raise PreconditionError(
                "path ends must name vertices of the reference and leave one; each head"
                " must be kept and end its path at a tail of its own"
            )
        root = (1 << n) - 1 - sum(1 << index[v] for v in tails)
        rows = list(labels)  # each vertex's row source, by bit index
        # a head's row source index plus one, in the head's slot above the
        # mask's n bits; a state holding heads is keyed by mask | their codes
        codes = [0] * n
        width = n.bit_length()
        for h, end in last.items():
            i = index[h]
            rows[i] = end
            codes[i] = (index[end] + 1) << (n + i * width)
        root_code = sum(codes)
        heads = others = sum(1 << index[h] for h in last)
        if len(last) > 1:
            # a lone head is removed at the root and makes no keyed state
            pin = min(last)
            others -= 1 << index[pin]
            if self._scope != (pin, last[pin]):
                self._scope = (pin, last[pin])
                self._keyed = {}
        edge_key, cbits, front = self._edge_keys, self._cbits, self.packing.front
        shared, keyed = self._memo, self._keyed

        def moves(mask: int, code: int) -> tuple[_State, list[tuple[Edge, int, _State]]]:
            """f(mask - v), and (e, key, f(mask - v - u)) per edge e of v and u."""
            # heads first, the smallest last (module docstring)
            pick = (mask & others) or (mask & heads) or mask
            low = pick & -pick
            i = low.bit_length() - 1
            v, row = labels[i], rows[i]
            rest, rest_code = mask ^ low, code - codes[i]
            uncovered, covered = solve(rest, rest_code), []
            partners = rest
            while partners:
                b = partners & -partners
                partners ^= b
                j = b.bit_length() - 1
                u = labels[j]
                sub = solve(rest ^ b, rest_code - codes[j])
                covered += ((v, u), edge_key[(row, u)], sub), ((u, v), edge_key[(rows[j], v)], sub)
            return uncovered, covered

        def solve(mask: int, code: int) -> _State:
            memo = keyed if code else shared
            state = memo.get(mask | code)
            if state is None:
                uncovered, covered = moves(mask, code)
                best = dict(uncovered)
                for e, inc, sub in covered:
                    for key, enc in sub.items():
                        key += inc
                        k = bisect(enc, e)
                        cand = enc[:k] + (e,) + enc[k:]
                        cur = best.get(key)
                        if cur is None or cand < cur:
                            best[key] = cand
                kept = set(front({key >> cbits for key in best}))
                state = {key: enc for key, enc in best.items() if key >> cbits in kept}
                memo[mask | code] = state
            return state

        # weigh first, witness last (module docstring)
        uncovered, covered = moves(root, root_code)
        covered.append((None, 0, uncovered))  # v uncovered: no edge to insert
        weights = front({(key + inc) >> cbits for _, inc, sub in covered for key in sub})
        kept = set(weights)
        witness: dict[int, tuple[Edge, ...]] = {}
        for e, inc, sub in covered:
            for key, enc in sub.items():
                p = (key + inc) >> cbits
                if p in kept:
                    if e:
                        k = bisect(enc, e)
                        enc = enc[:k] + (e,) + enc[k:]
                    cur = witness.get(p)
                    if cur is None or enc < cur:
                        witness[p] = enc
        return [(witness[p], p) for p in weights]
