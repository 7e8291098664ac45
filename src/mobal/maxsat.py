"""Multi-objective weighted CNF satisfiability: model, approximation, oracle.

An instance is a CNF formula with a nonnegative k-vector weight per
clause; the value of an assignment is the weighted sum of its satisfied
clauses and the goal is to approximate the Pareto set of assignments.

The approximation works with an even objective count 2k (an odd k is
treated as carrying one extra, always-zero objective) and enumerates:

  * every variable subset V0 of size at most (2k)^2, forced to 0;
  * from it the clause set G (no negated V0 literal) and the variables
    V1 outside V0 whose negated occurrences in G are too heavy to give
    up -- 2k * w(G[-v]) exceeds w(H - G) in some objective -- forced
    to 1;
  * for the remaining variables V', in ascending order, every union of
    k index intervals: interval variables become 1, the rest of V'
    become 0.  Such a union is a sorted tuple of 2k cut points
    0 <= p_1 <= q_1 <= ... <= p_k <= q_k <= |V'|, interval j holding the
    V' indices p_j..q_j - 1 (empty when p_j == q_j), so with V' empty
    only the forced assignment itself is emitted.

Deduplicated and Pareto-filtered, the emitted assignments contain a
1/2-approximate Pareto set of the instance.

The V0 sets are walked depth-first over bitmasks, in lexicographic
order of their sorted variable tuples; a child V0 + {x} discards its
parent's clauses plus those holding -x.  V1 can only shrink along a
walk: a larger V0 leaves G smaller, so every objective of w(G[-v]) is
non-increasing, and w(H - G) larger, so every objective of the floor
w(H - G) // 2k is non-decreasing.  A variable that fails the V1 test
once fails it in every descendant, so a child tests only its parent's
V1 minus x.

When (2k)^2 + 1 >= m every assignment A is emitted, and the sweep
weighs the 2^m cube directly instead of walking.  An A with a 1 has at
most m - 1 <= (2k)^2 zeros, so V0 = zeros(A) is admissible, V1 lies
among A's ones, and one interval over all of V' gives A.  The zero
mask is emitted by V0 = V when (2k)^2 >= m.  At m = (2k)^2 + 1, take
V0_x = V - {x} for a variable x, and G_x the clauses it keeps.  Its
only V1 candidate is x, and G_x[-x] = A_x, the clauses whose only
negated literal is -x.  The sets A_x are disjoint, and A_y lies in
H - G_x for every y != x.  If x is not in V1, V' = {x} and the empty
interval emits the zero mask.  Suppose every x were in V1.  Then each
x has an objective c(x) with 2k * a_x > w_c(H - G_x) >= sum_{y != x} a_y,
where a_y = w_c(A_y).  Let X_c be the x with c(x) = c, and S_c their
sum of a_x: each x in X_c has a_x > 0 and (2k + 1) * a_x > S_c, and
summing over X_c gives |X_c| <= 2k.  With at most 2k objectives, at
most (2k)^2 < m variables could be in V1, a contradiction.

Both the sweep and the 2^m oracle weigh assignments through one clause
table (`_ClauseTable`), in ints packed by `pareto.Packing` under the
objective totals, and take fronts packed.  An assignment satisfies the
clauses its two variable halves do, read from two tables of at most
2^ceil(m/2) entries (Horowitz & Sahni's split, J. ACM 21(2), 1974); its
packed weight is a sum of lookups, eight clauses at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb
from operator import add
from typing import Iterable, Iterator

from .errors import BudgetExceededError, PreconditionError
from .pareto import Packing, SolutionSet, Weight, even_objectives, vec_total

Assignment = tuple[int, ...]

DEFAULT_MAXSAT_BUDGET = 10**9
# `maxsat_oracle` weighs all 2^m assignments
ORACLE_VAR_CAP = 20


def clause_fault(ci: int, clause, weight: Weight, num_vars: int, dim: int) -> str | None:
    """Why clause ci and its weight do not fit a formula over num_vars
    variables with dim objectives, or None; `CnfInstance` and the CNF
    parser check every clause with it."""
    if not clause:
        return f"clause {ci} is empty"
    for lit in clause:
        if lit == 0 or abs(lit) > num_vars:
            return f"clause {ci} has bad literal {lit}"
    if len(weight) != dim:
        return f"weight {ci} has mixed dimension"
    if min(weight) < 0:
        return f"weight {ci} = {weight} is negative"


@dataclass(frozen=True)
class CnfInstance:
    """CNF formula with one weight vector per clause.

    Clauses are frozensets of nonzero DIMACS-style literals (variable
    index 1..num_vars, negative for negation).  Tautological clauses
    (v and -v together) are legal and satisfied by every assignment.
    """

    num_vars: int
    clauses: tuple[frozenset[int], ...]
    weights: tuple[Weight, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise PreconditionError("num_vars must be >= 1")
        if not self.clauses:
            raise PreconditionError("need at least one clause")
        if len(self.clauses) != len(self.weights):
            raise PreconditionError("one weight vector per clause required")
        dim = len(self.weights[0])
        if dim < 1:
            raise PreconditionError("weights need at least one objective")
        for ci, (clause, w) in enumerate(zip(self.clauses, self.weights)):
            if fault := clause_fault(ci, clause, w, self.num_vars, dim):
                raise PreconditionError(fault)

    @property
    def dimension(self) -> int:
        return len(self.weights[0])

    @cached_property
    def _table(self) -> _ClauseTable:
        return _ClauseTable(self)


class _ClauseTable:
    """Packed clause weights and satisfied-clause tables of one instance.

    Assignments are masks with bit j-1 holding variable j; clause sets
    are ints with bit i holding clause i.  The low `low_bits` variables
    index `lo`, the others index `hi`, and an assignment a satisfies the
    clause set ``lo[a & low_mask] | hi[a >> low_bits]``.
    """

    def __init__(self, inst: CnfInstance):
        m = inst.num_vars
        self.packing = Packing(vec_total(inst.weights, inst.dimension))
        # clauses holding literal j+1 / -(j+1)
        self.pos_clauses = [0] * m
        self.neg_clauses = [0] * m
        for ci, clause in enumerate(inst.clauses):
            for lit in clause:
                if lit > 0:
                    self.pos_clauses[lit - 1] |= 1 << ci
                else:
                    self.neg_clauses[-lit - 1] |= 1 << ci
        self.all_clauses = (1 << len(inst.clauses)) - 1
        self.low_bits = m // 2
        self.low_mask = (1 << self.low_bits) - 1
        self.lo = self._half(range(self.low_bits))
        self.hi = self._half(range(self.low_bits, m))
        # chunk t maps the satisfied subset of clauses 8t..8t+7 to its packed weight
        self.chunks = []
        for start in range(0, len(inst.clauses), 8):
            sums = [0]
            for w in inst.weights[start : start + 8]:
                packed = self.packing.pack(w)
                sums += [s + packed for s in sums]
            self.chunks.append(sums)

    def _half(self, bits: range) -> list[int]:
        # index bit b (counted from the half's first bit) sets its variable to 1
        table = [0]
        for j in bits:
            table = [t | self.neg_clauses[j] for t in table] + [
                t | self.pos_clauses[j] for t in table
            ]
        return table

    def satisfied(self, masks: Iterable[int]) -> list[int]:
        """Satisfied-clause set of each assignment mask."""
        lo, hi, low_mask, low_bits = self.lo, self.hi, self.low_mask, self.low_bits
        return [lo[a & low_mask] | hi[a >> low_bits] for a in masks]

    def weigh(self, clause_sets: list[int]) -> list[int]:
        """Packed weight of each clause set."""
        first, *rest = self.chunks
        total = [first[s & 255] for s in clause_sets]
        for t, sums in enumerate(rest, start=1):
            shift = 8 * t
            total = list(map(add, total, [sums[(s >> shift) & 255] for s in clause_sets]))
        return total


def _v1(table: _ClauseTable, discarded: int, two_k: int, candidates: int) -> int:
    """The V1 mask: each variable of the `candidates` mask whose negated
    occurrences in G weigh more than w(H - G) / 2k in some objective,
    G being the clauses outside the `discarded` set."""
    if not candidates:
        return 0
    g_set = table.all_clauses & ~discarded
    bits, negs = [], [discarded]
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        neg = table.neg_clauses[bit.bit_length() - 1] & g_set
        if neg:
            bits.append(bit)
            negs.append(neg)
    rest, *neg_weights = table.weigh(negs)
    # 2k * w > r  <=>  w > r // 2k, so v stays out of V1 iff its
    # negative weight is within the per-objective floors
    packing = table.packing
    floors = packing.pack([r // two_k for r in packing.unpack(rest)])
    v1 = 0
    for bit, packed in zip(bits, neg_weights):
        if not packing.within(packed, floors):
            v1 |= bit
    return v1


def _walk(table: _ClauseTable, m: int, two_k: int) -> Iterator[tuple[int, int]]:
    """(V0 mask, V1 mask) for every V0 of at most min((2k)^2, m) variables,
    depth-first in lexicographic order of V0's sorted tuple; a child
    V0 + {x}, x above V0's largest variable, tests only its parent's V1
    minus x (see the module docstring)."""
    cap = min(two_k * two_k, m)
    neg_clauses = table.neg_clauses
    # (V0, discarded clauses, V1 candidates, lowest bit index a child may add)
    stack = [(0, 0, (1 << m) - 1, 0)]
    while stack:
        v0, discarded, candidates, first = stack.pop()
        v1 = _v1(table, discarded, two_k, candidates)
        yield v0, v1
        if v0.bit_count() < cap:
            # pushed in reverse, so the smallest x is walked first
            for x in range(m - 1, first - 1, -1):
                bit = 1 << x
                stack.append((v0 | bit, discarded | neg_clauses[x], v1 & ~bit, x + 1))


def maxsat_scan_estimate(num_vars: int, two_k: int) -> int:
    """Upper bound on the masks the sweep emits, used by the budget guard.

    There is one state per V0 of size s at most (2k)^2, and such a state
    has at most m - s interval variables.  Each mask it emits is given
    by a sorted tuple of 2k cut points over 0..|V'|, and there are
    C(|V'| + 2k, 2k) of those.
    """
    return sum(
        comb(num_vars, s) * comb(num_vars - s + two_k, two_k)
        for s in range(min(two_k * two_k, num_vars) + 1)
    )


def _emit_masks(base: int, free: int, half_k: int) -> set[int]:
    """`base` OR-ed with every union of k intervals of the `free` mask's
    variables, taken in ascending order."""
    cum = [0]
    while free:
        bit = free & -free
        free ^= bit
        cum.append(cum[-1] | bit)
    # the half-open interval of V' indices p..q-1, empty when p == q
    cuts = combinations_with_replacement(range(len(cum)), 2)
    intervals = {cum[q] ^ cum[p] for p, q in cuts}
    # OR-ing k intervals, deduplicated after each; any k of them unite to
    # at most k sorted disjoint ones, padded with empty ones
    out = {base}
    for _ in range(half_k):
        out = {mask | iv for mask in out for iv in intervals}
    return out


def maxsat_approx(inst: CnfInstance, *, budget: int | None = None) -> SolutionSet:
    """Deduplicated, Pareto-filtered sweep of the interval assignments.

    Instances whose `maxsat_scan_estimate` exceeds the budget are
    refused up front with the largest admissible variable count.
    """
    if budget is None:
        budget = DEFAULT_MAXSAT_BUDGET
    m = inst.num_vars
    two_k = even_objectives(inst.dimension)
    estimate = maxsat_scan_estimate(m, two_k)
    if estimate > budget:
        limit = 0
        while maxsat_scan_estimate(limit + 1, two_k) <= budget:
            limit += 1
        raise BudgetExceededError(
            f"scan of ~{estimate} assignments exceeds budget {budget}; "
            f"at most {limit} variables fit this budget at {two_k} objectives"
        )

    table = inst._table
    if two_k * two_k + 1 >= m:
        # the walk would emit every assignment (see the module docstring)
        masks: Iterable[int] = range(1 << m)
    else:
        full = (1 << m) - 1
        masks = set()
        for v0, v1 in _walk(table, m, two_k):
            masks |= _emit_masks(v1, full & ~(v0 | v1), two_k // 2)

    order = list(masks)
    by_weight: dict[int, list[int]] = {}
    for mask, packed in zip(order, table.weigh(table.satisfied(order))):
        by_weight.setdefault(packed, []).append(mask)
    packing = table.packing
    return SolutionSet.build(
        (tuple((mask >> j) & 1 for j in range(m)), packing.unpack(p))
        for p in packing.front(by_weight)
        for mask in by_weight[p]
    )


def maxsat_oracle(inst: CnfInstance) -> SolutionSet:
    """Exact Pareto front over all 2^m assignments.

    Returns one witness per nondominated weight, the lexicographically
    smallest assignment tuple.
    """
    m = inst.num_vars
    if m > ORACLE_VAR_CAP:
        raise BudgetExceededError(f"oracle refuses {m} variables (cap {ORACLE_VAR_CAP})")
    table = inst._table
    # Variable 1 comes first in tuple order but sits at bit 0 of a mask,
    # so walking each half in bit-reversed index order, the first half
    # outside, visits the assignment tuples in ascending order.
    inner_bits = m - table.low_bits
    outer = [table.lo[x] for x in _bit_reversed(table.low_bits)]
    inner = [table.hi[y] for y in _bit_reversed(inner_bits)]
    best: dict[int, int] = {}
    for i, sat in enumerate(outer):
        row = table.weigh([sat | s for s in inner])
        for j, packed in enumerate(row):
            if packed not in best:
                best[packed] = (i << inner_bits) | j
    return SolutionSet.build(
        (tuple((best[p] >> (m - 1 - j)) & 1 for j in range(m)), table.packing.unpack(p))
        for p in table.packing.front(best)
    )


def _bit_reversed(bits: int) -> list[int]:
    """range(2^bits) with each index's bits read in reverse."""
    order = [0]
    for _ in range(bits):
        order = [2 * r for r in order] + [2 * r + 1 for r in order]
    return order


__all__ = [
    "Assignment",
    "CnfInstance",
    "clause_fault",
    "maxsat_approx",
    "maxsat_oracle",
    "maxsat_scan_estimate",
]
