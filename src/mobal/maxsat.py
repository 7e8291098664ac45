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

Both the sweep and the 2^m oracle weigh assignments through one clause
table (`_ClauseTable`).  Each clause's weight vector is packed into a
single int, objective c in the field at bit c * width, where width is
one bit more than the bit length of the largest objective total.  A
field of any sum of clause weights holds at most that objective's total,
so it never carries into the next field and integer addition of packed
values is exact vector addition; the spare top bit also lets two packed
vectors be compared field by field with one subtraction.  The
satisfied-clause set of an assignment is the union of the sets its two
variable halves satisfy (Horowitz & Sahni's meet-in-the-middle split,
J. ACM 21(2), 1974), read from two tables of at most 2^ceil(m/2)
entries; its packed weight is a sum of lookups, eight clauses at a
time.  Fields are unpacked only for distinct weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import add
from typing import Iterable, Iterator

from .errors import BudgetExceededError, PreconditionError
from .pareto import (
    SolutionSet,
    Weight,
    even_objectives,
    nondominated,
    vec_total,
)

Assignment = tuple[int, ...]

DEFAULT_MAXSAT_BUDGET = 10**9
# `maxsat_oracle` weighs all 2^m assignments
ORACLE_VAR_CAP = 20


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
        for ci, clause in enumerate(self.clauses):
            if not clause:
                raise PreconditionError(f"clause {ci} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise PreconditionError(f"clause {ci} has bad literal {lit}")
        dim = len(self.weights[0])
        if dim < 1:
            raise PreconditionError("weights need at least one objective")
        for ci, w in enumerate(self.weights):
            if len(w) != dim:
                raise PreconditionError(f"weight {ci} has mixed dimension")
            if any(c < 0 for c in w):
                raise PreconditionError(f"weight {ci} = {w} is negative")

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
        m, dim = inst.num_vars, inst.dimension
        # the spare top bit of each field is the guard bit of `within`
        width = max(vec_total(inst.weights, dim)).bit_length() + 1
        self.shifts = tuple(range(0, width * dim, width))
        self.field_mask = (1 << width) - 1
        self.guards = sum(1 << (s + width - 1) for s in self.shifts)
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
                packed = self.pack(w)
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

    def pack(self, w: Weight) -> int:
        return sum(c << s for c, s in zip(w, self.shifts))

    def unpack(self, packed: int) -> Weight:
        fm = self.field_mask
        return tuple([(packed >> s) & fm for s in self.shifts])

    def within(self, packed: int, bound: int) -> bool:
        """Whether every field of `packed` is at most that of `bound`.

        Both must be packed vectors whose fields leave the guard bit
        clear; a field then subtracts without borrowing from the next,
        and its guard bit survives exactly when the field is in bounds.
        """
        return ((bound | self.guards) - packed) & self.guards == self.guards

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


@dataclass(frozen=True)
class SatState:
    """Per-iteration record of one V0 choice; `g` is the clause set G."""

    v0: frozenset[int]
    v1: frozenset[int]
    vprime: frozenset[int]
    g: tuple[int, ...]


def sat_state(inst: CnfInstance, v0: Iterable[int]) -> SatState:
    """G, V1 and V' for a given zero-forced variable set V0."""
    v0 = frozenset(v0)
    if any(v < 1 or v > inst.num_vars for v in v0):
        raise PreconditionError("V0 contains an out-of-range variable")
    two_k = even_objectives(inst.dimension)
    table = inst._table
    # G: the clauses without a negated V0 literal
    discarded = 0
    for v in v0:
        discarded |= table.neg_clauses[v - 1]
    g_set = table.all_clauses & ~discarded
    g = tuple([ci for ci in range(g_set.bit_length()) if g_set >> ci & 1])
    free = [
        v
        for v, neg in enumerate(table.neg_clauses, start=1)
        if v not in v0 and neg & g_set
    ]
    rest, *neg_weights = table.weigh(
        [discarded] + [table.neg_clauses[v - 1] & g_set for v in free]
    )
    # 2k * w > r  <=>  w > r // 2k, so v stays out of V1 iff its
    # negative weight is within the per-objective floors
    floors = table.pack([r // two_k for r in table.unpack(rest)])
    v1 = frozenset(
        v for v, packed in zip(free, neg_weights) if not table.within(packed, floors)
    )
    vprime = frozenset(range(1, inst.num_vars + 1)) - v0 - v1
    return SatState(v0, v1, vprime, g)


def iter_sat_states(inst: CnfInstance) -> Iterator[SatState]:
    """States for every admissible V0, sizes ascending, each size in
    lexicographic variable order."""
    two_k = even_objectives(inst.dimension)
    cap = min(two_k * two_k, inst.num_vars)
    for size in range(cap + 1):
        for v0 in combinations(range(1, inst.num_vars + 1), size):
            yield sat_state(inst, v0)


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


def _emit_masks(state: SatState, half_k: int) -> set[int]:
    base = 0
    for v in state.v1:
        base |= 1 << (v - 1)
    cum = [0]
    for v in sorted(state.vprime):
        cum.append(cum[-1] | (1 << (v - 1)))
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

    masks: set[int] = set()
    for state in iter_sat_states(inst):
        masks |= _emit_masks(state, two_k // 2)

    table = inst._table
    order = list(masks)
    by_weight: dict[int, list[int]] = {}
    for mask, packed in zip(order, table.weigh(table.satisfied(order))):
        by_weight.setdefault(packed, []).append(mask)
    weights = {table.unpack(packed): packed for packed in by_weight}
    return SolutionSet.build(
        (tuple((mask >> j) & 1 for j in range(m)), w)
        for w in nondominated(weights)
        for mask in by_weight[weights[w]]
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
    firsts = {table.unpack(packed): a for packed, a in best.items()}
    return SolutionSet.build(
        (tuple((firsts[w] >> (m - 1 - j)) & 1 for j in range(m)), w)
        for w in nondominated(firsts)
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
    "SatState",
    "iter_sat_states",
    "maxsat_approx",
    "maxsat_oracle",
    "maxsat_scan_estimate",
    "sat_state",
]
