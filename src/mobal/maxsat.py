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
  * for the remaining variables V', every combination of k index
    intervals over the V' indices, possibly empty (an interval with
    a_j > b_j selects nothing): interval variables become 1, the rest of
    V' become 0.  With V' empty the forced assignment itself is emitted.

Deduplicated and Pareto-filtered, the emitted assignments contain a
1/2-approximate Pareto set of the instance.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator

from .errors import BudgetExceededError, PreconditionError
from .pareto import (
    SolutionSet,
    Weight,
    pareto_filter,
    pareto_front_witnesses,
    vec_sub,
    vec_total,
)

Assignment = tuple[int, ...]

DEFAULT_MAXSAT_BUDGET = 10**9
BUDGET_ENV_VAR = "MOBAL_BUDGET"


def resolve_budget(budget: int | None, default: int) -> int:
    """`budget` if given, else the MOBAL_BUDGET value, else `default`."""
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return default
    try:
        value = int(env)
        if value < 0:
            raise ValueError
    except ValueError:
        raise PreconditionError(
            f"{BUDGET_ENV_VAR} must be a nonnegative integer, got {env!r}"
        ) from None
    return value


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

    def tautological(self) -> tuple[int, ...]:
        """Indices of clauses containing both a variable and its negation."""
        return tuple(
            ci
            for ci, clause in enumerate(self.clauses)
            if any(-lit in clause for lit in clause)
        )

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # bit j-1 holds variable j
        pos, neg = [], []
        for clause in self.clauses:
            p = n = 0
            for lit in clause:
                if lit > 0:
                    p |= 1 << (lit - 1)
                else:
                    n |= 1 << (-lit - 1)
            pos.append(p)
            neg.append(n)
        return tuple(pos), tuple(neg)


def clause_satisfied(clause: frozenset[int], assignment: Assignment) -> bool:
    return any(
        assignment[lit - 1] == 1 if lit > 0 else assignment[-lit - 1] == 0
        for lit in clause
    )


def assignment_weight(inst: CnfInstance, assignment: Assignment) -> Weight:
    """Sum of the weights of the clauses the assignment satisfies."""
    if len(assignment) != inst.num_vars:
        raise PreconditionError(
            f"assignment length {len(assignment)} != num_vars {inst.num_vars}"
        )
    return vec_total(
        (
            w
            for clause, w in zip(inst.clauses, inst.weights)
            if clause_satisfied(clause, assignment)
        ),
        inst.dimension,
    )


def clause_bucket(
    inst: CnfInstance, literal: int, within: Iterable[int] | None = None
) -> tuple[int, ...]:
    """Indices of the clauses (among `within`, default all) containing `literal`."""
    ids = range(len(inst.clauses)) if within is None else within
    return tuple(ci for ci in ids if literal in inst.clauses[ci])


@dataclass(frozen=True)
class SatState:
    """Per-iteration record of one V0 choice.

    `g` is the clause set G; `gprime` the clauses not yet satisfied by
    the forced assignment but still satisfiable through V' (bookkeeping
    only; the emission loop never reads it).
    """

    v0: frozenset[int]
    v1: frozenset[int]
    vprime: frozenset[int]
    g: tuple[int, ...]
    gprime: tuple[int, ...]


def even_objectives(dim: int) -> int:
    return dim + (dim % 2)


def sat_state(inst: CnfInstance, v0: Iterable[int], two_k: int | None = None) -> SatState:
    """G, V1 and V' for a given zero-forced variable set V0."""
    v0 = frozenset(v0)
    if any(v < 1 or v > inst.num_vars for v in v0):
        raise PreconditionError("V0 contains an out-of-range variable")
    dim = inst.dimension
    if two_k is None:
        two_k = even_objectives(dim)
    g = tuple(
        ci
        for ci, clause in enumerate(inst.clauses)
        if not any(-v in clause for v in v0)
    )
    in_g = set(g)
    rest = vec_sub(
        vec_total(inst.weights, dim),
        vec_total((inst.weights[ci] for ci in g), dim),
    )
    neg_weight: dict[int, list[int]] = {}
    for ci in g:
        w = inst.weights[ci]
        for lit in inst.clauses[ci]:
            if lit < 0:
                acc = neg_weight.setdefault(-lit, [0] * dim)
                for c in range(dim):
                    acc[c] += w[c]
    v1 = frozenset(
        v
        for v in range(1, inst.num_vars + 1)
        if v not in v0
        and v in neg_weight
        and any(two_k * neg_weight[v][c] > rest[c] for c in range(dim))
    )
    vprime = frozenset(
        v for v in range(1, inst.num_vars + 1) if v not in v0 and v not in v1
    )
    gprime = tuple(
        ci
        for ci in g
        if not any(v in inst.clauses[ci] for v in v1)
        and any(v in inst.clauses[ci] or -v in inst.clauses[ci] for v in vprime)
    )
    return SatState(v0, v1, vprime, g, gprime)


def iter_sat_states(inst: CnfInstance, two_k: int | None = None) -> Iterator[SatState]:
    """States for every admissible V0, sizes ascending, each size in
    lexicographic variable order."""
    if two_k is None:
        two_k = even_objectives(inst.dimension)
    cap = min(two_k * two_k, inst.num_vars)
    for size in range(cap + 1):
        for v0 in combinations(range(1, inst.num_vars + 1), size):
            yield sat_state(inst, v0, two_k)


def maxsat_scan_estimate(num_vars: int, two_k: int) -> int:
    """Crude emission-count bound used by the budget guard."""
    return num_vars ** (two_k * two_k + two_k)


def _emit_masks(state: SatState, half_k: int) -> set[int]:
    base = 0
    for v in state.v1:
        base |= 1 << (v - 1)
    idxs = sorted(state.vprime)
    if not idxs:
        # the single combination of k empty intervals
        return {base}
    cum = [0]
    for v in idxs:
        cum.append(cum[-1] | (1 << (v - 1)))
    size = len(idxs)
    # one mask per endpoint pair (a, b) = (idxs[p], idxs[q]); p > q is empty
    pair_masks = [
        cum[q + 1] ^ cum[p] if p <= q else 0
        for p in range(size)
        for q in range(size)
    ]
    if 0 not in pair_masks:
        # a single interval variable admits no a > b tuple, yet the empty
        # interval is still one of the combinations to realize
        pair_masks.append(0)
    out = set()
    for combo in product(pair_masks, repeat=half_k):
        mask = base
        for pm in combo:
            mask |= pm
        out.add(mask)
    return out


def maxsat_approx(
    inst: CnfInstance, *, budget: int | None = None, threads: int = 1
) -> SolutionSet:
    """Deduplicated, Pareto-filtered sweep of the interval assignments.

    The scan grows like m^((2k)^2 + 2k); instances over the budget are
    refused up front with the largest admissible variable count.
    """
    budget = resolve_budget(budget, DEFAULT_MAXSAT_BUDGET)
    m, dim = inst.num_vars, inst.dimension
    two_k = even_objectives(dim)
    half_k = two_k // 2
    exponent = two_k * two_k + two_k
    estimate = maxsat_scan_estimate(m, two_k)
    if estimate > budget:
        limit = 1
        while (limit + 1) ** exponent <= budget:
            limit += 1
        raise BudgetExceededError(
            f"scan of ~{estimate} assignments exceeds budget {budget}; "
            f"at most {limit} variables fit this budget at {two_k} objectives"
        )

    cap = min(two_k * two_k, m)
    v0_sets = [
        v0
        for size in range(cap + 1)
        for v0 in combinations(range(1, m + 1), size)
    ]

    def run(chunk) -> set[int]:
        masks: set[int] = set()
        for v0 in chunk:
            state = sat_state(inst, v0, two_k)
            masks |= _emit_masks(state, half_k)
        return masks

    if threads > 1:
        chunks = [v0_sets[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
        masks = set().union(*results)
    else:
        masks = run(v0_sets)

    pos, neg = inst._masks
    full = (1 << m) - 1
    entries = []
    for mask in masks:
        flipped = ~mask & full
        w = [0] * dim
        for p, n, cw in zip(pos, neg, inst.weights):
            if (p & mask) or (n & flipped):
                for c in range(dim):
                    w[c] += cw[c]
        assignment = tuple((mask >> j) & 1 for j in range(m))
        entries.append((assignment, tuple(w)))
    return pareto_filter(SolutionSet.build(entries))


def maxsat_oracle(inst: CnfInstance, cap: int = 20) -> SolutionSet:
    """Exact Pareto front over all 2^m assignments.

    Returns one witness per nondominated weight, the lexicographically
    smallest assignment tuple.
    """
    m, dim = inst.num_vars, inst.dimension
    if m > cap:
        raise BudgetExceededError(f"oracle refuses {m} variables (cap {cap})")
    # encode variable j at bit m - j so that integer order is tuple order
    pos, neg = [], []
    for clause in inst.clauses:
        p = n = 0
        for lit in clause:
            if lit > 0:
                p |= 1 << (m - lit)
            else:
                n |= 1 << (m + lit)
        pos.append(p)
        neg.append(n)
    full = (1 << m) - 1
    weights = inst.weights
    best: dict[Weight, int] = {}
    for a in range(1 << m):
        flipped = ~a & full
        w = [0] * dim
        for p, n, cw in zip(pos, neg, weights):
            if (p & a) or (n & flipped):
                for c in range(dim):
                    w[c] += cw[c]
        key = tuple(w)
        if key not in best:
            best[key] = a
    return pareto_front_witnesses(
        (tuple((a >> (m - 1 - j)) & 1 for j in range(m)), w)
        for w, a in best.items()
    )


def zero_weight_padding(inst: CnfInstance) -> CnfInstance:
    """The same formula with one all-zero objective appended (odd k helper)."""
    return CnfInstance(
        inst.num_vars,
        inst.clauses,
        tuple(w + (0,) for w in inst.weights),
    )


__all__ = [
    "Assignment",
    "CnfInstance",
    "SatState",
    "assignment_weight",
    "clause_bucket",
    "clause_satisfied",
    "even_objectives",
    "iter_sat_states",
    "maxsat_approx",
    "maxsat_oracle",
    "maxsat_scan_estimate",
    "sat_state",
    "zero_weight_padding",
]
