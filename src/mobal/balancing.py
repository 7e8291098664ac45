"""Balanced interval selections over paired integer vector sequences.

Given sequences x_1..x_m and y_1..y_m of 2n-dimensional integer vectors,
a union I of at most n index intervals can always be chosen so that
summing x inside I and y outside I lands close to half of the grand total
sum(x_i + y_i) in every component simultaneously.  Three variants:

* paired        -- 0 <= x_i, y_i <= z; half-open intervals {a..b-1};
                   two-sided error of at most 2n*z around half the total.
* integer       -- signed x_i with -z <= x_i <= z; the signed sum
                   sum_in(x) - sum_out(x) = 2 sum_in(x) - sum(x) stays
                   within 4n*z: the paired scan's doubled check
                   2S - T with y = 0.
* combinatorial -- arbitrary nonnegative x_i, y_i; at most n closed,
                   disjoint, nonempty intervals plus the boundary
                   correction sum_j y_{b_j}; one-sided bound of half the
                   grand total.

A satisfying family exists for every input meeting the preconditions, so
each search scans endpoint tuples in lexicographic order and returns the
first hit; running off the end of the scan indicates a defect and raises
SearchInvariantError.  Each scan reads one doubled prefix of x - y per
component, one lookup per cut point.  All sums use Python integers, so
componentwise totals of m*z cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement
from operator import gt, sub
from typing import Iterator

from .errors import PreconditionError, SearchInvariantError
from .pareto import Weight, vec_add, vec_sub, vec_total

PAIRED = "paired"
INTEGER = "integer"
COMBINATORIAL = "combinatorial"
# the sequences each variant reads besides x, in file order
CARRIES = {PAIRED: ("y", "z"), INTEGER: ("z",), COMBINATORIAL: ("y",)}
VARIANTS = tuple(CARRIES)


@dataclass(frozen=True)
class IntervalFamily:
    """Index intervals over {1..m}, stored as (a, b) pairs.

    The paired and integer variants read (a, b) as the half-open index set
    {a, .., b-1} (empty when a == b); the combinatorial variant reads it
    as the closed set {a, .., b} and additionally keeps b_j < a_{j+1}.
    """

    intervals: tuple[tuple[int, int], ...]
    m: int


@dataclass(frozen=True)
class BalancingInstance:
    """Input sequences for one balancing run.

    All vectors share the even dimension 2n; a variant reads `y` and
    `z` only where CARRIES names them.
    """

    x: tuple[Weight, ...]
    y: tuple[Weight, ...] | None = None
    z: Weight | None = None

    def __post_init__(self):
        if not self.x:
            raise PreconditionError("need at least one x vector (m >= 1)")
        dim = len(self.x[0])
        if dim == 0 or dim % 2:
            raise PreconditionError(f"vector dimension must be even >= 2, got {dim}")
        for seq in (self.x, self.y or ()):
            for v in seq:
                if len(v) != dim:
                    raise PreconditionError("mixed vector dimensions")
        if self.y is not None and len(self.y) != len(self.x):
            raise PreconditionError("x and y must have the same length")
        if self.z is not None and len(self.z) != dim:
            raise PreconditionError("z dimension mismatch")

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def dimension(self) -> int:
        return len(self.x[0])

    @property
    def n(self) -> int:
        return self.dimension // 2


@dataclass(frozen=True)
class BalanceResult:
    """A found family together with the sums it realizes.

    `correction` is the boundary term sum_j y_{b_j} of the combinatorial
    variant and the zero vector otherwise; all three sums are
    recomputable from the instance and the family alone.
    """

    family: IntervalFamily
    in_sum: Weight
    out_sum: Weight
    correction: Weight


def _diff_prefix(inst: BalancingInstance) -> list[list[int]]:
    """The doubled prefix pre[c][i] = 2 * sum_{i' <= i} (x - y)_{i'}[c],
    y read as 0 when absent, so pre[c][m] = 2 * (sum x - sum y)[c]."""
    y = inst.y or ((0,) * inst.dimension,) * inst.m
    return [
        [2 * s for s in accumulate(map(sub, xc, yc), initial=0)]
        for xc, yc in zip(zip(*inst.x), zip(*y))
    ]


def _check_present(inst: BalancingInstance, variant: str) -> None:
    """Refuse a variant CARRIES lacks, or an instance lacking its sequences."""
    if variant not in CARRIES:
        raise PreconditionError(f"unknown variant {variant!r}")
    for name in CARRIES[variant]:
        if getattr(inst, name) is None:
            raise PreconditionError(f"{variant} balancing needs {name}")


def precondition_faults(inst: BalancingInstance, variant: str) -> Iterator[tuple[int, str]]:
    """Each vector breaking the variant's precondition, as (row, message).

    Rows count in file order: x_1..x_m, then y_1..y_m, then z; a
    negative z comes first.  A missing y or z raises at once.
    """
    _check_present(inst, variant)
    z = inst.z
    rows = inst.x + (inst.y or ())
    if "z" in CARRIES[variant] and min(z) < 0:
        yield len(rows), "z must be nonnegative"
    for row, v in enumerate(rows):
        if variant == INTEGER:
            fault = any(map(gt, map(abs, v), z)) and f"outside the band [-z, z], z = {z}"
        elif min(v) < 0:
            fault = "has a negative component"
        else:
            fault = variant == PAIRED and any(map(gt, v, z)) and f"exceeds the bound z = {z}"
        if fault:
            m = inst.m
            yield row, (f"x[{row}]" if row < m else f"y[{row - m}]") + f" = {v} {fault}"


def _require(inst: BalancingInstance, variant: str) -> None:
    for _, message in precondition_faults(inst, variant):
        raise PreconditionError(message)


def _sums(
    x: tuple[Weight, ...], y: tuple[Weight, ...], intervals, closed: bool
) -> tuple[Weight, Weight, Weight]:
    """x summed inside the family, y outside it, and the correction
    sum_j y_{b_j}, which is zero unless the intervals are `closed`."""
    dim = len(x[0])
    inside = {i for a, b in intervals for i in range(a, b + 1 if closed else b)}
    in_sum = vec_total((v for i, v in enumerate(x, 1) if i in inside), dim)
    out_sum = vec_total((v for i, v in enumerate(y, 1) if i not in inside), dim)
    ends = [y[b - 1] for _, b in intervals] if closed else []
    return in_sum, out_sum, vec_total(ends, dim)


def _half_open_scan(inst: BalancingInstance) -> BalanceResult:
    """First sorted 1 <= a_1 <= b_1 <= ... <= a_n <= b_n <= m, in
    lexicographic order, with |sum y - sum x + sum_j (pre[b_j - 1] -
    pre[a_j - 1])| <= 4nz componentwise; without y, out_sum adds up x."""
    m, n = inst.m, inst.n
    pre = _diff_prefix(inst)
    rows = [(p, -p[m] // 2, 4 * n * b) for p, b in zip(pre, inst.z)]
    cuts = range(0, 2 * n, 2)
    # each cut point t[j] is one below its index, so pre[t[j]] is pre[a - 1]
    for t in combinations_with_replacement(range(m), 2 * n):
        for p, acc, lim in rows:
            for j in cuts:
                acc += p[t[j + 1]] - p[t[j]]
            if abs(acc) > lim:
                break
        else:
            intervals = tuple((t[j] + 1, t[j + 1] + 1) for j in cuts)
            family = IntervalFamily(intervals, m)
            return BalanceResult(family, *_sums(inst.x, inst.y or inst.x, intervals, False))
    raise SearchInvariantError(
        "half-open balancing scan exhausted although a family must exist"
    )


def balance_paired(inst: BalancingInstance) -> BalanceResult:
    """First half-open family whose mixed sum is within 2n*z of half the total.

    Checked in doubled integers: with S the mixed sum and T the grand
    total, 2S - T = sum y - sum x + sum_j (pre[b_j - 1] - pre[a_j - 1])
    on the doubled x - y prefix, and |2S - T| <= 4nz componentwise.
    """
    _require(inst, PAIRED)
    return _half_open_scan(inst)


def balance_integer(x: tuple[Weight, ...], z: Weight) -> BalanceResult:
    """First half-open family whose signed sum in - out is within 4n*z.

    The paired scan with y = 0: on the doubled prefix of x, in - out =
    2 sum_I x - sum x = sum_j (pre[b_j - 1] - pre[a_j - 1]) - sum x.
    in_sum/out_sum are the sums of x inside and outside the family.
    """
    inst = BalancingInstance(x=x, z=z)
    _require(inst, INTEGER)
    return _half_open_scan(inst)


def balance_combinatorial(inst: BalancingInstance) -> BalanceResult:
    """Closed disjoint intervals with boundary correction, one-sided bound.

    Finds the smallest interval count n' in {0..min(n, m)} and, within
    it, the lexicographically first endpoint tuple such that
    sum_j y_{b_j} + sum_{i in I} x_i + sum_{i not in I} y_i is at least
    half the grand total, componentwise: doubled, minus the total, that
    is sum y - sum x + sum_j (ends[b_j] - pre[a_j - 1]) >= 0 on the
    doubled x - y prefix and its boundary row.  The families
    1 <= a_1 <= b_1 < a_2 <= ... <= b_n' <= m are the sorted 2n'-tuples
    over 1..m-n'+1 with interval j (counted from 0) moved up by j, in
    the same order.
    """
    _require(inst, COMBINATORIAL)
    m, n = inst.m, inst.n
    pre = _diff_prefix(inst)
    # the boundary row ends[b] = pre[b] + 2 y_b = pre[b - 1] + 2 x_b
    ends = (
        [0, *(p + 2 * a for p, a in zip(pc, xc))] for pc, xc in zip(pre, zip(*inst.x))
    )
    rows = [(p, e, -p[m] // 2) for p, e in zip(pre, ends)]
    for nprime in range(0, min(n, m) + 1):
        cuts = range(nprime)
        for t in combinations_with_replacement(range(1, m - nprime + 2), 2 * nprime):
            for p, e, acc in rows:
                for j in cuts:
                    acc += e[t[2 * j + 1] + j] - p[t[2 * j] + j - 1]
                if acc < 0:
                    break
            else:
                intervals = tuple((t[2 * j] + j, t[2 * j + 1] + j) for j in cuts)
                family = IntervalFamily(intervals, m)
                return BalanceResult(family, *_sums(inst.x, inst.y, intervals, True))
    raise SearchInvariantError(
        "combinatorial balancing scan exhausted although a family must exist"
    )


def _check_family_shape(
    family: IntervalFamily, m: int, n: int, variant: str
) -> None:
    if family.m != m:
        raise PreconditionError(f"family covers m={family.m}, instance has m={m}")
    prev_b = None
    for a, b in family.intervals:
        if not (1 <= a <= m and 1 <= b <= m and a <= b):
            raise PreconditionError(f"interval ({a}, {b}) malformed for m={m}")
        if prev_b is not None:
            if variant == COMBINATORIAL and a <= prev_b:
                raise PreconditionError("combinatorial intervals must satisfy b_j < a_{j+1}")
            if a < prev_b:
                raise PreconditionError("intervals must be sorted with b_j <= a_{j+1}")
        prev_b = b
    cap = min(n, m) if variant == COMBINATORIAL else n
    if len(family.intervals) > cap:
        raise PreconditionError(
            f"{len(family.intervals)} intervals exceed the cap of {cap} for {variant}"
        )


def balance_deviation(
    inst: BalancingInstance, result: BalanceResult, variant: str
) -> tuple[Weight, Weight | None]:
    """The signed deviation each variant bounds, and its bound.

    With T the grand total sum(x_i + y_i): paired gives 2(in + out) - T
    against 4nz (the mixed sum within 2nz of T/2), integer gives
    in - out against 4nz, and combinatorial gives the slack
    2(correction + in + out) - T, with bound None: it must be >= 0.
    """
    _check_present(inst, variant)
    dim = inst.dimension
    if variant == INTEGER:
        dev = vec_sub(result.in_sum, result.out_sum)
    else:
        total = vec_add(vec_total(inst.x, dim), vec_total(inst.y, dim))
        lhs = vec_add(result.correction, vec_add(result.in_sum, result.out_sum))
        dev = tuple(2 * s - t for s, t in zip(lhs, total))
    if variant == COMBINATORIAL:
        return dev, None
    return dev, tuple(4 * inst.n * b for b in inst.z)


def verify_balance(inst: BalancingInstance, result: BalanceResult, variant: str) -> bool:
    """Recompute the sums with a direct index scan and re-check the bound.

    Shares no state with the searches: membership is re-decided per
    index and the inequality is evaluated from scratch.  A malformed
    family raises; stale result sums or a violated inequality return
    False.
    """
    dev, bound = balance_deviation(inst, result, variant)  # refuses a bad variant
    _check_family_shape(result.family, inst.m, inst.n, variant)
    y = inst.x if variant == INTEGER else inst.y
    sums = _sums(inst.x, y, result.family.intervals, variant == COMBINATORIAL)
    if sums != (result.in_sum, result.out_sum, result.correction):
        return False
    if bound is None:
        return all(d >= 0 for d in dev)
    return all(abs(d) <= b for d, b in zip(dev, bound))
