"""Balanced interval selections over paired integer vector sequences.

Given sequences x_1..x_m and y_1..y_m of 2n-dimensional integer vectors,
a union I of at most n index intervals can always be chosen so that
summing x inside I and y outside I lands close to half of the grand total
sum(x_i + y_i) in every component simultaneously.  Three variants:

* paired        -- 0 <= x_i, y_i <= z; half-open intervals {a..b-1};
                   two-sided error of at most 2n*z around half the total.
* integer       -- signed x_i with -z <= x_i <= z; the partition
                   imbalance sum_in(x) - sum_out(x) stays within 4n*z.
                   Realized by the substitution x' = z + x, y' = z - x
                   followed by the paired search.
* combinatorial -- arbitrary nonnegative x_i, y_i; at most n closed,
                   disjoint, nonempty intervals plus the boundary
                   correction sum_j y_{b_j}; one-sided bound of half the
                   grand total.

A satisfying family exists for every input meeting the preconditions, so
each search scans endpoint tuples in lexicographic order and returns the
first hit; running off the end of the scan indicates a defect and raises
SearchInvariantError.  All sums use Python integers, so componentwise
totals of m*z cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import gt
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


def _prefix(seq: tuple[Weight, ...], dim: int) -> list[list[int]]:
    # pre[c][i] = sum of component c over the first i vectors
    pre = [[0] * (len(seq) + 1) for _ in range(dim)]
    for i, v in enumerate(seq):
        for c in range(dim):
            pre[c][i + 1] = pre[c][i] + v[c]
    return pre


def _check_present(inst: BalancingInstance, variant: str) -> None:
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


def balance_paired(inst: BalancingInstance) -> BalanceResult:
    """First half-open family whose mixed sum is within 2n*z of half the total.

    Scans all 1 <= a_1 <= b_1 <= ... <= a_n <= b_n <= m in lexicographic
    order.  The bound is checked in doubled integers: with S the mixed
    sum and T the grand total, -4nz <= 2S - T <= 4nz componentwise.
    """
    _require(inst, PAIRED)
    m, n, dim = inst.m, inst.n, inst.dimension
    pre_x = _prefix(inst.x, dim)
    pre_y = _prefix(inst.y, dim)
    total = [pre_x[c][m] + pre_y[c][m] for c in range(dim)]
    total_y = [pre_y[c][m] for c in range(dim)]
    lim = [4 * n * inst.z[c] for c in range(dim)]

    for t in combinations_with_replacement(range(1, m + 1), 2 * n):
        ok = True
        for c in range(dim):
            px, py = pre_x[c], pre_y[c]
            acc = total_y[c]
            for j in range(0, 2 * n, 2):
                a, b = t[j], t[j + 1]
                acc += px[b - 1] - px[a - 1] - py[b - 1] + py[a - 1]
            d = 2 * acc - total[c]
            if d < -lim[c] or d > lim[c]:
                ok = False
                break
        if ok:
            intervals = tuple((t[j], t[j + 1]) for j in range(0, 2 * n, 2))
            family = IntervalFamily(intervals, m)
            return BalanceResult(family, *_sums(inst.x, inst.y, intervals, False))
    raise SearchInvariantError(
        "paired balancing scan exhausted although a family must exist"
    )


def balance_integer(x: tuple[Weight, ...], z: Weight) -> BalanceResult:
    """Signed balancing through the shift x' = z + x, y' = z - x.

    The returned family keeps the half-open convention; in_sum/out_sum
    are the sums of the original signed x inside and outside, and their
    difference stays within 4n*z componentwise.
    """
    _require(BalancingInstance(x=x, z=z), INTEGER)
    shifted = BalancingInstance(
        x=tuple(vec_add(z, v) for v in x),
        y=tuple(tuple(b - c for c, b in zip(v, z)) for v in x),
        z=vec_add(z, z),
    )
    paired = balance_paired(shifted)
    return BalanceResult(paired.family, *_sums(x, x, paired.family.intervals, False))


def balance_combinatorial(inst: BalancingInstance) -> BalanceResult:
    """Closed disjoint intervals with boundary correction, one-sided bound.

    Finds the smallest interval count n' in {0..min(n, m)} and, within
    it, the lexicographically first endpoint tuple such that
    sum_j y_{b_j} + sum_{i in I} x_i + sum_{i not in I} y_i is at least
    half the grand total, componentwise.  The families
    1 <= a_1 <= b_1 < a_2 <= ... <= b_n' <= m are the sorted 2n'-tuples
    over 1..m-n'+1 with interval j (counted from 0) moved up by j, in
    the same order.
    """
    _require(inst, COMBINATORIAL)
    m, n, dim = inst.m, inst.n, inst.dimension
    pre_x = _prefix(inst.x, dim)
    pre_y = _prefix(inst.y, dim)
    total = [pre_x[c][m] + pre_y[c][m] for c in range(dim)]
    total_y = [pre_y[c][m] for c in range(dim)]

    for nprime in range(0, min(n, m) + 1):
        for t in combinations_with_replacement(range(1, m - nprime + 2), 2 * nprime):
            ok = True
            for c in range(dim):
                px, py = pre_x[c], pre_y[c]
                acc = total_y[c]
                for j in range(nprime):
                    a, b = t[2 * j] + j, t[2 * j + 1] + j
                    # closed interval contribution plus the y_b correction,
                    # which turns py[b] into py[b - 1]
                    acc += px[b] - px[a - 1] - py[b - 1] + py[a - 1]
                if 2 * acc < total[c]:
                    ok = False
                    break
            if ok:
                intervals = tuple((t[2 * j] + j, t[2 * j + 1] + j) for j in range(nprime))
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
    if variant not in VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}")
    _check_present(inst, variant)
    _check_family_shape(result.family, inst.m, inst.n, variant)
    y = inst.x if variant == INTEGER else inst.y
    sums = _sums(inst.x, y, result.family.intervals, variant == COMBINATORIAL)
    if sums != (result.in_sum, result.out_sum, result.correction):
        return False
    dev, bound = balance_deviation(inst, result, variant)
    if bound is None:
        return all(d >= 0 for d in dev)
    return all(abs(d) <= b for d, b in zip(dev, bound))
