"""Objective vectors, Pareto dominance, and alpha-cover certificates.

Weight vectors are plain tuples of ints, one component per objective.
All arithmetic stays in exact integers and approximation factors are
`fractions.Fraction` values, so a threshold like 1/2 can never be blurred
by floating point: the cover test ``alpha * opt <= out`` is evaluated as
``num * opt <= den * out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator

from .errors import DimensionMismatchError, PreconditionError

Weight = tuple[int, ...]
Entry = tuple[Any, Weight]


def _require_same_dim(a: Weight, b: Weight) -> None:
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"cannot compare vectors of dimension {len(a)} and {len(b)}"
        )


def vec_add(a: Weight, b: Weight) -> Weight:
    _require_same_dim(a, b)
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Weight, b: Weight) -> Weight:
    _require_same_dim(a, b)
    return tuple(x - y for x, y in zip(a, b))


def vec_total(vectors: Iterable[Weight], dim: int) -> Weight:
    total = [0] * dim
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError(f"expected dimension {dim}, got {len(v)}")
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def even_objectives(dim: int) -> int:
    """2k, the objective count both sweeps use; an odd dim gains a zero one."""
    return dim + (dim % 2)


@dataclass(frozen=True)
class SolutionSet:
    """Ordered collection of (solution, weight) pairs.

    Solutions are canonical encodings -- bit tuples for assignments,
    sorted tuples of directed edges for matchings and tours -- so entries
    can be hashed and compared.  Canonical order is lexicographic by
    weight with ties broken by the encoding; no two entries share an
    encoding.  Distinct solutions with equal weights are all legal
    members since neither dominates the other.
    """

    entries: tuple[Entry, ...] = ()

    @classmethod
    def build(cls, pairs: Iterable[Entry]) -> "SolutionSet":
        by_solution: dict[Any, Weight] = {}
        for solution, weight in pairs:
            weight = tuple(weight)
            known = by_solution.get(solution)
            if known is not None and known != weight:
                raise PreconditionError(
                    f"solution {solution!r} listed with weights {known} and {weight}"
                )
            by_solution[solution] = weight
        ordered = sorted((w, s) for s, w in by_solution.items())
        # from lists, here and in `weights`: tuple(generator) leaves spares on CPython's free lists
        return cls(tuple([(s, w) for w, s in ordered]))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def weights(self) -> tuple[Weight, ...]:
        return tuple([w for _, w in self.entries])


class Packing:
    """Weight vectors packed into single ints, and their Pareto front.

    Objective c sits in the field at bit c * width, width being one bit
    more than the bit length of the largest per-objective bound.  A field
    of any sum of vectors within the bounds holds at most its bound, so
    it never carries into the next: adding packed ints adds vectors.  The
    spare top bit, the guard bit, lets `within` compare fields with one
    subtraction: no field borrows from the next, and a guard bit survives
    exactly when its field is in bounds.  Fronts are taken on packed
    ints, so only front weights need unpacking.  Both MaxSAT passes, the
    matching DP and both MaxATSP passes weigh this way.
    """

    def __init__(self, bounds: Weight):
        width = max(bounds).bit_length() + 1
        self.shifts = tuple(range(0, width * len(bounds), width))
        self.field_mask = (1 << width) - 1
        self.guards = sum(1 << (s + width - 1) for s in self.shifts)

    def pack(self, w: Iterable[int]) -> int:
        return sum(c << s for c, s in zip(w, self.shifts))

    def unpack(self, packed: int) -> Weight:
        return tuple([(packed >> s) & self.field_mask for s in self.shifts])

    def within(self, packed: int, bound: int) -> bool:
        """Whether every field of `packed` is at most that of `bound`."""
        return ((bound | self.guards) - packed) & self.guards == self.guards

    def front(self, distinct: Iterable[int]) -> list[int]:
        """The nondominated members of distinct packed vectors, descending.
        Kung, Luccio & Preparata (1975): whatever dominates p sorts before
        it, and a front member dominates any dominated dominator."""
        ordered = sorted(distinct, reverse=True)
        if len(self.shifts) <= 2:
            # a vector survives iff its low field beats all above it
            fm, best, kept = self.field_mask, -1, []
            for p in ordered:
                if p & fm > best:
                    kept.append(p)
                    best = p & fm
            return kept
        guards = self.guards
        raised: list[int] = []  # the front so far, guard bits set
        for p in ordered:
            for r in raised:
                if (r - p) & guards == guards:
                    break
            else:
                raised.append(p | guards)
        return [r ^ guards for r in raised]


class PackedFront:
    """The front of packed weights offered one at a time, with the items of
    each front weight; a weight's items go once another one dominates it.
    At any objective count an offer is compared with the members through
    guard bits, as in `within`: first with the member that last dominated
    an offer, then with all of them.  An offer none dominates evicts the
    members it dominates."""

    def __init__(self, packing: Packing):
        self.packing = packing
        self.items: dict[int, list] = {}  # front weight -> its items
        self._dominator: int | None = None  # the member that last dominated

    def offer(self, p: int, item: Any) -> None:
        """Keep item under weight p unless a member dominates p."""
        items = self.items
        if p in items:  # a tie: equal weights never dominate each other
            items[p].append(item)
            return
        guards = self.packing.guards
        q = self._dominator
        if q in items and ((q | guards) - p) & guards == guards:
            return
        for q in items:
            if ((q | guards) - p) & guards == guards:
                self._dominator = q
                return
        for q in [q for q in items if ((p | guards) - q) & guards == guards]:
            del items[q]
        items[p] = [item]


def covers(candidate: Weight, reference: Weight, alpha: Fraction) -> bool:
    """True iff candidate alpha-approximates reference in every objective."""
    _require_same_dim(candidate, reference)
    num, den = alpha.numerator, alpha.denominator
    return all(den * c >= num * r for c, r in zip(candidate, reference))


def cover_ratio(candidate: Weight, reference: Weight) -> Fraction | None:
    """min over objectives of candidate_i / reference_i, exactly.

    Components where the reference is 0 impose no constraint; if that is
    every component, the ratio is unbounded and None is returned.
    """
    _require_same_dim(candidate, reference)
    ratios = [Fraction(c, r) for c, r in zip(candidate, reference) if r > 0]
    return min(ratios) if ratios else None


@dataclass(frozen=True)
class ApproxCertificate:
    """Outcome of checking that `candidates` alpha-covers `reference`.

    On success, each pair (i, j) maps reference entry i to the first
    candidate j (in canonical order) whose weight covers it.  On failure,
    `uncovered` is the index of the first reference entry left uncovered
    and `pairs` holds the entries covered before it.
    """

    ok: bool
    alpha: Fraction
    candidates: SolutionSet
    reference: SolutionSet
    pairs: tuple[tuple[int, int], ...] = ()
    uncovered: int | None = None

    def cover_ratios(self) -> tuple[Fraction | None, ...]:
        return tuple(
            cover_ratio(
                self.candidates.entries[j][1], self.reference.entries[i][1]
            )
            for i, j in self.pairs
        )

    def uncovered_entry(self) -> Entry | None:
        if self.uncovered is None:
            return None
        return self.reference.entries[self.uncovered]


def is_alpha_approx_set(
    candidates: SolutionSet, reference: SolutionSet, alpha: Fraction | str
) -> ApproxCertificate:
    """Certificate that every reference entry is alpha-covered by a candidate.

    Failure is reported in the certificate, not raised.
    """
    try:
        alpha = Fraction(alpha)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"cannot parse alpha {alpha!r}") from None
    if not 0 < alpha <= 1:
        raise PreconditionError(f"alpha must be in (0, 1], got {alpha}")
    pairs: list[tuple[int, int]] = []
    for i, (_, ref_w) in enumerate(reference.entries):
        for j, (_, cand_w) in enumerate(candidates.entries):
            if covers(cand_w, ref_w, alpha):
                pairs.append((i, j))
                break
        else:
            return ApproxCertificate(False, alpha, candidates, reference, tuple(pairs), i)
    return ApproxCertificate(True, alpha, candidates, reference, tuple(pairs), None)
