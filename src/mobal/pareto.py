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
from operator import ge
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
        return cls(tuple((s, w) for w, s in ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def weights(self) -> tuple[Weight, ...]:
        return tuple(w for _, w in self.entries)

    def dimension(self) -> int | None:
        return len(self.entries[0][1]) if self.entries else None


def nondominated(weights: Iterable[Weight]) -> set[Weight]:
    """The nondominated members of a collection of weight vectors."""
    distinct = list(set(weights))
    if not distinct:
        return set()
    dim = len(distinct[0])
    for w in distinct:
        if len(w) != dim:
            raise DimensionMismatchError("mixed dimensions in weight collection")
    if dim == 1:
        return {max(distinct)}
    if dim == 2:
        # Descending sweep: a vector survives iff its second component
        # beats everything with a lexicographically larger weight.
        distinct.sort(reverse=True)
        front: set[Weight] = set()
        best: int | None = None
        for w in distinct:
            if best is None or w[1] > best:
                front.add(w)
                best = w[1]
        return front
    # Descending lexicographic sweep (Kung, Luccio & Preparata 1975):
    # whatever dominates w sorts before it, and a dominated dominator is
    # itself dominated by a front member, so checking the front suffices.
    distinct.sort(reverse=True)
    kept: list[Weight] = []
    for w in distinct:
        for v in kept:
            if all(map(ge, v, w)):
                break
        else:
            kept.append(w)
    return set(kept)


def pareto_front_witnesses(pairs: Iterable[Entry]) -> SolutionSet:
    """One canonical witness per nondominated weight.

    Streaming reduction used by the brute-force oracles: solutions tied
    on weight collapse to the smallest encoding, then dominated weights
    are dropped.
    """
    best: dict[Weight, Any] = {}
    for solution, weight in pairs:
        weight = tuple(weight)
        current = best.get(weight)
        if current is None or solution < current:
            best[weight] = solution
    front = nondominated(best.keys())
    return SolutionSet.build((best[w], w) for w in front)


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
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise PreconditionError(f"alpha must be in (0, 1], got {alpha}")
    pairs: list[tuple[int, int]] = []
    for i, (_, ref_w) in enumerate(reference.entries):
        for j, (_, cand_w) in enumerate(candidates.entries):
            if covers(cand_w, ref_w, alpha):
                pairs.append((i, j))
                break
        else:
            return ApproxCertificate(
                False, alpha, candidates, reference, tuple(pairs), i
            )
    return ApproxCertificate(True, alpha, candidates, reference, tuple(pairs), None)
