import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    naive_dominates,
    naive_pareto_entries,
    nondominated,
    pareto_filter,
    pareto_front_witnesses,
)
from mobal.errors import DimensionMismatchError, PreconditionError
from mobal.pareto import (
    PackedFront,
    Packing,
    SolutionSet,
    cover_ratio,
    covers,
    is_alpha_approx_set,
)
from mobal.rng import SplitMix64

vec3 = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
# dims 3 and 4 over a small range, so ties and repeated points are common
small_weight_lists = st.integers(3, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(0, 5)] * d), max_size=40)
)


def test_dominates_examples():
    # dominance is strict and componentwise; the tests' `nondominated`
    # defines it for tuples, as `Packing.front` does for packed ints
    assert nondominated([(3, 2), (3, 2)]) == {(3, 2)}
    assert nondominated([(4, 2), (3, 2)]) == {(4, 2)}
    assert nondominated([(4, 1), (3, 2)]) == {(4, 1), (3, 2)}


def test_dominates_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        nondominated([(1, 2), (1, 2, 3)])


def _solset(weights):
    return SolutionSet.build(((i,), w) for i, w in enumerate(weights))


def test_pareto_filter_examples():
    out = pareto_filter(_solset([(1, 2), (2, 1), (1, 1)]))
    assert set(out.weights()) == {(1, 2), (2, 1)}
    single = _solset([(5, 5)])
    assert pareto_filter(single) == single


def test_pareto_filter_matches_quadratic_oracle():
    rng = SplitMix64(2024)
    vectors = [tuple(rng.randint(0, 20) for _ in range(3)) for _ in range(100)]
    s = _solset(vectors)
    expected = SolutionSet(tuple(naive_pareto_entries(list(s.entries))))
    assert pareto_filter(s) == expected


def test_pareto_filter_many_random_dims():
    rng = SplitMix64(77)
    for trial in range(200):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 25)
        vectors = [tuple(rng.randint(0, 8) for _ in range(dim)) for _ in range(count)]
        s = _solset(vectors)
        assert pareto_filter(s).entries == tuple(naive_pareto_entries(list(s.entries)))


weight_sets = st.lists(vec3, min_size=1, max_size=25)


@given(weight_sets)
def test_pareto_filter_idempotent(weights):
    s = _solset(weights)
    once = pareto_filter(s)
    assert pareto_filter(once) == once


@given(weight_sets)
def test_every_entry_kept_or_dominated(weights):
    s = _solset(weights)
    front = pareto_filter(s)
    front_weights = set(front.weights())
    for sol, w in s:
        assert (sol, w) in front.entries or any(
            naive_dominates(fw, w) for fw in front_weights
        )


@given(weight_sets)
@settings(max_examples=50)
def test_alpha_one_self_cover(weights):
    s = _solset(weights)
    cert = is_alpha_approx_set(s, pareto_filter(s), Fraction(1))
    assert cert.ok


def test_equal_weights_both_retained():
    s = SolutionSet.build([("a", (2, 2)), ("b", (2, 2)), ("c", (1, 1))])
    out = pareto_filter(s)
    assert [sol for sol, _ in out] == ["a", "b"]


def test_solution_set_rejects_conflicting_weights():
    with pytest.raises(PreconditionError):
        SolutionSet.build([("a", (1, 2)), ("a", (2, 1))])


def test_solution_set_canonical_order():
    s = SolutionSet.build([("b", (2, 1)), ("a", (1, 2)), ("a", (1, 2))])
    assert s.entries == (("a", (1, 2)), ("b", (2, 1)))


def test_solution_sets_leave_no_spare_tuples_behind():
    # CPython builds tuple(generator) in 10 slots and resizes it; freed, a
    # resized tuple joins the free list of its own size, which keeps up to
    # 2000.  Built so, each set of 15 entries and its weights left two spare
    # 15-slot tuples behind, until the list held 2000 of them (0.35 MB).
    pairs = [((i,), (i, 15 - i)) for i in range(15)]
    SolutionSet.build(pairs).weights()
    tracemalloc.start()
    for _ in range(2000):
        SolutionSet.build(pairs).weights()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert held < 20_000


def test_certificate_identity():
    s = _solset([(1, 2), (2, 1)])
    cert = is_alpha_approx_set(s, s, Fraction(1))
    assert cert.ok
    assert cert.pairs == ((0, 0), (1, 1))


def test_certificate_failure_value():
    cands = SolutionSet.build([("x", (1, 0))])
    refs = SolutionSet.build([("y", (0, 2))])
    cert = is_alpha_approx_set(cands, refs, Fraction(1, 2))
    assert not cert.ok
    assert cert.uncovered == 0
    assert cert.uncovered_entry() == ("y", (0, 2))


def test_alpha_out_of_range():
    s = _solset([(1, 1)])
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2), "abc", "1/0"):
        with pytest.raises(PreconditionError):
            is_alpha_approx_set(s, s, bad)


def test_covers_is_exact_at_half():
    # 2*out >= opt with no float blur: 1 covers 2 at 1/2, 1 does not cover 3
    assert covers((1,), (2,), Fraction(1, 2))
    assert not covers((1,), (3,), Fraction(1, 2))


def test_cover_ratio():
    assert cover_ratio((3, 5), (6, 5)) == Fraction(1, 2)
    assert cover_ratio((3, 5), (0, 0)) is None
    assert cover_ratio((0, 5), (4, 5)) == Fraction(0)


def test_front_witnesses_dedupes_by_weight():
    front = pareto_front_witnesses(
        [("b", (1, 1)), ("a", (1, 1)), ("c", (0, 0))]
    )
    assert front.entries == (("a", (1, 1)),)


@given(small_weight_lists)
def test_nondominated_sweep_matches_all_pairs_definition(weights):
    weights = weights + weights[::2]  # every other point repeated
    distinct = set(weights)
    expected = {
        w for w in distinct if not any(naive_dominates(v, w) for v in distinct)
    }
    assert nondominated(weights) == expected


def packed_front_corpus():
    """Seeded distinct weight lists: dims 1-6, 0-200 weights, bounds
    0/1/2/30.  A coordinate is the bound, 0 or uniform, a third each, so
    every coordinate ties heavily and fields equal to the bound fill a
    field right up to its guard bit; in half the lists the top
    objective is the bound throughout, so the descending order ties in
    the high field."""
    rng = SplitMix64(91_000)
    for dim in range(1, 7):
        for bound in (0, 1, 2, 30):
            for count in (0, 1, 2, 20, 200):
                for top_fixed in (False, True):
                    weights = set()
                    for _ in range(count):
                        w = [(bound, 0, rng.randint(0, bound))[rng.randint(0, 2)] for _ in range(dim)]
                        if top_fixed:
                            w[-1] = bound
                        weights.add(tuple(w))
                    yield (bound,) * dim, weights


def test_packed_front_matches_nondominated():
    cases = 0
    for bounds, weights in packed_front_corpus():
        packing = Packing(bounds)
        packed = {packing.pack(w) for w in weights}
        assert len(packed) == len(weights)
        front = packing.front(packed)
        assert front == sorted(set(front), reverse=True)
        assert {packing.unpack(p) for p in front} == nondominated(weights)
        cases += 1
    assert cases == 6 * 4 * 5 * 2


def test_packed_within_compares_every_field():
    packing = Packing((2, 2, 2))
    for a in ((0, 0, 0), (2, 2, 2), (2, 0, 1), (1, 2, 2)):
        for b in ((0, 0, 0), (2, 2, 2), (2, 1, 1), (1, 2, 0)):
            expected = all(x <= y for x, y in zip(a, b))
            assert packing.within(packing.pack(a), packing.pack(b)) == expected


def test_online_front_keeps_every_item_of_each_front_weight():
    # weights offered one at a time, each twice, sorted, reversed and
    # shuffled: the items kept are exactly those of the weights on the
    # offline front, in arrival order, and nothing else
    rng = SplitMix64(93_000)
    cases = 0
    for bounds, weights in packed_front_corpus():
        packing = Packing(bounds)
        offers = [packing.pack(w) for w in sorted(weights)] * 2
        shuffled = list(offers)
        rng.shuffle(shuffled)
        for order in (offers, offers[::-1], shuffled):
            front = PackedFront(packing)
            for i, p in enumerate(order):
                front.offer(p, i)
            kept = packing.front(set(order))
            assert front.items == {p: [i for i, q in enumerate(order) if q == p] for p in kept}
            cases += 1
    assert cases == 3 * 6 * 4 * 5 * 2


def test_online_front_outlives_the_member_that_last_dominated():
    # at dims 3-4 an offer is first compared with the member that last
    # dominated an offer; each round here offers q, points below q, r
    # above q, which evicts q, then more points below q, so that member
    # is often gone when the next offer it dominates arrives (a gone
    # member's evictor dominates that offer too).  The items kept are
    # those of the offline front, ties included, in arrival order
    rng = SplitMix64(94_000)
    stale = cases = 0
    for dim in (3, 4):
        for bound in (2, 5, 30):
            packing = Packing((bound,) * dim)
            guards = packing.guards
            order = []
            for _ in range(40):
                q = [rng.randint(0, bound - 1) for _ in range(dim)]
                r = list(q)
                r[rng.randint(0, dim - 1)] += 1
                below = [[rng.randint(0, x) for x in q] for _ in range(4)]
                order += [packing.pack(w) for w in (q, *below[:2], r, *below[2:])]
            front = PackedFront(packing)
            for i, p in enumerate(order):
                last = front._dominator
                if last is not None and last not in front.items and p not in front.items:
                    stale += ((last | guards) - p) & guards == guards
                front.offer(p, i)
            kept = packing.front(set(order))
            assert front.items == {p: [i for i, q in enumerate(order) if q == p] for p in kept}
            cases += 1
    assert cases == 2 * 3
    assert stale >= 20
