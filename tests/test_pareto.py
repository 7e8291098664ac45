from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_dominates, naive_pareto_entries
from mobal.errors import DimensionMismatchError, PreconditionError
from mobal.pareto import (
    SolutionSet,
    cover_ratio,
    covers,
    dominates,
    is_alpha_approx_set,
    nondominated,
    pareto_filter,
    pareto_front_witnesses,
)
from mobal.rng import SplitMix64

vec3 = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
# dims 3 and 4 over a small range, so ties and repeated points are common
small_weight_lists = st.integers(3, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(0, 5)] * d), max_size=40)
)


def test_dominates_examples():
    assert not dominates((3, 2), (3, 2))
    assert dominates((4, 2), (3, 2))
    assert not dominates((4, 1), (3, 2))


def test_dominates_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dominates((1, 2), (1, 2, 3))


@given(vec3)
def test_dominates_irreflexive(a):
    assert not dominates(a, a)


@given(vec3, vec3)
def test_dominates_antisymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(vec3, vec3, vec3)
def test_dominates_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


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
            dominates(fw, w) for fw in front_weights
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
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
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
