from fractions import Fraction

import pytest

from helpers import enumerated_pareto_matchings, matchings_by_subset_filter
from mobal.errors import BudgetExceededError
from mobal.graphs import LabeledDigraph, is_matching
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend, matching_count, matching_pareto
from mobal.pareto import (
    SolutionSet,
    nondominated,
    pareto_filter,
    pareto_front_witnesses,
)


def two_vertex_graph():
    return LabeledDigraph.from_weights(2, {(0, 1): (3, 1), (1, 0): (1, 3)})


def test_two_vertex_example():
    out = matching_pareto(two_vertex_graph())
    assert set(out.weights()) == {(3, 1), (1, 3)}
    solutions = {sol for sol, _ in out}
    assert solutions == {((0, 1),), ((1, 0),)}
    # the empty matching weighs (0, 0) and is dominated away
    assert (0, 0) not in set(out.weights())


def test_all_zero_weights_single_representative():
    g = LabeledDigraph.from_weights(2, {(0, 1): (0, 0), (1, 0): (0, 0)})
    out = matching_pareto(g)
    assert len(out) == 1
    assert out.entries[0][1] == (0, 0)
    assert out.entries[0][0] == ()  # smallest encoding: the empty matching


def test_backend_agrees_with_subset_filter_enumerator():
    for i in range(25):
        vertices = 4 if i % 2 else 6
        g = generate(
            GeneratorSpec(kind="graph", seed=50_000 + i, vertices=vertices, dim=2, bound=9)
        )
        ours = matching_pareto(g)
        independent = matchings_by_subset_filter(g)
        assert set(ours.weights()) == set(nondominated(w for _, w in independent))
        filtered = pareto_filter(SolutionSet.build(independent))
        for entry in ours:
            assert entry in filtered.entries
        for sol, w in ours:
            assert is_matching(sol)
            assert g.edge_set_weight(sol) == w


def test_matching_count_formula_matches_enumeration():
    for n in range(2, 7):
        g = generate(
            GeneratorSpec(kind="graph", seed=51_000 + n, vertices=n, dim=1, bound=3)
        )
        assert matching_count(n) == len(matchings_by_subset_filter(g))


def test_vertex_cap():
    g = generate(GeneratorSpec(kind="graph", seed=1, vertices=6, dim=1, bound=3))
    backend = ExactMatchingBackend(vertex_cap=5)
    with pytest.raises(BudgetExceededError):
        backend.pareto_matchings(g)


def test_eps_is_irrelevant_for_exact_backend():
    g = two_vertex_graph()
    assert matching_pareto(g, Fraction(0)) == matching_pareto(g, Fraction(1, 3))


def test_failure_probability_field():
    assert ExactMatchingBackend().failure_probability == Fraction(0)


def differential_corpus():
    """Seeded graphs for every n in 2..8 (odd n too), dim 1..3 and
    weight bound 0, 1, 2, 30; small bounds make many weights tie."""
    for n in range(2, 9):
        for dim in (1, 2, 3):
            for bound in (0, 1, 2, 30):
                yield generate(
                    GeneratorSpec(
                        kind="graph",
                        seed=52_000 + 100 * n + 10 * dim + bound,
                        vertices=n,
                        dim=dim,
                        bound=bound,
                    )
                )


def test_subset_dp_matches_enumerators_with_witnesses():
    backend = ExactMatchingBackend()
    checked = 0
    for g in differential_corpus():
        out = backend.pareto_matchings(g)
        # SolutionSet equality compares every weight and every witness
        assert out == enumerated_pareto_matchings(g)
        # the subset filter walks every edge subset, ~400k per graph at
        # n = 8, so it stops at n = 7
        if g.num_vertices <= 7:
            assert out == pareto_front_witnesses(matchings_by_subset_filter(g))
        checked += 1
    assert checked == 7 * 3 * 4


def test_prefix_witness_counterexample():
    # Every edge weighs 0 except (3, 0).  The matchings of weight 5 are
    # ((3, 0),) and ((1, 2), (3, 0)) / ((2, 1), (3, 0)).  Below the root,
    # () and ((1, 2),) tie on weight and () is smaller, yet adding (3, 0)
    # reverses their order; a DP keeping one witness per weight alone
    # would answer ((3, 0),).
    wm = {(u, v): (0,) for u in range(4) for v in range(4) if u != v}
    wm[(3, 0)] = (5,)
    g = LabeledDigraph.from_weights(4, wm)
    expected = SolutionSet.build([(((1, 2), (3, 0)), (5,))])
    assert enumerated_pareto_matchings(g) == expected
    assert ExactMatchingBackend().pareto_matchings(g) == expected
