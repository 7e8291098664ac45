import pytest

from helpers import (
    enumerated_pareto_matchings,
    matchings_by_subset_filter,
    pareto_filter,
    random_path_set,
)
from mobal.errors import BudgetExceededError, PreconditionError
from mobal.graphs import LabeledDigraph, contract, is_matching
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.pareto import (
    SolutionSet,
    nondominated,
    pareto_front_witnesses,
)
from mobal.rng import SplitMix64


def two_vertex_graph():
    return LabeledDigraph.from_weights(2, {(0, 1): (3, 1), (1, 0): (1, 3)})


def test_two_vertex_example():
    g = two_vertex_graph()
    out = ExactMatchingBackend(g).pareto_matchings(g)
    assert set(out.weights()) == {(3, 1), (1, 3)}
    solutions = {sol for sol, _ in out}
    assert solutions == {((0, 1),), ((1, 0),)}
    # the empty matching weighs (0, 0) and is dominated away
    assert (0, 0) not in set(out.weights())


def test_all_zero_weights_single_representative():
    g = LabeledDigraph.from_weights(2, {(0, 1): (0, 0), (1, 0): (0, 0)})
    out = ExactMatchingBackend(g).pareto_matchings(g)
    assert len(out) == 1
    assert out.entries[0][1] == (0, 0)
    assert out.entries[0][0] == ()  # smallest encoding: the empty matching


def test_backend_agrees_with_subset_filter_enumerator():
    for i in range(25):
        vertices = 4 if i % 2 else 6
        g = generate(
            GeneratorSpec(kind="graph", seed=50_000 + i, vertices=vertices, dim=2, bound=9)
        )
        ours = ExactMatchingBackend(g).pareto_matchings(g)
        independent = matchings_by_subset_filter(g)
        assert set(ours.weights()) == set(nondominated(w for _, w in independent))
        filtered = pareto_filter(SolutionSet.build(independent))
        for entry in ours:
            assert entry in filtered.entries
        for sol, w in ours:
            assert is_matching(sol)
            assert g.edge_set_weight(sol) == w


def test_vertex_cap():
    # one vertex over the backend's cap of 10
    g = generate(GeneratorSpec(kind="graph", seed=1, vertices=11, dim=1, bound=3))
    with pytest.raises(BudgetExceededError):
        ExactMatchingBackend(g).pareto_matchings(g)


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
    checked = 0
    for g in differential_corpus():
        out = ExactMatchingBackend(g).pareto_matchings(g)
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
    assert ExactMatchingBackend(g).pareto_matchings(g) == expected


def _reweighted(g, rows, seed):
    """g with fresh weights on the outgoing rows of `rows`."""
    rng = SplitMix64(seed)
    wm = dict(g.weight_map)
    for (u, v), w in g.weight_map.items():
        if u in rows:
            wm[(u, v)] = tuple(rng.randint(0, 3) for _ in w)
    return LabeledDigraph(g.vertices, wm, g.dimension)


def _induced(g, keep):
    keep = set(keep)
    wm = {e: w for e, w in g.weight_map.items() if keep >= set(e)}
    return LabeledDigraph(tuple(sorted(keep)), wm, g.dimension)


def reuse_groups():
    """Lists of graphs on the labels of each list's first graph, the
    reference of the backend that answers the list.

    The reference is followed by contractions of several path sets
    (dirty heads), reweighted rows (dirty vertices, heads or not),
    induced subgraphs (no dirty vertex), a contraction of a reweighted
    graph, fresh weights on every row (every vertex dirty) and the
    reference again.
    """
    rng = SplitMix64(8_123)
    for n, dim, bound in ((6, 2, 3), (6, 2, 1), (7, 3, 2), (6, 1, 30), (8, 2, 2)):
        g = generate(
            GeneratorSpec(
                kind="graph", seed=54_000 + 10 * n + dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )
        group = [g]
        for _ in range(6):
            group.append(contract(g, random_path_set(g, rng, max_edges=3)).contracted)
        group.append(_reweighted(g, {0}, 1))
        group.append(_reweighted(g, {1, n - 1}, 2))
        group.append(_induced(g, range(1, n, 2)))
        group.append(_induced(g, range(n - 1)))
        group.append(contract(_reweighted(g, {2}, 3), random_path_set(g, rng, 2)).contracted)
        group.append(_reweighted(g, set(g.vertices), 4))
        group.append(g)
        yield group


def test_reused_backend_matches_enumeration_with_witnesses():
    for group in reuse_groups():
        expected = [enumerated_pareto_matchings(h) for h in group]
        backend = ExactMatchingBackend(group[0])
        # SolutionSet equality compares every weight and every witness
        assert [backend.pareto_matchings(h) for h in group] == expected
        # the same backend, asked again in reverse order, still agrees,
        # and so does a new one whose first graph is not its reference
        for b in (backend, ExactMatchingBackend(group[0])):
            assert [b.pareto_matchings(h) for h in reversed(group)] == expected[::-1]


def test_backend_refuses_new_vertex_or_dimension():
    small = generate(GeneratorSpec(kind="graph", seed=3, vertices=4, dim=2, bound=5))
    large = generate(GeneratorSpec(kind="graph", seed=4, vertices=6, dim=2, bound=5))
    other_dim = generate(GeneratorSpec(kind="graph", seed=5, vertices=4, dim=3, bound=5))
    backend = ExactMatchingBackend(small)
    assert backend.pareto_matchings(small) == enumerated_pareto_matchings(small)
    memo = dict(backend._memo)
    for g in (large, other_dim):
        with pytest.raises(PreconditionError):
            backend.pareto_matchings(g)
    # the refusals wrote no state, and the backend still answers exactly
    assert backend._memo == memo
    for g in (_reweighted(small, {1}, 6), _induced(small, (0, 2, 3))):
        assert backend.pareto_matchings(g) == enumerated_pareto_matchings(g)
