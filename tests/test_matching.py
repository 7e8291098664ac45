import pytest

from helpers import (
    ReferenceMatchingBackend,
    contract_ends,
    edge_set_weight,
    enumerated_pareto_matchings,
    is_matching,
    matchings_by_subset_filter,
    nondominated,
    pareto_filter,
    pareto_front_witnesses,
    path_ends,
    random_path_set,
    sweep_sizes,
)
from mobal.errors import BudgetExceededError, PreconditionError
from mobal.graphs import LabeledDigraph
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.maxatsp import maxatsp_approx, path_set_candidates
from mobal.pareto import SolutionSet
from mobal.rng import SplitMix64


def two_vertex_graph():
    return LabeledDigraph.from_weights(2, {(0, 1): (3, 1), (1, 0): (1, 3)})


def test_two_vertex_example():
    g = two_vertex_graph()
    out = ExactMatchingBackend(g).pareto_matchings()
    assert set(out.weights()) == {(3, 1), (1, 3)}
    solutions = {sol for sol, _ in out}
    assert solutions == {((0, 1),), ((1, 0),)}
    # the empty matching weighs (0, 0) and is dominated away
    assert (0, 0) not in set(out.weights())


def test_all_zero_weights_single_representative():
    g = LabeledDigraph.from_weights(2, {(0, 1): (0, 0), (1, 0): (0, 0)})
    out = ExactMatchingBackend(g).pareto_matchings()
    assert len(out) == 1
    assert out.entries[0][1] == (0, 0)
    assert out.entries[0][0] == ()  # smallest encoding: the empty matching


def test_backend_agrees_with_subset_filter_enumerator():
    for i in range(25):
        vertices = 4 if i % 2 else 6
        g = generate(
            GeneratorSpec(kind="graph", seed=50_000 + i, vertices=vertices, dim=2, bound=9)
        )
        ours = ExactMatchingBackend(g).pareto_matchings()
        independent = matchings_by_subset_filter(g)
        assert set(ours.weights()) == set(nondominated(w for _, w in independent))
        filtered = pareto_filter(SolutionSet.build(independent))
        for entry in ours:
            assert entry in filtered.entries
        for sol, w in ours:
            assert is_matching(sol)
            assert edge_set_weight(g, sol) == w


def test_vertex_cap():
    # the backend has no vertex cap of its own: the sweep's budget guard
    # refuses an 11-vertex graph, while the backend answers it directly
    g = generate(GeneratorSpec(kind="graph", seed=1, vertices=11, dim=1, bound=3))
    with pytest.raises(BudgetExceededError, match="path sets exceed budget"):
        maxatsp_approx(g)
    ones = LabeledDigraph.from_weights(
        11, {(u, v): (1,) for u in range(11) for v in range(11) if u != v}
    )
    expected = SolutionSet.build([(((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)), (5,))])
    assert ExactMatchingBackend(ones).pareto_matchings() == expected


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
        out = ExactMatchingBackend(g).pareto_matchings()
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
    assert ExactMatchingBackend(g).pareto_matchings() == expected


def test_root_keeps_smallest_witness_per_weight():
    # Every edge weighs 0 except (1, 2).  With tail 5 and head 4 taking
    # 5's row, the root removes head 4, not the smallest vertex, so the
    # weight-1 matching ((0, 4), (1, 2)) found through it precedes the
    # smaller ((0, 3), (1, 2)); the root must compare, not keep the first.
    wm = {(u, v): (0,) for u in range(6) for v in range(6) if u != v}
    wm[(1, 2)] = (1,)
    g = LabeledDigraph.from_weights(6, wm)
    expected = SolutionSet.build([(((0, 3), (1, 2)), (1,))])
    assert enumerated_pareto_matchings(contract_ends(g, frozenset({5}), {4: 5})) == expected
    assert ExactMatchingBackend(g).pareto_matchings({5}, {4: 5}) == expected


def _tails_only(g, keep):
    """Ends whose contraction is the subgraph induced by `keep`."""
    return frozenset(g.vertices) - set(keep), {}


def reuse_groups():
    """The reference graph of a backend, followed by path-set ends of it
    to ask that backend about.

    The ends are the reference itself (no ends), contractions of several
    random path sets (heads take other rows), ends with tails only
    (induced subgraphs, no head) and no ends again.
    """
    rng = SplitMix64(8_123)
    for n, dim, bound in ((6, 2, 3), (6, 2, 1), (7, 3, 2), (6, 1, 30), (8, 2, 2)):
        g = generate(
            GeneratorSpec(
                kind="graph", seed=54_000 + 10 * n + dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )
        group = [(frozenset(), {})]
        for _ in range(6):
            group.append(path_ends(random_path_set(g, rng, max_edges=3)))
        group.append(_tails_only(g, range(1, n, 2)))
        group.append(_tails_only(g, range(n - 1)))
        group.append(path_ends(random_path_set(g, rng, 2)))
        group.append(_tails_only(g, (0,)))
        group.append((frozenset(), {}))
        yield g, group


def test_reused_backend_matches_enumeration_with_witnesses():
    for g, group in reuse_groups():
        expected = [enumerated_pareto_matchings(contract_ends(g, *ends)) for ends in group]
        backend = ExactMatchingBackend(g)
        # SolutionSet equality compares every weight and every witness
        assert [backend.pareto_matchings(*ends) for ends in group] == expected
        # the same backend, asked again in reverse order, still agrees,
        # and so does a new one asked in reverse order first
        for b in (backend, ExactMatchingBackend(g)):
            assert [b.pareto_matchings(*ends) for ends in reversed(group)] == expected[::-1]


def test_backend_refuses_new_vertex_or_dimension():
    # ends may name only vertices of the reference and must leave one;
    # each head's last vertex is a tail of its own, and no head is a tail
    small = generate(GeneratorSpec(kind="graph", seed=3, vertices=4, dim=2, bound=5))
    backend = ExactMatchingBackend(small)
    assert backend.pareto_matchings() == enumerated_pareto_matchings(small)
    # two heads, so a keyed state is made
    assert backend.pareto_matchings({1, 3}, {0: 1, 2: 3}) is not None
    assert backend._keyed
    memo, keyed = dict(backend._memo), dict(backend._keyed)
    refused = [({4}, {}), ({1}, {0: 7}), ({1}, {9: 1}), ({0, 1, 2, 3}, {})]
    # a head that is a tail, a last vertex that is no tail (another vertex,
    # none at all, or the head itself), and two heads sharing a last vertex
    refused += [({1}, {1: 2}), ({1}, {0: 2}), (set(), {0: 1}), ({1}, {0: 0})]
    refused.append(({1, 2}, {0: 1, 3: 1}))
    for ends in refused:
        with pytest.raises(PreconditionError):
            backend.pareto_matchings(*ends)
    # the refusals wrote no state, and the backend still answers exactly
    assert (backend._memo, backend._keyed) == (memo, keyed)
    for ends in (({1, 3}, {0: 3}), _tails_only(small, (0, 2, 3)), ({1, 3}, {0: 1, 2: 3})):
        assert backend.pareto_matchings(*ends) == enumerated_pareto_matchings(
            contract_ends(small, *ends)
        )


def path_ends_corpus():
    """Seeded graphs of both parities, n in 3..8, for the path-ends DP.

    n = 3 to 5 cover dims 1-4 at weight bounds 0/1/2/30.  Checking every
    path set against enumeration costs ~0.4 s per graph at n = 6, dims
    3-4, and 1-2 s per graph at n = 7 and 8, so those sizes take a few
    cases of the grid.
    """
    cases = [(n, dim, bound) for n in (3, 4, 5) for dim in (1, 2, 3, 4) for bound in (0, 1, 2, 30)]
    cases += [(6, dim, bound) for dim in (1, 2) for bound in (0, 1, 2, 30)]
    cases += [(6, 3, 1), (6, 4, 2), (7, 2, 1), (8, 1, 2)]
    for n, dim, bound in cases:
        yield generate(
            GeneratorSpec(
                kind="graph", seed=55_000 + 100 * n + 10 * dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )


def test_path_ends_answers_match_enumeration_in_sweep_order_and_reverse():
    # one backend answers every path set of the sweep, in sweep order and
    # then in reverse, so keyed states are made and dropped in both
    # orders; each answer must equal enumeration on the contracted graph
    checked = 0
    for g in path_ends_corpus():
        ends = [path_ends(f) for f in path_set_candidates(g, sweep_sizes(g))]
        enumerated = {}
        expected = []
        for tails, last in ends:
            key = (tails, tuple(sorted(last.items())))
            if key not in enumerated:
                enumerated[key] = enumerated_pareto_matchings(contract_ends(g, tails, last))
            expected.append(enumerated[key])
        backend = ExactMatchingBackend(g)
        # SolutionSet equality compares every weight and every witness
        assert [backend.pareto_matchings(*e) for e in ends] == expected
        assert [backend.pareto_matchings(*e) for e in reversed(ends)] == expected[::-1]
        checked += len(ends)
    assert checked == 4 * (6 + 49 + 380) * 4 + 4 * 331 * 2 + 3331 * 2 + 4872 + 1233


def packed_dp_corpus():
    """Seeded graphs of both parities for the packed-key DP: n in 2..5 over
    dims 1-4 and weight bounds 0/1/30 (bound 0 leaves each weight field a
    lone guard bit, so a count that spills shows at once), plus n = 6 at
    dims 1-2 on every bound, one case each at dims 3-4, and the n = 8
    graph of the `atsp-n8` setting."""
    cases = [(n, dim, bound) for n in range(2, 6) for dim in (1, 2, 3, 4) for bound in (0, 1, 30)]
    cases += [(6, dim, bound) for dim in (1, 2) for bound in (0, 1, 30)]
    cases += [(6, 3, 0), (6, 4, 1), (8, 2, 30)]
    for n, dim, bound in cases:
        yield generate(
            GeneratorSpec(
                kind="graph", seed=56_000 + 100 * n + 10 * dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )


def test_packed_dp_matches_tuple_keyed_reference():
    # the packed-key DP and the tuple-keyed DP it replaced, each one
    # backend per graph, answer every path set of the sweep in sweep
    # order alike, fronts and witnesses, and the packed answer comes in
    # descending packed order
    checked = 0
    for g in packed_dp_corpus():
        packed, reference = ExactMatchingBackend(g), ReferenceMatchingBackend(g)
        unpack = packed.packing.unpack
        for f in path_set_candidates(g, sweep_sizes(g)):
            tails, last = path_ends(f)
            answer = packed.packed_matchings(tails, last)
            assert [p for _, p in answer] == sorted({p for _, p in answer}, reverse=True)
            expected = reference.pareto_matchings(tails, last)
            assert SolutionSet.build((m, unpack(p)) for m, p in answer) == expected
            assert packed.pareto_matchings(tails, last) == expected
            checked += 1
    assert checked == 3 * (1 + 6 + 49 + 380) * 4 + 3 * 331 * 2 + 2 * 3331 + 1233
