from fractions import Fraction
from itertools import combinations

import pytest

from helpers import all_cycles_with_weights, matchings_by_subset_filter, random_cycle
from mobal.errors import BudgetExceededError, PreconditionError
from mobal.graphs import (
    LabeledDigraph,
    contract,
    is_hamiltonian_cycle,
    is_matching,
    is_vertex_disjoint_paths,
    relabel,
)
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.maxatsp import (
    extend_matching,
    matching_claim_witness,
    maxatsp_approx,
    maxatsp_half_wrapper,
    path_set_candidates,
    tsp_oracle,
)
from mobal.pareto import (
    dominates,
    is_alpha_approx_set,
    nondominated,
    pareto_front_witnesses,
)
from mobal.rng import SplitMix64


def graph(seed, vertices=4, dim=2, bound=30):
    return generate(
        GeneratorSpec(kind="graph", seed=seed, vertices=vertices, dim=dim, bound=bound)
    )


def uniform_graph(n, c, dim=2):
    wm = {(u, v): (c,) * dim for u in range(n) for v in range(n) if u != v}
    return LabeledDigraph.from_weights(n, wm)


def test_uniform_weights_every_cycle_optimal():
    g = uniform_graph(4, 5)
    out = maxatsp_approx(g)
    assert set(out.weights()) == {(20, 20)}
    cert = is_alpha_approx_set(out, tsp_oracle(g), Fraction(1))
    assert cert.ok


def test_half_cover_four_vertices():
    for seed in range(8):
        g = graph(60_000 + seed)
        cert = is_alpha_approx_set(maxatsp_approx(g), tsp_oracle(g), Fraction(1, 2))
        assert cert.ok
        for sol, w in maxatsp_approx(g):
            assert is_hamiltonian_cycle(g, sol)
            assert g.edge_set_weight(sol) == w


def test_half_cover_six_vertices():
    for seed in range(3):
        g = graph(61_000 + seed, vertices=6)
        cert = is_alpha_approx_set(maxatsp_approx(g), tsp_oracle(g), Fraction(1, 2))
        assert cert.ok


def test_requires_even_vertex_count():
    g = graph(1, vertices=5)
    with pytest.raises(PreconditionError):
        maxatsp_approx(g)


def test_negative_eps_rejected():
    with pytest.raises(PreconditionError):
        maxatsp_approx(graph(1), Fraction(-1, 2))


def test_budget_guard():
    g = graph(2, vertices=8)
    with pytest.raises(BudgetExceededError):
        maxatsp_approx(g, budget=1000)


def test_threads_do_not_change_output():
    g = graph(62_000)
    assert maxatsp_approx(g) == maxatsp_approx(g, threads=3)


def test_custom_backend_plugs_in():
    calls = []

    class CountingBackend(ExactMatchingBackend):
        def pareto_matchings(self, g, eps=Fraction(0)):
            calls.append(g.num_vertices)
            return super().pareto_matchings(g, eps)

    g = graph(63_000)
    out = maxatsp_approx(g, backend=CountingBackend())
    assert calls and out == maxatsp_approx(g)


def test_path_set_candidates_are_valid_and_ordered():
    g = graph(64_000)
    cands = list(path_set_candidates(g, range(3)))
    assert cands[0] == ()
    assert all(is_vertex_disjoint_paths(f) for f in cands)
    sizes = [len(f) for f in cands]
    assert sizes == sorted(sizes)
    # every vertex-disjoint path set of size <= 2 leaving >= 2 vertices
    expected = 0
    for size in range(3):
        if g.num_vertices - size < 2:
            continue
        for combo in combinations(g.edges(), size):
            expected += is_vertex_disjoint_paths(combo)
    assert len(cands) == expected


def test_extend_matching_contains_matching():
    g = graph(65_000, vertices=6)
    rng = SplitMix64(5)
    for _ in range(20):
        edges = []
        used = set()
        while len(edges) < 2:
            u = rng.randint(0, 5)
            v = rng.randint(0, 5)
            if u != v and u not in used and v not in used:
                edges.append((u, v))
                used |= {u, v}
        t = extend_matching(g, edges)
        assert is_hamiltonian_cycle(g, t)
        assert set(edges) <= set(t)
    assert extend_matching(g, []) == tuple(
        sorted(((i, (i + 1) % 6) for i in range(6)))
    )


def test_extend_matching_rejects_non_matching():
    g = graph(65_001)
    with pytest.raises(PreconditionError):
        extend_matching(g, [(0, 1), (1, 2)])


def test_wrapper_dominates_core_output():
    for seed in range(4):
        g = graph(66_000 + seed)
        core = maxatsp_approx(g)
        wrapped = maxatsp_half_wrapper(g)
        wrapped_weights = set(wrapped.weights())
        for _, w in core:
            assert w in wrapped_weights or any(
                dominates(v, w) for v in wrapped_weights
            )


def test_wrapper_half_cover_four_vertices():
    for seed in range(4):
        g = graph(67_000 + seed)
        cert = is_alpha_approx_set(maxatsp_half_wrapper(g), tsp_oracle(g), Fraction(1, 2))
        assert cert.ok


def test_wrapper_uniform_weights():
    g = uniform_graph(4, 3)
    cert = is_alpha_approx_set(maxatsp_half_wrapper(g), tsp_oracle(g), Fraction(1))
    assert cert.ok


def test_wrapper_budget_refuses_default_eight_vertices():
    g = graph(4, vertices=8)
    with pytest.raises(BudgetExceededError):
        maxatsp_half_wrapper(g)


def test_wrapper_threads_do_not_change_output():
    g = graph(66_500)
    assert maxatsp_half_wrapper(g) == maxatsp_half_wrapper(g, threads=2)


def test_wrapper_odd_vertex_count_experimental():
    for seed in range(4):
        g = graph(68_000 + seed, vertices=5, bound=20)
        out = maxatsp_half_wrapper(g)
        for sol, _ in out:
            assert is_hamiltonian_cycle(g, sol)
        cert = is_alpha_approx_set(out, tsp_oracle(g), Fraction(1, 2))
        assert cert.ok


def test_tsp_oracle_two_vertices():
    g = LabeledDigraph.from_weights(2, {(0, 1): (1, 2), (1, 0): (2, 1)})
    orc = tsp_oracle(g)
    assert orc.entries == ((((0, 1), (1, 0)), (3, 3)),)


def test_tsp_oracle_three_vertices_both_orientations():
    wm = {
        (0, 1): (5, 0), (1, 2): (5, 0), (2, 0): (5, 0),
        (0, 2): (0, 4), (2, 1): (0, 4), (1, 0): (0, 4),
    }
    g = LabeledDigraph.from_weights(3, wm)
    orc = tsp_oracle(g)
    assert set(orc.weights()) == {(15, 0), (0, 12)}


def test_tsp_oracle_matches_full_enumeration():
    for seed in range(5):
        g = graph(69_000 + seed, vertices=6, bound=9)
        full = all_cycles_with_weights(g)
        assert set(tsp_oracle(g).weights()) == set(nondominated(w for _, w in full))
        assert tsp_oracle(g) == pareto_front_witnesses(full)


def test_tsp_oracle_stable_under_relabeling():
    g = graph(70_000, vertices=6, bound=9)
    h = relabel(g, {0: 3, 1: 5, 2: 0, 3: 1, 4: 2, 5: 4})
    assert sorted(tsp_oracle(g).weights()) == sorted(tsp_oracle(h).weights())


def test_tsp_oracle_cap():
    g = graph(3, vertices=6)
    with pytest.raises(BudgetExceededError):
        tsp_oracle(g, cap=5)


def test_half_cover_odd_objective_counts():
    # 1 and 3 objectives run as if padded to 2 and 4; only the path-set
    # size bound changes, reported weights stay in the original dimension
    for dim, vertices, seeds in ((1, 4, 4), (1, 6, 2), (3, 4, 3), (3, 6, 2)):
        for s in range(seeds):
            g = graph(900_000 + s, vertices=vertices, dim=dim, bound=12)
            out = maxatsp_approx(g)
            assert out.dimension() == dim
            cert = is_alpha_approx_set(out, tsp_oracle(g), Fraction(1, 2))
            assert cert.ok


def test_zero_weight_graph_trivial_front():
    g = uniform_graph(4, 0)
    out = maxatsp_approx(g)
    assert set(out.weights()) == {(0, 0)}
    assert is_alpha_approx_set(out, tsp_oracle(g), Fraction(1)).ok


# -- the matching claim -------------------------------------------------------


def test_claim_witness_constructive_on_random_cycles():
    rng = SplitMix64(31)
    for i in range(20):
        g = graph(71_000 + i, vertices=6 if i % 2 else 8, bound=9)
        t = random_cycle(g, rng)
        wit = matching_claim_witness(g, t)
        assert len(wit.f_edges) <= 2
        assert set(wit.f_edges) <= set(t)
        assert is_vertex_disjoint_paths(wit.f_edges)
        assert is_matching(wit.matching)
        # w'(M') = w(S) - w(F), and the half-weight bound holds
        s_minus_f = tuple(
            a - b
            for a, b in zip(
                g.edge_set_weight(wit.s_edges), g.edge_set_weight(wit.f_edges)
            )
        )
        assert wit.matching_weight == s_minus_f
        assert wit.ok


def test_claim_existence_by_enumeration():
    # independent of the balancing construction: search all F inside the
    # cycle and all matchings of the contracted graph for the bound
    rng = SplitMix64(77)
    for i in range(4):
        g = graph(72_000 + i, vertices=6, bound=9)
        t = random_cycle(g, rng)
        wt = g.edge_set_weight(t)
        found = False
        for size in (0, 1, 2):
            for f in combinations(t, size):
                if not is_vertex_disjoint_paths(f):
                    continue
                rec = contract(g, f)
                wf = g.edge_set_weight(f)
                for m_enc, wm in matchings_by_subset_filter(rec.contracted):
                    if all(
                        2 * a >= b - 2 * c for a, b, c in zip(wm, wt, wf)
                    ):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        assert found


def test_claim_witness_needs_even_count():
    g = graph(73_000, vertices=5)
    t = tuple(sorted(((i, (i + 1) % 5) for i in range(5))))
    with pytest.raises(PreconditionError):
        matching_claim_witness(g, t)
