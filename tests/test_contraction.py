from itertools import permutations

import pytest

from helpers import random_cycle, random_path_set
from mobal.errors import PreconditionError
from mobal.graphs import (
    ContractionRecord,
    LabeledDigraph,
    contract,
    contract_edge,
    contract_edge_set,
    cycle_edges,
    expand,
    is_hamiltonian_cycle,
    is_matching,
    is_vertex_disjoint_paths,
    path_decomposition,
    relabel,
)
from mobal.instances import GeneratorSpec, generate
from mobal.rng import SplitMix64


def figure_graph():
    # u=0, v=1, x=2, y=3; one objective
    w = {
        (0, 3): 1, (3, 0): 5, (3, 1): 1, (1, 3): 3,
        (1, 2): 1, (2, 1): 1, (2, 0): 1, (0, 2): 1,
        (0, 1): 2, (1, 0): 1, (3, 2): 7, (2, 3): 1,
    }
    return LabeledDigraph.from_weights(4, {e: (c,) for e, c in w.items()})


def graphs(count, vertices=5, seed0=40_000, dim=2, bound=9):
    for i in range(count):
        yield generate(
            GeneratorSpec(kind="graph", seed=seed0 + i, vertices=vertices, dim=dim, bound=bound)
        )


def test_single_edge_contraction_figure_step():
    g = figure_graph()
    h = contract_edge(g, (1, 3))  # contract (v, y)
    assert h.vertices == (0, 1, 2)
    assert h.weight(1, 2) == (7,)  # v -> x inherits w(y, x)
    assert h.weight(1, 0) == (5,)  # v -> u inherits w(y, u)
    assert h.weight(0, 1) == (2,)  # ingoing edges of v untouched


def test_path_contraction_figure_values():
    g = figure_graph()
    rec = contract(g, {(0, 1), (1, 3)})  # path u -> v -> y
    assert rec.contracted.vertices == (0, 2)
    assert rec.contracted.weight(0, 2) == (7,)
    assert rec.contracted.weight(2, 0) == (1,)


def test_expansion_figure_total_weight():
    g = figure_graph()
    rec = contract(g, {(0, 1), (1, 3)})
    tour = expand(rec, {(0, 2), (2, 0)})
    assert set(tour) == {(0, 1), (1, 3), (3, 2), (2, 0)}
    assert g.edge_set_weight(tour) == (13,)
    assert rec.contracted.edge_set_weight({(0, 2), (2, 0)}) == (8,)
    assert rec.path_weight() == (5,)


def test_empty_contraction_is_identity():
    g = figure_graph()
    rec = contract(g, ())
    assert rec.contracted == g
    tour = tuple(sorted(cycle_edges((0, 1, 2, 3))))
    assert expand(rec, tour) == tour


def _contract_in_order(g, paths):
    cur = g
    for path in paths:
        for e in reversed(path):
            cur = contract_edge(cur, e)
    return cur


def test_contraction_order_independence():
    rng = SplitMix64(99)
    for g in graphs(12, vertices=6):
        q = random_path_set(g, rng, max_edges=3)
        paths = path_decomposition(q)
        if len(paths) < 2:
            continue
        results = {
            # graphs with dict fields are unhashable; compare via equality
            idx: _contract_in_order(g, perm)
            for idx, perm in enumerate(permutations(paths))
        }
        first = results[0]
        assert all(r == first for r in results.values())
        assert contract(g, q).contracted == first


def _contract_edge_by_edge(g, q):
    """Reference record: every path contracted edge-by-edge from its last
    edge, as `contract_edge` defines a single contraction."""
    paths = path_decomposition(q)
    vertex_map = {x: x for x in g.vertices}
    for path in paths:
        for _, tail in path:
            vertex_map[tail] = path[0][0]
    return ContractionRecord(g, paths, _contract_in_order(g, paths), vertex_map)


def test_one_pass_contraction_matches_edge_by_edge():
    rng = SplitMix64(2024)
    checked = 0
    for n in (5, 6, 7, 8):
        for g in graphs(4, vertices=n, seed0=42_000 + 100 * n, dim=3):
            for size in (1, 2, 3, 4):
                # `size` edges of a Hamiltonian cycle: one to four paths
                cycle = random_cycle(g, rng)
                q = tuple(cycle[i] for i in rng.sample(0, n - 1, size))
                got = contract(g, q)
                want = _contract_edge_by_edge(g, q)
                assert got.contracted == want.contracted
                assert got.paths == want.paths
                assert got.vertex_map == want.vertex_map
                checked += 1
    assert checked == 4 * 4 * 4


def test_expand_round_trip_weight_identity():
    rng = SplitMix64(123)
    checked = 0
    for g in graphs(25, vertices=6, seed0=41_000):
        q = random_path_set(g, rng, max_edges=3)
        rec = contract(g, q)
        if rec.contracted.num_vertices < 2:
            continue
        t_prime = random_cycle(rec.contracted, rng)
        t = expand(rec, t_prime)
        assert is_hamiltonian_cycle(g, t)
        assert set(q) <= set(t)
        left = g.edge_set_weight(t)
        right = tuple(
            a + b
            for a, b in zip(
                rec.contracted.edge_set_weight(t_prime), rec.path_weight()
            )
        )
        assert left == right
        checked += 1
    assert checked >= 20


def test_contract_rejects_non_paths():
    g = figure_graph()
    with pytest.raises(PreconditionError):
        contract(g, {(0, 1), (0, 2)})  # two outgoing at 0
    with pytest.raises(PreconditionError):
        contract(g, {(0, 1), (2, 1)})  # two incoming at 1
    with pytest.raises(PreconditionError):
        contract(g, {(0, 1), (1, 0)})  # cycle


def test_expand_rejects_non_hamiltonian():
    g = figure_graph()
    rec = contract(g, {(0, 1)})
    with pytest.raises(PreconditionError):
        expand(rec, {(0, 2), (2, 3)})


def test_vertex_map_tracks_heads():
    g = figure_graph()
    rec = contract(g, {(0, 1), (1, 3)})
    assert rec.vertex_map == {0: 0, 1: 0, 3: 0, 2: 2}


def test_contract_edge_set_matches_graph_semantics():
    g = figure_graph()
    rec = contract(g, {(0, 1), (1, 3)})
    # the cycle through the contracted path maps onto the 2-cycle
    cyc = {(0, 1), (1, 3), (3, 2), (2, 0)}
    assert contract_edge_set(rec.paths, cyc) == {(0, 2), (2, 0)}


def test_role_predicates():
    assert is_matching([(0, 1), (2, 3)])
    assert not is_matching([(0, 1), (1, 2)])
    assert not is_matching([(0, 1), (2, 1)])
    assert is_vertex_disjoint_paths([(0, 1), (1, 2), (4, 5)])
    assert not is_vertex_disjoint_paths([(0, 1), (1, 0)])
    g = figure_graph()
    assert is_hamiltonian_cycle(g, cycle_edges((0, 1, 2, 3)))
    assert not is_hamiltonian_cycle(g, [(0, 1), (1, 0), (2, 3), (3, 2)])


def test_relabel_preserves_weight_multiset():
    g = next(iter(graphs(1, vertices=4)))
    h = relabel(g, {0: 2, 1: 0, 2: 3, 3: 1})
    assert sorted(g.weight_map.values()) == sorted(h.weight_map.values())
