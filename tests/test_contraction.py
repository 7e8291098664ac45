from itertools import permutations

import pytest

from helpers import (
    checked_is_hamiltonian_cycle,
    contract_edge,
    contract_edge_by_edge,
    contract_edge_set,
    contract_ends,
    contract_path_set,
    cycle_edges,
    edge_set_weight,
    is_matching,
    is_vertex_disjoint_paths,
    lift_tour,
    path_decomposition,
    path_ends,
    random_cycle,
    random_path_set,
    relabel,
)
from mobal.errors import PreconditionError, SearchInvariantError
from mobal.graphs import (
    LabeledDigraph,
    is_hamiltonian_cycle,
    lift_edges,
)
from mobal.maxatsp import _path_ends
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
    assert h.weight_map[(1, 2)] == (7,)  # v -> x inherits w(y, x)
    assert h.weight_map[(1, 0)] == (5,)  # v -> u inherits w(y, u)
    assert h.weight_map[(0, 1)] == (2,)  # ingoing edges of v untouched


# the path u -> v -> y of the figure: tails v and y vanish, head u takes
# the outgoing row of its last vertex y
FIGURE_PATH = ((0, 1), (1, 3))
FIGURE_TAILS, FIGURE_LAST = frozenset({1, 3}), {0: 3}


def test_path_contraction_figure_values():
    g = figure_graph()
    assert path_ends(FIGURE_PATH) == _path_ends(FIGURE_PATH) == (FIGURE_TAILS, FIGURE_LAST)
    h = contract_ends(g, FIGURE_TAILS, FIGURE_LAST)
    assert h.vertices == (0, 2)
    assert h.weight_map[(0, 2)] == (7,)
    assert h.weight_map[(2, 0)] == (1,)


def test_expansion_figure_total_weight():
    g = figure_graph()
    h = contract_ends(g, FIGURE_TAILS, FIGURE_LAST)
    tour = lift_tour(g, FIGURE_PATH, lift_edges(FIGURE_LAST, {(0, 2), (2, 0)}))
    assert set(tour) == {(0, 1), (1, 3), (3, 2), (2, 0)}
    assert edge_set_weight(g, tour) == (13,)
    assert edge_set_weight(h, {(0, 2), (2, 0)}) == (8,)
    assert edge_set_weight(g, FIGURE_PATH) == (5,)


def test_empty_contraction_is_identity():
    g = figure_graph()
    assert contract_ends(g, frozenset(), {}) == g
    tour = tuple(sorted(cycle_edges((0, 1, 2, 3))))
    assert lift_tour(g, (), lift_edges({}, tour)) == tour


def test_contraction_order_independence():
    rng = SplitMix64(99)
    for g in graphs(12, vertices=6):
        q = random_path_set(g, rng, max_edges=3)
        paths = path_decomposition(q)
        if len(paths) < 2:
            continue
        results = {
            # graphs with dict fields are unhashable; compare via equality
            idx: contract_edge_by_edge(g, perm)
            for idx, perm in enumerate(permutations(paths))
        }
        first = results[0]
        assert all(r == first for r in results.values())
        assert contract_path_set(g, q) == first


def test_one_pass_contraction_matches_edge_by_edge():
    rng = SplitMix64(2024)
    checked = 0
    for n in (5, 6, 7, 8):
        for g in graphs(4, vertices=n, seed0=42_000 + 100 * n, dim=3):
            for size in (1, 2, 3, 4):
                # `size` edges of a Hamiltonian cycle: one to four paths
                cycle = random_cycle(g, rng)
                q = tuple(cycle[i] for i in rng.sample(0, n - 1, size))
                if n - size < 2:
                    # one vertex holds no tour, so the graph model refuses it
                    with pytest.raises(PreconditionError, match="need at least two vertices"):
                        contract_edge_by_edge(g, path_decomposition(q))
                    checked += 1
                    continue
                want = contract_edge_by_edge(g, path_decomposition(q))
                assert contract_path_set(g, q) == want
                # the sweep's own ends, read without a decomposition
                assert contract_ends(g, *_path_ends(q)) == want
                checked += 1
    assert checked == 4 * 4 * 4


def test_expand_round_trip_weight_identity():
    rng = SplitMix64(123)
    checked = 0
    for g in graphs(25, vertices=6, seed0=41_000):
        q = random_path_set(g, rng, max_edges=3)
        tails, last = path_ends(q)
        h = contract_ends(g, tails, last)
        if h.num_vertices < 2:
            continue
        t_prime = random_cycle(h, rng)
        t = lift_tour(g, q, lift_edges(last, t_prime))
        assert is_hamiltonian_cycle(g, t)
        assert set(q) <= set(t)
        left = edge_set_weight(g, t)
        right = tuple(
            a + b for a, b in zip(edge_set_weight(h, t_prime), edge_set_weight(g, q))
        )
        assert left == right
        checked += 1
    assert checked >= 20


def test_contract_rejects_non_paths():
    # the library contracts path sets unchecked; the test-side contraction
    # checks them, so no test contracts a non-path by mistake
    g = figure_graph()
    with pytest.raises(PreconditionError):
        contract_path_set(g, {(0, 1), (0, 2)})  # two outgoing at 0
    with pytest.raises(PreconditionError):
        contract_path_set(g, {(0, 1), (2, 1)})  # two incoming at 1
    with pytest.raises(PreconditionError):
        contract_path_set(g, {(0, 1), (1, 0)})  # cycle


def test_expand_rejects_non_hamiltonian():
    # F = {(0, 1)}: G/F has vertices 0, 2, 3 and head 0 ends at 1
    g = figure_graph()
    last = {0: 1}
    with pytest.raises(SearchInvariantError):
        lift_tour(g, [(0, 1)], lift_edges(last, {(0, 2), (2, 3)}))  # no tour of G/F
    # a tour of G/F whose edge leaving the head is not lifted: 0 would
    # have two successors
    with pytest.raises(SearchInvariantError):
        lift_tour(g, [(0, 1)], [(0, 2), (2, 3), (3, 0)])
    assert lift_tour(g, [(0, 1)], lift_edges(last, [(0, 2), (2, 3), (3, 0)])) == (
        (0, 1), (1, 2), (2, 3), (3, 0)
    )


def _non_tours(order, n):
    """Edge lists near the tour through `order` that are no Hamiltonian
    cycle, by the property they break."""
    tour = list(cycle_edges(order))
    out = {
        "missing edge": tour[1:],
        "extra edge": tour + [(order[0], order[2 % n])],
        "self-loop": [(order[0], order[0])] + tour[1:],
        "foreign vertex": [(order[0], n)] + tour[1:],
        # order[1] gets a second outgoing edge and order[0] loses its own
        "repeated tail": [(order[1], order[0])] + tour[1:],
        # the walk from order[0] runs into the cycle order[1..] and
        # never returns: order[1] has two incoming edges
        "rho": tour[:-1] + [(order[-1], order[1])],
    }
    if n >= 4:
        half = n // 2
        out["two cycles"] = list(cycle_edges(order[:half])) + list(
            cycle_edges(order[half:])
        )
    return out


def test_is_hamiltonian_cycle_matches_checked_reference():
    rng = SplitMix64(77)
    cases = 0
    for n in range(2, 8):
        for g in graphs(3, vertices=n, seed0=43_000 + 10 * n, dim=1 + n % 3):
            order = list(g.vertices)
            rng.shuffle(order)
            order = tuple(order)
            tour = cycle_edges(order)
            for edges in (tour, tuple(sorted(tour)), frozenset(tour)):
                assert is_hamiltonian_cycle(g, edges)
                assert checked_is_hamiltonian_cycle(g, edges)
            assert is_hamiltonian_cycle(g, (e for e in tour))
            assert not is_hamiltonian_cycle(g, (e for e in tour[1:]))
            for name, edges in _non_tours(order, n).items():
                if n == 2 and name == "rho":
                    continue  # no third vertex to run into
                want = checked_is_hamiltonian_cycle(g, edges)
                assert not want, name
                assert is_hamiltonian_cycle(g, edges) == want, name
                assert is_hamiltonian_cycle(g, iter(edges)) == want, name
                cases += 1
    assert cases >= 3 * 6 * 6


def test_contract_edge_set_matches_graph_semantics():
    # the cycle through the contracted path maps onto the 2-cycle
    cyc = {(0, 1), (1, 3), (3, 2), (2, 0)}
    assert contract_edge_set(path_decomposition(FIGURE_PATH), cyc) == {(0, 2), (2, 0)}


def test_role_predicates():
    assert is_matching([(0, 1), (2, 3)])
    assert not is_matching([(0, 1), (1, 2)])
    assert not is_matching([(0, 1), (2, 1)])
    assert is_vertex_disjoint_paths([(0, 1), (1, 2), (4, 5)])
    assert not is_vertex_disjoint_paths([(0, 1), (1, 0)])
    g = figure_graph()
    assert is_hamiltonian_cycle(g, cycle_edges((0, 1, 2, 3)))
    assert not is_hamiltonian_cycle(g, [(0, 1), (1, 0), (2, 3), (3, 2)])


def test_from_weights_refuses_an_empty_map():
    with pytest.raises(PreconditionError, match="all ordered pairs"):
        LabeledDigraph.from_weights(3, {})


def test_graph_model_refuses_each_bad_edge_weight():
    # the model checks every edge with `edge_fault`, as the parser checks
    # every edge line, so a graph built in code meets the same rules
    for weights, fault in (
        ({(0, 1): (1, -2), (1, 0): (3, 4)}, "edge (0, 1) weight (1, -2) is negative"),
        ({(0, 1): (1, 2), (1, 0): (3,)}, "edge (1, 0) weight has wrong dimension"),
    ):
        with pytest.raises(PreconditionError) as err:
            LabeledDigraph((0, 1), weights, 2)
        assert str(err.value) == fault
    assert LabeledDigraph((0, 1), {(0, 1): (1, 2), (1, 0): (3, 4)}, 2).num_vertices == 2


def test_relabel_preserves_weight_multiset():
    g = next(iter(graphs(1, vertices=4)))
    h = relabel(g, {0: 2, 1: 0, 2: 3, 3: 1})
    assert sorted(g.weight_map.values()) == sorted(h.weight_map.values())
