import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import mobal.maxatsp
from helpers import (
    all_cycles_with_weights,
    checked_is_hamiltonian_cycle,
    combination_path_sets,
    contract_edge_by_edge,
    contract_edge_set,
    contract_ends,
    contract_path_set,
    edge_set_weight,
    first_of_each_contracted_graph,
    is_matching,
    is_vertex_disjoint_paths,
    matching_claim_witness,
    matchings_by_subset_filter,
    nondominated,
    odd_wrapper_reference,
    pareto_filter,
    pareto_front_witnesses,
    path_decomposition,
    path_ends,
    random_cycle,
    reference_sweep,
    relabel,
    sweep_sizes,
    swept,
)
from mobal.errors import BudgetExceededError, PreconditionError
from mobal.graphs import LabeledDigraph, is_hamiltonian_cycle
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.maxatsp import (
    DEFAULT_MAXATSP_BUDGET,
    _chain_fragments,
    _front_tours,
    _path_ends,
    _sweep,
    approx_cost_estimate,
    maxatsp_approx,
    path_set_candidates,
    tsp_oracle,
)
from mobal.pareto import (
    SolutionSet,
    even_objectives,
    is_alpha_approx_set,
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
            assert edge_set_weight(g, sol) == w


def test_half_cover_six_vertices():
    for seed in range(3):
        g = graph(61_000 + seed, vertices=6)
        cert = is_alpha_approx_set(maxatsp_approx(g), tsp_oracle(g), Fraction(1, 2))
        assert cert.ok


def test_requires_even_vertex_count():
    # an odd graph is accepted, and its output 1/2-covers the oracle front
    g = graph(1, vertices=5)
    cert = is_alpha_approx_set(maxatsp_approx(g), tsp_oracle(g), Fraction(1, 2))
    assert cert.ok


def test_single_vertex_refused():
    # the graph model holds the two-vertex floor, so neither the sweep nor
    # the oracle's tour pass can be handed a graph without a tour
    with pytest.raises(PreconditionError, match="need at least two vertices"):
        LabeledDigraph((0,), {}, 1)
    with pytest.raises(PreconditionError, match="need at least two vertices"):
        LabeledDigraph.from_weights(1, {})


def test_budget_guard():
    for g in (graph(2, vertices=8), graph(2, vertices=7)):
        with pytest.raises(BudgetExceededError):
            maxatsp_approx(g, budget=1000)


def test_custom_backend_plugs_in(monkeypatch):
    calls = []

    class CountingBackend(ExactMatchingBackend):
        def packed_matchings(self, tails=(), last=None):
            calls.append(len(tails))
            return super().packed_matchings(tails, last)

    # six vertices at two objectives: n - 2 = 4 exceeds the largest
    # path-set size 2, so the sweep runs
    g = graph(63_000, vertices=6)
    out = maxatsp_approx(g)
    assert swept(g, backend=CountingBackend(g)) == out
    assert calls
    # `maxatsp_approx` builds one backend for g and asks it; at four
    # vertices every tour is weighed, and no backend is built or asked
    built = []
    monkeypatch.setattr(
        mobal.maxatsp, "ExactMatchingBackend", lambda h: built.append(h) or CountingBackend(h)
    )
    calls.clear()
    assert maxatsp_approx(g) == out
    assert built == [g] and calls
    built.clear()
    calls.clear()
    small = graph(63_000)
    assert maxatsp_approx(small) == swept(small)
    assert built == [] and calls == []


class RecordingBackend:
    """Keeps the path-set ends of g asked about and every answer of
    `backend`, or of a new exact backend per call, built on the
    contracted graph (no shared memo), when `backend` is None.  Answers
    are packed in g's packing, as the sweep adds them to g's weights,
    and recorded unpacked."""

    def __init__(self, g, backend=None):
        self.g = g
        self.backend = backend
        self.packing = (backend or ExactMatchingBackend(g)).packing
        self.ends = []
        self.answers = []

    def packed_matchings(self, tails=(), last=None):
        if self.backend is None:
            fresh = ExactMatchingBackend(contract_ends(self.g, tails, last or {}))
            # the contracted graph's own packing has other field widths
            out = [
                (m, self.packing.pack(fresh.packing.unpack(p)))
                for m, p in fresh.packed_matchings()
            ]
        else:
            out = self.backend.packed_matchings(tails, last)
        self.ends.append((tails, last))
        self.answers.append(SolutionSet.build((m, self.packing.unpack(p)) for m, p in out))
        return out


def shared_memo_corpus():
    """Seeded graphs, n in {3, 4, 5, 6, 7, 8}, dim 1-3, weight bound
    0/1/2/30.

    n = 3 and 4 cover the whole grid.  Larger sweeps cost up to two
    seconds each (n = 8 at three objectives sweeps 71793 path sets and
    exceeds the default budget), so n = 5 and 6 take a spread of the
    grid, n = 7 one 1-objective case, and n = 8 the 2-objective case of
    the `atsp-n8` benchmark workload.  Odd n asks about graphs that lack
    a vertex of g from the first path set on.
    """
    cases = [(n, dim, bound) for n in (3, 4) for dim in (1, 2, 3) for bound in (0, 1, 2, 30)]
    cases += [(5, 2, 1), (5, 3, 2), (6, 1, 30), (6, 2, 0), (6, 2, 2), (6, 3, 2)]
    cases += [(7, 1, 2), (8, 2, 30)]
    for n, dim, bound in cases:
        yield generate(
            GeneratorSpec(
                kind="graph", seed=53_000 + 100 * n + 10 * dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )


def test_shared_memo_sweep_matches_fresh_backends():
    for g in shared_memo_corpus():
        shared = RecordingBackend(g, ExactMatchingBackend(g))
        fresh = []
        # SolutionSet equality compares every weight and every witness;
        # the reference asks a fresh backend about every path set
        assert swept(g, backend=shared) == reference_sweep(g, asked=fresh)
        # the pooled output can hide a wrong matching front behind other
        # path sets' cycles, so every answer is compared on its own too:
        # one call per distinct contracted graph, in first-seen order
        sizes = sweep_sizes(g)
        firsts = first_of_each_contracted_graph(g, sizes)
        assert len(fresh) == len(list(path_set_candidates(g, sizes)))
        assert shared.ends == [fresh[i][0] for i in firsts]
        assert shared.answers == [fresh[i][1] for i in firsts]


def test_keyed_states_stay_scoped():
    # the backend keeps head-holding states only while the path of the
    # smallest head stays; sweeping the seed-1 n = 8 graph at two
    # objectives leaves at most 35 live, where keeping them for the
    # whole sweep would hold 1400 at its end
    live = []

    class ScopeWatch(ExactMatchingBackend):
        def packed_matchings(self, tails=(), last=None):
            out = super().packed_matchings(tails, last)
            live.append(len(self._keyed))
            return out

    g = graph(1, vertices=8)
    _sweep(g, sweep_sizes(g), ScopeWatch(g))
    assert len(live) == 1233
    assert 0 < max(live) <= 50


def test_odd_output_unchanged_by_shared_memo():
    for s in range(4):
        g = graph(68_000 + s, vertices=5, bound=20)
        assert swept(g) == swept(g, backend=RecordingBackend(g))


def odd_corpus():
    """Seeded graphs, n in {3, 5} over dim 1-3 and weight bound 0/1/30,
    plus one n = 7 case (each n = 7 sweep takes about two seconds)."""
    cases = [(n, dim, bound) for n in (3, 5) for dim in (1, 2, 3) for bound in (0, 1, 30)]
    cases += [(7, 2, 1)]
    for n, dim, bound in cases:
        yield generate(
            GeneratorSpec(
                kind="graph", seed=54_000 + 100 * n + 10 * dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )


def test_odd_vertex_count_matches_wrapper_reference():
    for g in odd_corpus():
        # SolutionSet equality compares every weight and every witness
        out = swept(g)
        assert out == odd_wrapper_reference(g)
        assert out == reference_sweep(g)
        assert out == maxatsp_approx(g)


def test_odd_sweep_matches_each_contracted_graph_once():
    # one backend call per distinct contracted graph of the path sets of
    # 1..2k+1 edges, in first-seen candidate order
    for n in (3, 5):
        for dim in (1, 2, 3):
            g = graph(74_000 + 10 * n + dim, vertices=n, dim=dim)
            rec = RecordingBackend(g, ExactMatchingBackend(g))
            sizes = range(1, even_objectives(dim) + 2)
            _sweep(g, sizes, rec)
            cands = list(path_set_candidates(g, sizes))
            assert rec.ends == [
                path_ends(cands[i]) for i in first_of_each_contracted_graph(g, sizes)
            ]


def tie_heavy_sweep_corpus():
    """Seeded graphs at weight bounds 0/1/2, where many emitted tours tie
    or share a field with a front member: n in 3..5 over dims 1-4, n = 6
    at dims 1-2 and, on bounds 0/1, at dims 3-4, and n = 8 at dim 2 on
    bound 1."""
    cases = [(n, dim, bound) for n in (3, 4, 5) for dim in (1, 2, 3, 4) for bound in (0, 1, 2)]
    cases += [(6, dim, bound) for dim in (1, 2) for bound in (0, 1, 2)]
    cases += [(8, 2, 1)]
    for n, dim, bound in cases:
        yield generate(
            GeneratorSpec(
                kind="graph", seed=57_000 + 100 * n + 10 * dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )
    for dim in (3, 4):
        for bound in (0, 1):
            yield graph(77_000 + 10 * dim + bound, vertices=6, dim=dim, bound=bound)


def test_sweep_matches_reference_where_ties_are_many():
    # many tours share a weight, so every witness choice is exercised,
    # and many share a field with a front member, which the online
    # front's staircase and guard-bit tests must tell apart; the
    # reference pools every lifted tour and filters at the end
    checked = 0
    for g in tie_heavy_sweep_corpus():
        assert swept(g) == reference_sweep(g)
        checked += 1
    assert checked == 3 * 4 * 3 + 2 * 3 + 1 + 2 * 2


def test_sweep_memory_peak_stays_below_one_mebibyte():
    # the online front holds (F, last, T') for front weights alone; a pool
    # of every emitted tour peaked at about 2.7 MiB on this graph
    g = graph(0, vertices=8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        maxatsp_approx(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def every_tour_corpus():
    """Seeded graphs for every (n, dim) with n in 2..7 and dim in 1..4
    whose largest path-set size reaches n - 2, at weight bounds
    0/1/2/30.  Each n = 7 sweep takes about a second, so n = 7 takes
    one all-zero graph, where every tour ties, per dimension."""
    cases = [
        (n, dim, bound)
        for n in range(2, 7)
        for dim in (1, 2, 3, 4)
        for bound in (0, 1, 2, 30)
        if n - 2 <= even_objectives(dim) + n % 2
    ]
    cases += [(7, 3, 0), (7, 4, 0)]
    for n, dim, bound in cases:
        yield generate(
            GeneratorSpec(
                kind="graph", seed=79_000 + 100 * n + 10 * dim + bound,
                vertices=n, dim=dim, bound=bound,
            )
        )


def all_tours_front(g):
    """Every tour of each nondominated tour weight."""
    return pareto_filter(SolutionSet.build(all_cycles_with_weights(g)))


def test_every_tour_shortcut_matches_sweep():
    # where n - 2 is a path-set size, maxatsp_approx weighs every tour
    # instead of sweeping; fronts and every tied witness must agree
    checked = 0
    for g in every_tour_corpus():
        out = maxatsp_approx(g)
        assert out == swept(g)
        assert out == all_tours_front(g)
        checked += 1
    # n = 2..5 at every dim, n = 6 at dims 3-4, two n = 7 cases
    assert checked == 4 * 16 + 8 + 2


def test_every_tour_shortcut_stops_at_n_minus_2():
    # at the next n of each parity past the shortcut (n = 2k + 4 even,
    # 2k + 5 odd) the sweep misses tours of front weights: all-zero graphs
    # pool only 87 of 120 tours at n = 6 and 640 of 720 at n = 7
    differ = {6: 0, 7: 0}
    for n, bounds in ((6, (0, 1, 2, 30)), (7, (0,))):
        for dim in (1, 2):
            for bound in bounds:
                for seed in range(3 if n == 6 else 1):
                    g = graph(
                        79_000 + 1000 * seed + 100 * n + 10 * dim + bound,
                        vertices=n, dim=dim, bound=bound,
                    )
                    assert n - 2 not in sweep_sizes(g)
                    differ[n] += maxatsp_approx(g) != all_tours_front(g)
    assert differ == {6: 7, 7: 2}


def test_backend_calls_equal_distinct_contracted_graphs(monkeypatch):
    # the sweep reads each path set's ends once, off the enumerator's set
    ends_read = []

    def counted_path_ends(f):
        ends_read.append(f)
        return _path_ends(f)

    monkeypatch.setattr(mobal.maxatsp, "_path_ends", counted_path_ends)
    # the counts depend only on n and the path-set sizes: (n, dim) ->
    # (path sets, distinct contracted graphs)
    expected = {
        (6, 3): (3331, 1291),
        (7, 2): (4872, 3192),
        (9, 2): (30312, 21240),
        (8, 3): (71793, 23353),
    }
    for (n, dim), (path_sets, calls) in expected.items():
        g = graph(78_000 + n, vertices=n, dim=dim)
        silent = SilentBackend(g)
        ends_read.clear()
        sizes = sweep_sizes(g)
        _sweep(g, sizes, silent)
        assert ends_read == list(path_set_candidates(g, sizes))
        assert len(ends_read) == path_sets
        assert len(silent.sizes) == calls


class SilentBackend:
    """Records the tail count of each path set asked about and finds no
    matching, so a sweep costs only its path sets and their ends."""

    def __init__(self, g):
        self.packing = ExactMatchingBackend(g).packing
        self.sizes = []

    def packed_matchings(self, tails=(), last=None):
        self.sizes.append(len(tails))
        return []


def test_cost_estimate_bounds_the_sweep():
    # the estimate is the sweep's own count: 2^|V(G/F)| DP subsets per
    # path set F the enumerator yields, at both parities
    cases = [(n, 2) for n in range(2, 10)] + [(n, 4) for n in range(2, 9)]
    for n, two_k in cases:
        g = graph(75_000 + 10 * n + two_k, vertices=n, dim=two_k)
        odd = n % 2
        sizes = range(odd, two_k + odd + 1)
        work = sum(2 ** (n - len(f)) for f in path_set_candidates(g, sizes))
        assert approx_cost_estimate(n, two_k) == work


def test_cost_estimate_orders_nine_vertices_above_ten():
    # n = 9 sweeps 30312 path sets at two objectives, n = 10 only 3331
    assert approx_cost_estimate(9, 2) == 2_082_816
    assert approx_cost_estimate(10, 2) == 876_544
    assert approx_cost_estimate(9, 2) > DEFAULT_MAXATSP_BUDGET > approx_cost_estimate(10, 2)


def check_default_budget_verdicts(monkeypatch, vertex_counts, admitted):
    """Exactly the admitted (n, 2k) fit the default budget; the guard
    refuses every other one before a backend is built."""
    built = []
    monkeypatch.setattr(mobal.maxatsp, "ExactMatchingBackend", built.append)
    for n in vertex_counts:
        for two_k in (2, 4):
            fits = approx_cost_estimate(n, two_k) <= DEFAULT_MAXATSP_BUDGET
            assert fits == ((n, two_k) in admitted)
            if not fits:
                with pytest.raises(BudgetExceededError, match="path sets exceed budget"):
                    maxatsp_approx(graph(76_000 + n, vertices=n, dim=two_k))
    assert built == []


def test_default_budget_verdicts_for_odd_vertex_counts(monkeypatch):
    admitted = {(3, 2), (5, 2), (7, 2), (3, 4), (5, 4), (7, 4)}
    check_default_budget_verdicts(monkeypatch, (3, 5, 7, 9, 11), admitted)


def test_default_budget_verdicts_for_even_vertex_counts(monkeypatch):
    admitted = {(n, 2) for n in (2, 4, 6, 8, 10)} | {(n, 4) for n in (2, 4, 6)}
    check_default_budget_verdicts(monkeypatch, (2, 4, 6, 8, 10, 12), admitted)


def test_path_set_candidates_are_valid_and_ordered():
    g = graph(64_000)
    cands = list(path_set_candidates(g, range(3)))
    assert cands[0] == ()
    assert all(is_vertex_disjoint_paths(f) for f in cands)
    sizes = [len(f) for f in cands]
    assert sizes == sorted(sizes)
    # every vertex-disjoint path set of size <= 2 leaving >= 2 vertices,
    # in combination order
    assert cands == list(combination_path_sets(g, range(3)))


def test_path_set_candidates_match_combination_filter():
    # path sets depend on the vertices only, so the reference is built
    # once per vertex count and size and shared by the three dimensions
    reference = {}

    def expected(g, sizes):
        out = []
        for size in sizes:
            key = (g.num_vertices, size)
            if key not in reference:
                reference[key] = list(combination_path_sets(g, [size]))
            out += reference[key]
        return out

    checked = 0
    for n in range(2, 8):
        for dim in (1, 2, 3):
            g = graph(64_100 + 10 * n + dim, vertices=n, dim=dim)
            two_k = even_objectives(dim)
            ranges = [range(0, two_k + 1), range(1, two_k + 2)]
            if n == 7:
                ranges.append(range(6))
            for sizes in ranges:
                assert list(path_set_candidates(g, sizes)) == expected(g, sizes)
                checked += 1
    assert checked == 6 * 3 * 2 + 3


def test_path_ends_match_path_decomposition():
    # the sweep's trusted one-pass ends equal those of the checked
    # decomposition on every path set, at both parities' size ranges
    checked = 0
    for n in range(3, 9):
        dim = 3 if n <= 6 else 1
        g = graph(64_200 + n, vertices=n, dim=dim)
        for f in path_set_candidates(g, range(even_objectives(dim) + 2)):
            assert _path_ends(f) == path_ends(f)
            checked += 1
    # Lah numbers L(n, n - s) summed over the sizes taken
    assert checked == 21634


def complete_matching(g, m_enc):
    """The sweep's completion of a matching of g, as a sorted cycle."""
    return tuple(sorted(_chain_fragments(g.vertices, m_enc)))


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
        t = complete_matching(g, edges)
        assert is_hamiltonian_cycle(g, t)
        assert set(edges) <= set(t)
    assert complete_matching(g, []) == tuple(
        sorted(((i, (i + 1) % 6) for i in range(6)))
    )


def test_extend_matching_completes_every_matching():
    # the completion is not checked; the sweep relies on every matching
    # completing to a Hamiltonian cycle that contains it
    checked = 0
    for n in range(2, 8):
        g = graph(65_100 + n, vertices=n, dim=1 + n % 3)
        for m_enc, _ in matchings_by_subset_filter(g):
            t = complete_matching(g, m_enc)
            assert checked_is_hamiltonian_cycle(g, t)
            assert set(m_enc) <= set(t)
            assert t == tuple(sorted(t))
            checked += 1
    # matchings of K_n with directed edges, n = 2..7: sum over j of
    # C(n, 2j) (2j)! / j! is 3, 7, 25, 81, 331 and 1303
    assert checked == 1750


def test_odd_vertex_count_half_cover():
    for seed in range(4):
        g = graph(68_000 + seed, vertices=5, bound=20)
        out = maxatsp_approx(g)
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
    # the every-tour corpus adds n 2-7, dims 1-4 and the tie-heavy
    # bounds 0/1/2, where the witness must be the smallest tied tour
    graphs = [graph(69_000 + seed, vertices=6, bound=9) for seed in range(5)]
    for g in graphs + list(every_tour_corpus()):
        full = all_cycles_with_weights(g)
        assert set(tsp_oracle(g).weights()) == set(nondominated(w for _, w in full))
        assert tsp_oracle(g) == pareto_front_witnesses(full)


def test_front_tours_whose_totals_reach_a_power_of_two():
    # objective 0 weighs 1 on every edge, so every tour at n = 4 totals
    # 4 = 2^2 there: a field sized for one edge's weight would carry it
    # into the next objective; sized for the total of all edges, it fits
    rng = SplitMix64(92_000)
    for dim in (1, 2, 3):
        for _ in range(4):
            wm = {
                (u, v): (1, *(rng.randint(0, 3) for _ in range(dim - 1)))
                for u in range(4) for v in range(4) if u != v
            }
            g = LabeledDigraph.from_weights(4, wm)
            tours = _front_tours(g)
            assert all(w[0] == 4 for w in tours)
            out = SolutionSet.build((t, w) for w, ts in tours.items() for t in ts)
            assert out == all_tours_front(g)
            assert tsp_oracle(g) == pareto_front_witnesses(all_cycles_with_weights(g))


def test_tsp_oracle_stable_under_relabeling():
    g = graph(70_000, vertices=6, bound=9)
    h = relabel(g, {0: 3, 1: 5, 2: 0, 3: 1, 4: 2, 5: 4})
    assert sorted(tsp_oracle(g).weights()) == sorted(tsp_oracle(h).weights())


def test_tsp_oracle_cap():
    # one vertex over the oracle's cap of 9
    g = graph(3, vertices=10)
    with pytest.raises(BudgetExceededError):
        tsp_oracle(g)


def test_half_cover_odd_objective_counts():
    # 1 and 3 objectives run as if padded to 2 and 4; only the path-set
    # size bound changes, reported weights stay in the original dimension
    for dim, vertices, seeds in ((1, 4, 4), (1, 6, 2), (3, 4, 3), (3, 6, 2)):
        for s in range(seeds):
            g = graph(900_000 + s, vertices=vertices, dim=dim, bound=12)
            out = maxatsp_approx(g)
            assert len(out.entries[0][1]) == dim
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
                edge_set_weight(g, wit.s_edges), edge_set_weight(g, wit.f_edges)
            )
        )
        assert wit.matching_weight == s_minus_f
        assert wit.ok


def test_claim_witness_matching_is_edge_by_edge_image():
    # the witness takes S - F as the image of S and G/F from F's ends;
    # check both against contracting F edge by edge
    rng = SplitMix64(41)
    count = 0
    for n in (4, 6, 8, 10):
        for dim in (1, 2, 3, 4):
            if n <= even_objectives(dim):
                continue
            for s in range(30):
                g = graph(74_000 + 1000 * n + 100 * dim + s, vertices=n, dim=dim, bound=9)
                wit = matching_claim_witness(g, random_cycle(g, rng))
                paths = path_decomposition(wit.f_edges)
                assert wit.matching == tuple(sorted(contract_edge_set(paths, wit.s_edges)))
                assert wit.contracted == contract_edge_by_edge(g, paths)
                count += 1
    assert count == 14 * 30


def test_claim_existence_by_enumeration():
    # independent of the balancing construction: search all F inside the
    # cycle and all matchings of the contracted graph for the bound
    rng = SplitMix64(77)
    for i in range(4):
        g = graph(72_000 + i, vertices=6, bound=9)
        t = random_cycle(g, rng)
        wt = edge_set_weight(g, t)
        found = False
        for size in (0, 1, 2):
            for f in combinations(t, size):
                if not is_vertex_disjoint_paths(f):
                    continue
                wf = edge_set_weight(g, f)
                for m_enc, wm in matchings_by_subset_filter(contract_path_set(g, f)):
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
