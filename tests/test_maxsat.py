import re
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assignment_weight,
    brute_force_assignment_front,
    clause_bucket,
    naive_assignment_weight,
    nondominated,
    pareto_filter,
    pareto_front_witnesses,
    reference_emit_masks,
    reference_maxsat_oracle,
    reference_sat_state,
    reference_sweep_masks,
    reference_weigh_and_filter,
    tautological,
    zero_weight_padding,
)
from mobal.errors import BudgetExceededError, PreconditionError
from mobal.instances import GeneratorSpec, generate, parse_cnf
from mobal.maxsat import (
    CnfInstance,
    _emit_masks,
    _walk,
    maxsat_approx,
    maxsat_oracle,
    maxsat_scan_estimate,
)
from mobal.pareto import (
    SolutionSet,
    even_objectives,
    is_alpha_approx_set,
)


def cnf(num_vars, *clauses_with_weights):
    clauses = tuple(frozenset(c) for c, _ in clauses_with_weights)
    weights = tuple(tuple(w) for _, w in clauses_with_weights)
    return CnfInstance(num_vars, clauses, weights)


def bits(m, variables):
    """Mask over m variables with variable v at bit m - v, as the sweep
    and the oracle encode assignments."""
    return sum(1 << (m - v) for v in variables)


def variables(m, mask):
    """The sorted variables whose bits the mask over m variables sets."""
    return tuple(v for v in range(1, m + 1) if mask >> (m - v) & 1)


def reference_mask(m, mask):
    """The mask in the encoding of the references in `helpers`, variable
    v at bit v - 1."""
    return sum(1 << (v - 1) for v in variables(m, mask))


def walked_v1(inst, v0=()):
    """The V1 mask the walk derives for the zero-forced set v0."""
    m, two_k = inst.num_vars, even_objectives(inst.dimension)
    return dict(_walk(inst._table, m, two_k))[bits(m, v0)]


def corpus(count, seed0=20_000):
    for i in range(count):
        yield generate(
            GeneratorSpec(
                kind="cnf",
                seed=seed0 + i,
                m=4 + (i % 7),
                clauses=5 + (i % 11),
                dim=1 + (i % 2),
                bound=20,
            )
        )


def test_assignment_weight_examples():
    inst = cnf(1, ({1}, (2, 2)))
    assert assignment_weight(inst, (1,)) == (2, 2)
    assert assignment_weight(inst, (0,)) == (0, 0)


def test_assignment_weight_matches_naive_evaluator():
    for inst in corpus(30):
        for bits in product((0, 1), repeat=inst.num_vars):
            assert assignment_weight(inst, bits) == naive_assignment_weight(inst, bits)


def test_clause_bucket_examples():
    inst = cnf(1, ({1}, (1,)), ({-1}, (1,)))
    assert clause_bucket(inst, 1) == (0,)
    assert clause_bucket(inst, -1) == (1,)
    assert clause_bucket(inst, 1, within=(1,)) == ()


def test_clause_bucket_absent_literal():
    inst = cnf(3, ({1, 2}, (1,)), ({-2}, (1,)))
    assert clause_bucket(inst, 3) == ()
    assert clause_bucket(inst, -3) == ()


def test_clause_bucket_matches_scan():
    for inst in corpus(20, seed0=21_000):
        for v in range(1, inst.num_vars + 1):
            for lit in (v, -v):
                expected = tuple(
                    ci for ci, c in enumerate(inst.clauses) if lit in c
                )
                assert clause_bucket(inst, lit) == expected


def test_tautological_flagging():
    inst = cnf(2, ({1, -1}, (3,)), ({2}, (1,)))
    assert tautological(inst) == (0,)
    # satisfied by every assignment
    for bits in product((0, 1), repeat=2):
        assert assignment_weight(inst, bits)[0] >= 3


def test_instance_validation():
    with pytest.raises(PreconditionError):
        cnf(1, (set(), (1,)))
    with pytest.raises(PreconditionError):
        cnf(1, ({2}, (1,)))
    with pytest.raises(PreconditionError):
        cnf(1, ({1}, (-1,)))


def test_single_clause_optimum():
    inst = cnf(1, ({1}, (2, 2)))
    out = maxsat_approx(inst)
    assert ((1,), (2, 2)) in out.entries
    cert = is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1, 2))
    assert cert.ok


def test_complementary_units_both_kept():
    inst = cnf(1, ({1}, (1, 0)), ({-1}, (0, 1)))
    out = maxsat_approx(inst)
    assert set(out.weights()) == {(1, 0), (0, 1)}
    cert = is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1, 2))
    assert cert.ok


def test_half_cover_on_corpus():
    for inst in corpus(25):
        cert = is_alpha_approx_set(
            maxsat_approx(inst), maxsat_oracle(inst), Fraction(1, 2)
        )
        assert cert.ok
        # the guarantee as a literal integer comparison
        for i, j in cert.pairs:
            ref_w = cert.reference.entries[i][1]
            out_w = cert.candidates.entries[j][1]
            assert all(2 * o >= r for o, r in zip(out_w, ref_w))


def test_emitted_assignments_respect_forced_sets():
    inst = next(iter(corpus(1, seed0=22_222)))
    m, two_k = inst.num_vars, even_objectives(inst.dimension)
    full = (1 << m) - 1
    for v0, v1 in _walk(inst._table, m, two_k):
        assert v0.bit_count() <= two_k * two_k
        assert not (v0 & v1) and (v0 | v1) <= full
        for mask in _emit_masks(v1, full & ~(v0 | v1), two_k // 2):
            assert mask & v1 == v1
            assert not mask & v0


def test_v1_condition_is_some_objective_exceeds():
    # G[-v1] = {(-v1, w=(5,0))}; discarded weight is zero, so objective 1
    # satisfies 2k*5 > 0 and v1 is forced to one
    inst = cnf(2, ({-1}, (5, 0)), ({2}, (1, 1)))
    assert walked_v1(inst) & bits(2, {1})
    # all-objective comparison would fail: component 2 gives 0 > 0 false
    assert not all(2 * w > 0 for w in (5, 0))


def test_v1_not_forced_when_componentwise_small():
    # with V0 empty nothing is discarded and G[-2] = (1, 1) forces v2;
    # V0 = {1} discards clause 0, so w(H - G) = (8, 8) and
    # 2k * (1, 1) <= (8, 8) leaves v2 free there
    inst = cnf(2, ({-1}, (8, 8)), ({-2}, (1, 1)))
    assert walked_v1(inst) == bits(2, {1, 2})
    assert walked_v1(inst, (1,)) == 0


def test_gprime_definition():
    # clause 0 contains -v1 with v1 in V0: satisfied, out of G.  In G it
    # would make G[-2] = (5, 5) > w(H - G) = 0 and force v2
    inst = cnf(2, ({-1, -2}, (5, 5)), ({2}, (1, 1)))
    assert walked_v1(inst) == bits(2, {1, 2})
    assert walked_v1(inst, (1,)) == 0


def test_single_interval_variable_still_admits_empty_interval():
    # with |V'| = 1 no endpoint tuple has a > b, yet the all-empty
    # combination is one of the k-interval choices and must be emitted
    inst = cnf(1, ({1}, (1, 1)))
    assert walked_v1(inst) == 0  # V' = {1}
    assert _emit_masks(0, bits(1, {1}), 1) == {0, 1}


def test_empty_vprime_emits_forced_assignment():
    # with m=1 and V0={1} there is no interval variable left; the forced
    # all-zero assignment must still be emitted to cover the negative side
    inst = cnf(1, ({1}, (1, 0)), ({-1}, (0, 1)))
    out = maxsat_approx(inst)
    assert ((0,), (0, 1)) in out.entries


def test_budget_guard_names_limit():
    inst = next(iter(corpus(1)))
    with pytest.raises(BudgetExceededError) as err:
        maxsat_approx(inst, budget=10)
    assert "variables" in str(err.value)


def stated_limit(inst, budget):
    with pytest.raises(BudgetExceededError) as err:
        maxsat_approx(inst, budget=budget)
    return int(re.search(r"at most (\d+) variables", str(err.value)).group(1))


def test_budget_limit_matches_a_linear_walk():
    # the refusal names the largest variable count whose estimate fits;
    # a walk up from 0 finds the same one, on instances just past it
    # and far past it
    for dim in range(1, 9):
        two_k = even_objectives(dim)
        for budget in (0, 1, 10**3, 10**6, 10**9):
            walked = 0
            while maxsat_scan_estimate(walked + 1, two_k) <= budget:
                walked += 1
            for m in (walked + 1, walked + 7, 10**9):
                assert stated_limit(cnf(m, ({1}, (1,) * dim)), budget) == walked


def test_budget_limit_takes_few_estimates(monkeypatch):
    # a walk up from 0 would take thousands of estimates here
    calls = 0

    def counted(num_vars, two_k):
        nonlocal calls
        calls += 1
        return maxsat_scan_estimate(num_vars, two_k)

    monkeypatch.setattr("mobal.maxsat.maxsat_scan_estimate", counted)
    stated_limit(cnf(10**9, ({1}, (1, 1, 1, 1))), 10**60)
    assert 0 < calls <= 100


def test_zero_weight_clause_keeps_certificate():
    for inst in corpus(12, seed0=23_000):
        base = is_alpha_approx_set(
            maxsat_approx(inst), maxsat_oracle(inst), Fraction(1, 2)
        )
        padded = CnfInstance(
            inst.num_vars,
            inst.clauses + (frozenset({1}),),
            inst.weights + ((0,) * inst.dimension,),
        )
        again = is_alpha_approx_set(
            maxsat_approx(padded), maxsat_oracle(padded), Fraction(1, 2)
        )
        assert base.ok == again.ok


def test_odd_objective_count_padding():
    inst = cnf(3, ({1, 2}, (4,)), ({-1}, (3,)), ({3}, (2,)))
    out = maxsat_approx(inst)
    assert len(out.entries[0][1]) == 1
    cert = is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1, 2))
    assert cert.ok
    padded = zero_weight_padding(inst)
    assert padded.dimension == 2
    assert [w[0] for w in maxsat_approx(padded).weights()] == [
        w[0] for w in maxsat_approx(inst).weights()
    ]


def test_oracle_unit_clause():
    inst = cnf(1, ({1}, (1,)))
    orc = maxsat_oracle(inst)
    assert orc.entries == (((1,), (1,)),)


def test_oracle_all_zero_single_representative():
    inst = cnf(3, ({1, 2}, (0, 0)), ({-3}, (0, 0)))
    orc = maxsat_oracle(inst)
    assert len(orc) == 1
    assert orc.entries[0][1] == (0, 0)


def test_oracle_agrees_with_independent_enumeration():
    for inst in corpus(15, seed0=25_000):
        orc = maxsat_oracle(inst)
        full = brute_force_assignment_front(inst)
        filtered = pareto_filter(SolutionSet.build(full))
        assert set(orc.weights()) == set(nondominated(w for _, w in full))
        witnesses = pareto_front_witnesses(full)
        assert orc == witnesses
        # every oracle witness appears in the tie-retaining filter too
        for entry in orc:
            assert entry in filtered.entries


def test_oracle_cap():
    # one variable over the oracle's cap of 20
    inst = cnf(21, ({1, -21}, (1,)))
    with pytest.raises(BudgetExceededError):
        maxsat_oracle(inst)


def test_all_tautological_instance():
    inst = cnf(2, ({1, -1}, (3, 1)), ({2, -2}, (1, 3)))
    out = maxsat_approx(inst)
    assert set(out.weights()) == {(4, 4)}
    assert is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1)).ok


def test_objective_that_is_always_zero():
    inst = cnf(3, ({1, 2}, (4, 0)), ({-3}, (2, 0)), ({3}, (5, 0)))
    cert = is_alpha_approx_set(
        maxsat_approx(inst), maxsat_oracle(inst), Fraction(1, 2)
    )
    assert cert.ok


def test_purely_negative_occurrences():
    # every clause prefers zeros; the all-zero assignment must be reachable
    inst = cnf(3, ({-1}, (2, 1)), ({-2}, (1, 2)), ({-1, -3}, (3, 3)))
    out = maxsat_approx(inst)
    assert ((0, 0, 0), (6, 6)) in out.entries
    assert is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1, 2)).ok


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_half_cover_property_tiny_instances(data):
    from mobal.rng import SplitMix64

    rng = SplitMix64(data.draw(st.integers(0, 2**48)))
    m = data.draw(st.integers(1, 5))
    n_clauses = data.draw(st.integers(1, 6))
    dim = data.draw(st.integers(1, 2))
    clauses, weights = [], []
    for _ in range(n_clauses):
        size = rng.randint(1, min(3, m))
        variables = rng.sample(1, m, size)
        clauses.append(frozenset(v if rng.randint(0, 1) else -v for v in variables))
        weights.append(tuple(rng.randint(0, 9) for _ in range(dim)))
    inst = CnfInstance(m, tuple(clauses), tuple(weights))
    cert = is_alpha_approx_set(
        maxsat_approx(inst), maxsat_oracle(inst), Fraction(1, 2)
    )
    assert cert.ok


def differential_corpus():
    """Instances on every edge of the packed clause table.

    m=1 leaves the low variable half empty and m=20 fills both halves
    to 1024 entries (with few clauses, as the reference oracle weighs
    all 2^20 assignments clause by clause); clause counts 1, 7, 8, 9 and
    17 sit on the eight-clause chunk edges and one instance has 300
    clauses; bound 0 packs one-bit fields and bound 10^6 wide ones.
    """
    def gen(seed, m, clauses, dim, bound=20):
        return generate(
            GeneratorSpec(kind="cnf", seed=seed, m=m, clauses=clauses, dim=dim, bound=bound)
        )

    out = [gen(26_000, 1, 1, 2), gen(26_001, 1, 3, 1)]
    # both variable halves of m=20 carry literals of every sign
    out.append(
        cnf(20, ({1, -11, 20}, (7, 2)), ({-3, 12}, (4, 9)), ({-10, -19}, (6, 6)))
    )
    for i, (m, clauses, dim) in enumerate(
        [
            (3, 1, 1), (5, 7, 2), (7, 8, 3), (9, 9, 4), (11, 17, 1),
            (4, 8, 4), (6, 9, 3), (8, 17, 2), (12, 7, 2), (13, 8, 1),
        ]
    ):
        out.append(gen(26_100 + i, m, clauses, dim))
    out += [gen(26_200 + dim, 5, 9, dim, bound=0) for dim in (1, 2, 3, 4)]
    out += [gen(26_300, 7, 17, 2, bound=10**6), gen(26_301, 8, 300, 2)]
    # tautologies, a literal written twice and a clause repeated
    out.append(
        parse_cnf(
            "c k 2\np cnf 4 9\n"
            "w 3 1 1 -1 0\nw 2 2 2 2 0\nw 1 4 -3 -3 4 0\nw 5 0 -2 0\n"
            "w 5 0 -2 0\nw 0 3 3 -3 -4 4 0\nw 1 1 -1 -2 0\nw 2 0 4 0\nw 0 2 -4 0\n"
        )
    )
    out.append(cnf(3, ({1, -1}, (3, 1, 2)), ({2, -2}, (1, 3, 0)), ({3, -3}, (0, 0, 4))))
    return out


def test_packed_sweep_matches_reference():
    for inst in differential_corpus():
        m, two_k = inst.num_vars, even_objectives(inst.dimension)
        for v0, v1 in _walk(inst._table, m, two_k):
            want_v1, want_vprime = reference_sat_state(inst, variables(m, v0), two_k)
            assert v1 == bits(m, want_v1)
            assert ((1 << m) - 1) & ~(v0 | v1) == bits(m, want_vprime)
        expected = reference_weigh_and_filter(inst, reference_sweep_masks(inst))
        assert maxsat_approx(inst) == expected


def test_packed_oracle_matches_reference():
    for inst in differential_corpus():
        assert maxsat_oracle(inst) == reference_maxsat_oracle(inst)


def walked_masks(inst):
    """The masks each walked state emits, one set per state."""
    m, two_k = inst.num_vars, even_objectives(inst.dimension)
    full = (1 << m) - 1
    for v0, v1 in _walk(inst._table, m, two_k):
        yield _emit_masks(v1, full & ~(v0 | v1), two_k // 2)


def emitted_masks(inst):
    """Masks the sweep emits, counted per state before deduplication."""
    return sum(map(len, walked_masks(inst)))


def test_scan_estimate_bounds_emitted_masks():
    for dim in (1, 2, 3, 4):
        two_k = even_objectives(dim)
        for m in (1, 2, 4, 7, 10):
            for seed in (0, 1):
                inst = generate(
                    GeneratorSpec(
                        kind="cnf", seed=27_000 + 100 * dim + 10 * m + seed,
                        m=m, clauses=m + 3, dim=dim, bound=9,
                    )
                )
                assert maxsat_scan_estimate(m, two_k) >= emitted_masks(inst)
        # sound, and within 100x of the work it guards
        for m in range(1, 13):
            inst = generate(
                GeneratorSpec(kind="cnf", seed=27_900, m=m, clauses=2 * m, dim=dim, bound=9)
            )
            emitted = emitted_masks(inst)
            assert emitted <= maxsat_scan_estimate(m, two_k) <= 100 * emitted


def test_emit_masks_matches_reference():
    # (m, V1, V', k) with V1 and V' as variable tuples; the sweep takes V'
    # by ascending bit, so by descending variable, and the reference by
    # ascending variable, and both must emit the same unions of intervals
    cases = []
    for i in range(100):
        # the instances of acceptance criterion 2
        inst = generate(
            GeneratorSpec(
                kind="cnf", seed=400_000 + i, m=4 + (i % 7), clauses=5 + (i % 11),
                dim=1 + (i % 2), bound=20,
            )
        )
        m, two_k = inst.num_vars, even_objectives(inst.dimension)
        for v0, v1 in _walk(inst._table, m, two_k):
            vprime = ((1 << m) - 1) & ~(v0 | v1)
            cases.append((m, variables(m, v1), variables(m, vprime), two_k // 2))
    # |V'| = 0, 1 and 2 next to forced variables, at one and two intervals
    for vprime in ((), (2,), (2, 4)):
        cases += [(4, (3,), vprime, 1), (4, (3,), vprime, 2)]
    for m, v1, vprime, half_k in cases:
        masks = _emit_masks(bits(m, v1), bits(m, vprime), half_k)
        assert {reference_mask(m, a) for a in masks} == reference_emit_masks(v1, vprime, half_k)


def walk_corpus():
    """Small instances at dims 1-4, bounds 0, 1 and 20."""
    for dim in (1, 2, 3, 4):
        for m in (1, 3, 5, 8):
            for bound in (0, 1, 20):
                yield generate(
                    GeneratorSpec(
                        kind="cnf", seed=28_000 + 100 * dim + 10 * m + bound,
                        m=m, clauses=2 * m + 1, dim=dim, bound=bound,
                    )
                )


def test_walk_visits_every_v0_in_lexicographic_order():
    # lexicographic in V0's sorted bit tuple
    for inst in walk_corpus():
        m, two_k = inst.num_vars, even_objectives(inst.dimension)
        cap = min(two_k * two_k, m)
        v0s = [
            tuple(b for b in range(m) if v0 >> b & 1)
            for v0, _ in _walk(inst._table, m, two_k)
        ]
        assert len(v0s) == sum(comb(m, s) for s in range(cap + 1))
        assert v0s == sorted(v0 for s in range(cap + 1) for v0 in combinations(range(m), s))


def test_v1_shrinks_along_every_walk_link():
    # the walk tests only the parent's V1 minus x while the reference
    # tests every variable outside V0, so equal V1 sets show that no
    # variable outside the parent's V1 would have been forced
    for inst in walk_corpus():
        m, two_k = inst.num_vars, even_objectives(inst.dimension)
        v1_of = {}
        for v0_mask, v1_mask in _walk(inst._table, m, two_k):
            v0, v1 = variables(m, v0_mask), frozenset(variables(m, v1_mask))
            assert v1 == reference_sat_state(inst, v0, two_k)[0]
            v1_of[v0] = v1
            if v0:
                # a child adds a bit above its parent's, so a smaller variable
                x, *parent = v0
                assert v1 <= v1_of[tuple(parent)] - {x}


def cube_corpus():
    """Instances with (2k)^2 + 1 >= m at dims 1-4, m up to 10."""
    for dim in (1, 2, 3, 4):
        two_k = even_objectives(dim)
        for m in range(1, min(two_k * two_k + 1, 10) + 1, 3 if dim > 2 else 1):
            for bound, seed in ((0, 1), (1, 2), (20, 1), (20, 2)):
                yield generate(
                    GeneratorSpec(
                        kind="cnf", seed=29_000 + 100 * dim + 10 * m + seed,
                        m=m, clauses=2 * m, dim=dim, bound=bound,
                    )
                )


def two_objective_corpus(m):
    """80 instances at 2k = 2 (dims 1-2), bounds 0/1/5/20, 3 and 10
    clauses, five seeds each."""
    for dim in (1, 2):
        for bound in (0, 1, 5, 20):
            for clauses in (3, 10):
                for seed in range(5):
                    yield generate(
                        GeneratorSpec(
                            kind="cnf", seed=32_000 + 100 * dim + 10 * bound + seed,
                            m=m, clauses=clauses, dim=dim, bound=bound,
                        )
                    )


def test_cube_shortcut_matches_walk():
    # with (2k)^2 + 1 >= m the sweep weighs all 2^m masks instead of
    # walking; at m = (2k)^2 + 1 = 5 the walk still emits the zero mask
    # (module docstring), checked on 80 more instances
    for inst in chain(cube_corpus(), two_objective_corpus(5)):
        masks = set().union(*walked_masks(inst))
        assert masks == set(range(1 << inst.num_vars))
        assert maxsat_approx(inst) == reference_weigh_and_filter(inst, masks)


def test_walk_runs_at_square_plus_three():
    # m = (2k)^2 + 3 = 7: the walk misses masks, and in 42 of the 80
    # cases the cube's output differs from the walk's
    differ = 0
    for inst in two_objective_corpus(7):
        out = maxsat_approx(inst)
        walked = {reference_mask(7, a) for a in set().union(*walked_masks(inst))}
        assert out == reference_weigh_and_filter(inst, walked)
        differ += out != reference_weigh_and_filter(inst, range(1 << 7))
    assert differ == 42


def test_scan_estimate_admits_small_many_objective_instances():
    # the old m^((2k)^2+2k) estimate (~3.7e15 at m=6, three objectives)
    # refused such instances under the default budget of 10^9
    assert maxsat_scan_estimate(6, 4) == 2972
    assert maxsat_scan_estimate(20, 2) == 976756
    inst = generate(GeneratorSpec(kind="cnf", seed=27_900, m=6, clauses=8, dim=3, bound=9))
    out = maxsat_approx(inst)
    assert is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1, 2)).ok
