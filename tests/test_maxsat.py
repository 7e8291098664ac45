from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assignment_weight,
    brute_force_assignment_front,
    clause_bucket,
    naive_assignment_weight,
    pareto_filter,
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
    iter_sat_states,
    maxsat_approx,
    maxsat_oracle,
    maxsat_scan_estimate,
    SatState,
    sat_state,
)
from mobal.pareto import (
    SolutionSet,
    even_objectives,
    is_alpha_approx_set,
    nondominated,
    pareto_front_witnesses,
)


def cnf(num_vars, *clauses_with_weights):
    clauses = tuple(frozenset(c) for c, _ in clauses_with_weights)
    weights = tuple(tuple(w) for _, w in clauses_with_weights)
    return CnfInstance(num_vars, clauses, weights)


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
    two_k = even_objectives(inst.dimension)
    for state in iter_sat_states(inst):
        assert len(state.v0) <= two_k * two_k
        assert state.v0 | state.v1 | state.vprime == set(
            range(1, inst.num_vars + 1)
        )
        assert not (state.v0 & state.v1)
        for mask in _emit_masks(state, two_k // 2):
            for v in state.v1:
                assert (mask >> (v - 1)) & 1 == 1
            for v in state.v0:
                assert (mask >> (v - 1)) & 1 == 0


def test_v1_condition_is_some_objective_exceeds():
    # G[-v1] = {(-v1, w=(5,0))}; discarded weight is zero, so objective 1
    # satisfies 2k*5 > 0 and v1 is forced to one
    inst = cnf(2, ({-1}, (5, 0)), ({2}, (1, 1)))
    state = sat_state(inst, ())
    assert 1 in state.v1
    # all-objective comparison would fail: component 2 gives 0 > 0 false
    assert not all(2 * w > 0 for w in (5, 0))


def test_v1_not_forced_when_componentwise_small():
    # G[-v1] weighs (1, 1); dropping clause 0 via V0={1} puts (8, 8) into
    # the discarded side, and 2k*(1,1) <= (8,8) keeps v1 free there
    inst = cnf(2, ({-1}, (8, 8)), ({-1, 2}, (1, 1)))
    state = sat_state(inst, (1,))
    assert state.v1 == frozenset()


def test_gprime_definition():
    inst = cnf(3, ({-1, 2}, (1, 1)), ({1}, (1, 1)), ({3}, (2, 2)))
    state = sat_state(inst, (1,))
    # clause 0 contains -v1 with v1 in V0: satisfied, out of G
    assert 0 not in state.g


def test_single_interval_variable_still_admits_empty_interval():
    # with |V'| = 1 no endpoint tuple has a > b, yet the all-empty
    # combination is one of the k-interval choices and must be emitted
    inst = cnf(1, ({1}, (1, 1)))
    state = sat_state(inst, ())
    assert state.vprime == frozenset({1})
    assert _emit_masks(state, 1) == {0, 1}


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
    assert out.dimension() == 1
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
        two_k = even_objectives(inst.dimension)
        for state in iter_sat_states(inst):
            assert state == reference_sat_state(inst, state.v0, two_k)
        expected = reference_weigh_and_filter(inst, reference_sweep_masks(inst))
        assert maxsat_approx(inst) == expected


def test_packed_oracle_matches_reference():
    for inst in differential_corpus():
        assert maxsat_oracle(inst) == reference_maxsat_oracle(inst)


def emitted_masks(inst):
    """Masks the sweep emits, counted per state before deduplication."""
    half_k = even_objectives(inst.dimension) // 2
    return sum(len(_emit_masks(state, half_k)) for state in iter_sat_states(inst))


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
    states = []
    for i in range(100):
        # the instances of acceptance criterion 2
        inst = generate(
            GeneratorSpec(
                kind="cnf", seed=400_000 + i, m=4 + (i % 7), clauses=5 + (i % 11),
                dim=1 + (i % 2), bound=20,
            )
        )
        states += [(state, even_objectives(inst.dimension) // 2) for state in iter_sat_states(inst)]
    # |V'| = 0, 1 and 2 next to forced variables, at one and two intervals
    for vprime in ((), (2,), (2, 4)):
        state = SatState(frozenset({1}), frozenset({3}), frozenset(vprime), ())
        states += [(state, 1), (state, 2)]
    for state, half_k in states:
        assert _emit_masks(state, half_k) == reference_emit_masks(state, half_k)


def test_scan_estimate_admits_small_many_objective_instances():
    # the old m^((2k)^2+2k) estimate (~3.7e15 at m=6, three objectives)
    # refused such instances under the default budget of 10^9
    assert maxsat_scan_estimate(6, 4) == 2972
    assert maxsat_scan_estimate(20, 2) == 976756
    inst = generate(GeneratorSpec(kind="cnf", seed=27_900, m=6, clauses=8, dim=3, bound=9))
    out = maxsat_approx(inst)
    assert is_alpha_approx_set(out, maxsat_oracle(inst), Fraction(1, 2)).ok
