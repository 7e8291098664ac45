import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import necklace_blocks, reference_balance_combinatorial, separated_tuples
from mobal.balancing import (
    BalanceResult,
    BalancingInstance,
    IntervalFamily,
    balance_combinatorial,
    balance_deviation,
    balance_integer,
    balance_paired,
    precondition_faults,
    verify_balance,
)
from mobal.errors import PreconditionError
from mobal.instances import GeneratorSpec, generate, serialize_balance
from mobal.rng import SplitMix64


def paired_corpus(count, seed0=10_000, max_m=16, bound=50):
    for i in range(count):
        m = 1 + (i * 7) % max_m
        n = 1 + (i % 2)
        yield generate(
            GeneratorSpec(kind="balance-paired", seed=seed0 + i, m=m, n=n, bound=bound)
        )


def integer_corpus(count, seed0=11_000, max_m=16, bound=50):
    for i in range(count):
        m = 1 + (i * 7) % max_m
        yield generate(
            GeneratorSpec(kind="balance-integer", seed=seed0 + i, m=m, n=1, bound=bound)
        )


def combinatorial_corpus(count, seed0=12_000, max_m=14, bound=50):
    for i in range(count):
        m = 1 + (i * 5) % max_m
        n = 1 + (i % 2)
        yield generate(
            GeneratorSpec(
                kind="balance-combinatorial", seed=seed0 + i, m=m, n=n, bound=bound
            )
        )


def lopsided_corpus(seed0, signed=False):
    # x from [0, z] against y from [0, z // 4], swapped on every other
    # instance (x alone, as x - y, when signed): the sums lean so far off
    # balance that the empty family fails and the first hit has a cut inside
    for i, (n, m, bound) in enumerate(
        (n, m, bound) for n, m in ((1, 12), (1, 16), (2, 20), (2, 24), (3, 28), (3, 32))
        for bound in (1, 2, 4, 50)
    ):
        rng = SplitMix64(seed0 + i)
        lean, dim = (-1) ** i, 2 * n
        big, small = (
            tuple(tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(m))
            for hi in (bound, bound // 4)
        )
        z = (bound,) * dim
        if signed:
            x = tuple(tuple(lean * (a - b) for a, b in zip(u, v)) for u, v in zip(big, small))
            yield BalancingInstance(x=x, z=z)
        else:
            yield BalancingInstance(*((big, small) if lean > 0 else (small, big)), z=z)


# -- paired -------------------------------------------------------------------


def test_paired_trivial_single_index():
    inst = BalancingInstance(x=((2, 2),), y=((2, 2),), z=(2, 2))
    res = balance_paired(inst)
    assert res.family.intervals == ((1, 1),)  # a = b = 1 encodes the empty set
    assert res.in_sum == (0, 0) and res.out_sum == (2, 2)
    assert verify_balance(inst, res, "paired")


def test_paired_symmetric_m4():
    inst = BalancingInstance(x=((1, 0),) * 4, y=((0, 1),) * 4, z=(1, 1))
    res = balance_paired(inst)
    mixed = tuple(a + b for a, b in zip(res.in_sum, res.out_sum))
    # grand total (4, 4): within 2nz = (2, 2) of half of it, (2, 2)
    assert all(abs(2 * mixed[c] - 4) <= 4 for c in range(2))
    assert verify_balance(inst, res, "paired")


def test_paired_corpus_success_and_recomputation():
    for inst in paired_corpus(200):
        res = balance_paired(inst)
        assert verify_balance(inst, res, "paired")
        # independent recomputation of the deviation from first principles
        dim = inst.dimension
        total = [sum(v[c] for v in inst.x) + sum(v[c] for v in inst.y) for c in range(dim)]
        mixed = [0] * dim
        for i in range(1, inst.m + 1):
            inside = any(a <= i < b for a, b in res.family.intervals)
            src = inst.x[i - 1] if inside else inst.y[i - 1]
            for c in range(dim):
                mixed[c] += src[c]
        for c in range(dim):
            assert abs(2 * mixed[c] - total[c]) <= 4 * inst.n * inst.z[c]


def _paired_full_scan_first(inst, count=None):
    # independent exhaustive re-scan over all tuples of `count` intervals
    # (n when None) against the instance's own bound 4nz
    dim, m, n = inst.dimension, inst.m, inst.n
    count = n if count is None else count
    total = [sum(v[c] for v in inst.x) + sum(v[c] for v in inst.y) for c in range(dim)]
    for t in combinations_with_replacement(range(1, m + 1), 2 * count):
        pairs = tuple((t[j], t[j + 1]) for j in range(0, 2 * count, 2))
        ok = True
        for c in range(dim):
            acc = 0
            for i in range(1, m + 1):
                if any(a <= i < b for a, b in pairs):
                    acc += inst.x[i - 1][c]
                else:
                    acc += inst.y[i - 1][c]
            if abs(2 * acc - total[c]) > 4 * n * inst.z[c]:
                ok = False
                break
        if ok:
            return pairs
    return None


def _half_open_sums(x, y, pairs):
    # x summed over the half-open intervals, y over the rest, index by index
    dim = len(x[0])
    in_sum, out_sum = [0] * dim, [0] * dim
    for i in range(1, len(x) + 1):
        inside = any(a <= i < b for a, b in pairs)
        src, tgt = (x, in_sum) if inside else (y, out_sum)
        for c in range(dim):
            tgt[c] += src[i - 1][c]
    return tuple(in_sum), tuple(out_sum)


def test_paired_returns_lexicographically_first_tuple():
    instances = list(paired_corpus(60, seed0=13_000, max_m=10))
    # tight bounds 0-2, where sums tie with the bound, at one to three intervals
    instances += [
        generate(
            GeneratorSpec(
                kind="balance-paired", seed=13_100 + s, m=1 + (5 * s) % (9 if n < 3 else 7),
                n=n, bound=s % 3,
            )
        )
        for n in (1, 2, 3)
        for s in range(12)
    ]
    instances += lopsided_corpus(13_200)
    for inst in instances:
        res = balance_paired(inst)
        first = _paired_full_scan_first(inst)
        assert res.family.intervals == first
        assert (res.in_sum, res.out_sum) == _half_open_sums(inst.x, inst.y, first)


def test_paired_deterministic():
    inst = next(iter(paired_corpus(1, seed0=77)))
    assert balance_paired(inst) == balance_paired(inst)


def test_paired_n_exceeding_m_allowed():
    inst = BalancingInstance(x=((1, 0, 2, 1),), y=((0, 1, 1, 2),), z=(2, 2, 2, 2))
    res = balance_paired(inst)  # m=1, n=2: extra intervals collapse to empty
    assert verify_balance(inst, res, "paired")


def test_paired_precondition_violations():
    with pytest.raises(PreconditionError):
        balance_paired(BalancingInstance(x=((3, 0),), y=((0, 1),), z=(2, 2)))
    with pytest.raises(PreconditionError):
        balance_paired(BalancingInstance(x=((1, 0),), y=((0, 1),)))  # missing z


# -- integer ------------------------------------------------------------------


def test_integer_single_element():
    res = balance_integer(((3, -2),), (3, 2))
    imbalance = tuple(a - b for a, b in zip(res.in_sum, res.out_sum))
    assert tuple(abs(c) for c in imbalance) <= (12, 8)
    inst = BalancingInstance(x=((3, -2),), z=(3, 2))
    assert verify_balance(inst, res, "integer")


def test_integer_alternating_cancellation():
    c = 7
    x = ((c, -c), (-c, c)) * 2
    z = (c, c)
    # some searched family achieves exact balance
    best = None
    for a in range(1, 5):
        for b in range(a, 6):
            in_sum = [0, 0]
            out_sum = [0, 0]
            for i in range(1, 5):
                target = in_sum if a <= i < b else out_sum
                target[0] += x[i - 1][0]
                target[1] += x[i - 1][1]
            imb = (abs(in_sum[0] - out_sum[0]), abs(in_sum[1] - out_sum[1]))
            best = imb if best is None else min(best, imb)
    assert best == (0, 0)
    res = balance_integer(x, z)
    assert verify_balance(BalancingInstance(x=x, z=z), res, "integer")


def _shifted(inst):
    # the paired instance x' = z + x, y' = z - x, z' = 2z, whose first
    # family is the first signed family of x within 4nz
    dim = inst.dimension
    return BalancingInstance(
        x=tuple(tuple(inst.z[c] + v[c] for c in range(dim)) for v in inst.x),
        y=tuple(tuple(inst.z[c] - v[c] for c in range(dim)) for v in inst.x),
        z=tuple(2 * b for b in inst.z),
    )


def test_integer_corpus_within_bound_and_first():
    for idx, inst in enumerate(integer_corpus(200)):
        res = balance_integer(inst.x, inst.z)
        assert verify_balance(inst, res, "integer")
        # full scan over all O(m^2) single-interval families
        m, dim = inst.m, inst.dimension
        satisfying = []
        for a in range(1, m + 1):
            for b in range(a, m + 1):
                in_sum = [0] * dim
                out_sum = [0] * dim
                for i in range(1, m + 1):
                    tgt = in_sum if a <= i < b else out_sum
                    for c in range(dim):
                        tgt[c] += inst.x[i - 1][c]
                if all(
                    abs(in_sum[c] - out_sum[c]) <= 4 * inst.z[c] for c in range(dim)
                ):
                    satisfying.append((a, b))
        assert satisfying, "a satisfying single-interval family must exist"
        assert res.family.intervals == (satisfying[0],)
    # two and three intervals, on tight and loose bounds, against the
    # exhaustive paired scan of the shifted instance
    instances = [
        generate(
            GeneratorSpec(
                kind="balance-integer", seed=11_500 + i, m=1 + (5 * i) % (9 if n < 3 else 7),
                n=n, bound=(0, 1, 2, 50)[(i // 2) % 4],
            )
        )
        for i, n in enumerate([2, 3] * 18)
    ]
    for inst in instances + list(lopsided_corpus(11_600, signed=True)):
        res = balance_integer(inst.x, inst.z)
        first = _paired_full_scan_first(_shifted(inst))
        assert res.family.intervals == first
        assert (res.in_sum, res.out_sum) == _half_open_sums(inst.x, inst.x, first)


def test_integer_substitution_feeds_closed_interval_bound():
    # cross-check between variants: the substituted sequences x' = z + x,
    # y' = z - x (so y' <= 2z) run through the combinatorial search must
    # satisfy the closed-interval bound n'*(2z) + in + out >= half total,
    # with the boundary correction never exceeding n'*(2z)
    for inst in integer_corpus(50, seed0=14_000):
        dim = inst.dimension
        xp = tuple(
            tuple(inst.z[c] + v[c] for c in range(dim)) for v in inst.x
        )
        yp = tuple(
            tuple(inst.z[c] - v[c] for c in range(dim)) for v in inst.x
        )
        res = balance_combinatorial(BalancingInstance(x=xp, y=yp))
        nprime = len(res.family.intervals)
        total = [2 * inst.m * inst.z[c] for c in range(dim)]
        for c in range(dim):
            assert res.correction[c] <= nprime * 2 * inst.z[c]
            lhs = nprime * 2 * inst.z[c] + res.in_sum[c] + res.out_sum[c]
            assert 2 * lhs >= total[c]


def test_integer_precondition_violation():
    with pytest.raises(PreconditionError):
        balance_integer(((5, 0),), (3, 2))


@pytest.mark.parametrize(
    "n, m, expected", [(1, 64, ((15, 47),)), (2, 40, ((2, 12), (22, 32)))]
)
def test_necklace_blocks_need_n_intervals(n, m, expected):
    # x_i = e_c on block c, y = 0, z = 1: fewer than n intervals cannot
    # balance, since one interval meeting blocks 0 and 3 covers 1 and 2 whole
    inst = necklace_blocks(n, m)
    for res in (balance_paired(inst), balance_integer(inst.x, inst.z)):
        assert res.family.intervals == expected  # n nonempty intervals
    assert _paired_full_scan_first(inst, n - 1) is None


# -- combinatorial ------------------------------------------------------------


def test_combinatorial_trivial():
    inst = BalancingInstance(x=((4, 0),), y=((0, 4),))
    res = balance_combinatorial(inst)
    assert res.family.intervals == ((1, 1),)
    assert res.correction == (0, 4)
    assert tuple(
        c + i + o for c, i, o in zip(res.correction, res.in_sum, res.out_sum)
    ) == (4, 4)
    assert verify_balance(inst, res, "combinatorial")


def test_combinatorial_x_equals_y_needs_no_interval():
    x = ((3, 1), (0, 2), (5, 5))
    inst = BalancingInstance(x=x, y=x)
    res = balance_combinatorial(inst)
    assert res.family.intervals == ()
    assert res.out_sum == (8, 8)
    assert verify_balance(inst, res, "combinatorial")


def test_combinatorial_corpus():
    for inst in combinatorial_corpus(200):
        res = balance_combinatorial(inst)
        assert verify_balance(inst, res, "combinatorial")
        # re-verify the inequality componentwise, straight recomputation
        dim = inst.dimension
        total = [sum(v[c] for v in inst.x) + sum(v[c] for v in inst.y) for c in range(dim)]
        lhs = [0] * dim
        for i in range(1, inst.m + 1):
            inside = any(a <= i <= b for a, b in res.family.intervals)
            src = inst.x[i - 1] if inside else inst.y[i - 1]
            for c in range(dim):
                lhs[c] += src[c]
        for _, b in res.family.intervals:
            for c in range(dim):
                lhs[c] += inst.y[b - 1][c]
        assert all(2 * lhs[c] >= total[c] for c in range(dim))
        # n' respects min(n, m) and strict separation
        assert len(res.family.intervals) <= min(inst.n, inst.m)
        for (a1, b1), (a2, _) in zip(res.family.intervals, res.family.intervals[1:]):
            assert b1 < a2


def test_combinatorial_rejects_negative():
    with pytest.raises(PreconditionError):
        balance_combinatorial(BalancingInstance(x=((-1, 0),), y=((0, 1),)))


# -- verifier -----------------------------------------------------------------


def test_verify_rejects_malformed_family():
    inst = BalancingInstance(x=((1, 1),) * 3, y=((1, 1),) * 3, z=(1, 1))
    res = balance_paired(inst)
    bad = BalanceResult(
        IntervalFamily(((0, 2),), 3), res.in_sum, res.out_sum, res.correction
    )
    with pytest.raises(PreconditionError):
        verify_balance(inst, bad, "paired")
    with pytest.raises(PreconditionError):
        verify_balance(inst, res, "nonsense")


def test_every_variant_entry_point_refuses_an_unknown_variant():
    # CARRIES names the variants, and `_check_present` refuses the rest
    inst = BalancingInstance(x=((1, 1),) * 3, y=((1, 1),) * 3, z=(1, 1))
    res = balance_paired(inst)
    for call in (
        lambda: list(precondition_faults(inst, "nonsense")),
        lambda: balance_deviation(inst, res, "nonsense"),
        lambda: verify_balance(inst, res, "nonsense"),
        lambda: serialize_balance("nonsense", inst),
    ):
        with pytest.raises(PreconditionError, match="unknown variant 'nonsense'"):
            call()


@pytest.mark.parametrize(
    "variant, intervals, m, message",
    [
        ("paired", ((1, 2),), 4, "family covers m=4, instance has m=3"),
        ("combinatorial", ((1, 2), (2, 3)), 3, "must satisfy b_j < a_{j+1}"),
        ("paired", ((2, 3), (1, 2)), 3, "must be sorted"),
        ("paired", ((1, 2), (2, 3)), 3, "exceed the cap of 1 for paired"),
    ],
)
def test_verify_names_each_family_fault(variant, intervals, m, message):
    inst = BalancingInstance(x=((1, 1),) * 3, y=((1, 1),) * 3, z=(1, 1))
    bad = BalanceResult(IntervalFamily(intervals, m), (0, 0), (0, 0), (0, 0))
    with pytest.raises(PreconditionError, match=re.escape(message)):
        verify_balance(inst, bad, variant)


def test_verify_detects_shifted_intervals():
    # shifting a correct nonempty family by one must break at least one
    # instance; tight (0/1-weight) instances make that likely
    broke = 0
    for i in range(120):
        inst = generate(
            GeneratorSpec(
                kind="balance-paired", seed=60_000 + i, m=4 + (i % 9), n=1, bound=1
            )
        )
        res = balance_paired(inst)
        shifted = tuple(
            (a + 1, b + 1) for a, b in res.family.intervals if b + 1 <= inst.m
        )
        if len(shifted) != len(res.family.intervals) or all(
            a == b for a, b in shifted
        ):
            continue
        dim = inst.dimension
        in_sum = [0] * dim
        out_sum = [0] * dim
        for i in range(1, inst.m + 1):
            inside = any(a <= i < b for a, b in shifted)
            src = inst.x[i - 1] if inside else inst.y[i - 1]
            tgt = in_sum if inside else out_sum
            for c in range(dim):
                tgt[c] += src[c]
        mutated = BalanceResult(
            IntervalFamily(shifted, inst.m),
            tuple(in_sum),
            tuple(out_sum),
            res.correction,
        )
        if not verify_balance(inst, mutated, "paired"):
            broke += 1
    assert broke > 0


def test_verify_stale_sums_fail():
    inst = BalancingInstance(x=((2, 0),) * 2, y=((0, 2),) * 2, z=(2, 2))
    res = balance_paired(inst)
    stale = BalanceResult(res.family, (99, 99), res.out_sum, res.correction)
    assert not verify_balance(inst, stale, "paired")


def test_verify_empty_family_on_zero_instance():
    inst = BalancingInstance(x=((0, 0),) * 3, y=((0, 0),) * 3)
    res = BalanceResult(IntervalFamily((), 3), (0, 0), (0, 0), (0, 0))
    assert verify_balance(inst, res, "combinatorial")


def test_separated_tuple_generator_against_brute_force():
    from itertools import product as iproduct

    for m in range(1, 7):
        for count in range(0, 3):
            expected = []
            for flat in iproduct(range(1, m + 1), repeat=2 * count):
                pairs = tuple(
                    (flat[j], flat[j + 1]) for j in range(0, 2 * count, 2)
                )
                ok = all(a <= b for a, b in pairs) and all(
                    pairs[j][1] < pairs[j + 1][0] for j in range(count - 1)
                )
                if ok:
                    expected.append(pairs)
            assert list(separated_tuples(m, count)) == expected


def test_combinatorial_matches_separated_tuple_search():
    instances = list(combinatorial_corpus(60, seed0=12_500))
    instances += [
        inst
        for bound in (0, 1, 2)
        for inst in combinatorial_corpus(20, seed0=12_700 + 100 * bound, max_m=10, bound=bound)
    ]
    # m < n, m = 1, and spreads over n = 1..3
    for i, (m, n) in enumerate([(1, 1), (1, 3), (2, 3), (3, 2), (4, 3), (9, 3), (12, 2)]):
        instances += [
            generate(
                GeneratorSpec(
                    kind="balance-combinatorial", seed=12_600 + 10 * i + s, m=m, n=n,
                    bound=(0, 1, 50)[s % 3],
                )
            )
            for s in range(6)
        ]
    # y alone reaches half the total: the empty family (n' = 0) is the hit
    instances.append(BalancingInstance(x=((1, 0), (0, 1)), y=((2, 2), (3, 1))))
    # every sum is zero
    instances.append(BalancingInstance(x=((0, 0, 0, 0),) * 3, y=((0, 0, 0, 0),) * 3))
    # a seed whose first hit takes two intervals, and sparse instances
    # whose first hit takes all three
    instances.append(
        generate(GeneratorSpec(kind="balance-combinatorial", seed=13_149, m=6, n=2, bound=3))
    )
    z6 = (0,) * 6
    instances.append(
        BalancingInstance(
            x=((0, 3, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0), (1, 0, 0, 0, 0, 0), z6, (0, 0, 0, 0, 1, 0)),
            y=((3, 0, 1, 1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 3, 0, 0), z6, z6),
        )
    )
    instances.append(
        BalancingInstance(
            x=(z6, (3, 0, 0, 0, 0, 0), (3, 0, 1, 0, 0, 3), (1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 3, 0), z6),
            y=(z6, (0, 0, 0, 0, 0, 3), (0, 3, 0, 0, 0, 0), (0, 0, 3, 0, 0, 1), z6, (0, 1, 0, 0, 0, 0)),
        )
    )
    sizes = set()
    for inst in instances:
        res = balance_combinatorial(inst)
        assert res == reference_balance_combinatorial(inst)
        sizes.add(len(res.family.intervals))
    assert sizes == {0, 1, 2, 3}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_paired_property_random_small(data):
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 2))
    bound = data.draw(st.integers(0, 9))
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    dim = 2 * n
    x = tuple(tuple(rng.randint(0, bound) for _ in range(dim)) for _ in range(m))
    y = tuple(tuple(rng.randint(0, bound) for _ in range(dim)) for _ in range(m))
    inst = BalancingInstance(x=x, y=y, z=(bound,) * dim)
    res = balance_paired(inst)
    assert verify_balance(inst, res, "paired")
