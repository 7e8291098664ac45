from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobal.balancing import CARRIES, VARIANTS, verify_balance
from mobal.cli import _BALANCERS
from mobal.errors import BudgetExceededError, InstanceFormatError, PreconditionError
from mobal.instances import (
    BALANCE_KINDS,
    GeneratorSpec,
    detect_kind,
    digest,
    generate,
    parse_balance,
    parse_cnf,
    parse_graph,
    serialize,
    serialize_balance,
    serialize_cnf,
    serialize_graph,
)
from mobal.maxsat import CnfInstance

DATA = Path(__file__).parent / "data"


# -- generators ----------------------------------------------------------------


def test_same_seed_same_instance():
    for kind in ("balance-paired", "balance-integer", "cnf", "graph"):
        spec = GeneratorSpec(kind=kind, seed=99, m=5, n=1, clauses=6, vertices=4)
        assert generate(spec) == generate(spec)


def test_different_seed_differs():
    a = generate(GeneratorSpec(kind="cnf", seed=1, m=8, clauses=10))
    b = generate(GeneratorSpec(kind="cnf", seed=2, m=8, clauses=10))
    assert a != b


def test_bound_zero_all_zero_weights():
    inst = generate(GeneratorSpec(kind="balance-paired", seed=5, m=4, n=1, bound=0))
    assert all(all(c == 0 for c in v) for v in inst.x + inst.y)
    g = generate(GeneratorSpec(kind="graph", seed=5, vertices=4, bound=0))
    assert all(w == (0, 0) for w in g.weight_map.values())


def test_seed_sweep_graphs_valid():
    for seed in range(100):
        g = generate(GeneratorSpec(kind="graph", seed=seed, vertices=6, dim=2, bound=9))
        assert g.num_vertices == 6
        assert len(g.weight_map) == 30
        assert all(
            0 <= c <= 9 for w in g.weight_map.values() for c in w
        )


def test_generated_instances_meet_invariants():
    for i in range(40):
        inst = generate(
            GeneratorSpec(kind="cnf", seed=i, m=1 + i % 10, clauses=1 + i % 12, dim=1 + i % 3)
        )
        assert isinstance(inst, CnfInstance)  # constructor revalidates
        paired = generate(
            GeneratorSpec(kind="balance-paired", seed=i, m=1 + i % 8, n=1 + i % 2, bound=7)
        )
        assert all(v <= (7,) * paired.dimension for v in paired.x)
        signed = generate(
            GeneratorSpec(kind="balance-integer", seed=i, m=1 + i % 8, n=1, bound=7)
        )
        assert all(all(-7 <= c <= 7 for c in v) for v in signed.x)


def test_generator_caps():
    with pytest.raises(BudgetExceededError):
        GeneratorSpec(kind="cnf", seed=0, m=999)
    with pytest.raises(BudgetExceededError):
        GeneratorSpec(kind="graph", seed=0, vertices=99)
    with pytest.raises(PreconditionError):
        GeneratorSpec(kind="nonsense", seed=0)
    # SplitMix64 keeps the low 64 bits, so -1 would equal 2^64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(PreconditionError):
            GeneratorSpec(kind="graph", seed=seed)
    assert generate(GeneratorSpec(kind="graph", seed=2**64 - 1)).num_vertices == 4
    # 0 is a valid weight bound, and a tour needs two vertices
    with pytest.raises(PreconditionError, match="bound must be >= 0"):
        GeneratorSpec(kind="graph", seed=0, bound=-1)
    assert generate(GeneratorSpec(kind="graph", seed=0, bound=0)).weight_map[(0, 1)] == (0, 0)
    with pytest.raises(PreconditionError, match="vertices must be >= 2"):
        GeneratorSpec(kind="graph", seed=0, vertices=1)


def test_dim_defaults_to_two_and_balance_kinds_refuse_it():
    assert GeneratorSpec(kind="graph", seed=0).dim == 2
    assert GeneratorSpec(kind="cnf", seed=0).dim == 2
    assert len(generate(GeneratorSpec(kind="graph", seed=0)).weight_map[(0, 1)]) == 2
    # a balance kind's vector dimension is 2n, under the cap or over it
    for dim in (2, 7, 9):
        with pytest.raises(PreconditionError):
            GeneratorSpec(kind="balance-paired", seed=1, n=2, dim=dim)
    assert GeneratorSpec(kind="balance-paired", seed=1, n=2).dim is None
    assert generate(GeneratorSpec(kind="balance-paired", seed=1, n=2)).dimension == 4


# -- round trips ---------------------------------------------------------------


def test_balance_round_trips():
    for kind, variant in BALANCE_KINDS.items():
        for seed in range(10):
            inst = generate(GeneratorSpec(kind=kind, seed=seed, m=4, n=2, bound=9))
            text = serialize_balance(variant, inst)
            back_variant, back = parse_balance(text)
            assert back_variant == variant
            assert back == inst
            assert serialize_balance(variant, back) == text


def test_cnf_round_trips():
    for seed in range(10):
        inst = generate(GeneratorSpec(kind="cnf", seed=seed, m=6, clauses=7, dim=2))
        text = serialize_cnf(inst)
        assert parse_cnf(text) == inst
        assert serialize_cnf(parse_cnf(text)) == text


def test_graph_round_trips():
    for seed in range(10):
        g = generate(GeneratorSpec(kind="graph", seed=seed, vertices=5, dim=3))
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text


def test_serialize_refuses_an_unknown_kind():
    # a kind KIND_FIELDS does not name is refused, not written as a graph
    for kind in ("graph", "cnf"):
        instance = generate(GeneratorSpec(kind=kind, seed=1))
        with pytest.raises(PreconditionError, match="unknown generator kind 'nonsense'"):
            serialize("nonsense", instance)


@given(st.integers(0, 2**63), st.integers(1, 6), st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed, m, n):
    inst = generate(GeneratorSpec(kind="balance-paired", seed=seed, m=m, n=n, bound=9))
    assert parse_balance(serialize_balance("paired", inst)) == ("paired", inst)


# -- golden file ---------------------------------------------------------------


def test_golden_cnf_matches_in_memory_instance():
    text = (DATA / "tiny.wcnf").read_text()
    inst = parse_cnf(text)
    expected = CnfInstance(
        3,
        (frozenset({1, -2}), frozenset({2, 3})),
        ((4, 1), (0, 5)),
    )
    assert inst == expected


# -- errors --------------------------------------------------------------------


def test_truncated_balance_file_names_line():
    inst = generate(GeneratorSpec(kind="balance-paired", seed=3, m=4, n=1, bound=9))
    text = serialize_balance("paired", inst)
    truncated = "\n".join(text.splitlines()[:-2]) + "\n"
    with pytest.raises(InstanceFormatError) as err:
        parse_balance(truncated)
    assert err.value.line is not None
    assert "line" in str(err.value)


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_table_drives_generator_serializer_searches_and_parser(variant):
    inst = generate(GeneratorSpec(kind=f"balance-{variant}", seed=4, m=3, n=1, bound=5))
    carried = tuple(name for name in ("y", "z") if getattr(inst, name) is not None)
    assert carried == CARRIES[variant]
    result = _BALANCERS[variant](inst)
    for name in CARRIES[variant]:
        lacking = replace(inst, **{name: None})
        with pytest.raises(PreconditionError, match=f"{variant} balancing needs {name}"):
            serialize_balance(variant, lacking)
        with pytest.raises(PreconditionError, match=f"{variant} balancing needs {name}"):
            _BALANCERS[variant](lacking)
        with pytest.raises(PreconditionError, match=f"{variant} balancing needs {name}"):
            verify_balance(lacking, result, variant)
    # header, three x lines, then three y lines and one z line where carried
    lines = serialize_balance(variant, inst).splitlines()
    need = len(lines) - 1
    assert need == 3 + 3 * ("y" in carried) + ("z" in carried)
    with pytest.raises(InstanceFormatError) as err:
        parse_balance("\n".join(lines[:-1]) + "\n")
    assert err.value.line == need
    assert str(err.value) == (
        f"line {need}: expected {need} data lines for {variant} m=3, found {need - 1}"
    )


def test_truncated_graph_file():
    g = generate(GeneratorSpec(kind="graph", seed=3, vertices=4))
    lines = serialize_graph(g).splitlines()
    with pytest.raises(InstanceFormatError):
        parse_graph("\n".join(lines[:-1]) + "\n")


def test_negative_graph_weight_names_its_line():
    text = "moatsp k=1 n=3\n0 1 1\n0 2 1\n1 0 1\n1 2 -4\n2 0 1\n2 1 1\n"
    with pytest.raises(InstanceFormatError) as err:
        parse_graph(text)
    assert err.value.line == 5
    assert "negative" in str(err.value)


def test_cnf_syntax_errors():
    with pytest.raises(InstanceFormatError):
        parse_cnf("c k 2\np cnf 2 1\nw 1 2 1\n")  # missing closing 0
    with pytest.raises(InstanceFormatError):
        parse_cnf("p cnf 2 1\nw 1 2 1 0\n")  # missing dimension comment
    with pytest.raises(InstanceFormatError):
        parse_cnf("c k 2\np cnf 2 2\nw 1 2 1 0\n")  # clause count mismatch
    with pytest.raises(InstanceFormatError):
        parse_cnf("c k 2\np cnf 1 1\nw 1 2 5 0\n")  # literal out of range


def test_balance_header_errors():
    with pytest.raises(InstanceFormatError):
        parse_balance("balance nonsense m=2 n=1\n1 1\n1 1\n")
    with pytest.raises(InstanceFormatError):
        parse_balance("")
    with pytest.raises(InstanceFormatError):
        parse_balance("balance paired m=x n=1\n")


def test_graph_header_and_edge_errors():
    with pytest.raises(InstanceFormatError):
        parse_graph("moatsp k=1 n=1\n")
    bad_edge = "moatsp k=1 n=2\n0 0 3\n1 0 4\n"
    with pytest.raises(InstanceFormatError):
        parse_graph(bad_edge)


def test_detect_kind():
    assert detect_kind("balance paired m=1 n=1\n...") == "balance"
    assert detect_kind("c k 2\np cnf 1 1\n") == "cnf"
    assert detect_kind("moatsp k=2 n=4\n") == "graph"
    with pytest.raises(InstanceFormatError):
        detect_kind("what is this\n")


def test_digest_stability():
    text = "moatsp k=1 n=2\n0 1 3\n1 0 4\n"
    assert digest(text) == digest(text)
    assert digest(text) != digest(text + " ")
