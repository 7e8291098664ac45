"""Instance text formats, seeded generators, digests.

Three line-oriented ASCII formats, whitespace-separated, every line
newline-terminated.

balancing::

    balance <variant> m=<m> n=<n>
    <m lines of 2n integers>            x vectors (signed for integer)
    <m lines of 2n integers>            y vectors; paired/combinatorial only
    <one line of 2n integers>           bound z; paired/integer only

weighted CNF (DIMACS with a dimension comment and per-clause weight
vectors)::

    c k <dim>
    p cnf <vars> <clauses>
    w <dim weights> <literals...> 0     one line per clause

graph::

    moatsp k=<dim> n=<vertices>
    u v w_1 ... w_k                     one line per ordered pair, 0-based

Generators draw exclusively from SplitMix64 (rng.py), so a corpus is
pinned by kind, size parameters and the 64-bit seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .balancing import CARRIES, INTEGER, BalancingInstance, _check_present, precondition_faults
from .errors import BudgetExceededError, InstanceFormatError, PreconditionError
from .graphs import LabeledDigraph, edge_fault
from .maxsat import CnfInstance, clause_fault
from .pareto import Weight
from .rng import SplitMix64

BALANCE_KINDS = {f"balance-{variant}": variant for variant in CARRIES}

MAX_SEQUENCE = 64
MAX_VARS = 20
MAX_CLAUSES = 300
MAX_VERTICES = 12
MAX_DIMENSION = 8
MAX_BOUND = 10**6
SEED_LIMIT = 1 << 64  # SplitMix64 keeps 64 bits: any other seed aliases one below

# the fields each generator kind reads, in report order, with their
# (floor, cap); a graph needs two vertices to hold a tour
_BOUND = dict(bound=(0, MAX_BOUND))
KIND_FIELDS = {
    **dict.fromkeys(BALANCE_KINDS, dict(_BOUND, m=(1, MAX_SEQUENCE), n=(1, MAX_DIMENSION // 2))),
    "cnf": dict(_BOUND, dim=(1, MAX_DIMENSION), m=(1, MAX_VARS), clauses=(1, MAX_CLAUSES)),
    "graph": dict(_BOUND, dim=(1, MAX_DIMENSION), vertices=(2, MAX_VERTICES)),
}
KINDS = tuple(KIND_FIELDS)


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything that pins one random instance.

    KIND_FIELDS names the fields each kind reads and bounds them; a kind
    ignores the others.  `dim` is the objective count of the CNF and
    graph kinds, 2 when left None.  A balancing kind's vector dimension
    2n is fixed by n, so it refuses an explicit `dim`.
    """

    kind: str
    seed: int
    bound: int = 10
    dim: int | None = None
    m: int = 4
    n: int = 1
    clauses: int = 4
    vertices: int = 4

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise PreconditionError(f"unknown generator kind {self.kind!r}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise PreconditionError(f"seed must be in [0, 2^64), got {self.seed}")
        fields = KIND_FIELDS[self.kind]
        if "dim" in fields:
            if self.dim is None:
                object.__setattr__(self, "dim", 2)
        elif self.dim is not None:
            raise PreconditionError(
                f"dim does not apply to {self.kind}: its vector dimension is 2n"
            )
        for name, (floor, cap) in fields.items():
            value = getattr(self, name)
            if value < floor:
                raise PreconditionError(f"{name} must be >= {floor}, got {value}")
            if value > cap:
                raise BudgetExceededError(f"{name}={value} exceeds generator cap {cap}")


def generate(spec: GeneratorSpec):
    """Deterministic instance for the given parameters and seed."""
    rng = SplitMix64(spec.seed)
    if spec.kind in BALANCE_KINDS:
        return _gen_balance(BALANCE_KINDS[spec.kind], spec, rng)
    if spec.kind == "cnf":
        return _gen_cnf(spec, rng)
    return _gen_graph(spec, rng)


def _gen_balance(variant: str, spec: GeneratorSpec, rng: SplitMix64) -> BalancingInstance:
    dim = 2 * spec.n
    lo = -spec.bound if variant == INTEGER else 0
    x = tuple(
        tuple(rng.randint(lo, spec.bound) for _ in range(dim)) for _ in range(spec.m)
    )
    y = None
    if "y" in CARRIES[variant]:
        y = tuple(
            tuple(rng.randint(0, spec.bound) for _ in range(dim))
            for _ in range(spec.m)
        )
    z = (spec.bound,) * dim if "z" in CARRIES[variant] else None
    return BalancingInstance(x=x, y=y, z=z)


def _gen_cnf(spec: GeneratorSpec, rng: SplitMix64) -> CnfInstance:
    clauses = []
    weights = []
    for _ in range(spec.clauses):
        size = rng.randint(1, min(3, spec.m))
        variables = rng.sample(1, spec.m, size)
        clause = frozenset(
            v if rng.randint(0, 1) else -v for v in variables
        )
        clauses.append(clause)
        weights.append(tuple(rng.randint(0, spec.bound) for _ in range(spec.dim)))
    return CnfInstance(spec.m, tuple(clauses), tuple(weights))


def _gen_graph(spec: GeneratorSpec, rng: SplitMix64) -> LabeledDigraph:
    n = spec.vertices
    wm = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                wm[(u, v)] = tuple(rng.randint(0, spec.bound) for _ in range(spec.dim))
    return LabeledDigraph.from_weights(n, wm)


# -- text formats ------------------------------------------------------------


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            out.append((no, line))
    return out


def _ints(tokens: list[str], lineno: int, expect: int | None = None) -> list[int]:
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise InstanceFormatError(f"expected integers, got {' '.join(tokens)}", lineno)
    if expect is not None and len(values) != expect:
        raise InstanceFormatError(
            f"expected {expect} integers, got {len(values)}", lineno
        )
    return values


def _keyval(token: str, key: str, lineno: int) -> int:
    if not token.startswith(key + "="):
        raise InstanceFormatError(f"expected {key}=<int>, got {token!r}", lineno)
    try:
        return int(token[len(key) + 1 :])
    except ValueError:
        raise InstanceFormatError(f"bad integer in {token!r}", lineno)


def serialize_balance(variant: str, inst: BalancingInstance) -> str:
    _check_present(inst, variant)
    rows = list(inst.x)
    for name in CARRIES[variant]:
        value = getattr(inst, name)
        rows += value if name == "y" else [value]
    lines = [f"balance {variant} m={inst.m} n={inst.n}"]
    lines += [" ".join(map(str, v)) for v in rows]
    return "\n".join(lines) + "\n"


def parse_balance(text: str) -> tuple[str, BalancingInstance]:
    lines = _numbered_lines(text)
    if not lines:
        raise InstanceFormatError("empty balancing file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 4 or tokens[0] != "balance":
        raise InstanceFormatError("header must be 'balance <variant> m=<m> n=<n>'", lineno)
    variant = tokens[1]
    if variant not in CARRIES:
        raise InstanceFormatError(f"unknown variant {variant!r}", lineno)
    m = _keyval(tokens[2], "m", lineno)
    n = _keyval(tokens[3], "n", lineno)
    if m < 1 or n < 1:
        raise InstanceFormatError("m and n must be >= 1", lineno)
    dim = 2 * n
    carries = CARRIES[variant]
    need = m + m * ("y" in carries) + ("z" in carries)
    body = lines[1:]
    if len(body) != need:
        last = lines[-1][0]
        raise InstanceFormatError(
            f"expected {need} data lines for {variant} m={m}, found {len(body)}",
            last,
        )
    rows = [tuple(_ints(line.split(), no, dim)) for no, line in body]
    y = tuple(rows[m : 2 * m]) if "y" in carries else None
    z = rows[-1] if "z" in carries else None
    inst = BalancingInstance(x=tuple(rows[:m]), y=y, z=z)
    for row, message in precondition_faults(inst, variant):
        raise InstanceFormatError(message, body[row][0])
    return variant, inst


def serialize_cnf(inst: CnfInstance) -> str:
    lines = [f"c k {inst.dimension}", f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for clause, w in zip(inst.clauses, inst.weights):
        lits = sorted(clause, key=lambda lit: (abs(lit), lit < 0))
        lines.append("w " + " ".join(map(str, w)) + " " + " ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def parse_cnf(text: str) -> CnfInstance:
    lines = _numbered_lines(text)
    dim = None
    header = None
    clause_lines = []
    for no, line in lines:
        tokens = line.split()
        if tokens[0] == "c":
            if len(tokens) == 3 and tokens[1] == "k":
                if dim is not None:
                    raise InstanceFormatError("second 'c k <dim>' line", no)
                if header is not None:
                    raise InstanceFormatError("'c k <dim>' line after the 'p cnf' header", no)
                dim = _ints(tokens[2:], no, 1)[0]
                if dim < 1:
                    raise InstanceFormatError(f"dimension must be >= 1, got {dim}", no)
            continue
        if tokens[0] == "p":
            if header is not None:
                raise InstanceFormatError("second 'p' header", no)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise InstanceFormatError("header must be 'p cnf <vars> <clauses>'", no)
            header = (no, _ints(tokens[2:3], no, 1)[0], _ints(tokens[3:4], no, 1)[0])
            if header[1] < 1:
                raise InstanceFormatError("num_vars must be >= 1", no)
            continue
        if tokens[0] == "w":
            if header is None or dim is None:
                raise InstanceFormatError(
                    "clause line before 'c k <dim>' and 'p cnf' headers", no
                )
            values = _ints(tokens[1:], no)
            if len(values) < dim + 2 or values[-1] != 0:
                raise InstanceFormatError(
                    f"clause line needs {dim} weights, literals, and a closing 0", no
                )
            weight = tuple(values[:dim])
            lits = values[dim:-1]
            if 0 in lits:  # the length check leaves at least one literal
                raise InstanceFormatError("clause needs nonzero literals before the 0", no)
            if fault := clause_fault(len(clause_lines), lits, weight, header[1], dim):
                raise InstanceFormatError(fault, no)
            clause_lines.append((no, frozenset(lits), weight))
            continue
        raise InstanceFormatError(f"unrecognized line {line!r}", no)
    if header is None:
        last = lines[-1][0] if lines else 1
        raise InstanceFormatError("missing 'p cnf' header", last)
    if dim is None:
        raise InstanceFormatError("missing 'c k <dim>' line", header[0])
    _, num_vars, num_clauses = header
    if len(clause_lines) != num_clauses:
        last = lines[-1][0]
        raise InstanceFormatError(
            f"header promises {num_clauses} clauses, found {len(clause_lines)}", last
        )
    try:
        return CnfInstance(
            num_vars,
            tuple(cl for _, cl, _ in clause_lines),
            tuple(w for _, _, w in clause_lines),
        )
    except PreconditionError as exc:
        raise InstanceFormatError(str(exc), header[0])


def serialize_graph(g: LabeledDigraph) -> str:
    if g.vertices != tuple(range(g.num_vertices)):
        raise PreconditionError("only graphs on vertices 0..n-1 serialize")
    lines = [f"moatsp k={g.dimension} n={g.num_vertices}"]
    for (u, v), w in sorted(g.weight_map.items()):
        lines.append(f"{u} {v} " + " ".join(map(str, w)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabeledDigraph:
    lines = _numbered_lines(text)
    if not lines:
        raise InstanceFormatError("empty graph file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "moatsp":
        raise InstanceFormatError("header must be 'moatsp k=<dim> n=<vertices>'", lineno)
    dim = _keyval(tokens[1], "k", lineno)
    n = _keyval(tokens[2], "n", lineno)
    if n < 2 or dim < 1:
        raise InstanceFormatError("need n >= 2 and k >= 1", lineno)
    body = lines[1:]
    if len(body) != n * (n - 1):
        last = lines[-1][0]
        raise InstanceFormatError(
            f"expected {n * (n - 1)} edge lines, found {len(body)}", last
        )
    wm: dict[tuple[int, int], Weight] = {}
    for no, line in body:
        values = _ints(line.split(), no, dim + 2)
        u, v = values[0], values[1]
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InstanceFormatError(f"bad edge ({u}, {v}) for n={n}", no)
        if (u, v) in wm:
            raise InstanceFormatError(f"duplicate edge ({u}, {v})", no)
        w = tuple(values[2:])
        if fault := edge_fault((u, v), w, dim):
            raise InstanceFormatError(fault, no)
        wm[(u, v)] = w
    return LabeledDigraph(tuple(range(n)), wm, dim)


def detect_kind(text: str) -> str:
    """'balance', 'cnf' or 'graph', from the first meaningful token."""
    for _, line in _numbered_lines(text):
        head = line.split()[0]
        if head == "balance":
            return "balance"
        if head == "moatsp":
            return "graph"
        if head in ("c", "p", "w"):
            return "cnf"
        break
    raise InstanceFormatError("cannot detect instance kind from first line", 1)


def serialize(spec_kind: str, instance) -> str:
    """Canonical text of an instance of a generator kind."""
    if spec_kind not in KIND_FIELDS:
        raise PreconditionError(f"unknown generator kind {spec_kind!r}")
    if spec_kind in BALANCE_KINDS:
        return serialize_balance(BALANCE_KINDS[spec_kind], instance)
    if spec_kind == "cnf":
        return serialize_cnf(instance)
    return serialize_graph(instance)


def digest(text: str) -> str:
    """Stable identifier of an instance: sha256 of its canonical text."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()
