"""Independent test-side oracles and corpus builders.

Everything here is deliberately written against the definitions, not
against the library's internals, so the cross-checks stay meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Mapping

from mobal.balancing import BalanceResult, BalancingInstance, IntervalFamily
from mobal.errors import PreconditionError
from mobal.graphs import (
    ContractionRecord,
    Edge,
    LabeledDigraph,
    contract,
    cycle_edges,
    expand,
    is_matching,
    path_decomposition,
)
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.maxatsp import extend_matching, maxatsp_approx, path_set_candidates
from mobal.maxsat import Assignment, CnfInstance, SatState
from mobal.pareto import (
    SolutionSet,
    Weight,
    even_objectives,
    nondominated,
    pareto_front_witnesses,
    vec_sub,
    vec_total,
)
from mobal.rng import SplitMix64


def pareto_filter(s: SolutionSet) -> SolutionSet:
    """Entries whose weight no other entry's weight dominates.

    Equal weights never dominate each other, so all solutions sharing a
    nondominated weight are retained.  Idempotent; output keeps the
    canonical order of the input set.
    """
    if not s.entries:
        return s
    front = nondominated(w for _, w in s.entries)
    return SolutionSet(tuple(e for e in s.entries if e[1] in front))


def clause_satisfied(clause: frozenset[int], assignment: Assignment) -> bool:
    return any(
        assignment[lit - 1] == 1 if lit > 0 else assignment[-lit - 1] == 0
        for lit in clause
    )


def assignment_weight(inst: CnfInstance, assignment: Assignment) -> Weight:
    """Sum of the weights of the clauses the assignment satisfies."""
    if len(assignment) != inst.num_vars:
        raise PreconditionError(
            f"assignment length {len(assignment)} != num_vars {inst.num_vars}"
        )
    return vec_total(
        (
            w
            for clause, w in zip(inst.clauses, inst.weights)
            if clause_satisfied(clause, assignment)
        ),
        inst.dimension,
    )


def is_vertex_disjoint_paths(edges) -> bool:
    try:
        path_decomposition(edges)
    except PreconditionError:
        return False
    return True


def path_weight(rec: ContractionRecord) -> Weight:
    """Total weight of the contracted path edges in the original graph."""
    return rec.original.edge_set_weight(e for path in rec.paths for e in path)


def naive_dominates(a, b) -> bool:
    return a != b and all(x >= y for x, y in zip(a, b))


def naive_pareto_entries(entries):
    """Quadratic all-pairs scan; keeps entries in input order."""
    kept = []
    for i, (_, w) in enumerate(entries):
        if not any(naive_dominates(v, w) for j, (_, v) in enumerate(entries) if j != i):
            kept.append(entries[i])
    return kept


def naive_assignment_weight(inst: CnfInstance, assignment):
    """Clause-by-clause evaluation straight from the satisfaction rule."""
    dim = inst.dimension
    total = [0] * dim
    for clause, w in zip(inst.clauses, inst.weights):
        sat = False
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (lit > 0 and value == 1) or (lit < 0 and value == 0):
                sat = True
                break
        if sat:
            for c in range(dim):
                total[c] += w[c]
    return tuple(total)


def clause_bucket(inst: CnfInstance, literal: int, within=None) -> tuple[int, ...]:
    """Indices of the clauses (among `within`, default all) containing `literal`."""
    ids = range(len(inst.clauses)) if within is None else within
    return tuple(ci for ci in ids if literal in inst.clauses[ci])


def tautological(inst: CnfInstance) -> tuple[int, ...]:
    """Indices of clauses containing both a variable and its negation."""
    return tuple(
        ci
        for ci, clause in enumerate(inst.clauses)
        if any(-lit in clause for lit in clause)
    )


def zero_weight_padding(inst: CnfInstance) -> CnfInstance:
    """The same formula with one all-zero objective appended (odd k helper)."""
    return CnfInstance(
        inst.num_vars,
        inst.clauses,
        tuple(w + (0,) for w in inst.weights),
    )


def reference_sat_state(inst: CnfInstance, v0, two_k: int) -> SatState:
    """`sat_state` as it stood before packed clause weights: G, the
    discarded weight and the per-variable negative weights rebuilt
    clause by clause."""
    v0 = frozenset(v0)
    dim = inst.dimension
    g = tuple(
        ci
        for ci, clause in enumerate(inst.clauses)
        if not any(-v in clause for v in v0)
    )
    rest = vec_sub(
        vec_total(inst.weights, dim),
        vec_total((inst.weights[ci] for ci in g), dim),
    )
    neg_weight: dict[int, list[int]] = {}
    for ci in g:
        w = inst.weights[ci]
        for lit in inst.clauses[ci]:
            if lit < 0:
                acc = neg_weight.setdefault(-lit, [0] * dim)
                for c in range(dim):
                    acc[c] += w[c]
    v1 = frozenset(
        v
        for v in range(1, inst.num_vars + 1)
        if v not in v0
        and v in neg_weight
        and any(two_k * neg_weight[v][c] > rest[c] for c in range(dim))
    )
    vprime = frozenset(
        v for v in range(1, inst.num_vars + 1) if v not in v0 and v not in v1
    )
    return SatState(v0, v1, vprime, g)


def reference_emit_masks(state: SatState, half_k: int) -> set[int]:
    """The sweep's mask emission before sorted cut points: one mask per
    endpoint pair (a, b) of V' indices, empty when a > b, OR-ed k times.

    Reference for `_emit_masks`, which must emit the same set.
    """
    base = 0
    for v in state.v1:
        base |= 1 << (v - 1)
    idxs = sorted(state.vprime)
    if not idxs:
        # the single combination of k empty intervals
        return {base}
    cum = [0]
    for v in idxs:
        cum.append(cum[-1] | (1 << (v - 1)))
    size = len(idxs)
    # one mask per endpoint pair (a, b) = (idxs[p], idxs[q]); p > q is empty
    pair_masks = [
        cum[q + 1] ^ cum[p] if p <= q else 0
        for p in range(size)
        for q in range(size)
    ]
    if 0 not in pair_masks:
        # a single interval variable admits no a > b tuple, yet the empty
        # interval is still one of the combinations to realize
        pair_masks.append(0)
    # OR-ing one pair mask per interval, deduplicated after each interval
    out = {base}
    for _ in range(half_k):
        out = {mask | pm for mask in out for pm in pair_masks}
    return out


def reference_sweep_masks(inst: CnfInstance) -> set[int]:
    """Every mask the interval sweep emits, states from `reference_sat_state`
    and masks from `reference_emit_masks`."""
    two_k = even_objectives(inst.dimension)
    masks: set[int] = set()
    for size in range(min(two_k * two_k, inst.num_vars) + 1):
        for v0 in combinations(range(1, inst.num_vars + 1), size):
            state = reference_sat_state(inst, v0, two_k)
            masks |= reference_emit_masks(state, two_k // 2)
    return masks


def reference_weigh_and_filter(inst: CnfInstance, masks) -> SolutionSet:
    """The sweep's weight-and-filter pass before packed clause weights:
    every mask weighed clause by clause and objective by objective, then
    `pareto_filter` over all of them."""
    m, dim = inst.num_vars, inst.dimension
    pos, neg = [], []
    for clause in inst.clauses:
        p = n = 0
        for lit in clause:
            if lit > 0:
                p |= 1 << (lit - 1)
            else:
                n |= 1 << (-lit - 1)
        pos.append(p)
        neg.append(n)
    full = (1 << m) - 1
    entries = []
    for mask in masks:
        flipped = ~mask & full
        w = [0] * dim
        for p, n, cw in zip(pos, neg, inst.weights):
            if (p & mask) or (n & flipped):
                for c in range(dim):
                    w[c] += cw[c]
        assignment = tuple((mask >> j) & 1 for j in range(m))
        entries.append((assignment, tuple(w)))
    return pareto_filter(SolutionSet.build(entries))


def reference_maxsat_oracle(inst: CnfInstance) -> SolutionSet:
    """`maxsat_oracle` before packed clause weights: all 2^m assignments
    in ascending tuple order, weighed clause by clause."""
    m, dim = inst.num_vars, inst.dimension
    # encode variable j at bit m - j so that integer order is tuple order
    pos, neg = [], []
    for clause in inst.clauses:
        p = n = 0
        for lit in clause:
            if lit > 0:
                p |= 1 << (m - lit)
            else:
                n |= 1 << (m + lit)
        pos.append(p)
        neg.append(n)
    full = (1 << m) - 1
    best: dict[Weight, int] = {}
    for a in range(1 << m):
        flipped = ~a & full
        w = [0] * dim
        for p, n, cw in zip(pos, neg, inst.weights):
            if (p & a) or (n & flipped):
                for c in range(dim):
                    w[c] += cw[c]
        key = tuple(w)
        if key not in best:
            best[key] = a
    return pareto_front_witnesses(
        (tuple((a >> (m - 1 - j)) & 1 for j in range(m)), w)
        for w, a in best.items()
    )


def separated_tuples(m: int, count: int):
    """Closed intervals 1 <= a_1 <= b_1 < a_2 <= b_2 < ... <= m, as tuples
    of (a, b) pairs in lexicographic order."""
    if count == 0:
        yield ()
        return
    stack: list[tuple[int, int]] = []

    def rec(start: int):
        depth = len(stack)
        for a in range(start, m + 1):
            for b in range(a, m + 1):
                stack.append((a, b))
                if depth + 1 == count:
                    yield tuple(stack)
                else:
                    yield from rec(b + 1)
                stack.pop()

    yield from rec(1)


def reference_balance_combinatorial(inst: BalancingInstance) -> BalanceResult:
    """`balance_combinatorial` before sorted cut-point tuples: the first
    family from `separated_tuples`, n' ascending, whose corrected mixed
    sum reaches half the total in every component, each family summed
    index by index.  Assumes the instance meets the preconditions."""
    m, n, dim = inst.m, inst.n, inst.dimension
    total = vec_total(inst.x + inst.y, dim)
    for nprime in range(0, min(n, m) + 1):
        for intervals in separated_tuples(m, nprime):
            inside = {i for a, b in intervals for i in range(a, b + 1)}
            in_sum = vec_total((v for i, v in enumerate(inst.x, 1) if i in inside), dim)
            out_sum = vec_total((v for i, v in enumerate(inst.y, 1) if i not in inside), dim)
            correction = vec_total((inst.y[b - 1] for _, b in intervals), dim)
            mixed = zip(in_sum, out_sum, correction, total)
            if all(2 * (s + o + c) >= t for s, o, c, t in mixed):
                return BalanceResult(IntervalFamily(intervals, m), in_sum, out_sum, correction)
    raise AssertionError("no combinatorial family found")


def brute_force_assignment_front(inst: CnfInstance):
    """All 2^m assignments with their weights, independently evaluated."""
    out = []
    for bits in product((0, 1), repeat=inst.num_vars):
        out.append((bits, naive_assignment_weight(inst, bits)))
    return out


def matchings_by_subset_filter(g: LabeledDigraph, max_edges: int | None = None):
    """Every matching of g, found by filtering plain edge subsets."""
    edges = g.edges()
    cap = g.num_vertices // 2 if max_edges is None else max_edges
    found = []
    for size in range(cap + 1):
        for combo in combinations(edges, size):
            if is_matching(combo):
                found.append((tuple(sorted(combo)), g.edge_set_weight(combo)))
    return found


def enumerated_pareto_matchings(g: LabeledDigraph) -> SolutionSet:
    """Pareto matchings by visiting every matching once.

    Reference for the backend's subset DP, which must reproduce it
    exactly: one smallest sorted edge tuple per nondominated weight.
    """
    verts = list(g.vertices)
    best = {}
    used = set()
    chosen = []

    def record(weight):
        enc = tuple(sorted(chosen))
        cur = best.get(weight)
        if cur is None or enc < cur:
            best[weight] = enc

    def visit(idx, weight):
        while idx < len(verts) and verts[idx] in used:
            idx += 1
        if idx == len(verts):
            record(weight)
            return
        v = verts[idx]
        # v stays uncovered
        visit(idx + 1, weight)
        used.add(v)
        for jdx in range(idx + 1, len(verts)):
            u = verts[jdx]
            if u in used:
                continue
            used.add(u)
            for e in ((v, u), (u, v)):
                w = g.weight_map[e]
                chosen.append(e)
                visit(idx + 1, tuple(a + b for a, b in zip(weight, w)))
                chosen.pop()
            used.discard(u)
        used.discard(v)

    visit(0, (0,) * g.dimension)
    front = nondominated(best.keys())
    return SolutionSet.build((best[w], w) for w in front)


def odd_wrapper_reference(g: LabeledDigraph, *, backend=None, budget=None) -> SolutionSet:
    """The heavy-edge wrapper's odd vertex-count branch, as it stood
    before `maxatsp_approx` took odd graphs over.

    Odd-size path sets are contracted first and the sweep runs on each
    even remainder.  The wrapper's `eps = 1/n` argument is left out: the
    exact matching backend ignored it.
    """
    if g.num_vertices < 2:
        raise PreconditionError("need at least two vertices")
    two_k = even_objectives(g.dimension)
    n = g.num_vertices
    assert n % 2, "reference for odd vertex counts only"
    if backend is None:
        backend = ExactMatchingBackend(g)
    sizes = [s for s in range(two_k + 1) if s % 2 == n % 2]
    candidates = list(path_set_candidates(g, sizes))
    if not candidates:
        raise PreconditionError(
            f"no admissible outer path set for {n} vertices at {two_k} objectives"
        )

    pool = {}
    for f in candidates:
        rec = contract(g, f)
        inner = maxatsp_approx(rec.contracted, backend=backend, budget=budget)
        for t_enc, _ in inner:
            t = expand(rec, t_enc)
            pool.setdefault(g.edge_set_weight(t), set()).add(t)
    front = nondominated(pool.keys())
    return SolutionSet.build((enc, w) for w in front for enc in pool[w])


def reference_sweep(g: LabeledDigraph, *, backend=None) -> SolutionSet:
    """`maxatsp_approx` before it matched each distinct contracted graph
    once: every path set contracted, matched, extended and expanded on
    its own, through the checked public functions.  No budget guard."""
    two_k = even_objectives(g.dimension)
    odd = g.num_vertices % 2
    if backend is None:
        backend = ExactMatchingBackend(g)
    pool = {}
    for f in path_set_candidates(g, range(odd, two_k + odd + 1)):
        rec = contract(g, f)
        for m_enc, _ in backend.pareto_matchings(rec.contracted):
            t = expand(rec, extend_matching(rec.contracted, m_enc))
            pool.setdefault(g.edge_set_weight(t), set()).add(t)
    front = nondominated(pool.keys())
    return SolutionSet.build((enc, w) for w in front for enc in pool[w])


def contracted_graph_key(f):
    """The tails of a path set and its (head, last vertex) pairs, which
    fix its contracted graph, read off `path_decomposition`."""
    paths = path_decomposition(f)
    tails = frozenset(v for path in paths for _, v in path)
    return tails, tuple((path[0][0], path[-1][1]) for path in paths)


def first_of_each_contracted_graph(g: LabeledDigraph, sizes) -> list[int]:
    """Positions, among `path_set_candidates(g, sizes)`, of the path sets
    whose contracted graph no earlier path set has."""
    seen = set()
    firsts = []
    for i, f in enumerate(path_set_candidates(g, sizes)):
        key = contracted_graph_key(f)
        if key not in seen:
            seen.add(key)
            firsts.append(i)
    return firsts


def combination_path_sets(g: LabeledDigraph, sizes):
    """Path sets by filtering plain edge combinations, size by size.

    Reference for the depth-first `path_set_candidates`, which must yield
    the same sets in the same order.
    """
    edges = g.edges()
    for size in sizes:
        if g.num_vertices - size < 2:
            continue
        for combo in combinations(edges, size):
            if is_vertex_disjoint_paths(combo):
                yield combo


def checked_is_hamiltonian_cycle(g: LabeledDigraph, edges) -> bool:
    """Hamiltonian-cycle test that checks every property separately.

    Reference for the library's `is_hamiltonian_cycle`, which must give
    the same answer on every input.
    """
    edge_list = list(edges)
    if len(edge_list) != g.num_vertices or g.num_vertices < 2:
        return False
    succ: dict[int, int] = {}
    for e in edge_list:
        if e not in g.weight_map:
            return False
        u, v = e
        if u in succ:
            return False
        succ[u] = v
    if set(succ) != set(g.vertices):
        return False
    if len(set(succ.values())) != g.num_vertices:
        return False
    # one cycle, not several: the walk from the start must visit everything
    start = g.vertices[0]
    u = succ[start]
    steps = 1
    while u != start:
        u = succ[u]
        steps += 1
    return steps == g.num_vertices


def contract_edge(g: LabeledDigraph, edge: Edge) -> LabeledDigraph:
    """Merge v into u for edge (u, v).

    v and its incident edges vanish; u keeps its incoming weights and
    adopts v's outgoing ones: w'(u, z) = w(v, z).  Reference for the
    one-pass `contract`.
    """
    u, v = edge
    if edge not in g.weight_map:
        raise PreconditionError(f"edge {edge} not in graph")
    wm: dict[Edge, Weight] = {}
    for (a, b), w in g.weight_map.items():
        if v in (a, b):
            continue
        wm[(a, b)] = g.weight_map[(v, b)] if a == u else w
    return LabeledDigraph(tuple(x for x in g.vertices if x != v), wm, g.dimension)


def contract_edge_in_set(edges: frozenset[Edge], edge: Edge) -> frozenset[Edge]:
    # edge-set image of a single contraction: drop everything touching v,
    # re-source v's outgoing edges at u
    u, v = edge
    kept = {(a, b) for a, b in edges if v not in (a, b)}
    moved = {(u, b) for a, b in edges if a == v and b not in (u, v)}
    return frozenset(kept | moved)


def contract_edge_set(
    paths: tuple[tuple[Edge, ...], ...], edges
) -> frozenset[Edge]:
    """Image of an edge set under contracting `paths` edge by edge, each
    path from its last edge back to its head.  Reference for the image
    `matching_claim_witness` computes in one pass."""
    current = frozenset(edges)
    for path in paths:
        for e in reversed(path):
            current = contract_edge_in_set(current, e)
    return current


def relabel(g: LabeledDigraph, mapping: Mapping[int, int]) -> LabeledDigraph:
    """Graph with vertices renamed through a bijection."""
    if sorted(mapping) != list(g.vertices) or len(set(mapping.values())) != len(mapping):
        raise PreconditionError("mapping must be a bijection on the vertices")
    wm = {(mapping[u], mapping[v]): w for (u, v), w in g.weight_map.items()}
    return LabeledDigraph(tuple(sorted(mapping.values())), wm, g.dimension)


def all_cycles_with_weights(g: LabeledDigraph):
    start = g.vertices[0]
    out = []
    for perm in permutations(g.vertices[1:]):
        t = tuple(sorted(cycle_edges((start,) + perm)))
        out.append((t, g.edge_set_weight(t)))
    return out


def random_cycle(g: LabeledDigraph, rng: SplitMix64):
    order = list(g.vertices)
    rng.shuffle(order)
    return tuple(sorted(cycle_edges(tuple(order))))


def random_path_set(g: LabeledDigraph, rng: SplitMix64, max_edges: int | None = None):
    """Random proper subset of a random Hamiltonian cycle's edges."""
    cycle = random_cycle(g, rng)
    cap = len(cycle) - 1 if max_edges is None else min(max_edges, len(cycle) - 1)
    size = rng.randint(0, cap)
    picked = rng.sample(0, len(cycle) - 1, size)
    return tuple(sorted(cycle[i] for i in picked))


def cnf_corpus(count, *, seed0, m, clauses, dim, bound):
    for i in range(count):
        yield generate(
            GeneratorSpec(kind="cnf", seed=seed0 + i, m=m, clauses=clauses, dim=dim, bound=bound)
        )


def graph_corpus(count, *, seed0, vertices, dim, bound):
    for i in range(count):
        yield generate(
            GeneratorSpec(kind="graph", seed=seed0 + i, vertices=vertices, dim=dim, bound=bound)
        )
