"""Independent test-side oracles and corpus builders.

Everything here is deliberately written against the definitions, not
against the library's internals, so the cross-checks stay meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from mobal.graphs import LabeledDigraph, cycle_edges, is_matching
from mobal.instances import GeneratorSpec, generate
from mobal.maxsat import CnfInstance
from mobal.pareto import SolutionSet, nondominated
from mobal.rng import SplitMix64


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
