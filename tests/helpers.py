"""Independent test-side oracles and corpus builders.

Everything here is deliberately written against the definitions, not
against the library's internals, so the cross-checks stay meaningful.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import add, ge
from typing import Any, Collection, Iterable, Mapping

from mobal.balancing import (
    BalanceResult,
    BalancingInstance,
    IntervalFamily,
    balance_combinatorial,
)
from mobal.errors import DimensionMismatchError, PreconditionError, SearchInvariantError
from mobal.graphs import (
    Edge,
    LabeledDigraph,
    is_hamiltonian_cycle,
    lift_edges,
)
from mobal.instances import GeneratorSpec, generate
from mobal.matching import ExactMatchingBackend
from mobal.maxatsp import (
    Cycle,
    _chain_fragments,
    _path_ends,
    _sweep,
    path_set_candidates,
)
from mobal.maxsat import Assignment, CnfInstance
from mobal.pareto import (
    Entry,
    SolutionSet,
    Weight,
    even_objectives,
    vec_sub,
    vec_total,
)
from mobal.rng import SplitMix64


def nondominated(weights: Iterable[Weight]) -> set[Weight]:
    """The nondominated members of a collection of weight vectors, as
    weight tuples.  The library filters packed ints (`Packing.front`);
    this tuple filter serves the test-side references."""
    distinct = sorted(set(weights), reverse=True)
    if not distinct:
        return set()
    dim = len(distinct[0])
    for w in distinct:
        if len(w) != dim:
            raise DimensionMismatchError("mixed dimensions in weight collection")
    # Descending lexicographic sweep (Kung, Luccio & Preparata 1975):
    # whatever dominates w sorts before it, and a dominated dominator is
    # itself dominated by a front member, so checking the front suffices;
    # at dim 2 that is the member with the largest second component.
    if dim == 2:
        front, best = set(), None
        for w in distinct:
            if best is None or w[1] > best:
                front.add(w)
                best = w[1]
        return front
    kept: list[Weight] = []
    for w in distinct:
        for v in kept:
            if all(map(ge, v, w)):
                break
        else:
            kept.append(w)
    return set(kept)


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


def pareto_front_witnesses(pairs: Iterable[Entry]) -> SolutionSet:
    """One canonical witness per nondominated weight.

    Streaming reduction used by the brute-force oracles: solutions tied
    on weight collapse to the smallest encoding, then dominated weights
    are dropped.
    """
    best: dict[Weight, Any] = {}
    for solution, weight in pairs:
        weight = tuple(weight)
        current = best.get(weight)
        if current is None or solution < current:
            best[weight] = solution
    front = nondominated(best.keys())
    return SolutionSet.build((best[w], w) for w in front)


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


def edge_set_weight(g: LabeledDigraph, edges: Iterable[Edge]) -> Weight:
    """The componentwise sum of the weights of some edges of g."""
    weights = map(g.weight_map.__getitem__, edges)
    return tuple(map(sum, zip(*weights))) or (0,) * g.dimension


def is_matching(edges: Iterable[Edge]) -> bool:
    """No two edges share a vertex, as head or as tail."""
    seen: set[int] = set()
    for u, v in edges:
        if u == v or u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_vertex_disjoint_paths(edges) -> bool:
    try:
        path_decomposition(edges)
    except PreconditionError:
        return False
    return True


def path_decomposition(edges) -> tuple[tuple[Edge, ...], ...]:
    """Split an edge set into vertex-disjoint simple paths, sorted by head.

    Raises PreconditionError when some vertex repeats a role or when a
    cycle hides in the set.
    """
    succ: dict[int, int] = {}
    has_in: set[int] = set()
    for u, v in edges:
        if u == v:
            raise PreconditionError(f"self-loop ({u}, {v}) is not a path edge")
        if u in succ:
            raise PreconditionError(f"vertex {u} has two outgoing edges")
        if v in has_in:
            raise PreconditionError(f"vertex {v} has two incoming edges")
        succ[u] = v
        has_in.add(v)
    heads = sorted(u for u in succ if u not in has_in)
    paths: list[tuple[Edge, ...]] = []
    visited = 0
    for head in heads:
        path: list[Edge] = []
        u = head
        while u in succ:
            path.append((u, succ[u]))
            u = succ[u]
        visited += len(path)
        paths.append(tuple(path))
    if visited != len(succ):
        raise PreconditionError("edge set contains a cycle")
    return tuple(paths)


def path_ends(f) -> tuple[frozenset[int], dict[int, int]]:
    """Tails of a path set and each head's last vertex, head ascending,
    read off `path_decomposition`.  Reference for the sweep's `_path_ends`."""
    paths = path_decomposition(f)
    tails = frozenset(v for path in paths for _, v in path)
    return tails, {path[0][0]: path[-1][1] for path in paths}


def contract_ends(g: LabeledDigraph, tails, last) -> LabeledDigraph:
    """G/F from the ends of a path set F of g alone, without checks.

    `tails` holds every vertex of F that some edge of F enters, and
    `last` maps each path's head to its last vertex.  The tails vanish,
    each head h takes the outgoing row of last[h], w'(h, z) = w(last, z),
    and every other surviving edge keeps its weight.  This is the graph
    that contracting each path edge-by-edge from its last edge yields,
    in any path order.  The result is built without `__post_init__`:
    its vertices are a sorted subset of g's and every weight is copied
    from g, which was validated when it was built.
    """
    verts = tuple(x for x in g.vertices if x not in tails)
    wm = g.weight_map
    h = object.__new__(LabeledDigraph)
    object.__setattr__(h, "vertices", verts)
    object.__setattr__(
        h, "weight_map",
        {(a, b): wm[(last.get(a, a), b)] for a in verts for b in verts if a != b},
    )
    object.__setattr__(h, "dimension", g.dimension)
    return h


def lift_tour(
    g: LabeledDigraph, f: Iterable[Edge], lifted: Iterable[Edge]
) -> tuple[Edge, ...]:
    """The path set f plus the lifted edges of a tour of g/f, sorted.

    One Hamiltonian check, on the result, raises SearchInvariantError:
    for a tour of g/f the result is always a Hamiltonian cycle of g, of
    weight w(f) + w'(tour).  The sweep joins its output tours this way.
    """
    tour = [*f, *lifted]
    tour.sort()
    if not is_hamiltonian_cycle(g, tour):
        raise SearchInvariantError("expansion produced a non-Hamiltonian edge set")
    return tuple(tour)


def contract_path_set(g: LabeledDigraph, f) -> LabeledDigraph:
    """G/F by `contract_ends`, after `path_decomposition` has checked that
    f is a path set."""
    return contract_ends(g, *path_ends(f))


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


def reference_sat_state(inst: CnfInstance, v0, two_k: int):
    """(V1, V') of the zero-forced variable set V0, as the sweep derived
    them before packed clause weights: G, the discarded weight and the
    per-variable negative weights rebuilt clause by clause, and every
    variable outside V0 tested."""
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
    return v1, vprime


def reference_emit_masks(v1, vprime, half_k: int) -> set[int]:
    """The sweep's mask emission before sorted cut points: one mask per
    endpoint pair (a, b) of V' indices, empty when a > b, OR-ed k times.

    Reference for `_emit_masks`, which must emit the same set.
    """
    base = 0
    for v in v1:
        base |= 1 << (v - 1)
    idxs = sorted(vprime)
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
            v1, vprime = reference_sat_state(inst, v0, two_k)
            masks |= reference_emit_masks(v1, vprime, two_k // 2)
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


def necklace_blocks(n: int, m: int) -> BalancingInstance:
    """The necklace-splitting lower bound for paired balancing: x_i = e_c
    on block c of length m/2n, y = 0 and z = 1.  Every family of fewer
    than n intervals leaves some objective out of balance."""
    dim = 2 * n
    unit = [tuple(int(c == d) for d in range(dim)) for c in range(dim)]
    x = tuple(unit[i * dim // m] for i in range(m))
    return BalancingInstance(x=x, y=((0,) * dim,) * m, z=(1,) * dim)


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
                found.append((tuple(sorted(combo)), edge_set_weight(g, combo)))
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


# one DP state: (weight, edge count) -> smallest sorted edge tuple
_TupleState = dict[tuple[Weight, int], tuple[Edge, ...]]


class ReferenceMatchingBackend:
    """The matching DP as it stood with tuple keys: each state maps
    (weight tuple, edge count) to its smallest sorted edge tuple, and
    fronts are taken by `nondominated`.  Reference for the packed-key
    `ExactMatchingBackend`, which must answer every call alike, witnesses
    included.  States persist across calls under the same keyed-scope
    rule (`mobal.matching`)."""

    def __init__(self, reference: LabeledDigraph):
        self.reference = reference
        self._index = {v: i for i, v in enumerate(reference.vertices)}
        self._memo: dict[int, _TupleState] = {0: {((0,) * reference.dimension, 0): ()}}
        # states holding heads, while the smallest head's path is `_scope`
        self._keyed: dict[int, _TupleState] = {}
        self._scope: tuple[int, int] | None = None

    def pareto_matchings(
        self, tails: Collection[int] = (), last: Mapping[int, int] | None = None
    ) -> SolutionSet:
        last = last or {}
        index = self._index
        labels = self.reference.vertices
        n = len(labels)
        tails = set(tails)
        if not index.keys() >= {*tails, *last, *last.values()} or len(tails) == n:
            raise PreconditionError("path ends must name vertices of the reference and leave one")
        root = (1 << n) - 1 - sum(1 << index[v] for v in tails)
        rows = list(labels)  # each vertex's row source, by bit index
        # a head's row source index plus one, in the head's slot above the
        # mask's n bits; a state holding heads is keyed by mask | their codes
        codes = [0] * n
        width = n.bit_length()
        for h, end in last.items():
            i = index[h]
            rows[i] = end
            codes[i] = (index[end] + 1) << (n + i * width)
        root_code = sum(codes)
        heads = others = sum(1 << index[h] for h in last)
        if len(last) > 1:
            # a lone head is removed at the root and makes no keyed state
            pin = min(last)
            others -= 1 << index[pin]
            if self._scope != (pin, last[pin]):
                self._scope = (pin, last[pin])
                self._keyed = {}
        wm = self.reference.weight_map
        shared = self._memo
        keyed = self._keyed

        def candidates(mask: int, code: int, counted: bool) -> dict:
            """Every key below mask, unfiltered: (weight, edge count) keys,
            or weights alone when not `counted` (the root)."""
            # heads first, the smallest last (module docstring)
            pick = (mask & others) or (mask & heads) or mask
            low = pick & -pick
            i = low.bit_length() - 1
            v, row = labels[i], rows[i]
            rest, rest_code = mask ^ low, code - codes[i]
            sub = solve(rest, rest_code)  # v uncovered
            if counted:
                best = dict(sub)
            else:
                best = {}
                for (w, _), enc in sub.items():
                    if w not in best or enc < best[w]:
                        best[w] = enc
            partners = rest
            while partners:
                b = partners & -partners
                partners ^= b
                j = b.bit_length() - 1
                u = labels[j]
                sub = solve(rest ^ b, rest_code - codes[j])
                for e, we in (((v, u), wm[(row, u)]), ((u, v), wm[(rows[j], v)])):
                    for (w, count), enc in sub.items():
                        total = tuple(map(add, w, we))
                        key = (total, count + 1) if counted else total
                        k = bisect(enc, e)
                        cand = enc[:k] + (e,) + enc[k:]
                        cur = best.get(key)
                        if cur is None or cand < cur:
                            best[key] = cand
            return best

        def solve(mask: int, code: int) -> _TupleState:
            memo = keyed if code else shared
            state = memo.get(mask | code)
            if state is None:
                best = candidates(mask, code, True)
                front = nondominated(w for w, _ in best)
                state = {k: enc for k, enc in best.items() if k[0] in front}
                memo[mask | code] = state
            return state

        best = candidates(root, root_code, False)
        # weights are distinct, so weight order is the canonical order
        return SolutionSet(tuple((best[w], w) for w in sorted(nondominated(best))))


def sweep_sizes(g: LabeledDigraph) -> range:
    """The path-set sizes of the sweep: 0..2k at even n, 1..2k+1 at odd n."""
    odd = g.num_vertices % 2
    return range(odd, even_objectives(g.dimension) + odd + 1)


def swept(g: LabeledDigraph, *, backend=None) -> SolutionSet:
    """What the path-set sweep outputs for g, with every tour of each
    front weight it pools; also where `maxatsp_approx` weighs every tour
    instead of sweeping.  No budget guard."""
    if backend is None:
        backend = ExactMatchingBackend(g)
    return _sweep(g, sweep_sizes(g), backend)


def odd_wrapper_reference(g: LabeledDigraph) -> SolutionSet:
    """The heavy-edge wrapper's odd vertex-count branch, as it stood
    before `maxatsp_approx` took odd graphs over.

    Odd-size path sets are contracted first and the sweep runs on each
    even remainder, with a backend of its own.  The wrapper's
    `eps = 1/n` argument is left out: the exact matching backend
    ignored it, and so is the budget guard.
    """
    if g.num_vertices < 2:
        raise PreconditionError("need at least two vertices")
    two_k = even_objectives(g.dimension)
    n = g.num_vertices
    assert n % 2, "reference for odd vertex counts only"
    sizes = [s for s in range(two_k + 1) if s % 2 == n % 2]
    candidates = list(path_set_candidates(g, sizes))
    if not candidates:
        raise PreconditionError(
            f"no admissible outer path set for {n} vertices at {two_k} objectives"
        )

    pool = {}
    for f in candidates:
        tails, last = path_ends(f)
        h = contract_ends(g, tails, last)
        inner = swept(h)
        for t_enc, _ in inner:
            assert is_hamiltonian_cycle(h, t_enc)
            t = lift_tour(g, f, lift_edges(last, t_enc))
            pool.setdefault(edge_set_weight(g, t), set()).add(t)
    front = nondominated(pool.keys())
    return SolutionSet.build((enc, w) for w in front for enc in pool[w])


def reference_sweep(g: LabeledDigraph, *, asked: list | None = None) -> SolutionSet:
    """`maxatsp_approx` before it matched each distinct contracted graph
    once: every path set contracted, matched by a new backend built on
    the contracted graph (so no state is shared between path sets),
    extended and expanded on its own, with every matching and contracted
    tour checked.  `asked`, when given, receives the ends and the answer
    of every path set in order.  No budget guard."""
    two_k = even_objectives(g.dimension)
    odd = g.num_vertices % 2
    pool = {}
    for f in path_set_candidates(g, range(odd, two_k + odd + 1)):
        tails, last = path_ends(f)
        h = contract_ends(g, tails, last)
        answer = ExactMatchingBackend(h).pareto_matchings()
        if asked is not None:
            asked.append(((tails, last), answer))
        for m_enc, _ in answer:
            assert is_matching(m_enc)
            t_prime = _chain_fragments(h.vertices, m_enc)
            assert is_hamiltonian_cycle(h, t_prime)
            t = lift_tour(g, f, lift_edges(last, t_prime))
            pool.setdefault(edge_set_weight(g, t), set()).add(t)
    front = nondominated(pool.keys())
    return SolutionSet.build((enc, w) for w in front for enc in pool[w])


def contracted_graph_key(f):
    """The tails of a path set and its (head, last vertex) pairs, which
    fix its contracted graph, read off `path_decomposition`."""
    tails, last = path_ends(f)
    return tails, tuple(last.items())


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
    one-pass `contract_ends`.
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


def contract_edge_by_edge(g: LabeledDigraph, paths) -> LabeledDigraph:
    """G/F by the definition: `contract_edge` on every edge of each path,
    paths in the given order, each from its last edge back to its head."""
    for path in paths:
        for e in reversed(path):
            g = contract_edge(g, e)
    return g


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


def cycle_edges(order: tuple[int, ...]) -> tuple[Edge, ...]:
    """Closed edge sequence visiting `order` and returning to its start."""
    return tuple(
        (order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    )


def all_cycles_with_weights(g: LabeledDigraph):
    start = g.vertices[0]
    out = []
    for perm in permutations(g.vertices[1:]):
        t = tuple(sorted(cycle_edges((start,) + perm)))
        out.append((t, edge_set_weight(g, t)))
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


# -- the matching claim harness ----------------------------------------------


def cycle_vertex_order(edges: Iterable[Edge]) -> tuple[int, ...]:
    """Vertices of a cycle in traversal order, beginning at its smallest
    vertex."""
    succ = {u: v for u, v in edges}
    start = min(succ)
    order = [start]
    u = succ[start]
    while u != start:
        order.append(u)
        u = succ[u]
    return tuple(order)


@dataclass(frozen=True)
class ClaimWitness:
    """Constructive evidence that a cycle hides a heavy matching.

    Splitting the cycle into alternating odd/even edges and balancing
    their weights yields a path set `f_edges` (at most 2k edges) and an
    edge set `s_edges` containing it whose contraction `matching` is a
    matching of the F-contracted graph with
    w'(matching) >= w(cycle)/2 - w(f_edges), componentwise.
    """

    cycle: Cycle
    f_edges: tuple[Edge, ...]
    s_edges: tuple[Edge, ...]
    matching: tuple[Edge, ...]
    contracted: LabeledDigraph
    cycle_weight: Weight
    f_weight: Weight
    matching_weight: Weight

    @property
    def ok(self) -> bool:
        return all(
            2 * mw >= cw - 2 * fw
            for mw, cw, fw in zip(self.matching_weight, self.cycle_weight, self.f_weight)
        ) and is_matching(self.matching)


def matching_claim_witness(g: LabeledDigraph, cycle: Iterable[Edge]) -> ClaimWitness:
    """Build the witness for one Hamiltonian cycle of g.

    Requires an even vertex count larger than the padded objective count
    (so the witness path set is a proper subset of the cycle).
    """
    cycle = tuple(sorted(cycle))
    if not is_hamiltonian_cycle(g, cycle):
        raise PreconditionError("not a Hamiltonian cycle of g")
    n = g.num_vertices
    if n % 2:
        raise PreconditionError("witness construction needs an even vertex count")
    two_k = even_objectives(g.dimension)
    if n <= two_k:
        raise PreconditionError(
            f"{n} vertices too few for {two_k} objectives; F could swallow the cycle"
        )
    order = cycle_vertex_order(cycle)
    seq = [(order[i], order[(i + 1) % n]) for i in range(n)]
    odd = seq[0::2]
    even = seq[1::2]
    pad = two_k - g.dimension

    def padded(e: Edge) -> Weight:
        return g.weight_map[e] + (0,) * pad

    inst = BalancingInstance(
        x=tuple(padded(e) for e in odd),
        y=tuple(padded(e) for e in even),
    )
    res = balance_combinatorial(inst)
    intervals = res.family.intervals
    in_interval = {
        i for a, b in intervals for i in range(a, b + 1)
    }
    p = n // 2
    s_edges = {even[b - 1] for _, b in intervals}
    s_edges |= {odd[i - 1] for i in in_interval}
    s_edges |= {even[i - 1] for i in range(1, p + 1) if i not in in_interval}
    f_edges = set()
    for a, b in intervals:
        f_edges.add(odd[a - 1])
        f_edges.add(even[b - 1])
    # F is at most 2k edges of a checked Hamiltonian cycle with n > 2k, so a path set
    contracted = contract_ends(g, *_path_ends(f_edges))
    # Contraction leaves S - F as it is.  On the cycle, the edge entering a
    # tail of F is an F edge, and no edge of S - F leaves a path's last
    # vertex: after odd[a-1] comes even[a-1], in S only when a == b and
    # then in F; after even[b-1] comes the next odd edge (odd[0] when
    # b = p), in S only when an interval starts at its index and then in F.
    mprime = s_edges - f_edges
    return ClaimWitness(
        cycle=cycle,
        f_edges=tuple(sorted(f_edges)),
        s_edges=tuple(sorted(s_edges)),
        matching=tuple(sorted(mprime)),
        contracted=contracted,
        cycle_weight=edge_set_weight(g, cycle),
        f_weight=edge_set_weight(g, f_edges),
        matching_weight=edge_set_weight(contracted, mprime),
    )
