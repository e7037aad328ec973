"""Shared test utilities: named graphs, random instances, tolerance math, and
reference procedures that no solver path uses."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from gelab.entropy import _line_search, entropy
from gelab.errors import CapExceeded, InternalError, NotRational
from gelab.exactlp import FractionalColoring, _cover_start, _covering_lp, _simplex, fractional_chromatic_number
from gelab.graphs import (
    SET_COUNT_CAP,
    Distribution,
    Graph,
    IndependentSet,
    WeightedAlpha,
    _bits,
    _common_denominator,
    _incidence,
    _lift,
    _maximal_sets_cached,
    _split_families,
    enumerate_maximal_independent_sets,
    max_weighted_independent_set,
    resolve_cap,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def hypercube_q3() -> Graph:
    edges = []
    for u in range(8):
        for bit in range(3):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    return Graph(8, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def kneser(m: int, k: int) -> Graph:
    """K(m,k): the k-subsets of range(m), adjacent when disjoint."""
    subsets = list(itertools.combinations(range(m), k))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return Graph(len(subsets), edges)


def circulant(n: int, jumps) -> Graph:
    """C_n(jumps): vertex i adjacent to i +- j (mod n) for each jump j."""
    return Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def triangle_union(k: int) -> Graph:
    """k disjoint triangles on 3k vertices: 3**k maximal independent sets."""
    return Graph(3 * k, [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))])


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side: the vertices of each follow those of the one before."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph(offset, edges)


def lex_product(g: Graph, f: Graph) -> Graph:
    """G[F], the lexicographic product: (u, x) ~ (v, y) iff u ~ v, or u = v and x ~ y.

    F substituted into every vertex of G; vertex (u, x) is u * f.n + x.
    """
    m = f.n
    edges = [(u * m + a, u * m + b) for u in range(g.n) for a, b in f.edges]
    edges += [(u * m + x, v * m + y) for u, v in g.edges for x in range(m) for y in range(m)]
    return Graph(g.n * m, edges)


def mycielski(g: Graph) -> Graph:
    """M(G): g, a shadow n + v of each vertex v adjacent to v's neighbours, and a hub 2n on every shadow."""
    n = g.n
    shadows = [(u, n + v) for a, b in g.edges for u, v in ((a, b), (b, a))]
    return Graph(2 * n + 1, list(g.edges) + shadows + [(n + v, 2 * n) for v in range(n)])


def complement(g: Graph) -> Graph:
    return Graph(g.n, [
        (u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)
    ])


def rand_bipartite(rng: random.Random, n: int, p_edge: float) -> Graph:
    """Random bipartite graph on a random split of range(n)."""
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if side[i] != side[j] and rng.random() < p_edge
    ]
    return Graph(n, edges)


def rand_chordal(rng: random.Random, n: int, keep: float) -> Graph:
    """Random chordal graph, built along a perfect elimination order.

    Each new vertex v picks an earlier vertex u and joins each member of u's
    clique (u and the vertices u joined) with probability `keep`. v's
    neighbourhood is then a clique, so 0..n-1 reversed is a perfect
    elimination order.
    """
    joined: list[set[int]] = []
    edges = []
    for v in range(n):
        join = set()
        if v:
            u = rng.randrange(v)
            join = {w for w in joined[u] | {u} if rng.random() < keep}
        joined.append(join)
        edges += [(w, v) for w in join]
    return Graph(n, edges)


def rand_comparability(rng: random.Random, n: int, p_edge: float, posets: int = 1) -> Graph:
    """Comparability graph of a random poset on range(n): a perfect graph.

    The labels are shuffled and cut into `posets` runs, pairwise
    incomparable, so the graph has no edge between two runs. On each run,
    every pair i < j not yet comparable is made i < j with probability
    `p_edge`, with everything above j; walking i downward keeps the order
    transitively closed.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), posets - 1))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        run = labels[lo:hi]
        above = [0] * len(run)
        for i in reversed(range(len(run))):
            for j in range(i + 1, len(run)):
                if not above[i] >> j & 1 and rng.random() < p_edge:
                    above[i] |= 1 << j | above[j]
        edges += [(run[i], run[j]) for i in range(len(run)) for j in _bits(above[i])]
    return Graph(n, edges)


def rand_graph(rng: random.Random, n: int, p_edge: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge
    ]
    return Graph(n, edges)


def rand_spanning_subgraph(rng: random.Random, g: Graph) -> Graph:
    edges = [e for e in g.edges if rng.random() < 0.5]
    return Graph(g.n, edges)


def rand_rational_distribution(
    rng: random.Random, n: int, m_max: int = 40, strict: bool = True
) -> Distribution:
    """Random distribution with weights n_v / m for a random denominator m."""
    if strict:
        m = rng.randint(n, m_max)
        counts = [1] * n
        for _ in range(m - n):
            counts[rng.randrange(n)] += 1
    else:
        m = rng.randint(1, m_max)
        counts = [0] * n
        for _ in range(m):
            counts[rng.randrange(n)] += 1
    return Distribution([Fraction(c, m) for c in counts])


def continuity_delta(p: Distribution, h_value: float, eps: float) -> float:
    """Perturbation radius under which the entropy moves by less than eps.

    delta = (1/2) * min_v p_v * min(1, eps / (n * H)); the second factor is
    1 when H is zero (the bound is vacuous for empty-ish graphs).
    """
    min_p = min(float(w) for w in p.weights)
    if h_value <= 0:
        scale = 1.0
    else:
        scale = min(1.0, eps / (p.n * h_value))
    return 0.5 * min_p * scale


def perturb_within(rng: random.Random, p: Distribution, delta: float) -> Distribution:
    """A float distribution within sup-distance delta of p (still positive)."""
    while True:
        w = [float(x) + rng.uniform(-delta, delta) * 0.999 for x in p.weights]
        # repair the sum by spreading the deficit over the largest entries;
        # retries keep the sup-norm guarantee honest
        deficit = 1.0 - sum(w)
        w = [x + deficit / len(w) for x in w]
        if all(x > 0 for x in w):
            sup = max(abs(float(a) - b) for a, b in zip(p.weights, w))
            if sup < delta:
                return Distribution([x / sum(w) for x in w])


def entropy_equals_log_chi_f(
    g: Graph, p: Distribution, tol: float, cap: int | None = None
) -> bool:
    """Numerical cross-check: does H(G,P) equal lg chi_f of the support graph?

    Validation only; the combinatorial verdicts of `gelab.characterize` are
    the actual decision procedure. True when the solver value is within
    tol + (solver gap) of the exact logarithm.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sub = g.induced(p.support)
    chi = fractional_chromatic_number(sub, cap)[0]
    res = entropy(g, p, cap=cap)
    return abs(res.value - math.log2(chi)) <= tol + res.gap


def linear_minimization_oracle(g: Graph, gradient, cap: int | None = None) -> IndependentSet:
    """The packing-polytope vertex minimizing <gradient, s>.

    Gradients of the entropy objective are nonpositive, so this is the
    maximum weighted independent set for weights -gradient. An all-zero
    gradient leaves every vertex tied; by convention the first maximal set
    in enumeration order is returned.
    """
    if len(gradient) != g.n:
        raise ValueError("gradient length differs from vertex count")
    if any(gv > 0 for gv in gradient):
        raise ValueError("gradient must be nonpositive coordinatewise")
    if all(gv == 0 for gv in gradient):
        return enumerate_maximal_independent_sets(g, cap)[0]
    weights = [-float(gv) for gv in gradient]
    return max_weighted_independent_set(g, weights, cap).witness


def reference_face_newton_step(
    q: np.ndarray, M: np.ndarray, lam: np.ndarray, a: np.ndarray, enter: int | None = None
) -> np.ndarray:
    """`gelab.entropy._face_newton_step` as it was before its array calls were cut.

    The reference its lean form must match bit for bit: the same KKT
    matrix, least-squares solve, entering and bound rules and line search,
    written with one array call per formula. Updates lam in place and
    returns `a` itself when the step does not move.
    """
    face = np.flatnonzero(lam)
    entering = enter is not None and not lam[enter]
    if entering:
        face = np.append(face, enter)
    m_w = M[face]
    w = len(face)
    root = m_w * (np.sqrt(q) / a)
    kkt = np.ones((w + 1, w + 1))
    kkt[:w, :w] = root @ root.T
    kkt[w, w] = 0.0
    rhs = np.append(m_w @ (q / a), 0.0)
    step = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:w]
    step -= step.mean()  # sum(step) = 0 to rounding: keep a on the polytope
    if entering and step[-1] <= 0.0:
        return reference_face_newton_step(q, M, lam, a)
    lam_w = lam[face]
    shrinking = np.flatnonzero(step < 0.0)
    if not len(shrinking):
        return a
    bounds = lam_w[shrinking] / -step[shrinking]
    gamma = _line_search(q, a, step @ m_w, float(bounds.min()))
    if gamma == 0.0:
        return a
    lam_w += gamma * step
    # a shrinking weight is -step * (its bound - gamma): never negative, and
    # exactly 0 for every atom whose bound gamma reaches
    lam_w[shrinking] = -step[shrinking] * (bounds - gamma)
    lam[face] = lam_w
    return lam_w @ m_w


def coverage(fc: FractionalColoring, v: int) -> Fraction:
    """Total weight of the sets of `fc` that hold vertex v."""
    return sum((w for s, w in fc.weights.items() if v in s), Fraction(0))


def uniform_cover_feasible(
    g: Graph, family: Sequence[IndependentSet], target: Iterable[int]
) -> FractionalColoring | None:
    """Rational weights on `family` covering every target vertex exactly once.

    The reference for "symmetric iff a uniform cover by maximum sets
    exists": an LP of its own, independent of the covering LP behind the
    verdicts, solved in Fractions with Bland's rule by `_simplex` from the
    greedy cover start. Its rows are the target vertices and its columns
    the family restricted to them, then -I; set S costs |S & T|, so the
    objective is the total coverage sum_v cov(v) >= |T|, with equality
    exactly when some cover is exact. Returns None when a target vertex
    lies in no set or the optimum exceeds |T|. Only target rows are
    constrained; family sets may touch other vertices freely. Raises
    ValueError when the family is empty or holds a set of another graph.
    """
    family = list(family)
    if not family:
        raise ValueError("family of independent sets must be nonempty")
    for s in family:
        if s.graph != g:
            raise ValueError(f"family set {s.sorted_members()} is an independent set of another graph")
    rows = sorted(set(target))
    for v in rows:
        g._check_vertex(v)
    if not rows:
        return FractionalColoring({})
    M = _incidence([s.mask for s in family], g.n).astype(np.int64)[:, rows]
    if not M.any(axis=0).all():
        return None
    t = len(rows)
    cols = np.concatenate([M, -np.eye(t, dtype=np.int64)])
    cost = M.sum(axis=1).tolist() + [0] * t
    res = _simplex(cols, [1] * t, cost, exact=True, start=_cover_start(cols, t))
    if res.obj > t:
        return None
    weights: dict[IndependentSet, Fraction] = {}
    for j, s in enumerate(family):
        if res.x[j] != 0:
            weights[s] = weights.get(s, Fraction(0)) + res.x[j]
    fc = FractionalColoring(weights)
    for v in rows:
        if coverage(fc, v) != 1:
            raise InternalError("internal LP error: cover not exactly uniform")
    return fc


def enumerate_maximum_weighted_independent_sets(
    g: Graph, p: Distribution, cap: int | None = None, set_cap: int = SET_COUNT_CAP
) -> list[IndependentSet]:
    """All independent sets whose P-weight equals the maximum exactly.

    Requires an exact-rational distribution so weight equality is decidable.
    Zero-weight vertices may extend an attaining set without changing its
    weight, so those variants are enumerated too (deduplication is by the
    member set). Aborts with CapExceeded past `set_cap` sets.
    """
    if not p.exact:
        raise NotRational("exact-rational distribution required")
    if p.n != g.n:
        raise ValueError("distribution length differs from vertex count")
    limit = resolve_cap(cap)
    if g.n > limit:
        raise CapExceeded(f"graph has {g.n} vertices, enumeration cap is {limit}")
    target = max_weighted_independent_set(g, p.weights, cap).value
    adj = g._adj
    weights = p.weights
    out: list[tuple[int, ...]] = []

    # Depth-first over vertices in label order; prune with the residual
    # positive weight (an upper bound on what the suffix can still add).
    suffix_pos = [Fraction(0)] * (g.n + 1)
    for v in range(g.n - 1, -1, -1):
        suffix_pos[v] = suffix_pos[v + 1] + (weights[v] if weights[v] > 0 else 0)

    def walk(v: int, chosen_mask: int, total) -> None:
        if total + suffix_pos[v] < target:
            return
        if v == g.n:
            if total == target:
                if len(out) >= set_cap:
                    raise CapExceeded(f"more than {set_cap} maximum-weight sets")
                out.append(tuple(_bits(chosen_mask)))
            return
        if adj[v] & chosen_mask == 0:
            walk(v + 1, chosen_mask | (1 << v), total + weights[v])
        walk(v + 1, chosen_mask, total)

    walk(0, 0, Fraction(0))
    return [IndependentSet(g, members) for members in sorted(out)]


def reference_max_weighted_independent_set(g: Graph, weights: Sequence, cap: int | None = None) -> WeightedAlpha:
    """`max_weighted_independent_set` with its scan as a per-set loop, the reference of the blocked scan.

    The same checks, support and part split; each set's weight is summed
    member by member in Python, on the part's own labels, and a set
    replaces the best so far only when strictly heavier, so the witness is
    the first maximum.
    """
    if len(weights) != g.n:
        raise ValueError("weight vector length differs from vertex count")
    ints = all(isinstance(w, int) for w in weights)
    rational = ints or all(isinstance(w, (int, Fraction)) for w in weights)
    if not rational and any(not 0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    if ints:
        den, scaled = 1, weights
    else:
        den, scaled = _common_denominator(weights if rational else [Fraction(w) for w in weights])
    if any(w < 0 for w in scaled):
        raise ValueError("weights must be finite and nonnegative")
    support = [v for v in range(g.n) if scaled[v] > 0]
    scaled = [scaled[v] for v in support]
    best_set = total = 0
    for labels, family in _split_families(g.induced(support), cap, _maximal_sets_cached):
        best_val = best_mask = 0
        for mask in family:
            val = sum(scaled[labels[j]] for j in _bits(mask))
            if val > best_val:
                best_val, best_mask = val, mask
        best_set |= _lift(best_mask, labels)
        total += best_val
    if not ints:
        total = Fraction(total, den) if rational else total / den
    return WeightedAlpha(value=total, witness=IndependentSet._from_mask(g, _lift(best_set, support)))


def weight_vectors(rng: random.Random, n: int) -> dict:
    """Int, rational and float weights on n vertices, with zeros (a partial support) and ties."""
    return {
        "int": [rng.choice([0, 1, 1, 2, 3, 7]) for _ in range(n)],
        "rational": [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(n)],
        "float": [rng.choice([0.0, 0.1, 0.25, 1 / 3, 1.0, rng.random()]) for _ in range(n)],
    }


def assert_same_answer(g: Graph, weights: Sequence) -> None:
    """`max_weighted_independent_set` gives the reference's value, value type and witness."""
    res = max_weighted_independent_set(g, weights)
    ref = reference_max_weighted_independent_set(g, weights)
    assert type(res.value) is type(ref.value) and res.value == ref.value
    assert res.witness == ref.witness


def graph_covering_lp(g: Graph, cap: int | None = None):
    """(cols, b, c) of g's covering LP as `fractional_chromatic_number` builds it, over its parts' families."""
    return _covering_lp(g.n, _split_families(g, cap, _maximal_sets_cached))
