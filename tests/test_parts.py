"""Graphs of several parts: chi_f, alpha_P and entropy solved over the parts' families.

Every answer is compared with the reference the single-family solvers give,
the covering LP over *every* maximal independent set of the graph (the
product of the parts' families), the first maximum in its enumeration
order, and the entropy loop run on that whole family.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from gelab import exactlp
from gelab import graphs as graphs_mod
from gelab.characterize import is_entropy_maximizer, is_symmetric
from gelab.entropy import _minimize, entropy
from gelab.exactlp import (
    _common_denominator,
    b_fold_realization,
    fractional_chromatic_dual,
    fractional_chromatic_number,
)
from gelab.graphs import (
    Distribution,
    Graph,
    _bits,
    _incidence,
    _parts_of,
    alpha,
    complete_graph,
    cycle_graph,
    enumerate_maximal_independent_sets,
    max_weighted_independent_set,
)
from gelab.oracle import verify_certificate

from helpers import (
    assert_same_answer,
    coverage,
    disjoint_union,
    graph_covering_lp,
    petersen,
    rand_graph,
    rand_rational_distribution,
    reference_max_weighted_independent_set,
    triangle_union,
    weight_vectors,
)


def random_union(rng: random.Random) -> Graph:
    """2-4 random G(n, p) parts and 0-3 isolated vertices, labels shuffled."""
    blocks = [rand_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9)) for _ in range(rng.randint(2, 4))]
    n = sum(b.n for b in blocks) + rng.randint(0, 3)
    n = min(n, 30)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for b in blocks:
        edges += [(label[offset + u], label[offset + v]) for u, v in b.edges]
        offset += b.n
    return Graph(n, edges)


UNIONS = [random_union(random.Random(seed)) for seed in range(200)]


def reference_chi(g: Graph):
    """The covering LP over every maximal set of g: (result, support, family)."""
    family = enumerate_maximal_independent_sets(g)
    res = exactlp._solve_exact(*exactlp._covering_lp(g.n, [(range(g.n), [s.mask for s in family])]))
    support = sorted(j for j, v in res.num.items() if j < len(family) and v)
    return res, support, family


def reference_alpha(g: Graph, weights):
    """(value, witness mask) of the first maximum in g's enumeration order."""
    support = [v for v in range(g.n) if weights[v] > 0]
    sub = g.induced(support)
    best = None
    for s in enumerate_maximal_independent_sets(sub):
        val = sum(weights[support[v]] for v in _bits(s.mask))
        if best is None or val > best[0]:
            best = (val, sum(1 << support[v] for v in _bits(s.mask)))
    return best


def reference_maximizer(g: Graph, p: Distribution):
    supp = p.support
    sub = g.induced(supp)
    chi = reference_chi(sub)[0].obj
    alpha_p = reference_alpha(g, p.weights)[0]
    return chi * alpha_p == 1, chi, alpha_p


def test_unions_have_several_parts():
    counts = [len(_parts_of(g)) for g in UNIONS]
    assert all(g.n <= 30 for g in UNIONS)
    assert sum(c >= 2 for c in counts) >= 180


class TestParts:
    def test_components_with_an_edge_by_lowest_vertex_isolated_in_the_first(self):
        g = Graph(8, [(5, 7), (1, 3), (3, 6)])
        assert _parts_of(g) == [1 << 1 | 1 << 3 | 1 << 6 | 1 << 0 | 1 << 2 | 1 << 4, 1 << 5 | 1 << 7]

    @pytest.mark.parametrize("n", [1, 4])
    def test_edgeless_graph_is_one_part(self, n):
        assert _parts_of(Graph(n)) == [(1 << n) - 1]

    @pytest.mark.parametrize("g", UNIONS[:60])
    def test_parts_partition_the_vertices_and_no_edge_crosses(self, g):
        parts = _parts_of(g)
        assert sum(parts) == (1 << g.n) - 1
        assert all(a & b == 0 for i, a in enumerate(parts) for b in parts[i + 1:])
        for u, v in g.edges:
            assert [p for p in parts if p >> u & 1] == [p for p in parts if p >> v & 1]


def test_c5_plus_k2_merged_coloring():
    # C5 on 0-4 and the edge 5-6: chi_f 5/2 and 2, so the K2 block is scaled
    # to 5/2 and cuts the stretch of (1, 3) where it changes from {5} to {6}
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
    chi, coloring = fractional_chromatic_number(g)
    assert chi == Fraction(5, 2)
    assert [(s.sorted_members(), w) for s, w in coloring.weights.items()] == [
        ((0, 2, 5), Fraction(1, 2)),
        ((0, 3, 5), Fraction(1, 2)),
        ((1, 3, 5), Fraction(1, 4)),
        ((1, 3, 6), Fraction(1, 4)),
        ((1, 4, 6), Fraction(1, 2)),
        ((2, 4, 6), Fraction(1, 2)),
    ]


@pytest.mark.parametrize("g", UNIONS, ids=[f"union{i}" for i in range(len(UNIONS))])
def test_union_against_the_product_family(g):
    ref, _, family = reference_chi(g)
    maximal = {s.mask for s in family}

    chi, coloring = fractional_chromatic_number(g)
    assert chi == ref.obj == coloring.total
    assert all(s.mask in maximal for s in coloring.weights)
    assert all(w > 0 for w in coloring.weights.values())
    assert all(coverage(coloring, v) >= 1 for v in range(g.n))

    value, y = fractional_chromatic_dual(g)
    assert value == chi == sum(y.values())
    assert all(w > 0 for w in y.values())
    d, y_int = _common_denominator([y.get(v, Fraction(0)) for v in range(g.n)])
    assert all(sum(y_int[v] for v in _bits(s.mask)) <= d for s in family)
    # the dual lives on the first part of largest chi_f
    part_chi = [reference_chi(g.induced(list(_bits(part))))[0].obj for part in _parts_of(g)]
    first = _parts_of(g)[part_chi.index(chi)]
    assert all(first >> v & 1 for v in y)

    cm = b_fold_realization(g)
    assert Fraction(cm.size, cm.fold) == chi and cm.covered == frozenset(range(g.n))
    assert all(g.is_independent(s.members) for s in cm.multiplicities)

    verdict = is_symmetric(g)
    ref_alpha = reference_alpha(g, [1] * g.n)
    assert verdict.chi_f == chi and verdict.n_over_alpha == Fraction(g.n, ref_alpha[0])
    assert verdict.is_symmetric == (chi * ref_alpha[0] == g.n)
    a = alpha(g)
    assert (a.value, a.witness.mask) == ref_alpha


@pytest.mark.parametrize("seed", range(40))
def test_maximizer_and_alpha_p_against_the_product_family(seed):
    rng = random.Random(seed)
    g = UNIONS[seed]
    p = rand_rational_distribution(rng, g.n, m_max=3 * g.n, strict=False)
    verdict = is_entropy_maximizer(g, p)
    yes, chi, alpha_p = reference_maximizer(g, p)
    assert (verdict.is_maximizer, verdict.chi_f_support, verdict.alpha_p) == (yes, chi, alpha_p)
    w = max_weighted_independent_set(g, p.weights)
    assert (w.value, w.witness.mask) == reference_alpha(g, p.weights)


YES_UNIONS = {
    "triangles4": triangle_union(4),
    "C5+C5": Graph(10, cycle_graph(5).edges + tuple((u + 5, v + 5) for u, v in cycle_graph(5).edges)),
    "C5+Petersen": Graph(15, cycle_graph(5).edges + tuple((u + 5, v + 5) for u, v in petersen().edges)),
}


@pytest.mark.parametrize("g", YES_UNIONS.values(), ids=YES_UNIONS.keys())
def test_symmetric_unions_carry_a_valid_certificate(g):
    verdict = is_symmetric(g)
    assert verdict.is_symmetric and len(_parts_of(g)) >= 2
    assert verify_certificate(g, Distribution.uniform(g.n), verdict.certificate)


def test_partial_support_of_two_parts_carries_its_certificate():
    # C6 on {0, 1, 3, 4} is the two edges 0-1 and 3-4
    g = cycle_graph(6)
    q = Fraction(1, 4)
    p = Distribution([q, q, 0, q, q, 0])
    assert len(_parts_of(g.induced(p.support))) == 2
    verdict = is_entropy_maximizer(g, p)
    assert verdict.is_maximizer and verdict.chi_f_support == 2 and verdict.alpha_p == Fraction(1, 2)
    cm = verdict.certificate
    assert cm.fold == 1 and cm.covered == frozenset({0, 1, 3, 4})
    assert sorted((s.sorted_members(), k) for s, k in cm.multiplicities.items()) == [((0, 3), 1), ((1, 4), 1)]
    assert all(s.graph is g for s in cm.multiplicities)
    assert verify_certificate(g, p, cm)


@pytest.mark.parametrize("seed", range(40))
def test_one_part_graphs_answer_as_the_product_family(seed):
    rng = random.Random(1000 + seed)
    g = rand_graph(rng, rng.randint(3, 14), rng.uniform(0.3, 0.8))
    while len(_parts_of(g)) != 1:
        g = rand_graph(rng, rng.randint(3, 14), rng.uniform(0.3, 0.8))
    ref, support, family = reference_chi(g)
    chi, coloring = fractional_chromatic_number(g)
    assert chi == ref.obj
    assert coloring.weights == {family[j]: ref.x[j] for j in support}
    assert list(coloring.weights) == [family[j] for j in support]
    assert fractional_chromatic_dual(g) == (ref.obj, {v: y for v, y in enumerate(ref.y) if y})


def one_part_gnp(seed: int) -> Graph:
    """A seeded G(n <= 30, p) of one part, redrawn until it has one."""
    rng = random.Random(5000 + seed)
    g = rand_graph(rng, rng.randint(1, 30), rng.uniform(0.3, 0.9))
    while len(_parts_of(g)) != 1:
        g = rand_graph(rng, rng.randint(1, 30), rng.uniform(0.3, 0.9))
    return g


@pytest.mark.parametrize("source", ["corpus7", "gnp"])
def test_one_part_answer_is_the_lp_solution(source, corpus7):
    # a graph of one part is one block of the merge, its own refinement: the
    # coloring is the LP's x on its support, in support order, and the dual y
    graphs = corpus7 if source == "corpus7" else [one_part_gnp(seed) for seed in range(300)]
    for g in graphs:
        assert len(_parts_of(g)) == 1
        ref, support, family = reference_chi(g)
        chi, coloring = fractional_chromatic_number(g)
        assert chi == ref.obj
        assert [(s.mask, w) for s, w in coloring.weights.items()] == [(family[j].mask, ref.x[j]) for j in support]
        assert fractional_chromatic_dual(g) == (ref.obj, {v: y for v, y in enumerate(ref.y) if y})


@pytest.fixture
def enumerated_sizes(monkeypatch):
    """The size of every family enumerated while the test runs, from a cold memo."""
    real = graphs_mod._maximal_independent_masks
    sizes = []

    def spy(adj, n):
        masks = real(adj, n)
        sizes.append(len(masks))
        return masks

    graphs_mod._maximal_sets_cached.cache_clear()
    monkeypatch.setattr(graphs_mod, "_maximal_independent_masks", spy)
    yield sizes
    graphs_mod._maximal_sets_cached.cache_clear()


def test_triangle_union_never_enumerates_the_product(enumerated_sizes):
    chi, coloring = fractional_chromatic_number(triangle_union(12))
    assert chi == 3 and coloring.total == 3
    assert enumerated_sizes and max(enumerated_sizes) <= 3


@pytest.mark.parametrize("seed", range(40))
def test_entropy_against_the_product_family(seed):
    # the reference runs the same scan-and-step loop on every maximal set of
    # G[supp P] with P as it is: both brackets hold H, so they overlap. Odd
    # seeds take P as floats, renormalized per part in floats
    rng = random.Random(seed)
    g = UNIONS[seed]
    p = rand_rational_distribution(rng, g.n, m_max=3 * g.n, strict=False)
    if seed % 2:
        p = Distribution([float(w) for w in p.weights])
    supp = p.support
    family = enumerate_maximal_independent_sets(g.induced(supp))
    q = np.array([float(p[v]) for v in supp])
    M = _incidence([s.mask for s in family], len(supp)).astype(np.float64)
    _, a, ref_gap, _ = _minimize(q, M, 1e-9, 10**6, len(supp))
    ref = float(-(q * np.log2(a)).sum())
    res = entropy(g, p)
    assert res.converged and ref_gap <= 1e-9
    assert abs(res.value - ref) <= res.gap + ref_gap + 1e-12


def test_entropy_on_triangle_union_never_enumerates_the_product(enumerated_sizes):
    g = triangle_union(12)
    res = entropy(g, Distribution.uniform(g.n))
    assert enumerated_sizes and max(enumerated_sizes) <= 3
    assert res.converged
    assert res.value - res.gap <= math.log2(3) <= res.value


@pytest.mark.parametrize("g", [rand_graph(random.Random(4), 30, 0.2), triangle_union(4)], ids=["gnp30", "4K3"])
@pytest.mark.parametrize(
    "solve",
    [
        fractional_chromatic_number,
        lambda g: max_weighted_independent_set(g, [1] * g.n),
        is_symmetric,
        fractional_chromatic_dual,
    ],
    ids=["chi_f", "mwis", "symmetric", "dual"],
)
def test_only_returned_sets_are_wrapped(monkeypatch, g, solve):
    # the solvers read the families as bitmasks: an IndependentSet is built
    # only for a set a result returns (`_from_mask` builds through `_trusted`),
    # so none for the dual, which returns no set
    real = graphs_mod.IndependentSet._trusted.__func__
    built = []

    def trusted(cls, graph, masks):
        sets = real(cls, graph, masks)
        built.append(len(sets))
        return sets

    monkeypatch.setattr(graphs_mod.IndependentSet, "_trusted", classmethod(trusted))
    solve(g)
    if solve is fractional_chromatic_dual:
        assert not built
    else:
        assert 0 < sum(built) <= g.n


def test_set_budget_is_the_product_of_the_parts(monkeypatch):
    g = triangle_union(5)  # 3**5 = 243 maximal sets, 3 per part
    monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 242)
    with pytest.raises(graphs_mod.CapExceeded, match="more than 242 maximal independent sets"):
        fractional_chromatic_number(g)
    with pytest.raises(graphs_mod.CapExceeded, match="more than 242 maximal independent sets"):
        alpha(g)
    with pytest.raises(graphs_mod.CapExceeded, match="more than 242 maximal independent sets"):
        entropy(g, Distribution.uniform(g.n))
    monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 243)
    assert fractional_chromatic_number(g)[0] == 3
    assert entropy(g, Distribution.uniform(g.n)).converged


def test_vertex_cap_is_on_the_whole_graph():
    g = triangle_union(14)  # 42 vertices, parts of 3
    with pytest.raises(graphs_mod.CapExceeded, match="graph has 42 vertices"):
        fractional_chromatic_number(g)
    with pytest.raises(graphs_mod.CapExceeded, match="graph has 42 vertices"):
        alpha(g)
    with pytest.raises(graphs_mod.CapExceeded, match="graph has 42 vertices"):
        entropy(g, Distribution.uniform(g.n))


def test_merged_coloring_is_rechecked(monkeypatch):
    # the LP matrix is built first, one triangle's rows at a time on its own
    # 3 labels, then the merged coloring's on all 6: a merge that leaves
    # vertex 0 uncovered must raise
    real = exactlp._incidence
    calls = []

    def incidence(sets, n):
        rows = real(sets, n)
        calls.append(n)
        if n == 6:
            rows[:, 0] = 0
        return rows

    monkeypatch.setattr(exactlp, "_incidence", incidence)
    with pytest.raises(exactlp.InternalError, match="merged coloring not covering"):
        fractional_chromatic_number(triangle_union(2))
    assert calls == [3, 3, 6]


def test_a_non_optimal_block_is_rejected_by_the_one_proof():
    # C5 + K2, solved as one LP over the parts' families: C5's sets 02 03 13
    # 24 with vertex 2's surplus, and K2's {5} and {6}. The basis is feasible
    # (x = 1 on 02, 13, 24, {5}, {6}; surplus 1 at vertex 2) with objective
    # 5 against the optimum 5/2 + 2. Only the C5 block is not optimal, and
    # `_certify_basis` alone rejects it: the merge proves no block again.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
    cols, b, c = graph_covering_lp(g)
    masks = graphs_mod._row_masks(cols[: len(cols) - g.n] > 0)
    column = {tuple(_bits(mask)): j for j, mask in enumerate(masks)}
    surplus2 = len(masks) + 2
    basis = [column[s] for s in [(0, 2), (0, 3), (1, 3), (2, 4), (5,), (6,)]] + [surplus2]
    x = [Fraction(0)] * len(cols)
    for j in [column[(0, 2)], column[(1, 3)], column[(2, 4)], column[(5,)], column[(6,)], surplus2]:
        x[j] = Fraction(1)
    assert round(abs(np.linalg.det(cols[basis].T))) != 0  # so x is this basis's one solution
    assert [sum(int(a) * xj for a, xj in zip(cols[:, v], x)) for v in range(g.n)] == b
    assert sum(cj * xj for cj, xj in zip(c, x)) == 5
    with pytest.raises(exactlp._WarmStartFailed):
        exactlp._certify_basis(cols, b, c, basis)
    assert exactlp._solve_exact(cols, b, c).obj == Fraction(9, 2)


def test_only_returned_sets_are_lifted(monkeypatch):
    # G(20, .3), C5 and K2 side by side, labels shuffled so that the parts
    # interleave: the solvers read each part's family on its own labels and
    # lift (`graphs._lift`) only what they return
    union = disjoint_union(rand_graph(random.Random(4), 20, 0.3), cycle_graph(5), complete_graph(2))
    label = list(range(union.n))
    random.Random(27).shuffle(label)
    g = Graph(union.n, [(label[u], label[v]) for u, v in union.edges])
    parts = [list(_bits(part)) for part in _parts_of(g)]
    assert len(parts) >= 3 and all(labels != list(range(labels[0], labels[-1] + 1)) for labels in parts)
    lifted = []
    real = graphs_mod._lift

    def lift(mask, labels):
        lifted.append(mask)
        return real(mask, labels)

    binders = [m for name, m in list(sys.modules.items()) if name.startswith("gelab") and hasattr(m, "_lift")]
    assert graphs_mod in binders
    for module in binders:
        monkeypatch.setattr(module, "_lift", lift)

    rational = [Fraction(v % 5 + 1, v % 3 + 1) for v in range(g.n)]
    solvers = [(alpha, [1] * g.n), (lambda g: max_weighted_independent_set(g, rational), rational)]
    for solve, weights in solvers:
        ref = reference_max_weighted_independent_set(g, weights)
        lifted.clear()
        res = solve(g)
        assert len(lifted) <= len(parts) + 1  # one winner per part, then the support's
        assert (res.value, res.witness) == (ref.value, ref.witness)

    lifted.clear()
    chi, coloring = fractional_chromatic_number(g)
    cm = b_fold_realization(g)
    assert lifted == []
    assert chi == reference_chi(g)[0].obj == Fraction(cm.size, cm.fold)
    assert all(coverage(coloring, v) >= 1 for v in range(g.n))


@pytest.mark.parametrize("rows", [1, 7])
def test_blocked_scan_per_part(monkeypatch, rows):
    # each part's family scored against its own labels' weights, across block
    # boundaries, on graphs whose parts interleave
    monkeypatch.setattr(graphs_mod, "_SCAN_ROWS", rows)
    rng = random.Random(rows)
    for g in UNIONS:
        for weights in weight_vectors(rng, g.n).values():
            assert_same_answer(g, weights)
