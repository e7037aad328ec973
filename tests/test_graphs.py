"""Graph core: enumeration, alpha, and weighted independent-set oracles."""

import itertools
import math
import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelab import graphs as graphs_mod
from gelab.errors import CapExceeded, NotRational, VertexNotFound
from gelab.graphs import (
    Distribution,
    Graph,
    IndependentSet,
    alpha,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_maximal_independent_sets,
    max_weighted_independent_set,
    _incidence,
    path_graph,
)
from gelab.oracle import (
    brute_alpha,
    brute_max_weight,
    brute_maximal_independent_sets,
)

from helpers import enumerate_maximum_weighted_independent_sets, rand_graph, triangle_union


def members(sets):
    return [s.sorted_members() for s in sets]


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in possible if draw(st.booleans())]
    return Graph(n, edges)


class TestGraphType:
    def test_edges_normalized(self):
        g = Graph(3, [(2, 1), (1, 2), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.degree(1) == 2
        assert g.neighbors(1) == {0, 2}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexNotFound):
            Graph(2, [(0, 5)])

    def test_edge_count_is_half_degree_sum(self):
        g = rand_graph(random.Random(0), 7, 0.5)
        assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)

    def test_induced_subgraph_relabels(self):
        g = cycle_graph(5)
        sub, relabel = g.induced([1, 2, 4])
        assert sub.n == 3
        assert relabel == {1: 0, 2: 1, 4: 2}
        assert sub.edges == ((0, 1),)

    def test_induced_on_every_vertex_is_the_graph(self):
        g = cycle_graph(5)
        sub, relabel = g.induced(range(g.n))
        assert sub is g
        assert relabel == {v: v for v in range(5)}
        assert g.induced([4, 3, 2, 1, 0, 0])[0] is g

    def test_independent_set_validates(self):
        g = path_graph(3)
        assert IndependentSet(g, [0, 2]).characteristic_vector() == (1, 0, 1)
        with pytest.raises(ValueError):
            IndependentSet(g, [0, 1])


class TestDistribution:
    def test_uniform_is_exact(self):
        p = Distribution.uniform(3)
        assert p.exact and sum(p.weights) == 1

    def test_support(self):
        p = Distribution([Fraction(1, 2), Fraction(0), Fraction(1, 2)])
        assert p.support == (0, 2)

    def test_float_sum_tolerance(self):
        Distribution([0.25, 0.75])
        with pytest.raises(ValueError):
            Distribution([0.25, 0.74])

    def test_rational_sum_must_be_exact(self):
        with pytest.raises(ValueError):
            Distribution([Fraction(1, 3), Fraction(1, 3)])

    @pytest.mark.parametrize("n", [0, -1])
    def test_uniform_needs_a_vertex(self, n):
        with pytest.raises(ValueError, match="at least one vertex"):
            Distribution.uniform(n)

    def test_uniform_equals_the_validated_constructor(self):
        for n in range(1, 61):
            p = Distribution.uniform(n)
            assert p == Distribution([Fraction(1, n)] * n)
            assert all(type(w) is Fraction for w in p.weights)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="negative probability weight"):
            Distribution([math.nan, 0.5, 0.5])

    @pytest.mark.parametrize("weights", [[0, 0], [0.0, 0.0]])
    def test_all_zero_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="sum to"):
            Distribution(weights)


class TestEnumerateMaximal:
    def test_triangle_gives_singletons(self):
        assert members(enumerate_maximal_independent_sets(complete_graph(3))) == [
            (0,), (1,), (2,)
        ]

    def test_empty_graph_gives_whole_set(self):
        assert members(enumerate_maximal_independent_sets(empty_graph(3))) == [
            (0, 1, 2)
        ]

    def test_c5_matches_brute_force(self):
        got = members(enumerate_maximal_independent_sets(cycle_graph(5)))
        assert got == brute_maximal_independent_sets(cycle_graph(5))
        assert got == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            enumerate_maximal_independent_sets(empty_graph(41))
        assert enumerate_maximal_independent_sets(empty_graph(41), cap=41)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GELAB_CAP", "5")
        with pytest.raises(CapExceeded):
            enumerate_maximal_independent_sets(empty_graph(6))

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_every_outside_vertex_has_neighbor_inside(self, g):
        for s in enumerate_maximal_independent_sets(g):
            for v in range(g.n):
                if v not in s:
                    assert g.neighbors(v) & s.members

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_agrees_with_exhaustive_enumeration(self, g):
        got = members(enumerate_maximal_independent_sets(g))
        assert got == brute_maximal_independent_sets(g)


def disjoint_union(parts):
    """Components placed on consecutive label blocks, in the order given."""
    n, edges = 0, []
    for g in parts:
        edges += [(n + u, n + v) for u, v in g.edges]
        n += g.n
    return Graph(n, edges)


class TestLargeEnumerationOrder:
    """Order at sizes beyond the brute-force oracle, from the components alone.

    The member list of a maximal set of a disjoint union is the concatenation
    of one maximal set per component (blocks in label order), so the
    lexicographic order is the product order of the components' own lists.
    """

    @pytest.mark.parametrize(
        "parts",
        [
            [complete_graph(3)] * 7,
            [complete_graph(3)] * 9,
            [complete_graph(3)] * 3 + [cycle_graph(5)] + [complete_graph(3)] * 2 + [path_graph(3)],
        ],
        ids=["triangles7", "triangles9", "triangles-c5-p3"],
    )
    def test_union_is_product_of_components(self, parts):
        offsets = itertools.accumulate([0] + [g.n for g in parts[:-1]])
        per_part = [
            [tuple(off + v for v in s) for s in brute_maximal_independent_sets(g)]
            for g, off in zip(parts, offsets)
        ]
        expected = [sum(choice, ()) for choice in itertools.product(*per_part)]
        got = members(enumerate_maximal_independent_sets(disjoint_union(parts)))
        assert len(got) == len(expected)
        assert got == expected


class TestSetBudget:
    def test_budget_raises_cap_exceeded(self, monkeypatch):
        g = triangle_union(5)  # 3**5 = 243 maximal independent sets
        graphs_mod._maximal_sets_cached.cache_clear()
        monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 242)
        with pytest.raises(CapExceeded):
            enumerate_maximal_independent_sets(g)
        monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 243)
        assert len(enumerate_maximal_independent_sets(g)) == 243

    def test_budget_is_checked_during_the_search(self, monkeypatch):
        # 13 triangles: 39 vertices, under the vertex cap, 3**13 = 1.59M sets;
        # the search stops at set budget + 1 instead of materialising them
        monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 10)
        with pytest.raises(CapExceeded, match="more than 10 maximal"):
            enumerate_maximal_independent_sets(triangle_union(13))


class TestMaskPath:
    def test_matches_members_constructor(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = rand_graph(rng, rng.randint(1, 20), rng.uniform(0.1, 0.7))
            for s in enumerate_maximal_independent_sets(g):
                ref = IndependentSet(g, s.members)
                assert ref.mask == s.mask == sum(1 << v for v in s.members)
                assert ref == s and hash(ref) == hash(s)
                assert ref == IndependentSet._from_mask(g, ref.mask)
                # every derived view agrees with the frozenset reference
                mem = frozenset(s.members)
                assert len(s) == len(mem)
                assert [v in s for v in range(-2, g.n + 2)] == [
                    v in mem for v in range(-2, g.n + 2)
                ]
                assert s.sorted_members() == tuple(sorted(mem))
                assert s.characteristic_vector() == tuple(
                    1 if v in mem else 0 for v in range(g.n)
                )
                weights = [Fraction(v + 1, 3) for v in range(g.n)]
                assert s.weight(weights) == sum(
                    (weights[v] for v in mem), Fraction(0)
                )

    def test_mask_is_frozen(self):
        s = IndependentSet(cycle_graph(5), (0, 2))
        with pytest.raises(FrozenInstanceError):
            s.mask = 0b00101
        assert [f.name for f in fields(IndependentSet)] == ["graph", "mask"]

    def test_rejects_mask_with_an_edge(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            IndependentSet._from_mask(g, 0b00011)  # vertices 0 and 1
        with pytest.raises(ValueError):
            IndependentSet._from_mask(g, 0b10001)  # vertices 0 and 4

    def test_rejects_bits_outside_the_graph(self):
        g = cycle_graph(5)
        with pytest.raises(VertexNotFound):
            IndependentSet._from_mask(g, 1 << 5)
        with pytest.raises(VertexNotFound):
            IndependentSet._from_mask(g, 1 | 1 << 40)
        with pytest.raises(VertexNotFound):
            IndependentSet._from_mask(g, -1)
        assert IndependentSet._from_mask(g, 0).members == frozenset()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 30])
    def test_incidence_rows_are_characteristic_vectors(self, n):
        g = rand_graph(random.Random(n), n, 0.4)
        sets = enumerate_maximal_independent_sets(g)
        inc = _incidence(sets, n)
        assert inc.shape == (len(sets), n)
        assert inc.tolist() == [list(s.characteristic_vector()) for s in sets]


class TestAlpha:
    def test_examples(self):
        assert alpha(cycle_graph(5)).value == 2
        assert alpha(complete_graph(7)).value == 1
        assert alpha(empty_graph(5)).value == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            alpha(Graph(0))

    def test_alpha_is_max_maximal_cardinality(self):
        g = rand_graph(random.Random(1), 8, 0.4)
        sets = enumerate_maximal_independent_sets(g)
        assert alpha(g).value == max(len(s) for s in sets)
        size = max(len(s) for s in sets)
        assert alpha(g).witness == next(s for s in sets if len(s) == size)
        assert alpha(cycle_graph(5)).witness.sorted_members() == (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_agrees_with_brute_force(self, g):
        assert alpha(g).value == brute_alpha(g)


class TestMaxWeighted:
    def test_k2_heavier_endpoint(self):
        res = max_weighted_independent_set(
            complete_graph(2), [Fraction(1, 3), Fraction(2, 3)]
        )
        assert res.value == Fraction(2, 3)
        assert res.witness.sorted_members() == (1,)

    def test_c5_uniform(self):
        res = max_weighted_independent_set(cycle_graph(5), [Fraction(1, 5)] * 5)
        assert res.value == Fraction(2, 5)

    def test_zero_weights(self):
        res = max_weighted_independent_set(cycle_graph(5), [0] * 5)
        assert res.value == 0 and res.witness.sorted_members() == ()

    def test_witness_stays_in_support(self):
        g = empty_graph(4)
        res = max_weighted_independent_set(g, [Fraction(1), 0, 0, 0])
        assert res.witness.sorted_members() == (0,)

    def test_uniform_weights_give_alpha_over_n(self):
        g = rand_graph(random.Random(2), 7, 0.5)
        res = max_weighted_independent_set(g, [Fraction(1, 7)] * 7)
        assert res.value == Fraction(alpha(g).value, 7)

    def test_scaling_invariance(self):
        g = rand_graph(random.Random(3), 7, 0.4)
        w = [Fraction(i + 1, 28) for i in range(7)]
        base = max_weighted_independent_set(g, w)
        scaled = max_weighted_independent_set(g, [3 * x for x in w])
        assert scaled.value == 3 * base.value
        assert scaled.witness.members == base.witness.members

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            max_weighted_independent_set(complete_graph(2), [1, -1])

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            max_weighted_independent_set(path_graph(3), [math.nan, 0.5, 0.4])

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7), st.data())
    def test_value_agrees_with_brute_force(self, g, data):
        w = [
            Fraction(data.draw(st.integers(min_value=0, max_value=6)), 6)
            for _ in range(g.n)
        ]
        best, _ = brute_max_weight(g, w)
        assert max_weighted_independent_set(g, w).value == best


class TestEnumerateMaxWeight:
    def test_k2_uniform_both_singletons(self):
        got = enumerate_maximum_weighted_independent_sets(
            complete_graph(2), Distribution.uniform(2)
        )
        assert members(got) == [(0,), (1,)]

    def test_c5_uniform_all_pairs(self):
        got = enumerate_maximum_weighted_independent_sets(
            cycle_graph(5), Distribution.uniform(5)
        )
        assert members(got) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]

    def test_p3_with_zero_weight_middle(self):
        p = Distribution([Fraction(1, 2), Fraction(0), Fraction(1, 2)])
        got = enumerate_maximum_weighted_independent_sets(path_graph(3), p)
        assert members(got) == [(0, 2)]

    def test_zero_weight_extensions_included(self):
        p = Distribution([Fraction(1), Fraction(0)])
        got = enumerate_maximum_weighted_independent_sets(empty_graph(2), p)
        assert members(got) == [(0,), (0, 1)]

    def test_requires_exact_distribution(self):
        with pytest.raises(NotRational):
            enumerate_maximum_weighted_independent_sets(
                complete_graph(2), Distribution([0.5, 0.5])
            )

    def test_set_cap(self):
        p = Distribution([Fraction(1)] + [Fraction(0)] * 9)
        with pytest.raises(CapExceeded):
            enumerate_maximum_weighted_independent_sets(
                empty_graph(10), p, set_cap=100
            )

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=6), st.data())
    def test_agrees_with_brute_force(self, g, data):
        counts = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(g.n)]
        if sum(counts) == 0:
            counts[0] = 1
        total = sum(counts)
        p = Distribution([Fraction(c, total) for c in counts])
        got = members(enumerate_maximum_weighted_independent_sets(g, p))
        best, attaining = brute_max_weight(g, p.weights)
        assert got == attaining


def test_sixteen_vertex_brute_force_equivalence():
    # all four operations against exhaustive subset enumeration at n = 16
    g = rand_graph(random.Random(16), 16, 0.35)
    sets = [s.sorted_members() for s in enumerate_maximal_independent_sets(g)]
    assert sets == brute_maximal_independent_sets(g)
    assert alpha(g).value == brute_alpha(g)

    w = [Fraction((7 * i) % 5 + 1, 96) for i in range(16)]
    total = sum(w)
    p = Distribution([x / total for x in w])
    best, attaining = brute_max_weight(g, p.weights)
    assert max_weighted_independent_set(g, p.weights).value == best
    got = [s.sorted_members() for s in enumerate_maximum_weighted_independent_sets(g, p)]
    assert got == attaining
