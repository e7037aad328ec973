"""Graph core: enumeration, alpha, and weighted independent-set oracles."""

import concurrent.futures
import copy
import itertools
import math
import pickle
import random
import sys
import weakref
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelab import graphs as graphs_mod
from gelab.entropy import entropy
from gelab.errors import CapExceeded, InternalError, NotRational, VertexNotFound
from gelab.exactlp import fractional_chromatic_number
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

from helpers import (
    complete_bipartite,
    enumerate_maximum_weighted_independent_sets,
    rand_graph,
    reference_max_weighted_independent_set,
    triangle_union,
)


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
        sub = g.induced([1, 2, 4])
        assert sub.n == 3
        assert sub.edges == ((0, 1),)
        # vertex i of the subgraph is the i-th smallest kept vertex: the
        # edges among the kept vertices, relabelled in that order
        g = Graph(7, [(5, 1), (1, 3), (3, 6), (0, 2), (2, 5)])
        order = [1, 3, 5, 6]
        sub = g.induced([6, 3, 1, 5, 3])
        assert sub.n == 4
        assert sub.edges == ((0, 1), (0, 2), (1, 3))
        kept = [(u, v) for u, v in g.edges if u in order and v in order]
        assert sorted((order[u], order[v]) for u, v in sub.edges) == kept

    def test_induced_on_every_vertex_is_the_graph(self):
        g = cycle_graph(5)
        assert g.induced(range(g.n)) is g
        assert g.induced([4, 3, 2, 1, 0, 0]) is g

    def test_induced_rejects_a_vertex_out_of_range(self):
        g = cycle_graph(5)
        with pytest.raises(VertexNotFound):
            g.induced([-1, 0])
        with pytest.raises(VertexNotFound):
            g.induced([0, g.n])
        with pytest.raises(VertexNotFound):
            g.induced([3, g.n + 4, 1])

    def test_induced_on_no_vertex_is_the_empty_graph(self):
        sub = cycle_graph(5).induced([])
        assert sub.n == 0 and sub.edges == ()

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
        tiny = Fraction(1, 10**40)
        assert Distribution([tiny, Fraction(0), 1 - tiny]).support == (0, 2)

    def test_float_sum_tolerance(self):
        Distribution([0.25, 0.75])
        with pytest.raises(ValueError):
            Distribution([0.25, 0.74])

    def test_rational_sum_must_be_exact(self):
        with pytest.raises(ValueError):
            Distribution([Fraction(1, 3), Fraction(1, 3)])
        over = 1 + Fraction(1, 10**30)
        with pytest.raises(ValueError) as err:
            Distribution([Fraction(1, 2), over - Fraction(1, 2)])
        assert str(err.value) == f"rational weights sum to {over}, not 1"

    @pytest.mark.parametrize("n", [0, -1])
    def test_uniform_needs_a_vertex(self, n):
        with pytest.raises(ValueError, match="at least one vertex"):
            Distribution.uniform(n)

    def test_uniform_equals_the_validated_constructor(self):
        for n in range(1, 61):
            p = Distribution.uniform(n)
            assert p == Distribution([Fraction(1, n)] * n)
            assert all(type(w) is Fraction for w in p.weights)

    def test_fraction_weights_are_kept_as_they_are(self):
        half = Fraction(1, 2)
        p = Distribution([half, 0, Fraction(1, 2)])
        assert p.weights[0] is half
        assert p.weights == (half, 0, half) and all(type(w) is Fraction for w in p.weights)

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

    @pytest.mark.usefixtures("fresh_cache")
    def test_zero_vertex_graph_gives_the_empty_set(self):
        # one set with no bytes to sort on: the family is returned as it is
        g = Graph(0)
        assert enumerate_maximal_independent_sets(g) == [IndependentSet(g, ())]
        assert graphs_mod._maximal_sets_cached(g) == (0,)

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

    def test_pickles_copies_and_weakrefs(self):
        g = cycle_graph(7)
        for s in enumerate_maximal_independent_sets(g) + [IndependentSet._from_mask(g, 0)]:
            for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
                assert twin == s and hash(twin) == hash(s) and twin.mask == s.mask
                assert twin.members == s.members
            assert weakref.ref(s)() is s

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
        inc = _incidence([s.mask for s in sets], n)
        assert inc.shape == (len(sets), n)
        assert inc.tolist() == [list(s.characteristic_vector()) for s in sets]


def cocktail_party(n: int) -> Graph:
    """K_n minus the perfect matching {i, i + n/2}: its maximal sets are those pairs."""
    half = n // 2
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if j - i != half])


# bit 63 alone, bits on both sides of the 64-bit limb boundary, a full
# first limb, and masks reaching into the second and third limbs
LIMB_MASKS = [
    0,
    1 << 63,
    1 << 63 | 1 << 64,
    1 << 31 | 1 << 64,
    (1 << 64) - 1,
    1 << 64,
    ((1 << 80) - 1) ^ (1 << 63),
    1 << 127 | 1 << 128 | 1,
    (1 << 130) - 1,
]


class TestLimbBoundary:
    """Packing, sorting and incidence rows for n on both sides of 64 bits."""

    @pytest.mark.parametrize("n", [63, 64, 65, 70, 80])
    def test_cached_order_is_member_list_order(self, n):
        for g in (rand_graph(random.Random(n), n, 0.6), cocktail_party(2 * (n // 2))):
            masks = graphs_mod._maximal_sets_cached(g)
            lists = [tuple(v for v in range(g.n) if m >> v & 1) for m in masks]
            assert lists == sorted(lists)
            assert sorted(masks) == sorted(graphs_mod._maximal_independent_masks(g._adj, g.n))
            for m in masks:  # maximal: every vertex outside has a neighbour inside
                assert all(g._adj[v] & m for v in range(g.n) if not m >> v & 1)
            sets = enumerate_maximal_independent_sets(g, cap=g.n)
            inc = _incidence([s.mask for s in sets], g.n)
            assert inc.tolist() == [list(s.characteristic_vector()) for s in sets]

    def test_cocktail_party_straddles_the_boundary(self):
        g = cocktail_party(66)
        sets = enumerate_maximal_independent_sets(g, cap=66)
        assert [s.sorted_members() for s in sets] == [(i, i + 33) for i in range(33)]
        assert fractional_chromatic_number(g, cap=66)[0] == 33

    def test_corpus7_order_is_member_list_order(self, corpus7):
        for g in corpus7:
            lists = [s.sorted_members() for s in enumerate_maximal_independent_sets(g)]
            assert lists == sorted(lists)

    @pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 70, 80, 131])
    def test_packed_is_the_to_bytes_layout(self, n):
        masks = [m for m in LIMB_MASKS if m < 1 << n] + [(1 << n) - 1]
        width = (n + 7) // 8
        rows = graphs_mod._packed(masks, n)
        assert rows.dtype == np.uint8 and rows.shape == (len(masks), width)
        assert rows.tobytes() == b"".join(m.to_bytes(width, "little") for m in masks)

    @pytest.mark.parametrize("n", [0, 1, 8, 63, 64, 65, 70, 131])
    def test_row_masks_read_incidence_rows_back(self, n):
        masks = [m for m in LIMB_MASKS if m < 1 << n] + [(1 << n) - 1]
        assert graphs_mod._row_masks(_incidence(masks, n)) == masks

    @pytest.mark.parametrize("n", [64, 65, 70, 131])
    def test_incidence_rows_across_limbs(self, n):
        g = empty_graph(n)  # every mask is independent
        sets = [IndependentSet._from_mask(g, m) for m in LIMB_MASKS if m < 1 << n]
        inc = _incidence([s.mask for s in sets], n)
        assert inc.shape == (len(sets), n)
        assert inc.tolist() == [list(s.characteristic_vector()) for s in sets]

    @pytest.mark.usefixtures("fresh_cache")
    def test_check_finds_an_edge_across_limbs(self, monkeypatch):
        add_to_enumeration(monkeypatch, 1 << 31 | 1 << 65)  # 31 and 65 are adjacent
        with pytest.raises(InternalError, match=r"edge \(31, 65\)"):
            enumerate_maximal_independent_sets(cocktail_party(66), cap=66)


@pytest.fixture
def fresh_cache():
    graphs_mod._maximal_sets_cached.cache_clear()
    yield
    graphs_mod._maximal_sets_cached.cache_clear()


def count_calls(monkeypatch, name):
    """Count the calls of graphs_mod.<name> from here on."""
    real = getattr(graphs_mod, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs_mod, name, counted)
    return calls


def add_to_enumeration(monkeypatch, mask):
    """Make the enumerator return `mask` after the true maximal sets."""
    real = graphs_mod._maximal_independent_masks
    monkeypatch.setattr(
        graphs_mod, "_maximal_independent_masks", lambda adj, n: real(adj, n) + [mask]
    )


# on C10, whose packed rows are two bytes wide
BAD_MASKS = {
    "edge 0-1": 0b11,
    "edge 7-8 across bytes": 1 << 7 | 1 << 8,
    "edge 0-9": 1 | 1 << 9,
    "bit at n": 1 << 10,
    "bit past the packed width": 1 | 1 << 40,
    "negative": -1,
}

SOLVERS = {
    "enumerate": lambda g: enumerate_maximal_independent_sets(g),
    "max weighted": lambda g: max_weighted_independent_set(g, [1] * g.n),
    "chi_f": lambda g: fractional_chromatic_number(g),
    "entropy": lambda g: entropy(g, Distribution.uniform(g.n)),
}


@pytest.mark.usefixtures("fresh_cache")
class TestFamilyCheck:
    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
    @pytest.mark.parametrize("mask", BAD_MASKS.values(), ids=BAD_MASKS.keys())
    def test_corrupt_family_raises_internal_error(self, monkeypatch, solver, mask):
        add_to_enumeration(monkeypatch, mask)
        with pytest.raises(InternalError):
            solver(cycle_graph(10))
        assert graphs_mod._maximal_sets_cached.cache_info().currsize == 0
        monkeypatch.undo()
        solver(cycle_graph(10))  # nothing corrupt was cached

    def test_family_is_checked_once_per_graph(self, monkeypatch):
        checks = count_calls(monkeypatch, "_check_family")
        g = rand_graph(random.Random(3), 12, 0.3)
        for _ in range(3):
            entropy(g, Distribution.uniform(g.n))
        assert len(checks) == 1

    def test_enumeration_runs_no_per_set_check(self, monkeypatch):
        per_set = count_calls(monkeypatch, "_check_independent")
        g = rand_graph(random.Random(5), 14, 0.3)
        sets = enumerate_maximal_independent_sets(g)
        enumerate_maximal_independent_sets(g)
        assert sets and per_set == []
        IndependentSet._from_mask(g, sets[0].mask)
        assert len(per_set) == 1


@pytest.mark.usefixtures("fresh_cache")
class TestFamilyCacheBudget:
    """The family cache evicts least recently used families past SET_COUNT_CAP sets."""

    def test_evicts_oldest_past_the_budget_and_a_hit_reorders(self, monkeypatch):
        monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 10)
        searches = count_calls(monkeypatch, "_maximal_independent_masks")
        k2, k3, k4, k5 = (complete_graph(k) for k in (2, 3, 4, 5))  # k maximal sets each
        cache = graphs_mod._maximal_sets_cached
        for g in (k4, k3, k2):
            cache(g)
        assert cache.cache_info() == (3, 9) and len(searches) == 3
        cache(k4)  # a hit: no search, and k4 becomes the most recent
        assert len(searches) == 3
        cache(k5)  # 14 sets: k3, then k2 go, oldest first
        assert cache.cache_info() == (2, 9) and len(searches) == 4
        cache(k4)  # a hit: k4 is now more recent than k5
        assert len(searches) == 4
        cache(k3)  # evicted before: searched again, and k5 goes
        assert cache.cache_info() == (2, 7) and len(searches) == 5
        cache(k4)
        assert len(searches) == 5
        cache(k5)
        assert len(searches) == 6

    def test_evicts_the_least_recent_past_the_family_bound_and_a_hit_reorders(self, monkeypatch):
        searches = count_calls(monkeypatch, "_maximal_independent_masks")
        bound = graphs_mod._MAX_FAMILIES
        graphs = [empty_graph(k) for k in range(1, bound + 3)]  # one set each
        cache = graphs_mod._maximal_sets_cached
        for i, g in enumerate(graphs[:bound]):
            cache(g)
            assert cache.cache_info() == (i + 1, i + 1)
        cache(graphs[0])  # a hit: graphs[0] becomes the most recent, graphs[1] the least
        assert cache.cache_info() == (bound, bound) and len(searches) == bound
        cache(graphs[bound])  # one family past the bound: graphs[1] goes
        assert cache.cache_info() == (bound, bound) and len(searches) == bound + 1
        cache(graphs[0])
        assert cache.cache_info() == (bound, bound) and len(searches) == bound + 1
        cache(graphs[1])  # evicted: searched again, and graphs[2] goes
        assert cache.cache_info() == (bound, bound) and len(searches) == bound + 2
        cache(graphs[bound + 1])  # graphs[3] goes, the oldest left
        cache(graphs[0])
        cache(graphs[1])
        assert cache.cache_info() == (bound, bound) and len(searches) == bound + 3
        cache(graphs[2])
        cache(graphs[3])
        assert cache.cache_info() == (bound, bound) and len(searches) == bound + 5

    def test_budget_is_read_at_each_insertion(self, monkeypatch):
        cache = graphs_mod._maximal_sets_cached
        for k in (3, 4, 5):
            cache(complete_graph(k))
        assert cache.cache_info() == (3, 12)
        monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 10)
        cache(complete_graph(2))
        assert cache.cache_info() == (2, 7)

    def test_concurrent_callers_agree_and_the_count_stays_exact(self):
        # more threads than cores, switching often: a lost update of the
        # held-set count or a torn reorder would show in cache_info
        graphs = [rand_graph(random.Random(seed), 10, 0.3) for seed in range(12)]
        expected = [brute_maximal_independent_sets(g) for g in graphs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(graphs_mod._maximal_sets_cached, graphs * 20, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for i, masks in enumerate(got):
            assert [tuple(graphs_mod._bits(m)) for m in masks] == expected[i % 12]
        info = graphs_mod._maximal_sets_cached.cache_info()
        assert info == (12, sum(len(e) for e in expected))


class TestAlpha:
    def test_examples(self):
        assert alpha(cycle_graph(5)).value == 2
        assert alpha(complete_graph(7)).value == 1
        assert alpha(empty_graph(5)).value == 5
        assert type(alpha(cycle_graph(5)).value) is int

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

    @pytest.mark.parametrize(
        "zero, kind",
        [(0, int), (0.0, float), (Fraction(0), Fraction), ("mixed", Fraction)],
    )
    @pytest.mark.parametrize("g", [Graph(0), cycle_graph(5), empty_graph(4)], ids=["n0", "c5", "edgeless4"])
    def test_all_zero_weights_of_every_kind(self, g, zero, kind):
        # G[()] has one maximal set, the empty one: value 0 of the weights' kind
        weights = ([0, Fraction(0)] * g.n)[: g.n] if zero == "mixed" else [zero] * g.n
        res = max_weighted_independent_set(g, weights)
        assert res.value == 0 and res.witness.sorted_members() == ()
        assert res.witness.graph is g
        assert type(res.value) is (int if g.n == 0 else kind)

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

    def test_infinite_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            max_weighted_independent_set(path_graph(3), [Fraction(1, 2), math.inf, 0.4])

    def test_float_ties_keep_the_first_maximum(self):
        # sides {0, 1, 2} and {3, 4}: both weigh exactly 1 + 2**-52, but the
        # float sum of the first side rounds down to 1.0
        g = complete_bipartite(3, 2)
        w = [1.0, 2.0**-53, 2.0**-53, 1.0, 2.0**-52]
        res = max_weighted_independent_set(g, w)
        assert res.witness.sorted_members() == (0, 1, 2)
        assert res.value == 1.0 + 2.0**-52
        ref = max_weighted_independent_set(g, [Fraction(x) for x in w])
        assert ref.witness == res.witness and ref.value == Fraction(1) + Fraction(1, 2**52)

    def test_float_value_is_the_exact_maximum_rounded_once(self):
        res = max_weighted_independent_set(empty_graph(3), [1.0, 2.0**-53, 2.0**-53])
        assert isinstance(res.value, float) and res.value == 1.0 + 2.0**-52
        assert max_weighted_independent_set(empty_graph(2), [1, Fraction(1, 3)]).value == Fraction(4, 3)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7), st.data())
    def test_value_agrees_with_brute_force(self, g, data):
        w = [
            Fraction(data.draw(st.integers(min_value=0, max_value=6)), 6)
            for _ in range(g.n)
        ]
        best, _ = brute_max_weight(g, w)
        assert max_weighted_independent_set(g, w).value == best


def triangle_chain(k: int) -> Graph:
    """k triangles, each joined to the next by one edge: one part, Fibonacci(2k + 2) maximal sets."""
    g = triangle_union(k)
    return Graph(3 * k, list(g.edges) + [(3 * i + 2, 3 * i + 3) for i in range(k - 1)])


def weight_vectors(rng: random.Random, n: int) -> dict:
    """Int, rational and float weights on n vertices, with zeros (a partial support) and ties."""
    return {
        "int": [rng.choice([0, 1, 1, 2, 3, 7]) for _ in range(n)],
        "rational": [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(n)],
        "float": [rng.choice([0.0, 0.1, 0.25, 1 / 3, 1.0, rng.random()]) for _ in range(n)],
    }


def assert_same_answer(g, weights):
    res = max_weighted_independent_set(g, weights)
    ref = reference_max_weighted_independent_set(g, weights)
    assert type(res.value) is type(ref.value) and res.value == ref.value
    assert res.witness == ref.witness


class TestBlockedScan:
    """The blocked scan gives the per-set loop's value, value type and witness."""

    def test_corpus7(self, corpus7):
        rng = random.Random(32)
        for g in corpus7:
            for weights in [[1] * g.n, *weight_vectors(rng, g.n).values()]:
                assert_same_answer(g, weights)

    def test_random_graphs(self):
        for seed in range(300):
            rng = random.Random(seed)
            g = rand_graph(rng, rng.randint(1, 30), rng.random())
            for weights in weight_vectors(rng, g.n).values():
                assert_same_answer(g, weights)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_tiny_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(graphs_mod, "_SCAN_ROWS", rows)
        for seed in range(40):
            rng = random.Random(seed)
            g = rand_graph(rng, rng.randint(1, 12), rng.random())
            for weights in weight_vectors(rng, g.n).values():
                assert_same_answer(g, weights)

    def test_first_maximum_past_the_first_block(self):
        # every maximal set of the chain holds one vertex per triangle; the
        # sets holding vertex 2 come after all that hold 0 or 1, blocks later
        g = triangle_chain(10)
        family = graphs_mod._maximal_sets_cached(g)
        assert len(family) == 17711 > 4 * graphs_mod._SCAN_ROWS
        weights = [1, 1, 2] + [1] * (g.n - 3)
        first = next(i for i, mask in enumerate(family) if mask & 0b100)
        assert first >= graphs_mod._SCAN_ROWS
        res = max_weighted_independent_set(g, weights)
        assert res.value == g.n // 3 + 1 and res.witness.mask == family[first]
        assert_same_answer(g, weights)
        # unit weights: every set ties, in every block, and the first one wins
        assert alpha(g).witness.mask == family[0]
        for weights in weight_vectors(random.Random(17711), g.n).values():
            assert_same_answer(g, weights)

    def test_rational_weights_past_the_float64_tier(self, monkeypatch):
        real = graphs_mod._exact_matvec
        tiers = []

        def spy(M, v):
            out = real(M, v)
            tiers.append(out.dtype)
            return out

        monkeypatch.setattr(graphs_mod, "_exact_matvec", spy)
        g = triangle_chain(10)
        rng = random.Random(53)
        weights = [Fraction(rng.randint(1, 9), rng.choice([3**40, 5**30, 7])) for _ in range(g.n)]
        assert max(graphs_mod._common_denominator(weights)[1]) * g.n >= 2**53
        assert_same_answer(g, weights)
        assert tiers and all(t == object for t in tiers)
        # scaled to [2**63, 1]: ints numpy would read as float64
        tiers.clear()
        res = max_weighted_independent_set(empty_graph(2), [1, Fraction(1, 2**63)])
        assert res.value == 1 + Fraction(1, 2**63) and tiers == [object]
        assert_same_answer(empty_graph(2), [1, Fraction(1, 2**63)])


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


class TestGreedyCover:
    def test_covers_with_first_maxima(self):
        # C5's maximal sets 02 03 13 14 24: 02, then 13 (first to add two), then 14
        M = _incidence([s.mask for s in enumerate_maximal_independent_sets(cycle_graph(5))], 5)
        assert graphs_mod._greedy_cover_indices(M.astype(np.int64)) == [0, 2, 3]
        assert graphs_mod._greedy_cover_indices(M.astype(np.float64)) == [0, 2, 3]

    def test_vertex_in_no_set_raises(self):
        M = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.int64)
        with pytest.raises(InternalError, match="lies in no set"):
            graphs_mod._greedy_cover_indices(M)

    @staticmethod
    def argmax_rule(M):
        """Reference rule: np.argmax on every pick, stopping once no vertex is exposed."""
        remaining = np.ones(M.shape[1], dtype=M.dtype)
        chosen = []
        while remaining.any():
            scores = M @ remaining
            best = int(np.argmax(scores))
            chosen.append(best)
            remaining[M[best] > 0] = 0
        return chosen

    def test_picks_match_the_argmax_rule(self, corpus7):
        rng = random.Random(73)
        graphs = list(corpus7) + [
            rand_graph(rng, rng.randint(1, 36), rng.choice((0.25, 0.4, 0.5, 0.7))) for _ in range(60)
        ]
        for g in graphs:
            M = _incidence([s.mask for s in enumerate_maximal_independent_sets(g, cap=36)], g.n)
            for dtype in (np.float64, np.int64):
                assert graphs_mod._greedy_cover_indices(M.astype(dtype)) == self.argmax_rule(M.astype(dtype))


class TestResolveCap:
    def test_negative_argument_is_rejected(self):
        with pytest.raises(ValueError, match="enumeration cap must be nonnegative, got -1"):
            graphs_mod.resolve_cap(-1)

    @pytest.mark.parametrize("env", ["-1", "abc", "4.5"])
    def test_bad_env_is_rejected(self, monkeypatch, env):
        monkeypatch.setenv("GELAB_CAP", env)
        with pytest.raises(ValueError, match="GELAB_CAP must be a nonnegative integer"):
            graphs_mod.resolve_cap(None)
        with pytest.raises(ValueError, match="GELAB_CAP"):
            alpha(cycle_graph(5))
