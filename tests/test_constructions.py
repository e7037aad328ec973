"""Constructions: union, substitution, blow-up, and the hardness gadget."""

import random
from fractions import Fraction

import pytest

from gelab.characterize import is_symmetric
from gelab.constructions import (
    BlowupSpec,
    GadgetSpec,
    blow_up,
    hardness_gadget,
    substitute,
    substitute_distribution,
    union,
)
from gelab.entropy import entropy
from gelab.errors import (
    InvalidK,
    NotRational,
    VertexNotFound,
    VertexSetMismatch,
    ZeroWeightVertex,
)
from gelab.exactlp import fractional_chromatic_number
from gelab.graphs import (
    Distribution,
    Graph,
    IndependentSet,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from gelab.oracle import brute_alpha

from helpers import rand_graph, rand_rational_distribution, uniform_cover_feasible


class TestUnion:
    def test_idempotent(self):
        g = rand_graph(random.Random(0), 6, 0.5)
        assert union(g, g) == g

    def test_p3_plus_chord_is_triangle(self):
        assert union(path_graph(3), Graph(3, [(0, 2)])) == complete_graph(3)

    def test_identity_with_empty(self):
        g = rand_graph(random.Random(1), 5, 0.5)
        assert union(empty_graph(5), g) == g

    def test_mismatched_vertex_sets(self):
        with pytest.raises(VertexSetMismatch):
            union(empty_graph(3), empty_graph(4))


class TestSubstitute:
    def test_k2_into_k2_gives_triangle(self):
        sub = substitute(complete_graph(2), 1, complete_graph(2))
        assert sub.graph == complete_graph(3)
        assert sub.outer_map == {0: 0}
        assert sub.inner_map == {0: 1, 1: 2}

    def test_independent_pair_gives_star(self):
        sub = substitute(complete_graph(2), 1, empty_graph(2))
        assert sub.graph == Graph(3, [(0, 1), (0, 2)])

    def test_single_vertex_is_identity(self):
        g = cycle_graph(5)
        for v in range(5):
            sub = substitute(g, v, Graph(1))
            chi_before = fractional_chromatic_number(g)[0]
            chi_after = fractional_chromatic_number(sub.graph)[0]
            assert sub.graph.n == 5 and chi_before == chi_after

    def test_unknown_vertex(self):
        with pytest.raises(VertexNotFound):
            substitute(complete_graph(2), 7, complete_graph(2))


class TestSubstituteDistribution:
    def test_half_split(self):
        p = Distribution([Fraction(1, 2), Fraction(1, 2)])
        q = Distribution([Fraction(1, 2), Fraction(1, 2)])
        out = substitute_distribution(p, 1, q)
        assert out.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_point_mass_inner_keeps_distribution(self):
        p = Distribution([Fraction(1, 3), Fraction(2, 3)])
        q = Distribution([Fraction(1)])
        out = substitute_distribution(p, 1, q)
        assert sorted(out.weights) == sorted(p.weights)

    def test_zero_mass_vertex_spreads_zero(self):
        p = Distribution([Fraction(1), Fraction(0)])
        q = Distribution.uniform(2)
        out = substitute_distribution(p, 1, q)
        assert out.weights == (Fraction(1), Fraction(0), Fraction(0))

    def test_additivity_of_entropy(self):
        rng = random.Random(2)
        for _ in range(10):
            g = rand_graph(rng, rng.randint(2, 6), 0.5)
            f = rand_graph(rng, rng.randint(1, 6), 0.5)
            v = rng.randrange(g.n)
            p = rand_rational_distribution(rng, g.n)
            q = rand_rational_distribution(rng, f.n)
            sub = substitute(g, v, f)
            pq = substitute_distribution(p, v, q)
            lhs = entropy(sub.graph, pq).value
            rhs = entropy(g, p).value + float(p[v]) * entropy(f, q).value
            assert lhs == pytest.approx(rhs, abs=3e-9)


class TestBlowUp:
    def test_k2_one_two(self):
        g, spec = blow_up(complete_graph(2), Distribution([Fraction(1, 3), Fraction(2, 3)]))
        assert g == Graph(3, [(0, 1), (0, 2)])
        assert spec.counts == (1, 2) and spec.m == 3
        assert list(spec.block(1)) == [1, 2]

    def test_mixed_denominators_share_their_lcm(self):
        p = Distribution([Fraction(1, 4), Fraction(1, 6), Fraction(7, 12)])
        g, spec = blow_up(path_graph(3), p)
        assert spec.m == 12 and spec.counts == (3, 2, 7)
        assert g.n == 12 and len(g.edges) == 3 * 2 + 2 * 7

    def test_uniform_is_identity(self):
        g = rand_graph(random.Random(3), 5, 0.5)
        blown, spec = blow_up(g, Distribution.uniform(5))
        assert blown == g and spec.counts == (1,) * 5

    def test_single_vertex(self):
        g, spec = blow_up(Graph(1), Distribution([Fraction(1)]))
        assert g.n == 1 and spec.m == 1

    def test_rejects_float_distribution(self):
        with pytest.raises(NotRational):
            blow_up(complete_graph(2), Distribution([0.5, 0.5]))

    def test_rejects_zero_weight(self):
        with pytest.raises(ZeroWeightVertex):
            blow_up(complete_graph(2), Distribution([Fraction(1), Fraction(0)]))

    def test_blocks_tile_the_copies_in_vertex_order(self):
        rng = random.Random(93)
        for _ in range(20):
            g = rand_graph(rng, rng.randint(1, 9), 0.5)
            p = rand_rational_distribution(rng, g.n)
            blown, spec = blow_up(g, p)
            blocks = [spec.block(v) for v in range(g.n)]
            assert [c for b in blocks for c in b] == list(range(spec.m))
            assert [len(b) for b in blocks] == list(spec.counts)
            copy_of = {c: v for v, b in enumerate(blocks) for c in b}
            assert set(blown.edges) == {
                (a, b) for a in range(spec.m) for b in range(a + 1, spec.m) if g.has_edge(copy_of[a], copy_of[b])
            }

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            BlowupSpec((0, 2), 2)
        with pytest.raises(ValueError):
            BlowupSpec((1, 2), 4)

    def test_entropy_identity_and_homomorphism_bound(self):
        rng = random.Random(4)
        for _ in range(8):
            g = rand_graph(rng, rng.randint(2, 5), 0.6)
            p = rand_rational_distribution(rng, g.n, m_max=10)
            blown, spec = blow_up(g, p)
            lhs = entropy(blown, Distribution.uniform(spec.m)).value
            rhs = entropy(g, p).value
            assert lhs == pytest.approx(rhs, abs=2e-9)
            assert (
                fractional_chromatic_number(g)[0]
                <= fractional_chromatic_number(blown)[0]
            )


class TestHardnessGadget:
    def test_single_vertex_k2(self):
        g = hardness_gadget(GadgetSpec(Graph(1), 2))
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_sizes(self):
        assert hardness_gadget(GadgetSpec(path_graph(3), 3)).n == 8
        assert hardness_gadget(GadgetSpec(Graph(1), 5)).n == 8

    def test_alpha_identity_p3_k3(self):
        g = hardness_gadget(GadgetSpec(path_graph(3), 3))
        assert brute_alpha(g) == 2 == max(brute_alpha(path_graph(3)), 2)

    def test_symmetry_iff_small(self):
        for f in (path_graph(3), complete_graph(3), cycle_graph(5), empty_graph(2)):
            af = brute_alpha(f)
            for k in range(2, f.n + 2):
                g = hardness_gadget(GadgetSpec(f, k))
                verdict = is_symmetric(g, cap=64).is_symmetric
                assert verdict == (af <= k - 1), (f.edges, k)

    def test_uniform_cover_by_size_k_minus_1_sets(self):
        # the gadget always has a uniform cover by independent sets of size k-1
        from itertools import combinations

        cases = [
            (path_graph(3), 3),
            (path_graph(3), 2),
            (complete_graph(4), 4),
            (cycle_graph(5), 3),
            (empty_graph(3), 5),
        ]
        for f, k in cases:
            g = hardness_gadget(GadgetSpec(f, k))
            fam = [
                IndependentSet(g, combo)
                for combo in combinations(range(g.n), k - 1)
                if g.is_independent(combo)
            ]
            assert uniform_cover_feasible(g, fam, range(g.n)) is not None, (f.edges, k)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            GadgetSpec(path_graph(3), 1)

    def test_roles(self):
        spec = GadgetSpec(path_graph(3), 3)
        assert spec.role(0) == "a0"
        assert spec.role(2) == "(f0,b0)"
        assert spec.role(spec.pair_vertex(2, 1)) == "(f2,b1)"
