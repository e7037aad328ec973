"""Exact LP layer: chi_f, uniform covers, and integer cover extraction."""

import random
from fractions import Fraction

import pytest

from gelab import exactlp
from gelab.errors import NotUniform
from gelab.exactlp import (
    FractionalColoring,
    b_fold_realization,
    fractional_chromatic_dual,
    fractional_chromatic_number,
    integralize_cover,
    uniform_cover_feasible,
)
from gelab.graphs import (
    Graph,
    IndependentSet,
    alpha,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_maximal_independent_sets,
    path_graph,
)

from helpers import petersen, rand_graph


def greedy_chromatic_number(g: Graph) -> int:
    color: dict[int, int] = {}
    for v in range(g.n):
        taken = {color[u] for u in g.neighbors(v) if u in color}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    return max(color.values()) + 1 if color else 0


class TestFractionalChromatic:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_complete(self, n):
        assert fractional_chromatic_number(complete_graph(n))[0] == n

    def test_c5(self):
        chi, coloring = fractional_chromatic_number(cycle_graph(5))
        assert chi == Fraction(5, 2)
        assert {s.sorted_members(): w for s, w in coloring.weights.items()} == {
            (0, 2): Fraction(1, 2),
            (0, 3): Fraction(1, 2),
            (1, 3): Fraction(1, 2),
            (1, 4): Fraction(1, 2),
            (2, 4): Fraction(1, 2),
        }

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_empty(self, n):
        assert fractional_chromatic_number(empty_graph(n))[0] == 1

    def test_zero_vertices(self):
        chi, coloring = fractional_chromatic_number(Graph(0))
        assert chi == 0 and not coloring.weights

    def test_petersen(self):
        assert fractional_chromatic_number(petersen())[0] == Fraction(5, 2)

    def test_coverage_is_verified(self):
        _, coloring = fractional_chromatic_number(rand_graph(random.Random(0), 9, 0.4))
        for v in range(9):
            assert coloring.coverage(v) >= 1

    def test_sandwich_bounds(self):
        rng = random.Random(5)
        for _ in range(25):
            g = rand_graph(rng, rng.randint(2, 9), rng.random())
            chi, _ = fractional_chromatic_number(g)
            assert Fraction(g.n, alpha(g).value) <= chi <= greedy_chromatic_number(g)

    def test_dual_objective_matches_exactly(self):
        rng = random.Random(6)
        graphs = [rand_graph(rng, rng.randint(1, 8), rng.random()) for _ in range(15)]
        graphs.append(rand_graph(random.Random(26), 26, 0.5))
        for g in graphs:
            chi, _ = fractional_chromatic_number(g)
            dual_value, x = fractional_chromatic_dual(g)
            assert dual_value == chi
            # dual witness is packing-feasible
            for s in enumerate_maximal_independent_sets(g):
                assert sum((x.get(v, Fraction(0)) for v in s.members), Fraction(0)) <= 1


class TestColdExactFallback:
    """The exact tableau answers whenever the float basis fails certification."""

    @staticmethod
    def force_fallback(monkeypatch, mode):
        real = exactlp._tableau_simplex
        exact_calls = []

        def simplex(cols, b, c, *, exact, **kwargs):
            res = real(cols, b, c, exact=exact, **kwargs)
            if exact:
                exact_calls.append(len(b))
            elif mode == "wrong-basis":
                # the surplus columns: their basic solution x = -b is infeasible
                res.basis = list(range(len(cols) - len(b), len(cols)))
                res.kept_rows = list(range(len(b)))
            return res

        def certify_fails(*args):
            raise exactlp._WarmStartFailed

        monkeypatch.setattr(exactlp, "_tableau_simplex", simplex)
        if mode == "certify-fails":
            monkeypatch.setattr(exactlp, "_certify_basis", certify_fails)
        return exact_calls

    @pytest.mark.parametrize("mode", ["wrong-basis", "certify-fails"])
    def test_exact_chi_f_and_covering_coloring(self, monkeypatch, mode):
        rng = random.Random(14)
        graphs = [cycle_graph(5), petersen()]
        graphs += [rand_graph(rng, rng.randint(2, 9), rng.random()) for _ in range(10)]
        expected = [fractional_chromatic_number(g)[0] for g in graphs]
        assert expected[:2] == [Fraction(5, 2), Fraction(5, 2)]
        exact_calls = self.force_fallback(monkeypatch, mode)
        for g, chi_expected in zip(graphs, expected):
            chi, coloring = fractional_chromatic_number(g)
            assert chi == chi_expected and coloring.total == chi
            assert all(coloring.coverage(v) >= 1 for v in range(g.n))
        assert len(exact_calls) == len(graphs)


class TestUniformCoverFeasible:
    def test_c5_halves(self):
        g = cycle_graph(5)
        fam = enumerate_maximal_independent_sets(g)
        fc = uniform_cover_feasible(g, fam, range(5))
        assert fc is not None
        assert all(fc.coverage(v) == 1 for v in range(5))

    def test_uncovered_vertex_infeasible(self):
        g = complete_graph(2)
        assert uniform_cover_feasible(g, [IndependentSet(g, [0])], [0, 1]) is None

    def test_whole_set_trivially_feasible(self):
        g = empty_graph(3)
        fc = uniform_cover_feasible(g, [IndependentSet(g, [0, 1, 2])], [0, 1, 2])
        assert fc is not None and fc.total == 1

    def test_family_must_be_nonempty(self):
        with pytest.raises(ValueError):
            uniform_cover_feasible(complete_graph(2), [], [0])

    def test_target_subset_only_constrains_target(self):
        g = path_graph(3)
        fam = [IndependentSet(g, [0, 2])]
        fc = uniform_cover_feasible(g, fam, [0])
        assert fc is not None and fc.coverage(0) == 1


class TestIntegralize:
    def test_c5_cover(self):
        g = cycle_graph(5)
        fam = enumerate_maximal_independent_sets(g)
        cm = integralize_cover(uniform_cover_feasible(g, fam, range(5)))
        assert cm.fold == 2
        assert all(m == 1 for m in cm.multiplicities.values())
        assert cm.size == 5

    def test_single_set(self):
        g = empty_graph(3)
        fc = FractionalColoring({IndependentSet(g, [0, 1, 2]): Fraction(1)})
        cm = integralize_cover(fc)
        assert cm.fold == 1 and cm.size == 1

    def test_not_uniform_raises(self):
        g = empty_graph(2)
        fc = FractionalColoring(
            {
                IndependentSet(g, [0]): Fraction(1, 3),
                IndependentSet(g, [0, 1]): Fraction(2, 3),
            }
        )
        with pytest.raises(NotUniform):
            integralize_cover(fc)

    def test_counts_reverify(self):
        rng = random.Random(9)
        for _ in range(10):
            g = rand_graph(rng, rng.randint(2, 8), 0.4)
            fam = enumerate_maximal_independent_sets(g)
            fc = uniform_cover_feasible(g, fam, range(g.n))
            if fc is None:
                continue
            cm = integralize_cover(fc)
            for v in range(g.n):
                count = sum(m for s, m in cm.multiplicities.items() if v in s)
                assert count == cm.fold


class TestBFoldRealization:
    def test_c5(self):
        cm = b_fold_realization(cycle_graph(5))
        assert cm.size == 5 and cm.fold == 2

    def test_k3_singletons(self):
        cm = b_fold_realization(complete_graph(3))
        assert cm.fold == 1
        assert sorted(s.sorted_members() for s in cm.multiplicities) == [(0,), (1,), (2,)]

    def test_petersen(self):
        cm = b_fold_realization(petersen())
        assert Fraction(cm.size, cm.fold) == Fraction(5, 2)

    def test_realizes_chi_f_with_disjoint_classes(self):
        rng = random.Random(10)
        for _ in range(20):
            g = rand_graph(rng, rng.randint(1, 9), rng.random())
            chi, _ = fractional_chromatic_number(g)
            cm = b_fold_realization(g)
            assert Fraction(cm.size, cm.fold) == chi
            # a b-fold coloring: every vertex in exactly fold classes, all
            # classes independent (so adjacent vertices share no class)
            for v in range(g.n):
                assert sum(m for s, m in cm.multiplicities.items() if v in s) == cm.fold


class TestUniformCoverEquivalence:
    def test_iff_on_small_corpus(self, corpus7):
        for g in corpus7:
            chi, _ = fractional_chromatic_number(g)
            a = alpha(g).value
            maximum_sets = [
                s for s in enumerate_maximal_independent_sets(g) if len(s) == a
            ]
            feasible = uniform_cover_feasible(g, maximum_sets, range(g.n)) is not None
            assert feasible == (chi == Fraction(g.n, a))

    def test_iff_on_random_larger_graphs(self):
        rng = random.Random(12)
        for _ in range(12):
            g = rand_graph(rng, rng.randint(10, 14), rng.choice([0.3, 0.5, 0.7]))
            chi, _ = fractional_chromatic_number(g)
            a = alpha(g).value
            maximum_sets = [
                s for s in enumerate_maximal_independent_sets(g) if len(s) == a
            ]
            feasible = uniform_cover_feasible(g, maximum_sets, range(g.n)) is not None
            assert feasible == (chi == Fraction(g.n, a))
