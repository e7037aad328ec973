"""Exact LP layer: chi_f, uniform covers, and integer cover extraction."""

import random
from fractions import Fraction

import numpy as np
import pytest

from gelab import exactlp
from gelab.errors import InternalError, NotUniform
from gelab.exactlp import (
    FractionalColoring,
    b_fold_realization,
    fractional_chromatic_dual,
    fractional_chromatic_number,
    integralize_cover,
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

from helpers import kneser, petersen, rand_graph, triangle_union, uniform_cover_feasible

# a division by zero or a NaN in the float lane fails here instead of
# passing silently as a cold exact fallback
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        real = exactlp._simplex
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

        monkeypatch.setattr(exactlp, "_simplex", simplex)
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


class TestCoveringProof:
    """Every LP answer is proved whichever lane produced it: a wrong one raises."""

    @staticmethod
    def answer(monkeypatch, x, y, obj):
        def solve(cols, b, c):
            assert len(x) == len(cols) and len(y) == len(b)
            return exactlp._LPResult(status="optimal", x=x, y=y, obj=obj)

        monkeypatch.setattr(exactlp, "_solve_exact", solve)

    @pytest.mark.parametrize("solver", [fractional_chromatic_number, fractional_chromatic_dual])
    def test_zero_answer_for_k1(self, monkeypatch, solver):
        self.answer(monkeypatch, [Fraction(0)] * 2, [Fraction(0)], Fraction(0))
        with pytest.raises(InternalError, match="not covering"):
            solver(Graph(1))

    def test_negative_covering_weight(self, monkeypatch):
        # P4: maximal sets {0,2}, {0,3}, {1,3}; x covers every vertex but is negative
        half = Fraction(1, 2)
        self.answer(monkeypatch, [2, -1, 2, 0, 0, 0, 0], [half] * 4, Fraction(3))
        with pytest.raises(InternalError, match="coloring negative"):
            fractional_chromatic_number(path_graph(4))

    def test_dual_not_packing(self, monkeypatch):
        # the one maximal set {0, 1} of the empty graph on 2 vertices packs y = 2
        self.answer(monkeypatch, [1, 0, 0], [1, 1], Fraction(1))
        with pytest.raises(InternalError, match="not packing"):
            fractional_chromatic_dual(empty_graph(2))

    def test_negative_dual(self, monkeypatch):
        self.answer(monkeypatch, [1, 1, 0, 0], [Fraction(1), Fraction(-1, 2)], Fraction(1, 2))
        with pytest.raises(InternalError, match="dual negative"):
            fractional_chromatic_dual(complete_graph(2))

    @pytest.mark.parametrize(
        "y, obj",
        [([1, 1], Fraction(1)), ([Fraction(1, 2)] * 2, Fraction(1)), ([0, 1], Fraction(2))],
    )
    def test_duality_gap(self, monkeypatch, y, obj):
        # K2: x = (1, 1) covers with value 2 and y packs; x, y or both miss obj
        self.answer(monkeypatch, [1, 1, 0, 0], y, obj)
        with pytest.raises(InternalError, match="duality gap"):
            fractional_chromatic_number(complete_graph(2))


class TestFractionAtBoundary:
    """chi_f, coloring weights and dual values are Fractions on both lanes."""

    @pytest.mark.parametrize("mode", ["certified", "wrong-basis", "certify-fails"])
    def test_types(self, monkeypatch, mode):
        exact_calls = []
        if mode != "certified":
            exact_calls = TestColdExactFallback.force_fallback(monkeypatch, mode)
        graphs = [cycle_graph(5), petersen(), rand_graph(random.Random(3), 8, 0.4)]
        for g in graphs:
            chi, coloring = fractional_chromatic_number(g)
            assert type(chi) is Fraction
            assert all(type(w) is Fraction for w in coloring.weights.values())
            dual_value, y = fractional_chromatic_dual(g)
            assert type(dual_value) is Fraction and dual_value == chi
            assert y and all(type(v) is Fraction for v in y.values())
        assert len(exact_calls) == (0 if mode == "certified" else 2 * len(graphs))


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

    def test_set_of_larger_graph_rejected(self):
        g = empty_graph(5)
        with pytest.raises(ValueError, match="another graph"):
            uniform_cover_feasible(g, [IndependentSet(empty_graph(10), [0, 9])], [0])

    def test_set_of_other_graph_on_same_range_rejected(self):
        with pytest.raises(ValueError, match="another graph"):
            uniform_cover_feasible(
                empty_graph(5), [IndependentSet(empty_graph(10), [0, 4])], [0, 4]
            )
        # {0, 1} is independent in the empty graph but an edge of the path
        with pytest.raises(ValueError, match="another graph"):
            uniform_cover_feasible(
                path_graph(5), [IndependentSet(empty_graph(5), [0, 1])], [0, 1]
            )


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

    def test_not_uniform_raises_when_lowest_vertex_is_covered_less(self):
        g = empty_graph(2)
        fc = FractionalColoring(
            {
                IndependentSet(g, [1]): Fraction(1, 3),
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


def fraction_lu_solve(B, rhs, rhs_t):
    """Reference solve in Fractions: x with B x = rhs and y with B^T y = rhs_t.

    LU with first-nonzero pivoting, the rational solve that basis
    certification used before it moved to integers. Returns (x, y, det,
    swapped), or None when B is singular.
    """
    m = len(B)
    perm = list(range(m))
    lu = [[Fraction(v) for v in row] for row in B]
    swapped = False
    for k in range(m):
        p = next((r for r in range(k, m) if lu[r][k] != 0), -1)
        if p < 0:
            return None
        if p != k:
            lu[p], lu[k] = lu[k], lu[p]
            perm[p], perm[k] = perm[k], perm[p]
            swapped = True
        for r in range(k + 1, m):
            if lu[r][k] != 0:
                f = lu[r][k] / lu[k][k]
                lu[r][k] = f
                for t in range(k + 1, m):
                    lu[r][t] -= f * lu[k][t]

    z = [Fraction(rhs[perm[r]]) for r in range(m)]
    for k in range(m):
        for r in range(k + 1, m):
            z[r] -= lu[r][k] * z[k]
    for k in range(m - 1, -1, -1):
        z[k] -= sum((lu[k][t] * z[t] for t in range(k + 1, m)), Fraction(0))
        z[k] /= lu[k][k]
    x = z

    # B = P^-1 L U gives B^T = U^T L^T P: forward-solve U^T, back-solve L^T, unpermute
    z = [Fraction(v) for v in rhs_t]
    for k in range(m):
        z[k] /= lu[k][k]
        for r in range(k + 1, m):
            z[r] -= lu[k][r] * z[k]
    for k in range(m - 1, -1, -1):
        z[k] -= sum((lu[r][k] * z[r] for r in range(k + 1, m)), Fraction(0))
    y = [None] * m
    for r in range(m):
        y[perm[r]] = z[r]

    det = Fraction(1)
    for k in range(m):
        det *= lu[k][k]
    sign = 1
    seen = [False] * m
    for i in range(m):  # parity of the row permutation, cycle by cycle
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return x, y, sign * det, swapped


class TestBareissSolve:
    """The integer solve behind certification agrees with a Fraction LU."""

    @staticmethod
    def random_matrix(rng, m):
        density = rng.choice([0.2, 0.4, 0.7])
        return [
            [rng.choice([-1, 1]) if rng.random() < density else 0 for _ in range(m)]
            for _ in range(m)
        ]

    def test_matches_fraction_lu_on_random_signed_matrices(self):
        rng = random.Random(31)
        seen = {"negative det": 0, "row swaps": 0, "singular": 0, "solved": 0}
        for _ in range(600):
            m = rng.randint(1, 12)
            B = self.random_matrix(rng, m)
            b = [rng.randint(-3, 3) for _ in range(m)]
            c = [rng.randint(-3, 3) for _ in range(m)]
            ref = fraction_lu_solve(B, b, c)
            M = np.array(B, dtype=np.int64)
            if ref is None:
                seen["singular"] += 1
                with pytest.raises(exactlp._WarmStartFailed):
                    exactlp._bareiss_solve(M, b)
                with pytest.raises(exactlp._WarmStartFailed):
                    exactlp._bareiss_solve(M.T, c)
                continue
            x, y, det, swapped = ref
            seen["solved"] += 1
            seen["negative det"] += det < 0
            seen["row swaps"] += swapped
            d, x_num = exactlp._bareiss_solve(M, b)
            d_t, y_num = exactlp._bareiss_solve(M.T, c)
            assert d == d_t == abs(det)
            assert all(type(v) is int for v in x_num + y_num)
            assert [Fraction(v, d) for v in x_num] == x
            assert [Fraction(v, d) for v in y_num] == y
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize(
        "B, b, x",
        [
            ([[0, 1], [1, 0]], [2, 3], [3, 2]),  # a row swap, det -1
            ([[0, 0, 1], [0, 1, 1], [1, 1, 1]], [1, 2, 4], [2, 1, 1]),
            ([[2, 1], [1, -1]], [3, 0], [1, 1]),  # det -3, exact division
        ],
    )
    def test_small_systems(self, B, b, x):
        d, num = exactlp._bareiss_solve(np.array(B, dtype=np.int64), b)
        assert d > 0 and [Fraction(v, d) for v in num] == x

    @pytest.mark.parametrize("B", [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]])
    def test_singular_raises(self, B):
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._bareiss_solve(np.array(B, dtype=np.int64), [1, 1])


@pytest.mark.parametrize(
    "v", [[5, 7, 11], [2**59, 2**59, 2**59], [2**62, 2**62, -1], [-(2**70), 3, 2**61]]
)
def test_exact_matvec_is_exact_past_int64(v):
    M = np.array([[1, -1, 0], [2, 3, -1]], dtype=np.int64)
    expected = [sum(int(a) * b for a, b in zip(row, v)) for row in M]
    assert exactlp._exact_matvec(M, v).tolist() == expected


class TestCertifyBasis:
    """`_certify_basis` on the covering LP of C5: sets 02 03 13 14 24, surplus."""

    SETS = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]

    @classmethod
    def lp(cls):
        g = cycle_graph(5)
        sets = enumerate_maximal_independent_sets(g)
        assert [s.sorted_members() for s in sets] == cls.SETS
        return exactlp._covering_lp(g.n, sets)

    @classmethod
    def column(cls, name):
        """A column index: a set such as (0, 2), or ("s", v) for v's surplus."""
        if name[0] == "s":
            return len(cls.SETS) + name[1]
        return cls.SETS.index(name)

    @classmethod
    def reference(cls, basis, kept_rows):
        """The basic solution in Fractions, over every row of the LP."""
        cols, b, c = cls.lp()
        B = [[int(cols[j][r]) for j in basis] for r in kept_rows]
        ref = fraction_lu_solve(B, [b[r] for r in kept_rows], [c[j] for j in basis])
        if ref is None:
            return None
        x = [Fraction(0)] * len(cols)
        for j, v in zip(basis, ref[0]):
            x[j] = v
        rows = [sum(int(a) * xj for a, xj in zip(cols[:, r], x)) for r in range(len(b))]
        return x, rows, sum(cj * xj for cj, xj in zip(c, x))

    def test_optimal_basis_certifies(self):
        cols, b, c = self.lp()
        guess = exactlp._simplex(cols, b, c, exact=False)
        res = exactlp._certify_basis(cols, b, c, guess.basis, guess.kept_rows)
        cold = exactlp._simplex(cols, b, c, exact=True)
        half = Fraction(1, 2)
        assert res.x == [half] * 5 + [0] * 5 == cold.x
        assert res.y == [half] * 5 == cold.y
        assert res.obj == Fraction(5, 2) == cold.obj

    def test_feasible_but_not_optimal_basis_is_rejected(self):
        basis = [self.column(s) for s in [(0, 2), (0, 3), (1, 3), (2, 4), ("s", 2)]]
        x, rows, obj = self.reference(basis, range(5))
        assert min(x) >= 0 and rows == [1] * 5 and obj == 3 > Fraction(5, 2)
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis, list(range(5)))

    def test_singular_basis_is_rejected(self):
        basis = [self.column(s) for s in [(0, 2), (1, 3), (2, 4), ("s", 0), ("s", 2)]]
        assert self.reference(basis, range(5)) is None
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis, list(range(5)))

    def test_basis_violating_a_dropped_row_is_rejected(self):
        basis = [self.column(s) for s in [(0, 2), (0, 3), (1, 3), (1, 4)]]
        x, rows, _ = self.reference(basis, range(4))
        assert min(x) >= 0 and rows[:4] == [1] * 4 and rows[4] == 0
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis, [0, 1, 2, 3])


class TestFloatBasisCertifies:
    """Every float basis certifies, so the exact tableau is never reached."""

    def test_no_cold_exact_solve(self, monkeypatch):
        rng = random.Random(41)
        graphs = [rand_graph(rng, rng.randint(3, 14), rng.random()) for _ in range(40)]
        graphs += [rand_graph(rng, n, 0.5) for n in (24, 28)]
        real = exactlp._simplex
        exact_calls = []

        def simplex(cols, b, c, *, exact, **kwargs):
            if exact:
                exact_calls.append(len(b))
            return real(cols, b, c, exact=exact, **kwargs)

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        for g in graphs:
            chi, coloring = fractional_chromatic_number(g)
            assert coloring.total == chi
        assert exact_calls == []


class TestRevisedSimplex:
    """`_simplex`: both lanes agree, the float basis certifies, the edge cases."""

    @staticmethod
    def covering_lp(g):
        return exactlp._covering_lp(g.n, enumerate_maximal_independent_sets(g))

    def test_lanes_agree_and_float_basis_certifies(self):
        rng = random.Random(1010)
        for _ in range(200):
            cols, b, c = self.covering_lp(rand_graph(rng, rng.randint(1, 12), rng.random()))
            guess = exactlp._simplex(cols, b, c, exact=False)
            cold = exactlp._simplex(cols, b, c, exact=True)
            assert guess.status == cold.status == "optimal"
            assert abs(guess.obj - float(cold.obj)) < 1e-9
            certified = exactlp._certify_basis(cols, b, c, guess.basis, guess.kept_rows)
            assert certified.obj == cold.obj

    def test_degenerate_families_certify_without_the_exact_lane(self, monkeypatch):
        families = [(triangle_union(k), Fraction(3)) for k in range(2, 9)]
        families += [(kneser(m, 2), Fraction(m, 2)) for m in range(5, 9)]
        families += [(cycle_graph(n), Fraction(n, n // 2)) for n in range(9, 22, 2)]
        families += [(petersen(), Fraction(5, 2))]
        real = exactlp._simplex
        exact_calls = []

        def simplex(cols, b, c, *, exact, **kwargs):
            if exact:
                exact_calls.append(len(b))
            return real(cols, b, c, exact=exact, **kwargs)

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        for g, chi_expected in families:
            chi, coloring = fractional_chromatic_number(g)
            assert chi == chi_expected == coloring.total
        assert exact_calls == []

    def test_infeasible_equality_lp(self):
        # x0 = 1 and x0 = 2
        cols = np.array([[1, 1]], dtype=np.int64)
        assert exactlp._simplex(cols, [1, 2], [0], exact=True).status == "infeasible"

    def test_duplicated_row_is_dropped(self):
        # C5's covering LP has the unique optimum 1/2 on every set
        cols, b, c = self.covering_lp(cycle_graph(5))
        plain = exactlp._simplex(cols, b, c, exact=True)
        doubled = exactlp._simplex(np.hstack([cols, cols[:, :1]]), b + b[:1], c, exact=True)
        assert doubled.status == "optimal" and len(doubled.kept_rows) == len(b)
        assert {0, len(b)} - set(doubled.kept_rows)
        assert doubled.obj == plain.obj == Fraction(5, 2)
        assert doubled.x == plain.x

    @pytest.mark.parametrize("exact", [False, True])
    def test_pivot_limit_raises(self, exact):
        cols, b, c = self.covering_lp(cycle_graph(5))
        with pytest.raises(InternalError, match="pivot limit"):
            exactlp._simplex(cols, b, c, exact=exact, maxiter=1)
