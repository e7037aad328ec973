"""Exact LP layer: chi_f, uniform covers, and integer cover extraction."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gelab import exactlp
from gelab.characterize import is_symmetric
from gelab.constructions import GadgetSpec, hardness_gadget
from gelab.errors import InternalError, NotUniform
from gelab.exactlp import (
    CoverMultiset,
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
from gelab.oracle import brute_alpha

import corpus
from helpers import (
    coverage,
    kneser,
    lex_product,
    mycielski,
    petersen,
    rand_graph,
    triangle_union,
    uniform_cover_feasible,
)

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
        # the LP over the one maximal set, the empty one: no rows, optimum 0
        assert fractional_chromatic_dual(Graph(0)) == (0, {})
        cm = b_fold_realization(Graph(0))
        assert cm.multiplicities == {} and cm.fold == 1 and cm.covered == frozenset()

    def test_petersen(self):
        assert fractional_chromatic_number(petersen())[0] == Fraction(5, 2)

    def test_coverage_is_verified(self):
        _, coloring = fractional_chromatic_number(rand_graph(random.Random(0), 9, 0.4))
        for v in range(9):
            assert coverage(coloring, v) >= 1

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
    """The exact revised simplex answers whenever the float basis fails certification."""

    @staticmethod
    def force_fallback(monkeypatch, mode):
        real, real_certify = exactlp._simplex, exactlp._certify_basis
        exact_calls, float_bases = [], []

        def simplex(cols, b, c, *, exact, **kwargs):
            res = real(cols, b, c, exact=exact, **kwargs)
            if exact:
                exact_calls.append(len(b))
            elif mode == "wrong-basis":
                # the surplus columns: their basic solution x = -b is infeasible
                res.basis = list(range(len(cols) - len(b), len(cols)))
            else:
                float_bases.append(res.basis)
            return res

        def certify_fails(cols, b, c, basis, *guess):
            # rejects the float lane's basis only: the exact lane's is certified
            if float_bases and basis is float_bases[-1]:
                raise exactlp._WarmStartFailed
            return real_certify(cols, b, c, basis, *guess)

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        if mode == "certify-fails":
            monkeypatch.setattr(exactlp, "_certify_basis", certify_fails)
        return exact_calls

    def test_capped_float_lane_hands_over_to_the_exact_lane(self, monkeypatch):
        # one float pivot ends short of the optimum on each: `_certify_basis`
        # rejects that basis, and the exact lane's is the answer
        real = exactlp._simplex
        exact_calls = []

        def simplex(cols, b, c, *, exact, **kwargs):
            if exact:
                exact_calls.append(len(b))
                return real(cols, b, c, exact=True, **kwargs)
            return real(cols, b, c, exact=False, **{**kwargs, "maxiter": 1})

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        graphs = [(cycle_graph(5), Fraction(5, 2)), (cycle_graph(7), Fraction(7, 3))]
        graphs += [(petersen(), Fraction(5, 2)), (kneser(6, 2), Fraction(3))]
        for g, chi in graphs:
            lp = exactlp._covering_lp(g.n, [s.mask for s in enumerate_maximal_independent_sets(g)])
            assert exactlp._solve_exact(*lp).obj == chi
        assert exact_calls == [g.n for g, _ in graphs]

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
            assert all(coverage(coloring, v) >= 1 for v in range(g.n))
        assert len(exact_calls) == len(graphs)


class TestCoveringProof:
    """Every LP answer is proved by `_certify_basis`, whichever lane found it: a wrong one raises."""

    @staticmethod
    def columns(cols, n, names):
        """Column indices of sets such as (0, 2), and of ("s", v), v's surplus."""
        sets = [tuple(np.flatnonzero(col).tolist()) for col in cols[: len(cols) - n]]
        return [len(cols) - n + name[1] if name[0] == "s" else sets.index(name) for name in names]

    @staticmethod
    def answer(monkeypatch, basis):
        """Both lanes return basis(cols, n, start); the lanes that ran are recorded."""
        lanes = []

        def simplex(cols, b, c, *, exact, start, **kwargs):
            # zeros of the LP's shape: rounded, they certify no basis below
            lanes.append(exact)
            return exactlp._LPResult(x=[0.0] * len(cols), y=[0.0] * len(b), obj=None, basis=basis(cols, len(b), start))

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        return lanes

    def rejected(self, monkeypatch, solver, g, basis):
        lanes = self.answer(monkeypatch, basis)
        with pytest.raises(InternalError, match="exact lane's basis is not optimal"):
            solver(g)
        assert lanes == [False, True]

    def named(self, g, names):
        """The basis of sets and surpluses `names` in g's covering LP, and its x and y."""
        cols, b, c = exactlp._covering_lp(g.n, [s.mask for s in enumerate_maximal_independent_sets(g)])
        x, y, _ = TestCertifyBasis.full_reference(cols, b, c, self.columns(cols, g.n, names))
        x = x[: len(cols) - g.n]  # the sets' weights
        coverage = [sum(int(a) * xj for a, xj in zip(cols[:, v], x)) for v in range(g.n)]
        return (lambda cols, n, start: self.columns(cols, n, names)), x, y, coverage

    @pytest.mark.parametrize("solver", [fractional_chromatic_number, fractional_chromatic_dual])
    def test_zero_answer_for_k1(self, monkeypatch, solver):
        # the surplus-only basis: x = 0 on the set {0}, whose surplus is -1
        basis, x, y, coverage = self.named(Graph(1), [("s", 0)])
        assert x == [0] and y == [0] and coverage == [0]
        self.rejected(monkeypatch, solver, Graph(1), basis)

    def test_negative_covering_weight(self, monkeypatch):
        # C7: 024, 025, 035, 135, 136 cover every vertex with 035 at weight -1
        names = [(0, 2, 4), (0, 2, 5), (0, 3, 5), (1, 3, 5), (1, 3, 6), ("s", 1), ("s", 2)]
        basis, x, _, coverage = self.named(cycle_graph(7), names)
        assert min(x) == -1 and min(coverage) >= 1
        self.rejected(monkeypatch, fractional_chromatic_number, cycle_graph(7), basis)

    def test_dual_not_packing(self, monkeypatch):
        # P4: 02 and 13 cover with the optimal value 2, but y = (1, 0, 0, 1)
        # packs 2 into the set {0, 3}
        basis, x, y, coverage = self.named(path_graph(4), [(0, 2), (1, 3), ("s", 1), ("s", 2)])
        assert min(x) >= 0 and min(coverage) >= 1 and sum(x) == 2
        assert min(y) >= 0 and y[0] + y[3] == 2
        self.rejected(monkeypatch, fractional_chromatic_dual, path_graph(4), basis)

    def test_negative_dual(self, monkeypatch):
        # C6: 024 and 135 cover, and y = (-1, 0, 1, 1, 1, 0) packs, negative at 0
        names = [(0, 2, 4), (1, 3, 5), (1, 4), (2, 5), ("s", 1), ("s", 5)]
        basis, x, y, coverage = self.named(cycle_graph(6), names)
        assert min(x) >= 0 and min(coverage) >= 1 and y == [-1, 0, 1, 1, 1, 0]
        self.rejected(monkeypatch, fractional_chromatic_dual, cycle_graph(6), basis)

    @pytest.mark.parametrize(
        "solver", [fractional_chromatic_number, fractional_chromatic_dual, b_fold_realization, is_symmetric]
    )
    @pytest.mark.parametrize(
        "basis",
        [
            # x = -b on the surplus columns
            pytest.param(lambda cols, n, start: list(range(len(cols) - n, len(cols))), id="surplus-only"),
            # feasible, but on C5 and the Petersen graph the cover start keeps
            # more sets than chi_f = 5/2
            pytest.param(lambda cols, n, start: start[0].tolist(), id="unpivoted-start"),
        ],
    )
    def test_rejected_bases_raise_in_every_solver(self, monkeypatch, solver, basis):
        for g in (cycle_graph(5), petersen()):
            self.rejected(monkeypatch, solver, g, basis)


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
        assert all(coverage(fc, v) == 1 for v in range(5))

    def test_uncovered_vertex_infeasible(self):
        g = complete_graph(2)
        assert uniform_cover_feasible(g, [IndependentSet(g, [0])], [0, 1]) is None

    def test_whole_set_trivially_feasible(self):
        g = empty_graph(3)
        fc = uniform_cover_feasible(g, [IndependentSet(g, [0, 1, 2])], [0, 1, 2])
        assert fc is not None and fc.total == 1

    def test_covering_family_without_exact_cover(self):
        # {0,1} and {1,2} cover every row, but covering 0 and 2 covers 1 twice:
        # the covering optimum is 4 > |T| = 3
        g = empty_graph(3)
        fam = [IndependentSet(g, [0, 1]), IndependentSet(g, [1, 2])]
        assert uniform_cover_feasible(g, fam, [0, 1, 2]) is None
        fc = uniform_cover_feasible(g, fam + [IndependentSet(g, [0, 2])], [0, 1, 2])
        assert fc is not None and len(fc.weights) == 3
        assert set(fc.weights.values()) == {Fraction(1, 2)}

    def test_family_must_be_nonempty(self):
        with pytest.raises(ValueError):
            uniform_cover_feasible(complete_graph(2), [], [0])

    def test_target_subset_only_constrains_target(self):
        g = path_graph(3)
        fam = [IndependentSet(g, [0, 2])]
        fc = uniform_cover_feasible(g, fam, [0])
        assert fc is not None and coverage(fc, 0) == 1

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

    def test_coloring_total_over_mixed_denominators(self):
        g = empty_graph(3)
        a, b, c, full = (IndependentSet(g, m) for m in ([0], [1], [2], [0, 1, 2]))
        fc = FractionalColoring({a: Fraction(1, 4), b: Fraction(5, 6), c: Fraction(2, 9), full: 0})
        assert fc.total == Fraction(47, 36) and type(fc.total) is Fraction
        assert fc.weights == {a: Fraction(1, 4), b: Fraction(5, 6), c: Fraction(2, 9)}
        with pytest.raises(ValueError, match="negative weight in fractional coloring"):
            FractionalColoring({a: Fraction(1, 4), b: Fraction(-1, 6), c: Fraction(2, 9)})

    @pytest.mark.parametrize("w", [float("inf"), -float("inf"), float("nan")])
    def test_weight_that_is_not_finite_raises(self, w):
        g = empty_graph(2)
        with pytest.raises(ValueError, match="weight not a finite rational"):
            FractionalColoring({IndependentSet(g, [0]): Fraction(1, 2), IndependentSet(g, [0, 1]): w})

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


class TestCoverMultiset:
    @pytest.mark.parametrize(
        "k", [1.5, Fraction(3, 2), 0.4, Fraction(1, 3), float("inf"), -float("inf"), float("nan")]
    )
    def test_fractional_multiplicity_raises(self, k):
        g = empty_graph(2)
        with pytest.raises(ValueError, match="multiplicity not an integer"):
            CoverMultiset({IndependentSet(g, [0, 1]): k}, 1, range(2))

    def test_integral_multiplicities_of_any_type_are_ints(self):
        g = empty_graph(2)
        a, b = IndependentSet(g, [0]), IndependentSet(g, [0, 1])
        cm = CoverMultiset({a: 2.0, b: Fraction(4, 2), IndependentSet(g, [1]): 0}, 4, [0])
        assert cm.multiplicities == {a: 2, b: 2} and cm.size == 4
        assert all(type(k) is int for k in cm.multiplicities.values())

    def test_first_vertex_off_the_fold_is_reported(self):
        g = empty_graph(3)
        with pytest.raises(NotUniform, match="vertex 2 covered 0 times, fold is 1"):
            CoverMultiset({IndependentSet(g, [0, 1]): 1}, 1, range(3))


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
    "v", [[5, 7, 11], [2**59, 2**59, 2**59], [2**62, 2**62, -1], [-(2**70), 3, 2**61], [2**62] * 3, [2**63, 1, 0]]
)
def test_exact_matvec_is_exact_past_int64(v):
    # entries in {-1, 0, 1}; the all-ones row sums 3 * 2**62 past int64, and a
    # list holding 2**63 is read as ints, where numpy would read it as float64
    M = np.array([[1, -1, 0], [-1, 1, -1], [1, 1, 1]], dtype=np.int64)
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
        return exactlp._covering_lp(g.n, [s.mask for s in sets])

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
        start = exactlp._cover_start(cols, len(b))
        guess = exactlp._simplex(cols, b, c, exact=False, start=start)
        res = exactlp._certify_basis(cols, b, c, guess.basis)
        cold = exactlp._simplex(cols, b, c, exact=True, start=start)
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
            exactlp._certify_basis(cols, b, c, basis)

    def test_singular_basis_is_rejected(self):
        basis = [self.column(s) for s in [(0, 2), (1, 3), (2, 4), ("s", 0), ("s", 2)]]
        assert self.reference(basis, range(5)) is None
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis)

    def test_basis_violating_a_dropped_row_is_rejected(self):
        basis = [self.column(s) for s in [(0, 2), (0, 3), (1, 3), (1, 4)]]
        x, rows, _ = self.reference(basis, range(4))
        assert min(x) >= 0 and rows[:4] == [1] * 4 and rows[4] == 0
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis)

    @pytest.mark.parametrize(
        "names",
        [
            [(0, 2), (0, 2), (1, 3), (2, 4), ("s", 3)],  # a set twice: M_TK singular
            [(0, 2), (1, 3), (2, 4), ("s", 3), ("s", 3)],  # a surplus twice: |K| != |T|
        ],
    )
    def test_repeated_column_is_rejected(self, names):
        basis = [self.column(s) for s in names]
        assert self.reference(basis, range(5)) is None
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis)

    def test_surplus_only_basis_is_rejected(self):
        # B = -I, so x = -b: every basic surplus is -1, with no set block at all
        basis = [self.column(("s", v)) for v in range(5)]
        x, _, _ = self.reference(basis, range(5))
        assert x[5:] == [-1] * 5
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis)

    def test_negative_basic_surplus_is_rejected(self):
        # 02 and 13 leave vertex 4 uncovered: its surplus is -1; the rest is
        # dual feasible (y = 1 on T = {0, 1}), so only the sign of x rejects it
        basis = [self.column(s) for s in [(0, 2), (1, 3), ("s", 2), ("s", 3), ("s", 4)]]
        x, _, _ = self.reference(basis, range(5))
        assert min(x[:5]) >= 0 and x[5:] == [0, 0, 0, 0, -1]
        cols, b, c = self.lp()
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, basis)

    @staticmethod
    def full_reference(cols, b, c, basis):
        """x, y and obj of `basis` from the Fraction LU of the whole m x m B."""
        B = [[int(cols[j][r]) for j in basis] for r in range(len(b))]
        x_B, y, _, _ = fraction_lu_solve(B, b, [c[j] for j in basis])
        x = [Fraction(0)] * len(cols)
        for j, v in zip(basis, x_B):
            x[j] = v
        return x, y, sum(c[j] * v for j, v in zip(basis, x_B))

    def test_float_bases_match_the_full_fraction_solve(self, corpus7):
        rng = random.Random(1515)
        graphs = list(corpus7) + [kneser(7, 2), petersen(), triangle_union(5)]
        graphs += [rand_graph(rng, rng.randint(2, 30), rng.random()) for _ in range(300)]
        surplus_read = 0
        for g in graphs:
            cols, b, c = exactlp._covering_lp(g.n, [s.mask for s in enumerate_maximal_independent_sets(g)])
            start = exactlp._cover_start(cols, len(b))
            basis = exactlp._simplex(cols, b, c, exact=False, start=start).basis
            res = exactlp._certify_basis(cols, b, c, basis)
            assert (res.x, res.y, res.obj) == self.full_reference(cols, b, c, basis)
            assert res.basis == basis
            surplus_read += any(res.x[len(cols) - g.n:])
        assert surplus_read >= 500  # a positive basic surplus in most of them

    def test_exact_lane_bases_certify_to_the_exact_solution(self, corpus7):
        # the one proof of a cold exact answer: its basis certifies, and the
        # certificate rebuilds the exact simplex's own x, y and obj
        rng = random.Random(1616)
        graphs = list(corpus7) + [rand_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(300)]
        for g in graphs:
            cols, b, c = exactlp._covering_lp(g.n, [m for _, fam in exactlp._part_families(g, None) for m in fam])
            cold = exactlp._simplex(cols, b, c, exact=True, start=exactlp._cover_start(cols, len(b)))
            res = exactlp._certify_basis(cols, b, c, cold.basis)
            assert (res.x, res.y, res.obj, res.basis) == (cold.x, cold.y, cold.obj, cold.basis)


def mycielski_chain() -> list[Graph]:
    """M4, M5 and M6: the Mycielski graphs of C5, the Grötzsch graph first (n = 11, 23, 47)."""
    chain = [mycielski(cycle_graph(5))]
    while len(chain) < 3:
        chain.append(mycielski(chain[-1]))
    return chain


class TestMycielskiClosedForms:
    """chi_f(M(G)) = chi_f(G) + 1/chi_f(G) (Larsen, Propp & Ullman, J. Graph Theory 1995), past n = 20."""

    def test_chain_from_c5(self):
        chain = mycielski_chain()
        assert [(g.n, len(g.edges)) for g in chain] == [(11, 20), (23, 71), (47, 236)]
        chi_prev, alpha_prev, n_prev = Fraction(5, 2), 2, 5
        chis, alphas = [], []
        for g in chain:
            chi, coloring = fractional_chromatic_number(g, cap=47)
            assert chi == chi_prev + 1 / chi_prev == coloring.total
            cm = b_fold_realization(g, cap=47)
            assert Fraction(cm.size, cm.fold) == chi
            a = alpha(g, cap=47).value
            assert a == max(2 * alpha_prev, n_prev)
            assert not is_symmetric(g, cap=47).is_symmetric
            chis.append(chi)
            alphas.append(a)
            chi_prev, alpha_prev, n_prev = chi, a, g.n
        assert chis == [Fraction(29, 10), Fraction(941, 290), Fraction(969581, 272890)]
        assert alphas == [5, 11, 23]


class TestRoundedCertificate:
    """`_certify_basis` rounds the float lane's x and y; Bareiss runs only when the checks reject them."""

    @staticmethod
    def lps(graphs):
        """Each graph's covering LP, (cols, b, c), with the float lane's answer on it."""
        for g in graphs:
            cols, b, c = exactlp._covering_lp(g.n, [m for _, fam in exactlp._part_families(g, 47) for m in fam])
            yield cols, b, c, exactlp._simplex(cols, b, c, exact=False, start=exactlp._cover_start(cols, len(b)))

    @staticmethod
    def random_graphs():
        rng = random.Random(2727)
        return [rand_graph(rng, rng.randint(1, 30), rng.uniform(0.15, 0.9)) for _ in range(300)]

    @staticmethod
    def count_bareiss(monkeypatch):
        calls = []
        real = exactlp._bareiss_solve

        def bareiss(M, rhs):
            calls.append(len(rhs))
            return real(M, rhs)

        monkeypatch.setattr(exactlp, "_bareiss_solve", bareiss)
        return calls

    @staticmethod
    def answer(res):
        return res.x, res.y, res.obj, res.basis

    def test_rounded_answer_is_the_bareiss_answer(self, monkeypatch):
        graphs = [g for n in range(1, 8) for g in corpus.all_graphs(n)]
        graphs += self.random_graphs() + mycielski_chain()
        calls = self.count_bareiss(monkeypatch)
        for cols, b, c, guess in self.lps(graphs):
            rounded = exactlp._certify_basis(cols, b, c, guess.basis, guess)
            assert not calls  # the rounded integers passed every check
            bareiss = exactlp._certify_basis(cols, b, c, guess.basis)
            assert len(calls) == 2
            calls.clear()
            assert self.answer(rounded) == self.answer(bareiss)
            assert all(type(v) is Fraction for v in rounded.y) and type(rounded.obj) is Fraction

    def test_chi_f_answers_without_bareiss(self, monkeypatch):
        graphs = self.random_graphs()
        expected = [fractional_chromatic_number(g)[0] for g in graphs]

        def bareiss(M, rhs):
            raise AssertionError("Bareiss ran")

        monkeypatch.setattr(exactlp, "_bareiss_solve", bareiss)
        assert [fractional_chromatic_number(g)[0] for g in graphs] == expected

    @pytest.mark.parametrize(
        "spoil, everywhere",
        [
            pytest.param(lambda x, y: ([0.0] * len(x), [0.0] * len(y)), True, id="zeros"),
            # rounds back to d y where d < 500, as on C5 (d = 2), but not on
            # M6, whose chi_f is 969581/272890
            pytest.param(lambda x, y: (x, [v + 1e-3 for v in y]), False, id="y-moved-1e-3"),
            pytest.param(lambda x, y: ([float("nan")] * len(x), y), True, id="nan-x"),
            pytest.param(lambda x, y: (x, [float("nan")] * len(y)), True, id="nan-y"),
            pytest.param(lambda x, y: ([float("inf")] * len(x), y), True, id="inf-x"),
            pytest.param(lambda x, y: (x, [-float("inf")] * len(y)), True, id="minus-inf-y"),
        ],
    )
    def test_rejected_guesses_end_in_bareiss(self, monkeypatch, spoil, everywhere):
        graphs = [cycle_graph(5), petersen(), kneser(7, 2), triangle_union(3)] + mycielski_chain()
        calls = self.count_bareiss(monkeypatch)
        reached = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cols, b, c, guess in self.lps(graphs):
                expected = self.answer(exactlp._certify_basis(cols, b, c, guess.basis))
                calls.clear()
                x, y = spoil(guess.x, guess.y)
                res = exactlp._certify_basis(cols, b, c, guess.basis, exactlp._LPResult(x, y, None, guess.basis))
                assert self.answer(res) == expected
                reached.append(bool(calls))
        assert reached[-1] and (all(reached) or not everywhere)

    @pytest.mark.parametrize(
        "names",
        [
            [(0, 2), (1, 3), (2, 4), ("s", 0), ("s", 2)],  # rows 1 and 3 of M_TK are equal
            [(0, 2), (0, 2), (1, 3), (2, 4), ("s", 3)],  # a set twice
        ],
    )
    def test_singular_basis_with_a_plausible_guess_is_rejected(self, names):
        # the guess is C5's optimum, 1/2 on every set and every vertex
        cols, b, c = TestCertifyBasis.lp()
        basis = [TestCertifyBasis.column(s) for s in names]
        guess = exactlp._LPResult([0.5] * 5 + [0.0] * 5, [0.5] * 5, 2.5, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exactlp._WarmStartFailed):
                exactlp._certify_basis(cols, b, c, basis, guess)


class TestFloatBasisCertifies:
    """Every float basis certifies, so the exact revised simplex is never reached."""

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


def perrin(m: int) -> int:
    """The number of maximal independent sets of the cycle C_m, m >= 3 (Füredi 1987)."""
    a, b, c = 3, 0, 2
    for _ in range(m):
        a, b, c = b, c, a + b
    return a


class TestHardnessGadgets:
    """The paper's co-NP-hardness gadget, answered by the float lane alone.

    hardness_gadget(GadgetSpec(F, k)) is symmetric exactly when
    alpha(F) <= k - 1, and its alpha is max(alpha(F), k - 1). For a cycle F
    and k >= 3 its maximal sets are the A-vertices, the n_F columns
    {v} x B, and I x {b} for each maximal I of F.
    """

    # (F, alpha(F), its maximal-set count where the closed form above holds)
    BASES = {f"C{m}": (cycle_graph(m), m // 2, perrin(m)) for m in range(5, 18, 2)}
    BASES.update({"Petersen": (petersen(), 4, None), "K(6,2)": (kneser(6, 2), 5, None)})

    @pytest.mark.parametrize("f, alpha_f, mis_f", BASES.values(), ids=BASES.keys())
    def test_verdict_alpha_and_sets_for_k_up_to_alpha_plus_2(self, monkeypatch, f, alpha_f, mis_f):
        real = exactlp._simplex
        exact_calls = []

        def simplex(cols, b, c, *, exact, **kwargs):
            if exact:
                exact_calls.append(len(b))
            return real(cols, b, c, exact=exact, **kwargs)

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        for k in range(2, alpha_f + 3):
            g = hardness_gadget(GadgetSpec(f, k))
            a = max(alpha_f, k - 1)
            verdict = is_symmetric(g, cap=200)
            assert verdict.is_symmetric == (alpha_f <= k - 1), k
            assert verdict.n_over_alpha == Fraction(g.n, a)
            if verdict.is_symmetric:
                assert verdict.chi_f == Fraction(g.n, a)
            assert alpha(g, cap=200).value == a
            if mis_f is not None and k >= 3:
                assert len(enumerate_maximal_independent_sets(g, cap=200)) == 1 + f.n + (k - 1) * mis_f
        assert exact_calls == []


class TestRevisedSimplex:
    """`_simplex`: both lanes agree, the float basis certifies, the edge cases."""

    @staticmethod
    def covering_lp(g):
        return exactlp._covering_lp(g.n, [s.mask for s in enumerate_maximal_independent_sets(g)])

    def test_lanes_agree_and_float_basis_certifies(self):
        rng = random.Random(1010)
        for _ in range(200):
            cols, b, c = self.covering_lp(rand_graph(rng, rng.randint(1, 12), rng.random()))
            start = exactlp._cover_start(cols, len(b))
            guess = exactlp._simplex(cols, b, c, exact=False, start=start)
            cold = exactlp._simplex(cols, b, c, exact=True, start=start)
            assert abs(guess.obj - float(cold.obj)) < 1e-9
            certified = exactlp._certify_basis(cols, b, c, guess.basis)
            assert certified.obj == cold.obj

    def test_float_lane_enters_the_first_most_negative_column(self):
        # min 4x0 + 3x1 + 2x2 + 2x3, x0 + x1 + x2 + x3 = 1, from basis {x0}:
        # reduced costs 0, -1, -2, -2. Dantzig enters x2 (x3 ties, later)
        # and is optimal after one pivot; Bland enters x1 and needs two, so
        # one pivot leaves it at the basis {x1}, which it returns.
        cols = np.ones((4, 1), dtype=np.int64)
        start = (np.array([0]), np.ones((1, 1), dtype=np.int64))
        res = exactlp._simplex(cols, [1], [4, 3, 2, 2], exact=False, maxiter=1, start=start)
        assert res.basis == [2] and res.obj == 2
        res = exactlp._simplex(cols, [1], [4, 3, 2, 2], exact=True, maxiter=1, start=start)
        assert res.basis == [1] and res.obj == 3
        res = exactlp._simplex(cols, [1], [4, 3, 2, 2], exact=True, maxiter=2, start=start)
        assert res.basis == [2] and res.obj == 2

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

    @pytest.mark.parametrize("exact", [False, True])
    def test_pivot_limit_returns_the_basis_at_hand(self, exact):
        # C5's cover start keeps 3 sets against chi_f = 5/2, and one pivot
        # does not reach the optimum: that basis is returned, and rejected
        cols, b, c = self.covering_lp(cycle_graph(5))
        start = exactlp._cover_start(cols, len(b))
        res = exactlp._simplex(cols, b, c, exact=exact, maxiter=1, start=start)
        assert len(res.basis) == len(b) and res.basis != start[0].tolist() and res.obj > Fraction(5, 2)
        with pytest.raises(exactlp._WarmStartFailed):
            exactlp._certify_basis(cols, b, c, res.basis, res)

    @pytest.mark.parametrize("exact", [False, True])
    def test_unbounded_lp_returns_the_basis_at_hand(self, exact):
        # min -x0 subject to x1 - x0 = 1: x0 enters, and no row bounds it
        cols = np.array([[-1], [1]], dtype=np.int64)
        start = (np.array([1]), np.ones((1, 1), dtype=np.int64))
        res = exactlp._simplex(cols, [1], [-1, 0], exact=exact, start=start)
        assert res.basis == [1] and res.x == [0, 1] and res.obj == 0

    def test_each_lane_keeps_its_own_tie_rule(self):
        # min -x3 with x3 = (1, 2, 3) entering the unit basis: the ratios
        # 1/1, 2/2 and 3/3 tie in all three rows. Row 1 holds the smallest
        # label, 0, and row 2 the largest pivot element, 3. Bland leaves by
        # the label, Dantzig by the pivot element, and both are then optimal.
        cols = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 2, 3]], dtype=np.int64)
        start = (np.array([1, 0, 2]), np.eye(3, dtype=np.int64))
        res = exactlp._simplex(cols, [1, 2, 3], [0, 0, 0, -1], exact=True, start=start)
        assert res.basis == [1, 3, 2] and res.obj == -1
        res = exactlp._simplex(cols, [1, 2, 3], [0, 0, 0, -1], exact=False, start=start)
        assert res.basis == [1, 0, 3] and res.obj == -1


def complete_multipartite(a: int, parts: int) -> Graph:
    """K_{a,...,a}: `parts` classes of a vertices, adjacent across classes."""
    n = a * parts
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // a != v // a])


class TestCoverStart:
    """`_cover_start`: a minimal greedy cover as a self-inverse feasible basis."""

    @staticmethod
    def covering_lp(g):
        return exactlp._covering_lp(g.n, [s.mask for s in enumerate_maximal_independent_sets(g)])

    def check_start(self, g):
        cols, b, c = self.covering_lp(g)
        n, k = g.n, len(cols) - g.n
        basis, Binv = exactlp._cover_start(cols, n)
        M = cols[:k]
        kept = [j for j in basis.tolist() if j < k]
        cov = M[kept].sum(axis=0)
        # a minimal cover: every vertex covered, every kept set needed
        assert len(set(kept)) == len(kept) and cov.min() >= 1
        assert all(((M[j] > 0) & (cov == 1)).any() for j in kept)
        # a set sits at one of its private vertices, a surplus at its own row
        for r, j in enumerate(basis.tolist()):
            if j < k:
                assert M[j, r] == 1 and cov[r] == 1
            else:
                assert j == k + r
        B = cols[basis].T
        assert np.array_equal(Binv, B)
        assert np.array_equal(B @ B, np.eye(n, dtype=np.int64))
        xB = B @ np.array(b)
        assert xB.min() >= 0
        assert np.array(c)[basis] @ xB == len(kept) >= fractional_chromatic_number(g)[0]

    def test_invariants_on_small_corpus(self, corpus7):
        for g in corpus7:
            self.check_start(g)

    def test_invariants_on_random_and_structured_graphs(self):
        rng = random.Random(1313)
        graphs = [rand_graph(rng, rng.randint(2, 30), rng.random()) for _ in range(300)]
        graphs += [triangle_union(k) for k in range(1, 7)]
        graphs += [kneser(m, 2) for m in range(5, 9)] + [kneser(7, 3), petersen()]
        for g in graphs:
            self.check_start(g)

    @pytest.mark.parametrize("exact", [False, True])
    def test_optimal_start_takes_no_pivot(self, exact):
        families = [(triangle_union(k), 3) for k in range(2, 9)]
        families += [
            (complete_multipartite(a, parts), parts)
            for a, parts in [(1, 5), (2, 3), (3, 3), (4, 4), (5, 2)]
        ]
        for g, chi in families:
            cols, b, c = self.covering_lp(g)
            start = exactlp._cover_start(cols, len(b))
            res = exactlp._simplex(cols, b, c, exact=exact, maxiter=0, start=start)
            assert res.obj == chi

    def test_lanes_agree_from_both_starts(self):
        rng = random.Random(2020)
        for _ in range(200):
            cols, b, c = self.covering_lp(rand_graph(rng, rng.randint(1, 12), rng.random()))
            start = exactlp._cover_start(cols, len(b))
            warm = exactlp._simplex(cols, b, c, exact=True, start=start)
            guess = exactlp._simplex(cols, b, c, exact=False, start=start)
            certified = exactlp._certify_basis(cols, b, c, guess.basis)
            assert warm.obj == certified.obj

    @pytest.mark.parametrize("exact", [False, True])
    def test_start_that_is_not_the_inverse_is_rejected(self, exact):
        cols, b, c = self.covering_lp(cycle_graph(5))
        basis, Binv = exactlp._cover_start(cols, len(b))
        wrong = Binv.copy()
        wrong[0, 0] += 1
        with pytest.raises(InternalError, match="not the basis inverse"):
            exactlp._simplex(cols, b, c, exact=exact, start=(basis, wrong))

    @pytest.mark.parametrize("exact", [False, True])
    def test_infeasible_start_is_rejected(self, exact):
        # every surplus column basic: B = Binv = -I, so Binv b = -1
        cols, b, c = self.covering_lp(cycle_graph(5))
        basis = np.arange(len(cols) - len(b), len(cols))
        with pytest.raises(InternalError, match="Binv b < 0"):
            exactlp._simplex(cols, b, c, exact=exact, start=(basis, -np.eye(5, dtype=np.int64)))


class TestFloat64Matrix:
    """The covering LP's float64 matrix: exact products on BLAS, and no float in the exact lane."""

    # 2**53 - 1 = 6361 * 69431 * 20394401 and 2**53 + 1 = 3 * 3002399751580331
    @pytest.mark.parametrize(
        "length, entry, tier",
        [
            (6361, 69431 * 20394401, np.int64),  # every partial sum below 2**53: float64 on BLAS
            (3, 3002399751580331, object),  # 2**53 + 1 is not a float64: Python ints
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_exact_matvec_at_the_2_53_edge(self, length, entry, tier, dtype):
        M = np.ones((2, length), dtype=dtype)
        M[1, ::2] = -1
        v = [entry] * length
        expected = [entry * length, entry * (length // 2 - (length + 1) // 2)]
        assert expected[0] in (2**53 - 1, 2**53 + 1)
        res = exactlp._exact_matvec(M, v)
        assert res.dtype == tier and res.tolist() == expected
        assert all(type(w) is int for w in res.tolist())

    def test_covering_lp_is_float64(self):
        cols, b, c = exactlp._covering_lp(5, [s.mask for s in enumerate_maximal_independent_sets(cycle_graph(5))])
        assert cols.dtype == np.float64 and set(np.unique(cols).tolist()) == {-1.0, 0.0, 1.0}
        start = exactlp._cover_start(cols, len(b))
        assert start[1].dtype == np.float64

    @pytest.mark.parametrize("mode", ["wrong-basis", "certify-fails"])
    def test_exact_lane_computes_in_fractions(self, monkeypatch, mode, corpus7):
        # every x, y and obj of the exact lane, and every answer certified
        # from its basis, is a Fraction: no float entered its arithmetic
        rng = random.Random(2828)
        graphs = list(corpus7) + [rand_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(300)]
        exact_calls = TestColdExactFallback.force_fallback(monkeypatch, mode)
        lane, answers = exactlp._simplex, []

        def simplex(cols, b, c, *, exact, **kwargs):
            res = lane(cols, b, c, exact=exact, **kwargs)
            if exact:
                answers.append(res)
            return res

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        for g in graphs:
            cols, b, c = exactlp._covering_lp(g.n, [m for _, fam in exactlp._part_families(g, None) for m in fam])
            answers.append(exactlp._solve_exact(cols, b, c))
        assert len(exact_calls) == len(graphs) and len(answers) == 2 * len(graphs)
        for res in answers:
            assert all(type(v) is Fraction for v in res.x + res.y) and type(res.obj) is Fraction

    def test_bareiss_reads_float64_through_int64(self):
        rng = random.Random(53)
        for _ in range(300):
            m = rng.randint(1, 12)
            M = np.array(TestBareissSolve.random_matrix(rng, m), dtype=np.int64)
            rhs = [rng.randint(-3, 3) for _ in range(m)]
            try:
                expected = exactlp._bareiss_solve(M, rhs)
            except exactlp._WarmStartFailed:
                with pytest.raises(exactlp._WarmStartFailed):
                    exactlp._bareiss_solve(M.astype(np.float64), rhs)
                continue
            d, num = exactlp._bareiss_solve(M.astype(np.float64), rhs)
            assert (d, num) == expected and all(type(v) is int for v in [d, *num])


class TestLexProductClosedForms:
    """G[F]: chi_f(G[F]) = chi_f(G) chi_f(F), alpha(G[F]) = alpha(G) alpha(F), and
    G[F] is symmetric exactly when G and F both are (Scheinerman & Ullman,
    *Fractional Graph Theory*, ch. 3)."""

    @pytest.mark.parametrize(
        "g, f, chi, a",
        [
            pytest.param(cycle_graph(7), cycle_graph(7), Fraction(49, 9), 9, id="C7[C7]"),
            pytest.param(petersen(), cycle_graph(5), Fraction(25, 4), 8, id="Pet[C5]"),
            pytest.param(cycle_graph(5), cycle_graph(5), Fraction(25, 4), 4, id="C5[C5]"),
            pytest.param(cycle_graph(5), path_graph(3), Fraction(5), 4, id="C5[P3]"),
            pytest.param(path_graph(3), cycle_graph(5), Fraction(5), 4, id="P3[C5]"),
        ],
    )
    def test_product_rules(self, g, f, chi, a):
        gf = lex_product(g, f)
        assert gf.n == g.n * f.n
        chi_g, chi_f = fractional_chromatic_number(g)[0], fractional_chromatic_number(f)[0]
        assert fractional_chromatic_number(gf, cap=gf.n)[0] == chi_g * chi_f == chi
        assert alpha(gf, cap=gf.n).value == brute_alpha(g) * brute_alpha(f) == a
        cm = b_fold_realization(gf, cap=gf.n)
        assert Fraction(cm.size, cm.fold) == chi
        verdict = is_symmetric(gf, cap=gf.n).is_symmetric
        assert verdict == (is_symmetric(g).is_symmetric and is_symmetric(f).is_symmetric)
        assert verdict == (chi == Fraction(gf.n, a))
