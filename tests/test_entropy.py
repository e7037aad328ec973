"""Entropy solver: certified values, the oracle step, and entropy laws."""

import importlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from gelab.constructions import union
from gelab.entropy import (
    PolytopePoint,
    _face_newton_step,
    _line_search,
    entropy,
    objective,
)
from gelab.errors import DomainError
from gelab.exactlp import fractional_chromatic_number
from gelab.graphs import (
    Distribution,
    IndependentSet,
    _parts_of,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_maximal_independent_sets,
    path_graph,
)
from gelab.oracle import brute_entropy

from helpers import (
    circulant,
    complement,
    continuity_delta,
    disjoint_union,
    kneser,
    linear_minimization_oracle,
    perturb_within,
    petersen,
    rand_bipartite,
    rand_chordal,
    rand_comparability,
    rand_graph,
    rand_rational_distribution,
    rand_spanning_subgraph,
)

LG_5_2 = math.log2(2.5)


def lg40(x: Fraction, minus: Fraction = Fraction(0)) -> Decimal:
    """lg x - minus, to 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        lg = (Decimal(x.numerator).ln() - Decimal(x.denominator).ln()) / Decimal(2).ln()
        return lg - Decimal(minus.numerator) / minus.denominator


class TestObjective:
    def test_uniform_k2_at_half(self):
        assert objective(Distribution.uniform(2), (0.5, 0.5)) == pytest.approx(1.0)

    def test_support_only_sum(self):
        p = Distribution([Fraction(1), Fraction(0)])
        assert objective(p, (1.0, 0.0)) == 0.0

    def test_c5_at_two_fifths(self):
        p = Distribution.uniform(5)
        assert objective(p, (0.4,) * 5) == pytest.approx(LG_5_2)

    def test_zero_on_support_is_domain_error(self):
        with pytest.raises(DomainError):
            objective(Distribution.uniform(2), (0.5, 0.0))

    def test_nan_on_support_is_domain_error(self):
        with pytest.raises(DomainError):
            objective(Distribution.uniform(2), (math.nan, 0.5))


class TestLinearMinimizationOracle:
    def test_k2_picks_heavier(self):
        s = linear_minimization_oracle(complete_graph(2), [-1.0, -2.0])
        assert s.sorted_members() == (1,)

    def test_c5_equal_gradient_first_in_order(self):
        s = linear_minimization_oracle(cycle_graph(5), [-1.0] * 5)
        assert s.sorted_members() == (0, 2)

    def test_zero_gradient_first_maximal_set(self):
        s = linear_minimization_oracle(cycle_graph(5), [0.0] * 5)
        assert s.sorted_members() == (0, 2)

    def test_positive_gradient_rejected(self):
        with pytest.raises(ValueError):
            linear_minimization_oracle(complete_graph(2), [1.0, -1.0])


class TestPolytopePoint:
    def test_decomposition_must_match_coords(self):
        g = complete_graph(2)
        good = PolytopePoint(
            (0.5, 0.5),
            ((IndependentSet(g, [0]), 0.5), (IndependentSet(g, [1]), 0.5)),
        )
        assert good.coords == (0.5, 0.5)
        with pytest.raises(ValueError):
            PolytopePoint(
                (0.7, 0.5),
                ((IndependentSet(g, [0]), 0.5), (IndependentSet(g, [1]), 0.5)),
            )

    def test_weights_must_be_convex(self):
        g = complete_graph(2)
        with pytest.raises(ValueError):
            PolytopePoint((1.0, 1.0), ((IndependentSet(g, [0]), 1.0),
                                       (IndependentSet(g, [1]), 1.0)))

    def test_nan_weight_rejected(self):
        g = complete_graph(2)
        with pytest.raises(ValueError, match="negative decomposition weight"):
            PolytopePoint((0.5, 0.5), ((IndependentSet(g, [0]), math.nan),
                                       (IndependentSet(g, [1]), 0.5)))


class TestEntropy:
    def test_empty_graph_is_zero(self):
        for p in (Distribution.uniform(4), Distribution([Fraction(1), 0, 0, 0])):
            res = entropy(empty_graph(4), p)
            assert res.value == 0.0 and res.gap <= 1e-9 and res.converged

    def test_k2_uniform_is_one_bit(self):
        res = entropy(complete_graph(2), Distribution.uniform(2))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.minimizer.coords == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_c5_uniform_matches_log_chi_f(self):
        res = entropy(cycle_graph(5), Distribution.uniform(5))
        chi, _ = fractional_chromatic_number(cycle_graph(5))
        assert res.value == pytest.approx(math.log2(chi), abs=1e-8)

    def test_value_consistent_with_objective(self):
        g = rand_graph(random.Random(0), 7, 0.4)
        p = Distribution.uniform(7)
        res = entropy(g, p)
        assert res.value == pytest.approx(objective(p, res.minimizer), abs=1e-12)

    def test_result_depends_only_on_support_subgraph(self):
        g = path_graph(4)
        p = Distribution([Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)])
        sub = g.induced([0, 2])
        res_full = entropy(g, p)
        res_sub = entropy(sub, Distribution.uniform(2))
        assert res_full.value == pytest.approx(res_sub.value, abs=1e-9)
        assert res_full.minimizer.coords[1] == 0.0

    @pytest.mark.parametrize("zeros", [0, 3], ids=["full support", "three zeros"])
    def test_decomposition_atoms_are_lifted_sets_of_g(self, zeros):
        g = rand_graph(random.Random(11), 12, 0.35)
        w = [0] * zeros + [1] * (g.n - zeros)
        p = Distribution([Fraction(x, sum(w)) for x in w])
        supp = p.support
        sub = g.induced(supp)
        lifted = {
            frozenset(supp[v] for v in s.members) for s in enumerate_maximal_independent_sets(sub)
        }
        res = entropy(g, p)
        assert res.minimizer.decomposition
        for s, _ in res.minimizer.decomposition:
            assert s.graph == g and s == IndependentSet(g, s.members)
            assert s.members in lifted

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            entropy(complete_graph(2), Distribution.uniform(2), tol=-1)

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            entropy(complete_graph(2), Distribution.uniform(2), tol=tol)

    def test_unconverged_flag(self):
        g = rand_graph(random.Random(4), 8, 0.5)
        res = entropy(g, Distribution.uniform(8), max_iter=2)
        assert not res.converged and res.gap > 0
        # even unconverged, value stays a valid upper bound
        assert res.value >= brute_entropy(g, Distribution.uniform(8)) - 1e-8

    def test_step_that_cannot_move_stops_after_one_scan(self, monkeypatch):
        module = importlib.import_module("gelab.entropy")
        calls = []

        def stalled(q, M, lam, a, enter=None):
            calls.append(enter)
            return a

        monkeypatch.setattr(module, "_face_newton_step", stalled)
        res = entropy(cycle_graph(5), Distribution.uniform(5))
        assert len(calls) == 1
        assert not res.converged and res.iterations == 0
        assert res.value - res.gap <= LG_5_2 <= res.value

    def test_gap_brackets_bruteforce(self):
        rng = random.Random(5)
        for _ in range(10):
            g = rand_graph(rng, rng.randint(2, 8), rng.random())
            p = rand_rational_distribution(rng, g.n, strict=False)
            res = entropy(g, p)
            ref = brute_entropy(g, p)
            assert res.value - res.gap <= ref + 1e-9
            assert ref <= res.value + 1e-8


def random_packing_point(rng: random.Random, n_max: int):
    """(q, M, lam) at a random packing point of a seeded graph, or None.

    The graph has 2..n_max vertices and M is its set-by-vertex incidence
    matrix. lam is a random convex combination of maximal independent sets
    that covers every vertex, so that a = lam @ M > 0, and q a random
    distribution. None when the graph has a single maximal set.
    """
    g = rand_graph(rng, rng.randint(2, n_max), rng.random())
    sets = enumerate_maximal_independent_sets(g)
    if len(sets) < 2:
        return None
    M = np.zeros((len(sets), g.n))
    for i, s in enumerate(sets):
        M[i, s.sorted_members()] = 1.0
    lam = np.array([rng.random() if rng.random() < 0.6 else 0.0 for _ in sets])
    for v in range(g.n):  # cover every vertex so that a > 0
        if not (lam @ M)[v]:
            lam[rng.choice([i for i in range(len(sets)) if M[i, v]])] = rng.random() + 0.01
    lam /= lam.sum()
    q = np.array([rng.randint(1, 9) for _ in range(g.n)], dtype=float)
    return q / q.sum(), M, lam


def pairwise_line_searches(rng: random.Random, count: int):
    """(q, a, d, gamma_max) from pairwise directions at random packing points.

    d = M[s] - M[t] with gamma_max the weight of t, as in a pairwise
    conditional-gradient step. Half the cases take the solver's oracle atom s and the
    lightest active atom t (drop steps occur there); the other half take a
    random s and a random active t (many do not descend).
    """
    out = []
    while len(out) < count:
        point = random_packing_point(rng, 9)
        if point is None:
            continue
        q, M, lam = point
        a = lam @ M
        solver_like = rng.random() < 0.5
        s_idx = int(np.argmax(M @ (q / a))) if solver_like else rng.randrange(len(M))
        active = [i for i in range(len(M)) if lam[i] > 0 and i != s_idx]
        if not active:
            continue
        t_idx = min(active, key=lam.__getitem__) if solver_like else rng.choice(active)
        out.append((q, a, M[s_idx] - M[t_idx], float(lam[t_idx])))
    return out


def along(q, a, d, gammas):
    """-sum q*ln(a + gamma*d) for each gamma: the objective in nats."""
    with np.errstate(divide="ignore"):
        return -(q * np.log(a + np.outer(gammas, d))).sum(axis=1)


def slope_at(q, a, d, gamma):
    return float(-(q * d / (a + gamma * d)).sum())


class TestLineSearch:
    def test_exact_step_on_pairwise_directions(self):
        cases = {"interior": 0, "drop": 0, "no descent": 0}
        for q, a, d, gamma_max in pairwise_line_searches(random.Random(12), 300):
            gamma = _line_search(q, a, d, gamma_max)
            assert 0.0 <= gamma <= gamma_max
            if slope_at(q, a, d, 0.0) >= 0.0:
                cases["no descent"] += 1
                assert gamma == 0.0
            elif np.all(a + gamma_max * d > 0) and slope_at(q, a, d, gamma_max) < 0.0:
                cases["drop"] += 1
                assert gamma == gamma_max
            else:
                cases["interior"] += 1
                assert 0.0 < gamma < gamma_max
                scale = float(np.abs(q * d / a).sum())
                assert abs(slope_at(q, a, d, gamma)) <= 1e-9 * scale
            grid = along(q, a, d, np.linspace(0.0, gamma_max, 1000)).min()
            assert along(q, a, d, [gamma])[0] <= grid + 1e-15 * abs(grid)
        assert min(cases.values()) >= 20, cases


def random_faces(rng: random.Random, count: int):
    """(q, M, lam) at random packing points of seeded graphs with n <= 12.

    A third of the active weights are scaled down 1000-fold, so that steps
    often reach their bound.
    """
    out = []
    while len(out) < count:
        point = random_packing_point(rng, 12)
        if point is None:
            continue
        q, M, lam = point
        lam[[i for i in np.flatnonzero(lam) if rng.random() < 1 / 3]] *= 1e-3
        out.append((q, M, lam / lam.sum()))
    return out


def nats(q, a):
    return float(-(q * np.log(a)).sum())


class TestFaceNewtonStep:
    def test_stays_in_simplex_and_never_increases_the_objective(self):
        moved = 0
        for q, M, lam in random_faces(random.Random(16), 300):
            a = lam @ M
            new = lam.copy()
            new_a = _face_newton_step(q, M, new, a)
            assert np.all(new >= 0.0)
            assert abs(new.sum() - 1.0) <= 1e-12
            assert not np.any(new[lam == 0.0])  # the step stays on the face
            np.testing.assert_allclose(new_a, new @ M, rtol=0, atol=1e-15)
            assert nats(q, new_a) <= nats(q, a) + 1e-15 * abs(nats(q, a))
            moved += nats(q, new_a) < nats(q, a)
        assert moved >= 200

    def test_entering_oracle_atom(self):
        # enter is the oracle's set at faces where it has zero weight; the step
        # either brings it in or leaves it out and is then the step on W alone
        branches = {"enters": 0, "stays out": 0}
        for q, M, lam in random_faces(random.Random(21), 600):
            a = lam @ M
            enter = int(np.argmax(M @ (q / a)))
            if lam[enter]:
                continue
            new = lam.copy()
            new_a = _face_newton_step(q, M, new, a, enter)
            assert np.all(new >= 0.0)
            assert abs(new.sum() - 1.0) <= 1e-12
            outside = lam == 0.0
            outside[enter] = False
            assert not np.any(new[outside])  # only W and enter carry weight
            assert nats(q, new_a) <= nats(q, a) + 1e-15 * abs(nats(q, a))
            if new[enter] > 0.0:
                branches["enters"] += 1
            else:
                branches["stays out"] += 1
                plain = lam.copy()
                plain_a = _face_newton_step(q, M, plain, a)
                assert np.array_equal(new, plain) and np.array_equal(new_a, plain_a)
        assert branches["enters"] >= 50 and branches["stays out"] >= 20, branches

    def test_atom_reaching_its_bound_leaves_at_exactly_zero(self, monkeypatch):
        module = importlib.import_module("gelab.entropy")
        searches = []

        def recording(q, a, d, gamma_max):
            gamma = _line_search(q, a, d, gamma_max)
            searches.append(gamma == gamma_max)
            return gamma

        monkeypatch.setattr(module, "_line_search", recording)
        bound_steps = 0
        for q, M, lam in random_faces(random.Random(17), 300):
            new = lam.copy()
            _face_newton_step(q, M, new, lam @ M)
            if searches and searches.pop():
                bound_steps += 1
                assert np.count_nonzero(new) < np.count_nonzero(lam)
        assert bound_steps >= 50

    def test_tied_atoms_reaching_their_bound_never_go_negative(self):
        # sets {0}, {0} and {0, 1}: the two copies shrink at the same rate up
        # to rounding, and the objective falls until both reach zero; computed
        # as lam + gamma * step, the later copy came out at -1e-17 now and then
        M = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        rng = random.Random(18)
        for _ in range(2000):
            x, q0 = rng.uniform(0.01, 0.49), rng.uniform(0.1, 0.9)
            lam = np.array([x, x, 1.0 - 2.0 * x])
            _face_newton_step(np.array([q0, 1.0 - q0]), M, lam, lam @ M)
            assert min(lam[0], lam[1]) == 0.0 and max(lam[0], lam[1]) <= 1e-12
            assert lam[0] >= 0.0 and lam[1] >= 0.0
            assert abs(lam.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("distribution", ["uniform", "rational"])
    def test_converges_in_tens_of_iterations_on_g_40(self, distribution):
        # pairwise steps alone take about 3,900 iterations on this graph
        g = rand_graph(random.Random(1), 40, 0.2)
        if distribution == "uniform":
            p = Distribution.uniform(40)
        else:
            p = rand_rational_distribution(random.Random(1), 40, m_max=200)
        res = entropy(g, p)
        assert res.converged and res.iterations <= 100


class TestBracket:
    """[value - gap, value] holds the true entropy whether or not it converged."""

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 20])
    def test_unconverged_runs_keep_both_sides(self, max_iter):
        rng = random.Random(13)
        for _ in range(10):
            g = rand_graph(rng, rng.randint(2, 9), rng.random())
            p = rand_rational_distribution(rng, g.n, strict=False)
            res = entropy(g, p, max_iter=max_iter)
            ref = brute_entropy(g, p)
            assert res.value - res.gap <= ref + 1e-9
            assert ref <= res.value + 1e-8
            assert res.converged == (res.gap <= 1e-9)

    def test_negative_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="iteration cap must be nonnegative"):
            entropy(cycle_graph(5), Distribution.uniform(5), max_iter=-3)

    @pytest.mark.parametrize("graph, alpha", [(cycle_graph(5), 2), (petersen(), 4)])
    def test_tiny_tolerance_returns_a_valid_bracket(self, graph, alpha):
        res = entropy(graph, Distribution.uniform(graph.n), tol=1e-15, max_iter=2000)
        exact = math.log2(graph.n / alpha)
        assert res.value - res.gap <= exact + 1e-12
        assert exact <= res.value + 1e-12
        assert res.converged == (res.gap <= 1e-15)

    @pytest.mark.parametrize(
        "graph, h",
        [pytest.param(complete_graph(n), lg40(Fraction(n)), id=f"K{n}") for n in range(2, 13)]
        + [
            pytest.param(cycle_graph(n), lg40(Fraction(n, n // 2)), id=f"C{n}")
            for n in range(4, 16)
        ]
        + [pytest.param(kneser(5, 2), lg40(Fraction(5, 2)), id="K(5,2)")]
        # the minimizer on P3 is a = (2/3, 1/3, 2/3)
        + [pytest.param(path_graph(3), lg40(Fraction(3), minus=Fraction(2, 3)), id="P3")],
    )
    def test_bracket_holds_the_exact_value(self, graph, h):
        # uniform P against closed forms at 40 digits (lg chi_f on the
        # vertex-transitive graphs); with no rounding pad, K7 and C6 returned
        # a value below H with gap 0
        res = entropy(graph, Distribution.uniform(graph.n))
        assert res.converged and res.gap <= 1e-9
        assert Decimal(res.value) - Decimal(res.gap) <= h <= Decimal(res.value)


class TestClosedForms:
    """Large-n checks against values that share no code with the solver."""

    @pytest.mark.parametrize(
        "graph, alpha",
        [(kneser(6, 2), 5), (kneser(7, 2), 6), (circulant(24, (1, 2)), 8)]
        + [(cycle_graph(n), (n - 1) // 2) for n in (15, 17, 19, 21)],
    )
    def test_vertex_transitive_uniform_is_lg_n_over_alpha(self, graph, alpha):
        res = entropy(graph, Distribution.uniform(graph.n))
        exact = math.log2(graph.n / alpha)
        assert res.converged
        # 1e-12 absorbs rounding when the solver lands on the optimum exactly
        assert res.value - res.gap <= exact + 1e-12
        assert exact <= res.value + 1e-12

    def test_kneser_8_3_uniform_is_lg_8_over_3(self):
        graph = kneser(8, 3)  # 56 vertices, alpha = 21 (Erdos-Ko-Rado)
        res = entropy(graph, Distribution.uniform(graph.n), cap=graph.n)
        exact = math.log2(8 / 3)
        assert res.converged
        assert res.value - res.gap <= exact + 1e-12
        assert exact <= res.value + 1e-12

    def test_perfect_graph_identity_on_bipartite_graphs(self):
        rng = random.Random(14)
        for _ in range(6):
            n = rng.randint(20, 30)
            g = rand_bipartite(rng, n, rng.uniform(0.2, 0.5))
            p = rand_rational_distribution(rng, n, strict=False)
            h_p = -sum(float(w) * math.log2(float(w)) for w in p.weights if w)
            res, co = entropy(g, p), entropy(complement(g), p)
            assert res.converged and co.converged
            assert abs(res.value + co.value - h_p) <= res.gap + co.gap + 1e-9

    def test_perfect_graph_identity_on_chordal_graphs(self):
        rng = random.Random(15)
        for _ in range(8):
            n = rng.randint(20, 40)
            g = rand_chordal(rng, n, rng.uniform(0.3, 0.9))
            p = rand_rational_distribution(rng, n, m_max=120, strict=False)
            h_p = -sum(float(w) * math.log2(float(w)) for w in p.weights if w)
            res, co = entropy(g, p), entropy(complement(g), p)
            assert res.converged and co.converged
            assert abs(res.value + co.value - h_p) <= res.gap + co.gap + 1e-9

    def test_comparability_graph_identity_on_random_posets(self):
        # comparability graphs are perfect. Half the posets are unions of
        # incomparable runs: H(G) then runs part by part, while the
        # complement, a join, is connected and runs over one family
        rng = random.Random(16)
        split = 0
        for t in range(6):
            n = rng.randint(20, 40)
            g = rand_comparability(rng, n, rng.uniform(0.1, 0.4), posets=1 + t % 3)
            p = rand_rational_distribution(rng, n, m_max=3 * n)
            split += len(_parts_of(g)) >= 2
            assert len(_parts_of(complement(g))) == 1
            h_p = -sum(float(w) * math.log2(float(w)) for w in p.weights if w)
            res, co = entropy(g, p), entropy(complement(g), p)
            assert res.converged and co.converged
            assert abs(res.value + co.value - h_p) <= res.gap + co.gap + 1e-9
        assert split >= 3

    def test_union_of_vertex_transitive_parts_and_an_isolated_vertex(self):
        # H = sum (n_i / n) lg(n_i / alpha_i) over K(6,2), C9, K4 and K1
        parts = [(kneser(6, 2), 5), (cycle_graph(9), 4), (complete_graph(4), 1), (empty_graph(1), 1)]
        graph = disjoint_union(*(part for part, _ in parts))
        n = graph.n
        with localcontext() as ctx:
            ctx.prec = 40
            h = sum(Decimal(part.n) / n * lg40(Fraction(part.n, alpha)) for part, alpha in parts)
        res = entropy(graph, Distribution.uniform(n))
        assert res.converged and res.gap <= 1e-9
        assert Decimal(res.value) - Decimal(res.gap) <= h <= Decimal(res.value)

    def test_support_that_splits_a_connected_graph(self):
        # C6 on {0, 1, 3, 4} is the two edges 0-1 and 3-4: exactly one bit
        q = Fraction(1, 4)
        res = entropy(cycle_graph(6), Distribution([q, q, 0, q, q, 0]))
        assert res.converged
        assert Decimal(res.value) - Decimal(res.gap) <= 1 <= Decimal(res.value)
        assert res.minimizer.coords == pytest.approx((0.5, 0.5, 0.0, 0.5, 0.5, 0.0), abs=1e-12)


class TestEntropyLaws:
    def test_monotone_under_spanning_subgraph(self):
        rng = random.Random(6)
        for _ in range(20):
            g = rand_graph(rng, rng.randint(2, 8), 0.6)
            f = rand_spanning_subgraph(rng, g)
            p = rand_rational_distribution(rng, g.n)
            hf = entropy(f, p)
            hg = entropy(g, p)
            assert hf.value <= hg.value + 2e-9

    def test_subadditive_under_union(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 8)
            f = rand_graph(rng, n, 0.4)
            g = rand_graph(rng, n, 0.4)
            p = rand_rational_distribution(rng, n)
            lhs = entropy(union(f, g), p).value
            rhs = entropy(f, p).value + entropy(g, p).value
            assert lhs <= rhs + 3e-9

    def test_bounded_by_log_chi_f_of_support(self):
        rng = random.Random(8)
        for _ in range(20):
            g = rand_graph(rng, rng.randint(2, 9), rng.random())
            p = rand_rational_distribution(rng, g.n, strict=False)
            sub = g.induced(p.support)
            chi, _ = fractional_chromatic_number(sub)
            res = entropy(g, p)
            assert res.value <= math.log2(chi) + 1e-9 + res.gap

    def test_continuity_within_papers_delta(self):
        rng = random.Random(9)
        for _ in range(5):
            g = rand_graph(rng, rng.randint(3, 7), 0.5)
            p = rand_rational_distribution(rng, g.n)
            base = entropy(g, p)
            for eps in (0.1, 0.01):
                delta = continuity_delta(p, base.value, eps)
                for _ in range(3):
                    q = perturb_within(rng, p, delta)
                    moved = entropy(g, q)
                    assert abs(moved.value - base.value) < eps + 2e-9
