"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The corpus fixtures generate every non-isomorphic connected
graph up to 8 vertices in-process (about half a minute, cached for the
session); the full module takes several minutes.
"""

import math
import random
from fractions import Fraction

from gelab.characterize import is_entropy_maximizer, is_symmetric
from gelab.constructions import GadgetSpec, blow_up, hardness_gadget, substitute, \
    substitute_distribution, union
from gelab.entropy import entropy
from gelab.exactlp import b_fold_realization, fractional_chromatic_number
from gelab.graphs import Distribution, alpha, complete_graph, cycle_graph
from gelab.oracle import brute_alpha, brute_entropy, verify_certificate

from helpers import (
    continuity_delta,
    perturb_within,
    rand_graph,
    rand_rational_distribution,
    rand_spanning_subgraph,
)

GADGET_CAP = 64  # gadgets reach (k-1)(n+1) = 56 vertices; default cap is 40


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_characterization_equivalence(corpus8):
    checked = 0
    margin_true = math.inf   # worst |H - lg chi_f| among maximizers
    margin_false = math.inf  # closest approach among non-maximizers
    for g in corpus8:
        p = Distribution.uniform(g.n)
        verdict = is_entropy_maximizer(g, p)
        res = entropy(g, p)
        assert res.converged, f"solver did not converge on {g.edges}"
        dist = abs(res.value - math.log2(verdict.chi_f_support))
        numeric = dist <= 1e-6
        assert numeric == verdict.is_maximizer, (
            f"disagreement on {g.edges}: verdict={verdict.is_maximizer}, "
            f"|H - lg chi_f| = {dist:.3e}"
        )
        if verdict.is_maximizer:
            margin_true = min(margin_true, 1e-6 - dist)
        else:
            margin_false = min(margin_false, dist)
        checked += 1

    rng = random.Random(20250101)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        p = rand_rational_distribution(rng, n, strict=False)
        verdict = is_entropy_maximizer(g, p)
        res = entropy(g, p)
        assert res.converged
        numeric = abs(res.value - math.log2(verdict.chi_f_support)) <= 1e-6
        assert numeric == verdict.is_maximizer, (g.edges, p.weights)
        checked += 1

    report(1, f"{checked} (graph, P) pairs, zero disagreements "
              f"(closest non-maximizer at {margin_false:.2e} bits)")


def test_criterion_2_symmetry_iff(corpus8):
    symmetric_count = 0
    for g in corpus8:
        verdict = is_symmetric(g)
        expected = verdict.chi_f == Fraction(g.n, brute_alpha(g))
        assert verdict.is_symmetric == expected, g.edges
        if verdict.is_symmetric:
            ok = verify_certificate(g, Distribution.uniform(g.n), verdict.certificate)
            assert ok, (g.edges, ok.reasons)
            symmetric_count += 1
    report(2, f"{len(corpus8)} graphs, {symmetric_count} symmetric, "
              f"all certificates verified")


def test_criterion_3_simonyi_upper_bound():
    rng = random.Random(3141)
    worst = -math.inf
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = rand_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
        p = rand_rational_distribution(rng, n, strict=rng.random() < 0.5)
        sub = g.induced(p.support)
        chi = fractional_chromatic_number(sub)[0]
        res = entropy(g, p)
        slack = res.value - math.log2(chi)
        worst = max(worst, slack - res.gap)
        assert slack <= 1e-9 + res.gap, (g.edges, p.weights, slack, res.gap)
    report(3, f"1000 pairs, H <= lg chi_f(support) + 1e-9 + gap throughout "
              f"(max overshoot beyond gap {worst:.2e})")


def test_criterion_4_solver_accuracy(corpus6, corpus8):
    # corpus slice for the brute-force oracle: everything up to 6 vertices,
    # a deterministic sample of the 7- and 8-vertex classes, and random
    # graphs on 9..10 vertices matching the random corpus of criterion 1
    rng = random.Random(424242)
    graphs_7_8 = [g for g in corpus8 if g.n >= 7]
    sample = [g for g in corpus6] + rng.sample(graphs_7_8, 150)
    cases = [(g, Distribution.uniform(g.n)) for g in sample]
    for _ in range(60):
        n = rng.randint(9, 10)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        cases.append((g, rand_rational_distribution(rng, n, strict=False)))
    for g, p in cases:
        res = entropy(g, p, tol=1e-9)
        assert res.converged
        ref = brute_entropy(g, p)
        lo, hi = res.value - res.gap, res.value
        assert ref - 1e-8 <= hi and lo <= ref + 1e-8, (
            f"bracket miss on {g.edges}: [{lo}, {hi}] vs {ref} +- 1e-8"
        )

    c5 = entropy(cycle_graph(5), Distribution.uniform(5))
    assert abs(c5.value - math.log2(2.5)) <= 1e-8
    for n in range(1, 9):
        kn = entropy(complete_graph(n), Distribution.uniform(n))
        assert abs(kn.value - math.log2(n)) <= 1e-8, n
    report(4, f"{len(cases)} oracle brackets intersect, H(C5)=lg 5/2 and "
              f"H(K_n)=lg n (n<=8) within 1e-8")


def test_criterion_5_substitution_additivity():
    rng = random.Random(55555)
    worst = 0.0
    for _ in range(200):
        n_g = rng.randint(2, 6)
        n_f = rng.randint(1, 6)
        g = rand_graph(rng, n_g, rng.choice([0.3, 0.5, 0.7]))
        f = rand_graph(rng, n_f, rng.choice([0.3, 0.5, 0.7]))
        v = rng.randrange(n_g)
        p = rand_rational_distribution(rng, n_g)
        q = rand_rational_distribution(rng, n_f)
        composed = substitute(g, v, f)
        pq = substitute_distribution(p, v, q)
        lhs = entropy(composed.graph, pq).value
        rhs = entropy(g, p).value + float(p[v]) * entropy(f, q).value
        err = abs(lhs - rhs)
        worst = max(worst, err)
        assert err <= 3e-9, (g.edges, f.edges, v, err)
    report(5, f"200 substitutions, additivity gap <= 3e-9 (worst {worst:.2e})")


def test_criterion_6_monotonicity_and_subadditivity():
    rng = random.Random(66666)
    worst_mono = -math.inf
    for _ in range(500):
        n = rng.randint(2, 9)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        f = rand_spanning_subgraph(rng, g)
        p = rand_rational_distribution(rng, n, strict=False)
        hf = entropy(f, p).value
        hg = entropy(g, p).value
        worst_mono = max(worst_mono, hf - hg)
        assert hf <= hg + 3e-9, (g.edges, f.edges)

    worst_sub = -math.inf
    for _ in range(500):
        n = rng.randint(2, 9)
        f = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        g = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        p = rand_rational_distribution(rng, n, strict=False)
        lhs = entropy(union(f, g), p).value
        rhs = entropy(f, p).value + entropy(g, p).value
        worst_sub = max(worst_sub, lhs - rhs)
        assert lhs <= rhs + 3e-9, (f.edges, g.edges)
    report(6, f"500+500 pairs, monotone (worst excess {worst_mono:.2e}) and "
              f"sub-additive (worst excess {worst_sub:.2e}) within 3e-9")


def test_criterion_7_hardness_gadget_iff(corpus7):
    gadgets = 0
    for f in corpus7:
        af = brute_alpha(f)
        for k in range(2, f.n + 2):
            g = hardness_gadget(GadgetSpec(f, k))
            verdict = is_symmetric(g, cap=GADGET_CAP)
            expected = af <= k - 1
            assert verdict.is_symmetric == expected, (f.edges, k)
            a_gadget = alpha(g, cap=GADGET_CAP).value
            assert a_gadget == max(af, k - 1), (f.edges, k, a_gadget)
            gadgets += 1
    report(7, f"{gadgets} gadgets from {len(corpus7)} base graphs, "
              f"symmetry iff alpha(F) <= k-1 and alpha identity exact")


def test_criterion_8_blowup_identity():
    rng = random.Random(88888)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(2, 6)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        m = rng.randint(n, 12)
        counts = [1] * n
        for _ in range(m - n):
            counts[rng.randrange(n)] += 1
        p = Distribution([Fraction(c, m) for c in counts])
        blown, spec = blow_up(g, p)
        # the canonical denominator (lcm) divides the one used to sample
        assert blown.n == spec.m and m % spec.m == 0
        h_blown = entropy(blown, Distribution.uniform(spec.m)).value
        h_orig = entropy(g, p).value
        err = abs(h_blown - h_orig)
        worst = max(worst, err)
        assert err <= 2e-9, (g.edges, p.weights, err)
        assert fractional_chromatic_number(g)[0] <= fractional_chromatic_number(blown)[0]
    report(8, f"200 blow-ups (m <= 12), |H(G',U) - H(G,P)| <= 2e-9 "
              f"(worst {worst:.2e}), chi_f monotone under blow-up")


def test_criterion_9_continuity_bound():
    rng = random.Random(99999)
    for _ in range(100):
        n = rng.randint(3, 8)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        p = rand_rational_distribution(rng, n, strict=True)
        base = entropy(g, p)
        for eps in (0.1, 0.01):
            delta = continuity_delta(p, base.value, eps)
            for _ in range(20):
                q = perturb_within(rng, p, delta)
                moved = entropy(g, q)
                assert abs(moved.value - base.value) < eps + 2e-9, (
                    g.edges, p.weights, eps
                )
    report(9, "100 distributions x {0.1, 0.01} x 20 perturbations within "
              "the stated delta, |dH| < eps + 2e-9 throughout")


def test_criterion_10_b_fold_realization(corpus8):
    for g in corpus8:
        chi = fractional_chromatic_number(g)[0]
        cm = b_fold_realization(g)
        assert Fraction(cm.size, cm.fold) == chi, g.edges
        # a valid b-fold coloring: every vertex in exactly `fold` classes
        # (class independence is enforced by the IndependentSet type, so
        # adjacent vertices get disjoint color sets)
        for v in range(g.n):
            got = sum(m for s, m in cm.multiplicities.items() if v in s)
            assert got == cm.fold, (g.edges, v)
    report(10, f"{len(corpus8)} graphs, |S|/fold = chi_f exactly with "
               f"disjoint per-vertex color assignments")
