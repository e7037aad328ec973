"""Maximizer and symmetry decisions with certificate verification."""

import itertools
import random
from fractions import Fraction

import pytest

from gelab.characterize import (
    is_entropy_maximizer,
    is_symmetric,
)
from gelab.errors import CapExceeded, NotRational
from gelab.exactlp import b_fold_realization
from gelab.graphs import (
    Distribution,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from gelab.oracle import verify_certificate

from helpers import (
    complete_bipartite,
    entropy_equals_log_chi_f,
    hypercube_q3,
    kneser,
    petersen,
    rand_graph,
    rand_rational_distribution,
)


class TestIsEntropyMaximizer:
    def test_c5_uniform(self):
        v = is_entropy_maximizer(cycle_graph(5), Distribution.uniform(5))
        assert v.is_maximizer
        assert v.chi_f_support == Fraction(5, 2)
        assert v.alpha_p == Fraction(2, 5)
        assert v.certificate.size == 5 and v.certificate.fold == 2
        assert verify_certificate(cycle_graph(5), Distribution.uniform(5), v.certificate)

    def test_p3_uniform_not(self):
        v = is_entropy_maximizer(path_graph(3), Distribution.uniform(3))
        assert not v.is_maximizer
        assert v.reason == "NoUniformCover"
        assert v.certificate is None

    def test_point_mass_always_maximizes(self):
        g = rand_graph(random.Random(0), 6, 0.5)
        p = Distribution([Fraction(1)] + [Fraction(0)] * 5)
        v = is_entropy_maximizer(g, p)
        assert v.is_maximizer
        assert v.chi_f_support == 1
        assert v.certificate.fold == 1
        assert v.certificate.covered == frozenset({0})

    def test_certificate_sets_attain_alpha_p(self):
        rng = random.Random(1)
        hits = 0
        for _ in range(40):
            g = rand_graph(rng, rng.randint(2, 7), rng.random())
            p = rand_rational_distribution(rng, g.n, strict=False)
            v = is_entropy_maximizer(g, p)
            if not v.is_maximizer:
                continue
            hits += 1
            for s in v.certificate.multiplicities:
                assert s.weight(p.weights) == v.alpha_p
            assert v.certificate.covered == frozenset(p.support)
            assert verify_certificate(g, p, v.certificate)
        assert hits  # the sweep must exercise some positive verdicts

    def test_requires_exact_distribution(self):
        with pytest.raises(NotRational):
            is_entropy_maximizer(complete_graph(2), Distribution([0.5, 0.5]))


class TestIsSymmetric:
    def test_examples(self):
        assert is_symmetric(cycle_graph(5)).is_symmetric
        assert not is_symmetric(path_graph(3)).is_symmetric
        assert is_symmetric(complete_graph(1)).is_symmetric
        assert is_symmetric(complete_graph(6)).is_symmetric

    def test_vertex_cap_is_checked_before_the_uniform_distribution(self, monkeypatch):
        def fail(n):
            raise AssertionError("uniform distribution built before the vertex cap")

        monkeypatch.delenv("GELAB_CAP", raising=False)
        monkeypatch.setattr(Distribution, "uniform", staticmethod(fail))
        with pytest.raises(CapExceeded, match="graph has 41 vertices"):
            is_symmetric(empty_graph(41))

    def test_p3_values(self):
        v = is_symmetric(path_graph(3))
        assert v.chi_f == 2 and v.n_over_alpha == Fraction(3, 2)
        assert v.certificate is None

    def test_vertex_transitive_families(self):
        for g in (
            cycle_graph(5),
            cycle_graph(7),
            complete_graph(5),
            petersen(),
            complete_bipartite(3, 3),
            hypercube_q3(),
        ):
            v = is_symmetric(g)
            assert v.is_symmetric
            assert verify_certificate(g, Distribution.uniform(g.n), v.certificate)

    def test_kneser_8_3_closed_form_at_56_vertices(self):
        # K(m,k) with m > 2k: chi_f = m/k, and by Erdos-Ko-Rado the maximum
        # independent sets are exactly the m stars {S : i in S}
        m, k = 8, 3
        g = kneser(m, k)
        subsets = list(itertools.combinations(range(m), k))
        stars = {sum(1 << j for j, s in enumerate(subsets) if i in s) for i in range(m)}
        cm = b_fold_realization(g, cap=56)
        assert Fraction(cm.size, cm.fold) == Fraction(m, k)
        for v in range(g.n):
            assert sum(mult for s, mult in cm.multiplicities.items() if v in s) == cm.fold
        verdict = is_symmetric(g, cap=56)
        assert verdict.is_symmetric and verdict.chi_f == Fraction(m, k)
        # verify_certificate's own maximum is a scan of all 2^n subsets, so
        # at n = 56 its three checks are made here with the stars instead:
        # independent sets of maximum weight, covering every vertex `fold` times
        cert = verdict.certificate
        assert cert.covered == frozenset(range(g.n))
        for s in cert.multiplicities:
            assert not any(g.has_edge(a, b) for a, b in itertools.combinations(s.sorted_members(), 2))
            assert s.mask in stars
        for v in range(g.n):
            assert sum(mult for s, mult in cert.multiplicities.items() if v in s) == cert.fold

    def test_specializes_maximizer_with_uniform(self):
        rng = random.Random(2)
        for _ in range(40):
            g = rand_graph(rng, rng.randint(1, 7), rng.random())
            sym = is_symmetric(g).is_symmetric
            maxi = is_entropy_maximizer(g, Distribution.uniform(g.n)).is_maximizer
            assert sym == maxi


class TestEntropyEqualsLogChiF:
    def test_examples(self):
        assert entropy_equals_log_chi_f(cycle_graph(5), Distribution.uniform(5), 1e-6)
        assert not entropy_equals_log_chi_f(path_graph(3), Distribution.uniform(3), 1e-6)
        p = Distribution([Fraction(1), Fraction(0)])
        assert entropy_equals_log_chi_f(complete_graph(2), p, 1e-6)

    def test_agreement_with_decision(self):
        rng = random.Random(3)
        for _ in range(30):
            g = rand_graph(rng, rng.randint(2, 7), rng.random())
            p = rand_rational_distribution(rng, g.n, strict=False)
            verdict = is_entropy_maximizer(g, p).is_maximizer
            numeric = entropy_equals_log_chi_f(g, p, 1e-6)
            assert verdict == numeric
