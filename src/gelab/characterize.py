"""Certified decisions: is P an entropy maximizer, and is a graph symmetric.

Both questions reduce to one exact LP, so no floating point enters the
verdicts. With S = supp P and alpha_P the maximum P-weight of an
independent set, P maximizes the entropy of G exactly when
chi_f(G[S]) * alpha_P = 1 (p / alpha_P is a fractional clique, so the
product is never below 1). Then any optimal fractional coloring x of G[S]
is the certificate: 1 = sum_v p_v <= sum_T x_T P(T) <= alpha_P sum_T x_T = 1
forces every vertex of S to be covered exactly once, by sets of P-weight
alpha_P, so its sets taken r*x_T times, r the common denominator of x,
cover S exactly r times. On a support of several parts, chi_f is the
largest of the parts' and alpha_P the sum of theirs; both are solved part
by part, chi_f still by one LP. A graph is symmetric when the uniform
distribution maximizes, i.e. when chi_f = n / alpha: `is_symmetric` is one
call of `is_entropy_maximizer` with the uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotRational
from .exactlp import CoverMultiset, fractional_chromatic_number
from .graphs import (
    Distribution, Graph, IndependentSet, _check_vertex_cap, _lift, max_weighted_independent_set
)

REASON_NO_UNIFORM_COVER = "NoUniformCover"


@dataclass(frozen=True)
class MaximizerVerdict:
    """Whether P maximizes H(G, .), with an exact certificate when it does."""

    is_maximizer: bool
    chi_f_support: Fraction
    alpha_p: Fraction
    certificate: CoverMultiset | None
    reason: str | None


@dataclass(frozen=True)
class SymmetryVerdict:
    """Whether the uniform distribution maximizes H(G, .)."""

    is_symmetric: bool
    chi_f: Fraction
    n_over_alpha: Fraction
    certificate: CoverMultiset | None


def is_entropy_maximizer(g: Graph, p: Distribution, cap: int | None = None) -> MaximizerVerdict:
    """Decide exactly whether P maximizes the entropy of G.

    Works on the support-induced subgraph G[supp P], with P restricted to
    it: the verdict is chi_f(G[supp P]) * alpha_P == 1 in exact rationals.
    Both factors split that subgraph into its parts (`graphs._split_families`)
    and read each part's family on the part's own labels: chi_f is the
    largest of the parts' and alpha_P the sum of theirs, and neither is
    solved over the product of the parts' families. On a yes,
    the optimal fractional coloring covers the support exactly once (see
    the module docstring); lifted back to G (`graphs._lift`) and scaled
    to integers r*x, it is the r-fold cover certificate. The integers are
    the LP's own, den*x over den, which the coloring keeps: with
    c = gcd(den, every den*x_T), the multiplicities are den*x_T / c and
    the fold is r = den / c, the common denominator of x, so no common
    denominator is taken again; `CoverMultiset` checks the coverage. A
    full support's subgraph is G itself, and its coloring's sets are G's
    as they are: only a partial support's are lifted and checked again.
    That coloring is the merged one of
    `exactlp.fractional_chromatic_number`, one part or several, whose sets
    are maximal.
    """
    if not p.exact:
        raise NotRational("exact-rational distribution required for the decision")
    if p.n != g.n:
        raise ValueError("distribution length differs from vertex count")
    supp = p.support
    sub = g.induced(supp)
    chi_supp, coloring = fractional_chromatic_number(sub, cap)
    alpha_p = max_weighted_independent_set(sub, [p[v] for v in supp], cap).value
    if chi_supp * alpha_p != 1:
        return MaximizerVerdict(
            is_maximizer=False,
            chi_f_support=chi_supp,
            alpha_p=alpha_p,
            certificate=None,
            reason=REASON_NO_UNIFORM_COVER,
        )
    sets = coloring.weights
    if sub is not g:
        sets = [IndependentSet._from_mask(g, _lift(s.mask, supp)) for s in sets]
    den, counts = coloring._integers
    scale = math.gcd(den, *counts)
    certificate = CoverMultiset({s: k // scale for s, k in zip(sets, counts)}, den // scale, supp)
    return MaximizerVerdict(
        is_maximizer=True,
        chi_f_support=chi_supp,
        alpha_p=alpha_p,
        certificate=certificate,
        reason=None,
    )


def is_symmetric(g: Graph, cap: int | None = None) -> SymmetryVerdict:
    """Decide exactly whether the uniform distribution maximizes H(G, .).

    One call of `is_entropy_maximizer` with the uniform distribution: then
    alpha_P = alpha/n, so the verdict is chi_f == n/alpha, and on a yes the
    certificate covers every vertex exactly once with maximum independent
    sets. The vertex cap is checked first, before the uniform distribution
    on all n vertices is built.
    """
    if g.n == 0:
        raise ValueError("symmetry of the empty graph is undefined")
    _check_vertex_cap(g, cap)
    v = is_entropy_maximizer(g, Distribution.uniform(g.n), cap)
    return SymmetryVerdict(v.is_maximizer, v.chi_f_support, 1 / v.alpha_p, v.certificate)
