"""Graph entropy by conditional-gradient minimization over the packing polytope.

H(G,P) is the minimum of sum_v p_v * lg(1/a_v) over points a of the vertex
packing polytope. The polytope has exponentially many facets but a cheap
linear oracle (a maximum weighted independent set), which is exactly the
setting for conditional-gradient methods: each iteration asks the oracle
for the best polytope vertex against the current gradient, takes an exact
line-search step, and reads off a duality-gap certificate bounding how far
the current value can be from the true optimum.

The support-induced subgraph is solved part by part (its components with
an edge, the isolated vertices in the first): H(G,P) = sum_i P(V_i) *
H(G_i, P_i), with P_i the restriction of P to part i renormalized
(Simonyi, "Graph entropy: a survey", DIMACS Series 20, 1995), so each part
is minimized over its own maximal independent sets, never over their
product. On each part, each iteration makes one full scan of every
maximal independent set of the part (the oracle and the gap) and then one
step: a Newton step on the face spanned by the active sets plus the
oracle's set. This is simplicial decomposition
(Von Hohenbalken, Math. Programming 1977) with a single Newton step per
round on the mixture weights: on a face the objective is a log-likelihood
over mixture weights, which Newton's method minimizes in a few steps (Wang,
JRSS-B 2007), where plain conditional-gradient steps zigzag for thousands
whenever the optimum sits on a face spanned by tied independent sets
(ubiquitous here: any vertex-transitive subgraph produces such ties). The
Newton direction may shrink any active set to zero, so sets the optimum
does not need leave the decomposition. The step takes the exact minimizer
along its direction, found by safeguarded Newton on the derivative, and
never increases the objective. The reported certificate is the standard
toward-step duality gap of the last scan, each part's weighted by its
mass P(V_i).

Everything is computed on the subgraph induced by the support of P; the
minimum provably depends on nothing else. Logarithms are base 2 throughout,
so H(K2, uniform) is exactly one bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import (
    Distribution,
    Graph,
    IndependentSet,
    _check_independent,
    _common_denominator,
    _greedy_cover_indices,
    _incidence,
    _lift,
    _refinement,
    _split_families,
    enumerate_maximal_independent_sets,
)

_LN2 = math.log(2)
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10**6


@dataclass(frozen=True)
class PolytopePoint:
    """A packing-polytope point with an explicit convex decomposition.

    The decomposition (independent sets and weights summing to one) is the
    membership certificate. On construction, in this order, each check
    raising ValueError:

    - every weight is >= 0, so none is negative or NaN ("negative
      decomposition weight");
    - every set's members lie in 0..len(coords)-1 ("a decomposition set has
      a member outside ...");
    - the weights sum to 1 within 1e-12, so none is inf ("decomposition
      weights sum to ...");
    - every coordinate equals the weighted sum of the sets' characteristic
      vectors within 1e-12, so none is NaN or inf ("coords do not match the
      decomposition").

    The range check reads the sets' bitmasks, and the coordinate check
    their 0/1 matrix (`graphs._incidence`); no set's member set is built.
    """

    coords: tuple[float, ...]
    decomposition: tuple[tuple[IndependentSet, float], ...]

    def __post_init__(self):
        n = len(self.coords)
        masks = [s.mask for s, _ in self.decomposition]
        weights = [w for _, w in self.decomposition]
        if not all(w >= 0 for w in weights):  # NaN fails this too
            raise ValueError("negative decomposition weight")
        if masks and max(masks) >> n:  # the matrix would drop those bits
            raise ValueError(f"a decomposition set has a member outside 0..{n - 1}")
        wsum = math.fsum(weights)
        if abs(wsum - 1.0) > 1e-12:
            raise ValueError(f"decomposition weights sum to {wsum!r}")
        acc = np.array(weights, dtype=np.float64) @ _incidence(masks, n)
        # a NaN coordinate makes the max NaN, which fails the test
        if not np.abs(acc - np.array(self.coords, dtype=np.float64)).max(initial=0.0) <= 1e-12:
            raise ValueError("coords do not match the decomposition")


@dataclass(frozen=True)
class EntropyResult:
    """Entropy value in bits with its minimizer and suboptimality certificate.

    The true optimum lies in [value - gap, value]; `converged` is True
    exactly when gap <= tol. `iterations` counts scan-and-step rounds over
    all parts of the support (see `entropy`).
    """

    value: float
    minimizer: PolytopePoint
    gap: float
    iterations: int
    converged: bool


def objective(p: Distribution, a) -> float:
    """sum over the support of p_v * lg(1/a_v), in bits.

    `a` may be a PolytopePoint or a plain coordinate sequence. Raises
    DomainError when a support coordinate is not positive (the objective is
    +inf at zero, reported as an error rather than a float infinity) or NaN.
    """
    coords = a.coords if isinstance(a, PolytopePoint) else a
    total = 0.0
    for v in p.support:
        av = coords[v]
        if not av > 0.0:  # NaN fails this too
            raise DomainError(f"coordinate {v} is {av}; objective undefined")
        total -= float(p[v]) * math.log2(av)
    return total


def _rounding_pad(q: np.ndarray, a: np.ndarray, k: int) -> float:
    """A bound on the float rounding error of -sum q*lg a, the reported value, over k terms.

    Against the exact sum over the exact P, the computed sum is off by at
    most (k + 9) * 2**-53 * sum q*|lg a| for k terms, to first order: the
    rounding of each p_v to q_v (1), lg correct to 4 ulps (8), each product
    (1), and the k-term sum (k - 1). The pad doubles that bound, which also
    absorbs the rounding of this sum and the few-ulp difference between the
    scanned point and the one re-synthesized from its decomposition. It is
    0 when every coordinate is 1.
    """
    return (k + 10) * 2.0**-52 * float(np.abs(q * np.log2(a)).sum())


def _line_search(q: np.ndarray, a: np.ndarray, d: np.ndarray, gamma_max: float) -> float:
    """Exact step for min of -sum q*lg(a + gamma*d) on [0, gamma_max].

    The line search of the face-Newton step: `a` is the current point and
    `d` the step's direction, both in vertex coordinates. The objective is
    convex along the segment, so its derivative f'(gamma) =
    -sum q*d/(a + gamma*d) increases, and f'' has the closed form
    sum q*d^2/(a + gamma*d)^2 > 0. Returns 0 when f'(0) >= 0 (no
    descent) and gamma_max when f'(gamma_max) <= 0 (the step reaches its
    bound). Otherwise runs Newton on f' inside a bracket [lo, hi] around its
    root, bisecting whenever a Newton step leaves the bracket or fails to
    halve the step before last, and stops once |f'| is within 1e-12 of the
    sum of its terms' magnitudes (rounding noise is a few ulps of that sum).
    Plain-Python loop over the nonzero entries of d: on entropy-sweep
    (perfbench, rounds 0-4 of seed 1) d has a median of 21 and at most 40
    nonzero entries, where array overhead dominates.
    """
    terms = [(qi * di, ai, di) for qi, ai, di in zip(q.tolist(), a.tolist(), d.tolist()) if di]

    def slope(gamma: float) -> tuple[float, float, float]:
        """f'(gamma), f''(gamma) and the sum of |terms| of f'(gamma)."""
        first = second = size = 0.0
        for qd, ai, di in terms:
            denom = ai + gamma * di
            if denom <= 0.0:  # past the domain: f' is +inf there, so hi moves down
                return math.inf, math.inf, 0.0
            ratio = qd / denom
            first -= ratio
            second += ratio * di / denom
            size += abs(ratio)
        return first, second, size

    first, second, _ = slope(0.0)
    if first >= 0.0:
        return 0.0
    if slope(gamma_max)[0] <= 0.0:
        return gamma_max
    lo, hi = 0.0, gamma_max
    gamma = 0.0
    step = before = math.inf
    while True:
        nxt = gamma - first / second
        if not (lo < nxt < hi and abs(nxt - gamma) < 0.5 * before):
            nxt = 0.5 * (lo + hi)
        if nxt == gamma:  # the bracket has shrunk to adjacent floats
            return gamma
        before, step = step, abs(nxt - gamma)
        gamma = nxt
        first, second, size = slope(gamma)
        if abs(first) <= 1e-12 * size:
            return gamma
        if first < 0.0:
            lo = gamma
        else:
            hi = gamma


def _face_newton_step(
    q: np.ndarray, M: np.ndarray, lam: np.ndarray, a: np.ndarray, enter: int | None = None
) -> np.ndarray:
    """One Newton step on the face of the active atoms and `enter`; returns the new a.

    On a face F of atoms the objective f(lam) = -sum q*ln(lam @ M) has
    gradient -M_F @ (q/a) and Hessian M_F diag(q/a^2) M_F^T. The step solves
    the KKT system of that quadratic model on {sum_F lam = 1} by least
    squares (faces are often affinely dependent, so the system is singular;
    the a-space direction is unique all the same). F is the active atoms W
    (lam > 0) plus `enter` when it is given with zero weight; if the entering
    atom's Newton component comes out <= 0 it cannot gain weight, and the
    step is the same rule on W alone. The step length is the exact
    `_line_search` along the direction in a-space, bounded by the first
    active weight to reach zero; every atom that reaches its bound leaves at
    exactly 0 and no weight goes negative. Updates lam in place and returns
    `a` itself when the step does not move. Faces hold at most a few dozen
    atoms, so each array call costs about a microsecond whatever its size
    and the step is written with as few as its formulas allow; its floats
    are those of the one-call-per-formula form kept in `tests/helpers.py`.
    """
    face = lam.nonzero()[0]
    entering = enter is not None and not lam[enter]
    if entering:
        face = np.concatenate((face, (enter,)))
    m_w = M[face]
    w = len(face)
    root = m_w * (np.sqrt(q) / a)
    kkt = np.ones((w + 1, w + 1))
    kkt[:w, :w] = root @ root.T
    kkt[w, w] = 0.0
    rhs = np.zeros(w + 1)
    rhs[:w] = m_w @ (q / a)
    step = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:w]
    step -= step.sum() / w  # sum(step) = 0 to rounding: keep a on the polytope
    if entering and step[-1] <= 0.0:
        return _face_newton_step(q, M, lam, a)
    shrinking = step < 0.0
    rate = -step[shrinking]
    if not len(rate):
        return a
    lam_w = lam[face]
    bounds = lam_w[shrinking] / rate
    gamma = _line_search(q, a, step @ m_w, float(bounds.min()))
    if gamma == 0.0:
        return a
    lam_w += gamma * step
    # a shrinking weight is -step * (its bound - gamma): never negative, and
    # exactly 0 for every atom whose bound gamma reaches
    lam_w[shrinking] = rate * (bounds - gamma)
    lam[face] = lam_w
    return lam_w @ m_w


def _minimize(
    q: np.ndarray, M: np.ndarray, tol: float, max_iter: int, terms: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The scan-and-step loop on one part: (mixture weights, point, gap, steps).

    `q` is the part's renormalized P and M the incidence matrix of its
    maximal sets. Starts at the uniform mixture of a greedy cover, so every
    coordinate is positive. Each round scans every set once for the
    oracle's set and the duality gap <grad, a - s>, stops once that gap
    and twice the rounding pad of `terms` terms (the whole support's count,
    so the part's share of the final pad) fit in `tol`, and otherwise takes
    one Newton step on the face of the active sets plus the oracle's set
    (`_face_newton_step`). Stops early if the step cannot move. `steps`
    counts the steps taken; a loop that reaches `max_iter` returns the gap
    of its last scan (inf when it made none), still valid at the returned
    point, since no step increases the objective. The point is
    re-synthesized from the weights, which sum to one.
    """
    cover = _greedy_cover_indices(M)
    lam = np.zeros(len(M))
    lam[cover] = 1.0 / len(cover)
    a = lam @ M
    gap = math.inf
    for steps in range(max_iter):
        scores = M @ (q / a)
        s_idx = int(scores.argmax())
        gap = (float(scores[s_idx]) - 1.0) / _LN2
        if gap <= tol and max(gap, 0.0) + 2 * _rounding_pad(q, a, terms) <= tol:
            break
        new_a = _face_newton_step(q, M, lam, a, s_idx)
        if new_a is a:  # no descent on the face: stop at this scan's gap
            break
        a = new_a
    else:
        steps = max_iter
    lam /= lam.sum()
    # incremental updates drift by a few ulps: the point is the one its
    # decomposition gives, so the certificate is internally consistent
    return lam, lam @ M, max(gap, 0.0), steps


def entropy(
    g: Graph,
    p: Distribution,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    cap: int | None = None,
) -> EntropyResult:
    """Minimize the entropy objective over VP(G) with a certified gap.

    Runs on the support-induced subgraph, part by part (`graphs._parts_of`):
    H(G,P) = sum_i P(V_i) * H(G_i, P_i), with P_i the restriction of P to
    part i renormalized, and the minimizer is the product of the parts'
    minimizers. Each part runs `_minimize` on its own maximal sets: each
    iteration scans every maximal independent set of the part once for the
    oracle's set and the duality gap, and stops once that gap falls to
    `tol` (bits); otherwise it takes one Newton step on the face of the
    active sets plus the oracle's set (`_face_newton_step`). `iterations`
    counts those scan-and-step rounds over all parts (a part's final,
    converging scan takes no step and is not counted), and `max_iter` caps
    that total: the parts run in order, each on what the earlier ones left,
    and a part left with no rounds is not scanned. A part whose step cannot
    move stops there, with the gap of its scan. The coordinates are the
    parts' points side by side and the decomposition the common refinement
    of their mixtures (`graphs._refinement`), each piece checked
    independent in g before it is wrapped. `value` and its rounding pad
    are computed once on that point, over the whole support. `gap` is the
    P(V_i)-weighted sum of the parts' gaps plus twice that pad, so the true
    H(G,P) lies in [value - gap, value], and `converged` is True exactly
    when gap <= tol. The set budget is the product of the parts' family
    sizes, as for chi_f (`graphs._split_families`).
    """
    if not tol > 0:  # NaN fails this too
        raise ValueError("tolerance must be positive")
    if max_iter < 0:
        raise ValueError("iteration cap must be nonnegative")
    if p.n != g.n:
        raise ValueError("distribution length differs from vertex count")
    supp = p.support
    k = len(supp)
    # the public list of each part, where perfbench counts sets; other solvers read cached masks
    split = _split_families(g.induced(supp), cap, lambda part: enumerate_maximal_independent_sets(part, cap))
    p_supp = [p[v] for v in supp]
    q = np.array(p_supp, dtype=np.float64)
    # exact weights as integers over one denominator: each renormalized
    # weight and each part's share is then one correctly rounded quotient
    weight = _common_denominator(p_supp)[1] if p.exact else q.tolist()
    total = sum(weight)

    a = np.empty(k)
    blocks = []
    gap = 0.0
    iterations = 0
    for labels, family in split:
        mass = sum(weight[j] for j in labels)
        q_part = np.array([weight[j] / mass for j in labels])
        masks = [s.mask for s in family]
        M = _incidence(masks, len(labels)).astype(np.float64)
        lam, a[labels], part_gap, steps = _minimize(q_part, M, tol, max_iter - iterations, k)
        iterations += steps
        gap += mass / total * part_gap
        active = lam.nonzero()[0]  # no step leaves a weight negative
        to_g = [supp[j] for j in labels]
        blocks.append([(_lift(masks[i], to_g), w) for i, w in zip(active.tolist(), lam[active].tolist())])

    # the value is raised by the rounding pad and the gap widened by twice
    # it, so [value - gap, value] holds the exact H and not just the float one
    pad = _rounding_pad(q, a, k)
    gap += 2 * pad
    value = float(-(q * np.log2(a)).sum()) + pad

    coords = np.zeros(g.n)
    coords[list(supp)] = a
    masks, weights = zip(*_refinement(blocks))
    for mask in masks:
        _check_independent(g, mask)
    decomposition = tuple(zip(IndependentSet._trusted(g, masks), weights))
    minimizer = PolytopePoint(coords=tuple(coords.tolist()), decomposition=decomposition)
    return EntropyResult(
        value=value,
        minimizer=minimizer,
        gap=gap,
        iterations=iterations,
        converged=gap <= tol,
    )
