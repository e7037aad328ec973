"""Exact rational linear programming over independent-set families.

Fractional chromatic numbers, their dual fractional cliques, and integer
cover extraction, all in exact arithmetic. Every LP takes one lane: a float
revised simplex proposes a basis, and the exact layer certifies it
(Applegate, Cook, Dash & Espinoza, ORL 2007). Both lanes start at the same
feasible basis: a greedy cover of the vertices, pruned to a minimal cover,
with each kept set basic at one of its private vertices and a surplus
column elsewhere (`_cover_start`). That basis is its own inverse, and the
simplex runs a single phase from it on the real objective: a covering LP
always has a feasible basis, so none is searched for. Certification is
integer arithmetic on the basis's set block. A basic surplus column is a
unit vector, so B is block triangular: with K the basic sets and T the rows
whose surplus is not basic, det B = +-det M_TK. A certificate only has to
be checked on integers, not computed on them (Gleixner, Steffy & Wolter,
INFORMS J. Computing 2016): d = round(|det M_TK|) comes from one float
determinant, and d x and d y are the float lane's own x and y, rounded.
Two |K| x |K| Bareiss solves on M_TK and its transpose give those integers
exactly, over d = |det M_TK|, only when the rounded ones are rejected. The
basic surpluses and the zero duals of their rows follow directly.
Feasibility against the full constraint system, nonnegativity, and
reduced-cost optimality are all checked on those integers, whichever
source gave them. Only when that certification fails is the LP solved
again, from the same start, by the same revised simplex in Fractions, with
Bland's rule, and that lane's basis is certified the same way, by Bareiss.
So `_certify_basis` proves every LP answer, whichever lane found its
basis, and nothing proves it again: a bug in the pivoting itself cannot produce a wrong
answer unnoticed, and an exact-lane basis it rejects raises InternalError.
Every graph is one LP over the concatenation of its parts' families
(`graphs._parts_of`), never over their product: the LP is block diagonal,
one block per part, chi_f is its largest block total, and the block
solutions are merged into the graph's coloring and dual (`_merge_blocks`).
A graph of one part is one block, its own refinement; the graph with no
vertices is one block with no rows, of total 0. Where the optimum is not
unique, which optimal coloring, b-fold multiset or dual vector is returned
depends on the start, the pivoting and the merge; chi_f and every verdict
do not.

Every rational, inside the exact layer and at its boundary, is a
`fractions.Fraction`."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError, NotUniform
from .graphs import (
    Graph,
    IndependentSet,
    _bits,
    _common_denominator,
    _greedy_cover_indices,
    _incidence,
    _part_families,
    _refinement,
)

_FLOAT_EPS = 1e-9
_MAX_PIVOTS = 200_000


# ---------------------------------------------------------------------------
# simplex engine
# ---------------------------------------------------------------------------
#
# An LP is min c.x subject to A x = b, x >= 0, with integer data. `cols` holds
# A one column per row: cols[j] is column j of A as an int64 vector, so
# cols.shape == (number of columns, number of constraint rows).


@dataclass
class _LPResult:
    x: list
    y: list
    obj: object
    basis: list


def _simplex(cols, b, c, *, exact: bool, start, maxiter: int = _MAX_PIVOTS) -> _LPResult:
    """Revised simplex for min c.x, A x = b, x >= 0, from a feasible basis.

    `start` is (basis, Binv): basis[i] is the column basic in row i, and
    Binv is the inverse of that basis, both integer arrays. Before the
    first pivot, B Binv = I and Binv b >= 0 are checked on integers, and
    InternalError is raised if either fails. From there a single phase
    pivots on the real objective. Exact mode pivots by Bland's rule (no
    cycling) in Fractions; float mode uses Dantzig pricing (the most
    negative reduced cost, the first of equals, found by one argmin per
    pivot) in plain float64 arrays and is only ever used to guess a basis
    for `_certify_basis`. The basis inverse B^-1
    (m x m) is held explicitly, as in the revised simplex of Dantzig &
    Orchard-Hays (1954). Each pivot prices every column at once as
    c - (c_B B^-1) A, one matvec; forms the entering column B^-1 a_q for
    the ratio test; and updates B^-1 and x_B by a rank-one step. Duals are
    y = c_B B^-1. At most `maxiter` pivots are taken; InternalError is
    raised only when one more is needed.
    """
    m = len(b)
    zero = Fraction(0) if exact else 0.0
    eps = zero if exact else _FLOAT_EPS
    dtype = object if exact else np.float64
    A = cols.astype(dtype)  # A^T: row j is column j of A
    basis = np.array(start[0])
    xB = _exact_matvec(start[1], b)
    if not np.array_equal(_exact_matvec(cols[basis].T, start[1]), np.eye(m)) or np.any(xB < 0):
        raise InternalError("simplex start: Binv is not the basis inverse, or Binv b < 0")
    Binv = start[1].astype(dtype)
    xB = xB.astype(dtype)
    if exact:  # ints to Fractions, so that every division below stays exact
        Binv, xB = Binv + zero, xB + zero
    cost = np.array(c, dtype=dtype)
    pivots_left = maxiter
    while True:
        y = cost[basis] @ Binv
        red = cost - A @ y
        if exact:  # Bland: the first improving column
            neg = (red < 0).nonzero()[0]
            if not neg.size:
                break
            enter = neg[0]
        else:  # Dantzig: the most negative, the first of equals
            enter = red.argmin()
            if red[enter] >= -eps:
                break
        if not pivots_left:
            raise InternalError("simplex pivot limit exhausted")
        u = Binv @ A[enter]
        rows = (u > eps).nonzero()[0]
        if not rows.size:
            raise InternalError("LP unbounded; covering LPs cannot be")
        ratios = xB[rows] / u[rows]
        tied = rows[ratios == ratios.min()]
        r = tied[basis[tied].argmin()]  # ties: smallest basis label
        # rank-one update of B^-1 and x_B
        p, theta = Binv[r] / u[r], xB[r] / u[r]
        Binv -= u[:, None] * p
        xB -= u * theta
        Binv[r], xB[r] = p, theta
        basis[r] = enter
        pivots_left -= 1

    x = [zero] * len(cols)
    for j, v in zip(basis.tolist(), xB):
        x[j] = v
    return _LPResult(x=x, y=list(y), obj=cost[basis] @ xB, basis=basis.tolist())


class _WarmStartFailed(Exception):
    pass


def _bareiss_solve(M, rhs) -> tuple[int, list[int]]:
    """Solve M z = rhs over the integers by fraction-free elimination.

    M is a square integer matrix and rhs a sequence of ints. Returns
    (d, num) with d = |det M| > 0 and z = num / d, every entry a Python int.
    Bareiss's update a_ij <- (a_kk a_ij - a_ik a_kj) / a_{k-1,k-1} keeps
    every entry a minor of M, so each division is exact and no entry
    outgrows Hadamard's bound on det M (Bareiss, Math. Comp. 1968). Pivots
    are the first nonzero entry at or below the diagonal. Raises
    _WarmStartFailed when M is singular. `_certify_basis` runs it only when
    the float lane's rounded answer is missing or rejected.
    """
    A = [row + [r] for row, r in zip(np.asarray(M).tolist(), rhs)]
    m = len(A)
    prev = 1
    for k in range(m):
        if A[k][k] == 0:
            p = next((i for i in range(k + 1, m) if A[i][k] != 0), -1)
            if p < 0:
                raise _WarmStartFailed
            A[k], A[p] = A[p], A[k]
        piv, pivot_row = A[k][k], A[k][k + 1:]
        for row in A[k + 1:]:
            f = row[k]
            if f:
                row[k + 1:] = [
                    (piv * a - f * q) // prev for a, q in zip(row[k + 1:], pivot_row)
                ]
            elif piv != prev:  # a zero multiplier still rescales the row
                row[k + 1:] = [piv * a // prev for a in row[k + 1:]]
        prev = piv
    # back substitution on the triangle, scaled by d = prev: d z_i is an
    # integer (Cramer), so each division below is exact as well
    num = [0] * m
    for i in range(m - 1, -1, -1):
        row = A[i]
        acc = prev * row[m] - sum(row[j] * num[j] for j in range(i + 1, m))
        num[i] = acc // row[i]
    if prev < 0:
        return -prev, [-v for v in num]
    return prev, num


def _exact_matvec(M, v) -> np.ndarray:
    """M @ v exactly, for an int64 matrix M with entries in {-1, 0, 1}.

    `v` is a vector or matrix of ints. Every caller passes such an M: the
    LP's columns, the cover start's basis, a block of set columns, or the
    incidence matrix of a coloring. So no partial sum exceeds max|v| times
    the row length, and the product runs in int64 when that stays below
    2**63, else on Python ints.
    """
    v = np.asarray(v)
    if max(int(v.max(initial=0)), -int(v.min(initial=0))) * M.shape[1] < 2**63:
        return M @ v.astype(np.int64)
    return M.astype(object) @ v.astype(object)


def _rounded(M_TK, guess: _LPResult, K, T) -> tuple[int, list[int], list[int]]:
    """d, d x_K and d y_T as ints, rounded from a float answer on the basis.

    d is |det M_TK| from one float determinant, rounded; x and y are the
    float lane's own. Raises _WarmStartFailed when d rounds to 0, or when
    d, d x_K or d y_T is not finite or reaches 2**53, past which a float no
    longer holds every integer. Nothing here is trusted: `_certify_basis`
    checks these ints exactly as it checks Bareiss's.
    """
    det = abs(np.linalg.det(M_TK))
    if not 0.5 <= det < 2**53:  # False for NaN as well
        raise _WarmStartFailed
    d = round(det)
    v = np.array([guess.x[j] for j in K] + [guess.y[i] for i in T.tolist()], dtype=np.float64)
    if not np.all(np.abs(v) < 2**53 / d):  # False for NaN and +-inf
        raise _WarmStartFailed
    v = np.rint(d * v).astype(np.int64).tolist()
    return d, v[: len(K)], v[len(K) :]


def _certify_basis(cols, b, c, basis, guess: _LPResult | None = None) -> _LPResult:
    """Exactly solve for a basis from either lane and certify its optimality.

    `cols`, `b`, `c` have the `_covering_lp` layout: the set columns, then
    the surplus column -e_v of each of the m rows. The basis splits into K,
    its set columns, and the surplus columns of the rows S; T holds the
    other rows. With rows ordered T, S and columns K, S, B = cols[basis]^T
    is block triangular, [[M_TK, 0], [M_SK, -I]], so det B = +-det M_TK and
    B is nonsingular iff |K| = |T| and M_TK is. The basic solution is
    M_TK x_K = b_T, and M_TK^T y_T = c_K with y = 0 on S (c is 0 on a
    surplus column); each basic surplus is (M x)_v - b_v. All arithmetic is
    on integers over one common denominator d, as d x_K and d y_T.
    Those integers come from `guess`, the float lane's answer on this
    basis, rounded by `_rounded` with d = round(|det M_TK|). Only when
    there is no guess, or the checks below reject its integers, do two
    k x k Bareiss solves on M_TK and its transpose (k = |K|) give them
    with d = |det M_TK|, and the same checks run again. Raises
    _WarmStartFailed unless B is square, x satisfies every row (M x = d b
    on T), x is nonnegative (basic surpluses included), and every reduced
    cost d c_j - y.a_j is nonnegative (y >= 0 through the surplus columns)
    and zero on the basis (M_TK^T y_T = d c_K). Then x and y are feasible
    and complementary, which proves both optimal whatever computed them, so
    a wrong basis from either lane, or a wrong rounding, can never leak
    through. When M_TK is nonsingular they are its unique basic solution,
    so both sources give the same answer. A singular M_TK has a float
    determinant near 0, so it reaches Bareiss, which rejects it; integers
    that passed the checks would be optimal all the same. Rationals are
    built only for the nonzero outputs.
    """
    m = len(b)
    k = len(cols) - m
    in_S = np.zeros(m, dtype=bool)
    in_S[[j - k for j in basis if j >= k]] = True
    K = [j for j in basis if j < k]
    T = np.flatnonzero(~in_S)
    if len(basis) != m or len(K) != len(T):
        raise _WarmStartFailed
    M_K = cols[K].T
    M_TK = M_K[T]

    def certified(d: int, x_K: list[int], y_T: list[int]) -> _LPResult:
        num = dict(zip(K, x_K))
        # d (M x - b) on every row: 0 on T, the basic surplus on S
        for v, cov in enumerate(_exact_matvec(M_K, x_K).tolist()):
            excess = cov - d * b[v]
            if in_S[v]:
                num[k + v] = excess
            elif excess:
                raise _WarmStartFailed
        if any(v < 0 for v in num.values()):
            raise _WarmStartFailed
        y_num = [0] * m
        for v, val in zip(T.tolist(), y_T):
            y_num[v] = val
        ya = _exact_matvec(cols, y_num)
        c_d = np.asarray(c, dtype=np.int64 if d < 2**63 else object) * d  # c_j in {0, 1}
        if np.any(ya > c_d) or np.any(ya[basis] != c_d[basis]):
            raise _WarmStartFailed
        zero = Fraction(0)
        x = [zero] * len(cols)
        for j, v in num.items():
            if v:
                x[j] = Fraction(v, d)
        y = [Fraction(v, d) if v else zero for v in y_num]
        obj = Fraction(sum(c[j] * v for j, v in num.items()), d)
        return _LPResult(x=x, y=y, obj=obj, basis=list(basis))

    if guess is not None:
        try:
            return certified(*_rounded(M_TK, guess, K, T))
        except _WarmStartFailed:
            pass
    d, x_K = _bareiss_solve(M_TK, [b[v] for v in T])
    return certified(d, x_K, _bareiss_solve(M_TK.T, [c[j] for j in K])[1])


def _cover_start(cols, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A feasible basis of a covering LP and its inverse, from a greedy cover.

    `cols` has the `_covering_lp` layout: the set columns, then -I on the
    n vertex rows. The greedy cover (`_greedy_cover_indices`) is pruned in
    reverse order to a minimal cover: a set is dropped when each of its
    vertices is covered at least twice. Each kept set then has a private
    vertex, covered by no other kept set, and is made basic at its lowest
    one; the surplus column -e_v is basic at every other vertex v. With the
    private rows first, B = [[I, 0], [M', -I]], where M' holds the kept
    sets on the other rows, and B B = I: Binv is B itself, an integer
    matrix. The start solution B 1 is 1 on the private rows and cov(v) - 1
    >= 0 elsewhere, and its objective is the number of kept sets (Bixby,
    *Implementing the simplex method: the initial basis*, ORSA J.
    Computing 1992).
    """
    k = len(cols) - n
    M = cols[:k]
    cover = _greedy_cover_indices(M)
    cov = M[cover].sum(axis=0)
    kept = []
    for j in reversed(cover):
        if cov[M[j] > 0].min() >= 2:
            cov -= M[j]
        else:
            kept.append(j)
    basis = np.arange(k, k + n)
    for j in kept:
        basis[np.flatnonzero((M[j] > 0) & (cov == 1))[0]] = j
    return basis, cols[basis].T


def _solve_exact(cols, b, c) -> _LPResult:
    """Exact solve of a covering LP: the one proof of every LP answer.

    `cols`, `b`, `c` have the `_covering_lp` layout. Both lanes run the one
    simplex phase from the feasible cover basis of `_cover_start`: the
    float revised simplex proposes an optimal basis and its x and y, which
    `_certify_basis` checks rounded to integers before it solves for them
    exactly. Only when it rejects the basis is the LP solved again in
    Fractions from the same start. Whichever lane found the basis, its
    answer is the one `_certify_basis` builds, and that certificate proves
    it optimal; no other check on x, y or obj follows. An exact-lane basis
    that fails it can only be a bug, and raises InternalError. The float
    lane's pivot limit also raises InternalError.
    """
    start = _cover_start(cols, len(b))
    guess = _simplex(cols, b, c, exact=False, start=start)
    try:
        return _certify_basis(cols, b, c, guess.basis, guess)
    except _WarmStartFailed:
        pass
    cold = _simplex(cols, b, c, exact=True, start=start)
    try:
        return _certify_basis(cols, b, c, cold.basis)
    except _WarmStartFailed:
        raise InternalError("internal LP error: the exact lane's basis is not optimal") from None


# ---------------------------------------------------------------------------
# fractional colorings and covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalColoring:
    """Rational weights on independent sets witnessing a covering LP value.

    ValueError is raised for a negative weight, and for one that is not a
    finite rational (an infinity, a NaN).
    """

    weights: dict
    total: Fraction

    def __init__(self, weights: dict):
        try:
            weights = {s: Fraction(w) for s, w in weights.items() if w}
        except (OverflowError, ValueError):  # an infinity, a NaN
            raise ValueError("weight not a finite rational") from None
        den, nums = _common_denominator(weights.values())
        if any(w < 0 for w in nums):
            raise ValueError("negative weight in fractional coloring")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", Fraction(sum(nums), den))

    def covered_vertices(self) -> frozenset[int]:
        mask = 0
        for s in self.weights:
            mask |= s.mask
        return frozenset(_bits(mask))


@dataclass(frozen=True)
class CoverMultiset:
    """Multiset of independent sets covering each covered vertex `fold` times.

    Each multiplicity is stored as an int: one of another type (a float, a
    Fraction) is accepted only when it equals an integer, and ValueError is
    raised otherwise, an infinity or a NaN included. Coverage is counted in
    one pass over each set's members; NotUniform names the first vertex of
    `covered`, in its iteration order, whose count is not `fold`.
    """

    multiplicities: dict
    fold: int
    covered: frozenset[int]

    def __init__(self, multiplicities: dict, fold: int, covered: Iterable[int]):
        # k % 1 is nonzero off the integers, and NaN for an infinity or a NaN
        if any(k % 1 for k in multiplicities.values()):
            raise ValueError("multiplicity not an integer")
        multiplicities = {s: int(k) for s, k in multiplicities.items() if k}
        covered = frozenset(covered)
        if any(k < 0 for k in multiplicities.values()):
            raise ValueError("negative multiplicity")
        if multiplicities and fold < 1:
            raise ValueError("fold must be >= 1 for a nonempty cover")
        count = Counter()
        for s, k in multiplicities.items():
            for v in _bits(s.mask):
                count[v] += k
        for v in covered:
            if count[v] != fold:
                raise NotUniform(f"vertex {v} covered {count[v]} times, fold is {fold}")
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "fold", fold)
        object.__setattr__(self, "covered", covered)

    @property
    def size(self) -> int:
        """Number of sets counted with multiplicity."""
        return sum(self.multiplicities.values())


def fractional_chromatic_number(g: Graph, cap: int | None = None) -> tuple[Fraction, FractionalColoring]:
    """Exact fractional chromatic number with an optimal fractional coloring.

    Solves the covering LP over *maximal* independent sets only; enlarging an
    independent set never hurts coverage, so the optimum is unchanged while
    the column count shrinks. The graph is solved as one LP over its parts'
    own families (`_solve_parts`, `graphs._parts_of`), never over their
    product, and chi_f is the largest of the parts'. The LP's coloring and
    a matching dual (packing) solution are proved optimal exactly, once, by
    `_certify_basis`, from either lane; the merged coloring is checked by
    `_merge_blocks`.
    Its sets are wrapped here, the only place they are. On the graph with
    no vertices the one maximal set is the empty set, whose LP has no rows
    and optimum 0, so chi_f is 0 with the empty coloring.
    """
    chi, coloring, _ = _solve_parts(g, cap)
    return chi, FractionalColoring(dict(zip(IndependentSet._trusted(g, coloring), coloring.values())))


def _covering_lp(n: int, masks: Sequence[int]):
    """(cols, b, c) of min sum x_S with every vertex covered at least once.

    The columns are the sets (bitmasks), then one surplus column -e_v per vertex.
    """
    cols = np.concatenate([_incidence(masks, n).astype(np.int64), -np.eye(n, dtype=np.int64)])
    return cols, [1] * n, [1] * len(masks) + [0] * n


def _solve_covering(g: Graph, masks: Sequence[int]) -> tuple[_LPResult, list[int], tuple, tuple]:
    """Solve the covering LP over the set bitmasks `masks`, proved by `_solve_exact`.

    The answer, from either lane, is the one `_certify_basis` proved
    optimal, and nothing here proves it again. Both lanes set x off the
    basis to zero, so the support of x is read from the basis: the set
    indices in it with nonzero x (at most n sets). Returns the result,
    that support (indices into `masks`, ascending) and its integers over
    one common denominator per side, (d, d x) on the support and (e, e y).
    """
    cols, b, c = _covering_lp(g.n, masks)
    res = _solve_exact(cols, b, c)
    support = sorted(j for j in res.basis if j < len(masks) and res.x[j])
    return res, support, _common_denominator([res.x[j] for j in support]), _common_denominator(res.y)


def _solve_parts(g: Graph, cap: int | None) -> tuple[Fraction, dict, list]:
    """chi_f of g, an optimal coloring {mask: weight} and an optimal dual, one entry per vertex.

    On a disjoint union the covering LP splits: chi_f is the largest of the
    parts' chi_f, and the maximal sets of g are the products of the parts'
    (Scheinerman & Ullman, *Fractional Graph Theory*, 1997, ch. 3). So one
    LP is solved over the concatenation of the parts' families
    (`_part_families`, bitmasks over g), for every g: one part, several, or
    no vertices at all. The LP has one block per part and its optimum is
    the sum of their chi_f; `_merge_blocks` turns its solution into g's.
    """
    families = _part_families(g, cap)
    masks = [mask for _, family in families for mask in family]
    return _merge_blocks(g, [part for part, _ in families], masks, *_solve_covering(g, masks))


def _merge_blocks(
    g: Graph, parts: Sequence[int], masks, res: _LPResult, support: Sequence[int], xs, ys
) -> tuple[Fraction, dict, list]:
    """g's chi_f, coloring {mask: weight} and dual from the LP over its parts' families.

    Block i holds the support's sets inside part i, in column order. `xs`
    and `ys` are the integers `_solve_covering` hands over from the answer
    `_certify_basis` proved: (d, d x) on the support and (e, e y). Every
    block's x is a coloring of its part and its y a fractional clique, so
    sum x_i >= chi_f(G_i) >= sum y_i; the two sides have equal totals, so
    each block is optimal, which is re-checked on those integers. chi_f(g) is the largest block total. The coloring is
    the common refinement of the block colorings, each scaled to that
    total, in column order (`_refinement`): each piece is a union of one
    set per block, so maximal in g. One block is its own refinement, and
    the empty block of the graph with no vertices gives no piece. The dual
    is y on the first part that attains the maximum, 0 elsewhere. The
    merged coloring's coverage and total are re-checked on integers before
    any Fraction is built. These are the only checks on the returned
    coloring and dual themselves; the LP answer they come from is proved
    once, by `_certify_basis`.
    """
    d, x = xs
    e, y = ys
    # (mask, d x) per block, in column order
    columns = [(masks[j], xj) for j, xj in zip(support, x)]
    blocks = [[(mask, xj) for mask, xj in columns if mask & part] for part in parts]
    totals = [sum(xj for _, xj in block) for block in blocks]
    for part, total in zip(parts, totals):
        if total * e != d * sum(y[v] for v in _bits(part)):
            raise InternalError("internal LP error: a part's coloring and dual differ")
    top = max(totals)
    # every block scaled to total `width`, the stretch of chi_f = top / d
    width = math.lcm(*totals)
    pieces = _refinement(
        [[(mask, xj * (width // total)) for mask, xj in block] for block, total in zip(blocks, totals)]
    )
    lengths = [length for _, length in pieces]
    cover = _exact_matvec(_incidence([mask for mask, _ in pieces], g.n).T.astype(np.int64), lengths).tolist()
    if sum(lengths) != width or any(c * top < d * width for c in cover):
        raise InternalError("internal LP error: merged coloring not covering")
    coloring = {mask: Fraction(k * top, d * width) for mask, k in pieces}
    first = parts[totals.index(top)]
    zero = Fraction(0)
    dual = [yv if first >> v & 1 else zero for v, yv in enumerate(res.y)]
    return Fraction(top, d), coloring, dual


def fractional_chromatic_dual(g: Graph, cap: int | None = None) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimal fractional clique: max sum(x) with sum over each maximal set <= 1.

    This is the dual solution of the covering LP behind
    `fractional_chromatic_number`, proved exactly by `_certify_basis`
    (nonnegative, packing-feasible, complementary to the coloring), so its
    value is chi_f. It is the dual on the first part of largest chi_f,
    which packs into every maximal set of g.
    """
    chi, _, y = _solve_parts(g, cap)
    return chi, {v: yv for v, yv in enumerate(y) if yv != 0}


def integralize_cover(fc: FractionalColoring) -> CoverMultiset:
    """Scale a uniform fractional cover to integer multiplicities.

    r is the lcm of the weight denominators and the multiplicities are r*w.
    The fold is read off the lowest covered vertex; `CoverMultiset` counts
    every covered vertex against it and raises NotUniform when one differs.
    """
    if not fc.weights:
        return CoverMultiset({}, 1, frozenset())
    _, counts = _common_denominator(fc.weights.values())
    mult = dict(zip(fc.weights, counts))
    covered = fc.covered_vertices()
    v = min(covered)
    return CoverMultiset(mult, sum(k for s, k in mult.items() if v in s), covered)


def b_fold_realization(g: Graph, cap: int | None = None) -> CoverMultiset:
    """An integer cover multiset realizing chi_f exactly (size/fold = chi_f).

    Starts from an optimal basic fractional coloring as integers m = r*x over
    its common denominator r, which cover every vertex at least r times.
    Where a vertex is covered more often, it is removed from covering sets in
    deterministic order (splitting a multiplicity when only part of it must
    go) until it is covered exactly r times. The total is untouched, so
    m / gcd(r, m) is a b-fold coloring witnessing chi_f.
    """
    chi, fc = fractional_chromatic_number(g, cap)
    r, counts = _common_denominator(fc.weights.values())
    mult = {s.mask: k for s, k in zip(fc.weights, counts)}
    for v in range(g.n):
        bit = 1 << v
        excess = sum(k for m, k in mult.items() if m & bit) - r
        for m in sorted((m for m in mult if m & bit), key=lambda m: tuple(_bits(m))):
            if excess == 0:
                break
            take = min(excess, mult[m])
            shrunk = m & ~bit
            if not shrunk:
                raise InternalError("internal error: tightening emptied a set")
            mult[m] -= take
            mult[shrunk] = mult.get(shrunk, 0) + take
            if mult[m] == 0:
                del mult[m]
            excess -= take
    d = math.gcd(r, *mult.values())
    cm = CoverMultiset({IndependentSet._from_mask(g, m): k // d for m, k in mult.items()}, r // d, range(g.n))
    if Fraction(cm.size, cm.fold) != chi:
        raise InternalError("internal error: integer cover does not realize chi_f")
    return cm
