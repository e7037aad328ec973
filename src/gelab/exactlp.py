"""Exact rational linear programming over independent-set families.

Fractional chromatic numbers, their dual fractional cliques, and integer
cover extraction, all in exact arithmetic. Every LP takes one lane: a float
revised simplex proposes a basis, and the exact layer certifies it
(Applegate, Cook, Dash & Espinoza, ORL 2007). Both lanes start at the same
feasible basis: a greedy cover of the vertices, pruned to a minimal cover,
with each kept set basic at one of its private vertices and a surplus
column elsewhere (`_cover_start`). That basis is its own inverse, and the
simplex runs a single phase from it on the real objective: a covering LP
always has a feasible basis, so none is searched for. The LP's matrix is
held once, as float64 (`_covering_lp`): its entries 0, 1 and -1 are exact.
The float lane reads it as it is; every exact product on it runs through
BLAS while a float64 provably holds each partial sum, and on Python ints
past that (`graphs._exact_matvec`); the exact lane and Bareiss read it through
int64, so no float enters their arithmetic. Certification is
integer arithmetic on the basis's set block. A basic surplus column is a
unit vector, so B is block triangular: with K the basic sets and T the rows
whose surplus is not basic, det B = +-det M_TK. A certificate only has to
be checked on integers, not computed on them (Gleixner, Steffy & Wolter,
INFORMS J. Computing 2016): d = round(|det M_TK|) comes from one float
determinant, and d x and d y are the proposing lane's own x and y, rounded.
Two |K| x |K| Bareiss solves on M_TK and its transpose give those integers
exactly, over d = |det M_TK|, only when the rounded ones are rejected. The
basic surpluses and the zero duals of their rows follow directly.
Feasibility against the full constraint system, nonnegativity, and
reduced-cost optimality are all checked on those integers, whichever
source gave them. The float lane only proposes: its basis goes to that
proof however its pivoting ended, at the optimum, at its pivot limit, or
at a column no row bounds (a float "unbounded", which a covering LP cannot
be). Only when the proof rejects that basis is the LP solved again, from
the same start, by the same revised simplex in Fractions, with Bland's
rule, and that lane's answer is certified the same way. The exact lane can
take minutes where the float lane takes milliseconds, so the float lane
breaks ratio-test ties by its own rule, the largest pivot element, which
does not stall on the degenerate LPs of the paper's hardness gadget as
Bland's smallest basis label does. So `_certify_basis` proves every LP
answer, whichever lane found its basis, and nothing proves it again: a bug
in the pivoting itself cannot produce a wrong answer unnoticed. An LP's
InternalError means a bug, never an answer: the exact lane's basis failed
that proof, or a start failed `_simplex`'s check.
Every graph is one LP over the concatenation of its parts' families
(`graphs._parts_of`), never over their product: the LP is block diagonal,
one block per part, chi_f is its largest block total, and the block
solutions are merged into the graph's coloring and dual (`_merge_blocks`).
The one certificate makes every block optimal, by weak duality on each
block, so no block is proved again. A graph of one part is one block, the
LP's own answer; the graph with no vertices is one block with no rows, of
total 0. Where the optimum is not unique, which optimal coloring, b-fold
multiset or dual vector is returned depends on the start, the pivoting and
the merge; chi_f and every verdict do not.

The integers `_certify_basis` proves, d x and d y over one denominator d,
are what the layers below the public functions pass on: `_solve_blocks`
hands the `_Certified` of `_solve_exact` straight to `_merge_blocks`, which
reads the support, d x and d y off it. No common denominator is taken
again, and a `fractions.Fraction` is built only for what a public function
returns. Every rational at that boundary is a Fraction."""

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
    _exact_matvec,
    _greedy_cover_indices,
    _incidence,
    _part_families,
    _refinement,
    _row_masks,
)

_FLOAT_EPS = 1e-9
_MAX_PIVOTS = 200_000


# ---------------------------------------------------------------------------
# simplex engine
# ---------------------------------------------------------------------------
#
# An LP is min c.x subject to A x = b, x >= 0, with integer data. `cols` holds
# A one column per row: cols[j] is column j of A, so cols.shape == (number of
# columns, number of constraint rows). The covering LP's `cols` are float64,
# whose entries 0, 1 and -1 are exact; an integer `cols` is accepted as well.


_ZERO = Fraction(0)


class _LPResult:
    """A simplex lane's answer: x, y and obj in the lane's own numbers, and the basis."""

    def __init__(self, x: list, y: list, obj: object, basis: list):
        self.x, self.y, self.obj, self.basis = x, y, obj, basis


class _Certified:
    """An LP answer proved by `_certify_basis`, held as the integers it checked.

    Over one denominator d > 0: `num` maps each basic column j to d x_j,
    `y_num` holds d y_v for every row v, and `obj_num` is d c.x; `width` is
    the number of columns. The solvers read these integers. `x`, `y` and
    `obj` read as an `_LPResult`'s do, as Fractions built on each read,
    with x zero off the basis.
    """

    def __init__(self, d: int, num: dict, y_num: list, obj_num: int, basis: list, width: int):
        self.d, self.num, self.y_num, self.obj_num, self.basis, self.width = d, num, y_num, obj_num, basis, width

    x = property(lambda self: [Fraction(self.num[j], self.d) if j in self.num else _ZERO for j in range(self.width)])
    y = property(lambda self: [Fraction(v, self.d) for v in self.y_num])
    obj = property(lambda self: Fraction(self.obj_num, self.d))


def _simplex(cols, b, c, *, exact: bool, start, maxiter: int = _MAX_PIVOTS) -> _LPResult:
    """Revised simplex for min c.x, A x = b, x >= 0, from a feasible basis.

    `start` is (basis, Binv): basis[i] is the column basic in row i, and
    Binv is the inverse of that basis, an array of integers (float64 or
    integer). Before the first pivot, B Binv = I and Binv b >= 0 are
    checked exactly (`_exact_matvec`), and InternalError is raised if
    either fails; nothing else raises. From there a single phase pivots on
    the real objective. Exact mode pivots by Bland's rule in Fractions: the
    first improving column enters, and ratio-test ties leave by the
    smallest basis label, the leaving rule that Bland's proof of
    termination needs. It reads `cols` and Binv through int64, so that no float
    enters them. Float mode uses Dantzig pricing (the most negative reduced
    cost, the first of equals, found by one argmin per pivot) and breaks
    ratio-test ties by the largest pivot element u_r, in plain float64
    arrays, reading float64 `cols` without a copy; it only ever proposes a
    basis for `_certify_basis`. The basis inverse B^-1
    (m x m) is held explicitly, as in the revised simplex of Dantzig &
    Orchard-Hays (1954). Each pivot prices every column at once as
    c - (c_B B^-1) A, one matvec; forms the entering column B^-1 a_q for
    the ratio test; and updates B^-1 and x_B by a rank-one step. Duals are
    y = c_B B^-1. The loop ends at the optimum, after `maxiter` pivots, or
    at an entering column with no positive entry (unbounded, which a
    covering LP cannot be), and each returns the basis at hand, its x and
    its y: whether that basis is optimal is `_certify_basis`'s to decide.
    """
    m = len(b)
    # the exact lane reads integers through int64, then Fractions: Fraction + float is a float
    zero, eps, base, dtype = (_ZERO, _ZERO, np.int64, object) if exact else (0.0, _FLOAT_EPS, np.float64, np.float64)
    A = cols.astype(base, copy=False).astype(dtype, copy=False)  # A^T: row j is column j of A
    basis = np.array(start[0])
    xB = _exact_matvec(start[1], b)
    if not np.array_equal(_exact_matvec(cols[basis].T, start[1]), np.eye(m)) or np.any(xB < 0):
        raise InternalError("simplex start: Binv is not the basis inverse, or Binv b < 0")
    # `+ zero` copies, since `start` serves both lanes, and in the exact lane
    # turns ints to Fractions, so that every division below stays exact
    Binv = start[1].astype(base, copy=False).astype(dtype, copy=False) + zero
    xB = xB.astype(dtype) + zero
    cost = np.array(c, dtype=dtype)
    pivots_left = maxiter
    while True:
        y = cost[basis] @ Binv
        red = cost - A @ y
        # Bland: the first improving column, the mask's argmax (column 0, not
        # improving, when none is); Dantzig: the most negative, the first of equals
        enter = (red < 0).argmax() if exact else red.argmin()
        if red[enter] >= -eps or not pivots_left:
            break
        u = Binv @ A[enter]
        rows = (u > eps).nonzero()[0]
        if not rows.size:  # unbounded, which a covering LP cannot be
            break
        ratios = xB[rows] / u[rows]
        tied = rows[ratios == ratios.min()]
        # ties: Bland's smallest basis label, or the largest pivot element
        r = tied[basis[tied].argmin()] if exact else tied[u[tied].argmax()]
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
    """Not certified (`_rounded`, a singular `_bareiss_solve`, `_certify_basis`): try the next source or lane."""


def _bareiss_solve(M, rhs) -> tuple[int, list[int]]:
    """Solve M z = rhs over the integers by fraction-free elimination.

    M is a square matrix of integers (float64 or integer), read through
    int64, and rhs a sequence of ints. Returns
    (d, num) with d = |det M| > 0 and z = num / d, every entry a Python int.
    Bareiss's update a_ij <- (a_kk a_ij - a_ik a_kj) / a_{k-1,k-1} keeps
    every entry a minor of M, so each division is exact and no entry
    outgrows Hadamard's bound on det M (Bareiss, Math. Comp. 1968). Pivots
    are the first nonzero entry at or below the diagonal. Raises
    _WarmStartFailed when M is singular. `_certify_basis` runs it only when
    the lane's rounded answer is missing or rejected.
    """
    A = [row + [r] for row, r in zip(np.asarray(M, dtype=np.int64).tolist(), rhs)]
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


def _rounded(M_TK, guess: _LPResult, K, T) -> tuple[int, list[int], list[int]]:
    """d, d x_K and d y_T as ints, rounded from a float answer on the basis.

    d is |det M_TK| from one float determinant, rounded; x and y are the
    proposing lane's own, read as floats. Raises _WarmStartFailed when d rounds to 0, or when
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


def _certify_basis(cols, b, c, basis, guess: _LPResult | None = None) -> _Certified:
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
    Those integers come from `guess`, the proposing lane's answer on this
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
    that passed the checks would be optimal all the same. The answer is
    returned as those checked integers (`_Certified`): d, d x on the basis,
    d y and d c.x. No Fraction is built here.
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

    def certified(d: int, x_K: list[int], y_T: list[int]) -> _Certified:
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
        return _Certified(d, num, y_num, sum(c[j] * v for j, v in num.items()), list(basis), len(cols))

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
    n vertex rows, float64 or integer. The greedy cover
    (`_greedy_cover_indices`, run on the set columns in their own dtype, so
    on BLAS for float64) is pruned in reverse order to a minimal cover: a
    set is dropped when each of its vertices is covered at least twice,
    that is, when it has no private vertex, one in no other set still in
    the cover. The prune reads the few cover sets as bitmasks. Each kept
    set then has a private vertex, covered by no other kept set, and is
    made basic at its lowest one; the surplus column -e_v is basic at every
    other vertex v. With the private rows first, B = [[I, 0], [M', -I]],
    where M' holds the kept sets on the other rows, and B B = I: Binv is B
    itself, a matrix of integers in `cols`' dtype. The start solution B 1
    is 1 on the private rows and cov(v) - 1 >= 0 elsewhere, and its
    objective is the number of kept sets (Bixby, *Implementing the simplex
    method: the initial basis*, ORSA J. Computing 1992).
    """
    k = len(cols) - n
    cover = _greedy_cover_indices(cols[:k])
    sets = dict(zip(cover, _row_masks(cols[cover] > 0)))

    def private(j: int) -> int:
        others = 0
        for i, mask in sets.items():
            others |= mask if i != j else 0
        return sets[j] & ~others

    for j in reversed(cover):
        if not private(j):
            del sets[j]
    basis = np.arange(k, k + n)
    for j in sets:
        basis[next(_bits(private(j)))] = j
    return basis, cols[basis].T


def _solve_exact(cols, b, c) -> _Certified:
    """Exact solve of a covering LP: the one proof of every LP answer.

    `cols`, `b`, `c` have the `_covering_lp` layout. Both lanes run the one
    simplex phase from the feasible cover basis of `_cover_start`, the
    float lane first, and each hands its basis, x and y to `_certify_basis`
    as its guess, which it checks rounded to integers before it solves for
    them exactly. The float lane's pivot limit and a float "unbounded" are
    no errors: the basis at hand goes to that proof like an optimal one.
    Only when the proof rejects the float basis is the LP solved again in
    Fractions from the same start, by Bland's rule. That lane is slow at
    scale, which is why the float lane keeps its own tie rule (`_simplex`).
    Whichever lane found the basis, its answer is the one `_certify_basis`
    builds, as its checked integers (`_Certified`), and that certificate
    proves it optimal; no other check on x, y or obj follows. InternalError
    is raised only when the exact lane's basis fails the proof, or when
    `_simplex` finds the start is not a feasible basis and its inverse:
    either is a bug.
    """
    start = _cover_start(cols, len(b))
    for exact in (False, True):
        guess = _simplex(cols, b, c, exact=exact, start=start)
        try:
            return _certify_basis(cols, b, c, guess.basis, guess)
        except _WarmStartFailed:
            pass
    raise InternalError("internal LP error: the exact lane's basis is not optimal")


# ---------------------------------------------------------------------------
# fractional colorings and covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalColoring:
    """Rational weights on independent sets witnessing a covering LP value.

    ValueError is raised for a negative weight, and for one that is not a
    finite rational (an infinity, a NaN). `_trusted` builds one from
    weights and a total already proved.
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
        vars(self).update(weights=weights, total=Fraction(sum(nums), den))

    @classmethod
    def _trusted(cls, weights: dict, total: Fraction) -> "FractionalColoring":
        """The coloring with `weights`, unchecked: each a positive Fraction, and `total` their sum."""
        fc = object.__new__(cls)
        vars(fc).update(weights=weights, total=total)
        return fc

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
        vars(self).update(multiplicities=multiplicities, fold=fold, covered=covered)

    @property
    def size(self) -> int:
        """Number of sets counted with multiplicity."""
        return sum(self.multiplicities.values())


def fractional_chromatic_number(g: Graph, cap: int | None = None) -> tuple[Fraction, FractionalColoring]:
    """Exact fractional chromatic number with an optimal fractional coloring.

    Solves the covering LP over *maximal* independent sets only; enlarging an
    independent set never hurts coverage, so the optimum is unchanged while
    the column count shrinks. The graph is solved as one LP over its parts'
    own families (`_solve_blocks`, `graphs._parts_of`), never over their
    product, and chi_f is the largest of the parts'. The LP's coloring and
    a matching dual (packing) solution are proved optimal exactly, once, by
    `_certify_basis`, from either lane, and that one proof makes every
    block of the LP optimal; `_merge_blocks` checks only the coverage and
    total of the coloring it builds from several blocks. Its sets are
    wrapped here, the only place they are, and its weights are the only
    Fractions built, one per set; the coloring is built by
    `FractionalColoring._trusted`, since those proofs already cover its
    weights and total. On the graph with no vertices the one maximal set
    is the empty set, whose LP has no rows and optimum 0, so chi_f is 0
    with the empty coloring.
    """
    chi, den, coloring, _ = _solve_blocks(g, cap)
    weights = (Fraction(k, den) for k in coloring.values())
    return chi, FractionalColoring._trusted(dict(zip(IndependentSet._trusted(g, coloring), weights)), chi)


def _covering_lp(n: int, masks: Sequence[int]):
    """(cols, b, c) of min sum x_S with every vertex covered at least once.

    The columns are the sets (bitmasks), then one surplus column -e_v per
    vertex. `cols` is float64, held once for both lanes: its entries 0, 1
    and -1 are exact, the float lane and BLAS read it as it is, and the
    exact layer reads it through int64 (`_simplex`, `_exact_matvec`,
    `_bareiss_solve`).
    """
    cols = np.concatenate([_incidence(masks, n), -np.eye(n)])
    return cols, [1] * n, [1] * len(masks) + [0] * n


def _solve_blocks(g: Graph, cap: int | None) -> tuple[Fraction, int, dict, tuple]:
    """chi_f of g, an optimal coloring and an optimal dual, on integers (`_merge_blocks`).

    On a disjoint union the covering LP splits: chi_f is the largest of the
    parts' chi_f, and the maximal sets of g are the products of the parts'
    (Scheinerman & Ullman, *Fractional Graph Theory*, 1997, ch. 3). So one
    LP is solved over the concatenation of the parts' families
    (`_part_families`, bitmasks over g), for every g: one part, several, or
    no vertices at all. The LP has one block per part and its optimum is
    the sum of their chi_f. `_solve_exact` proves its answer, and
    `_merge_blocks` turns that certificate into g's answer.
    """
    families = _part_families(g, cap)
    masks = [mask for _, family in families for mask in family]
    return _merge_blocks(g, [part for part, _ in families], masks, _solve_exact(*_covering_lp(g.n, masks)))


def _merge_blocks(g: Graph, parts: Sequence[int], masks, res: _Certified) -> tuple[Fraction, int, dict, tuple]:
    """g's chi_f, coloring and dual from the certified LP over its parts' families.

    `res` is the answer `_certify_basis` proved, read as its integers over
    its one denominator d: the support (the set columns with nonzero d x,
    ascending), d x on it, and d y. Block i holds the support's sets inside
    part i, in column order. Returns chi_f, then the coloring as den and
    {mask: den * weight}, then the dual as (d, d y), all on integers: the
    public functions build the Fractions of what they return.

    One block, a graph of one part, is returned as it is: the coloring is
    x on the support, over d, and the dual is y. The empty block of the
    graph with no vertices gives chi_f 0 and no set.

    On several blocks, each block is optimal without a further check: block
    i's x covers every vertex of part i and y packs into every set of part
    i, so sum x_i >= sum of y over part i, and `_certify_basis` has proved
    sum x = sum y, so every block's two sides are equal. chi_f(g) is the
    largest block total. The coloring is the common refinement of the block
    colorings, each scaled to that total, in column order (`_refinement`):
    each piece is a union of one set per block, so maximal in g. The dual is
    y on the first part that attains the maximum, 0 elsewhere. The merged
    coloring's coverage and total are checked on integers, the only checks
    on what the merge builds.
    """
    d, y = res.d, res.y_num
    # (mask, d x) on the support, in column order
    columns = [(masks[j], res.num[j]) for j in sorted(res.num) if j < len(masks) and res.num[j]]
    if len(parts) == 1:
        return Fraction(res.obj_num, d), d, dict(columns), (d, y)
    blocks = [[(mask, xj) for mask, xj in columns if mask & part] for part in parts]
    totals = [sum(xj for _, xj in block) for block in blocks]
    top = max(totals)
    # every block scaled to total `width`, the stretch of chi_f = top / d
    width = math.lcm(*totals)
    pieces = _refinement(
        [[(mask, xj * (width // total)) for mask, xj in block] for block, total in zip(blocks, totals)]
    )
    lengths = [length for _, length in pieces]
    cover = _exact_matvec(_incidence([mask for mask, _ in pieces], g.n).T, lengths).tolist()
    if sum(lengths) != width or any(c * top < d * width for c in cover):
        raise InternalError("internal LP error: merged coloring not covering")
    first = parts[totals.index(top)]
    dual = [yv if first >> v & 1 else 0 for v, yv in enumerate(y)]
    return Fraction(top, d), d * width, {mask: k * top for mask, k in pieces}, (d, dual)


def fractional_chromatic_dual(g: Graph, cap: int | None = None) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimal fractional clique: max sum(x) with sum over each maximal set <= 1.

    This is the dual solution of the covering LP behind
    `fractional_chromatic_number`, proved exactly by `_certify_basis`
    (nonnegative, packing-feasible, complementary to the coloring), so its
    value is chi_f. It is the dual on the first part of largest chi_f,
    which packs into every maximal set of g. `_solve_blocks` hands it over
    as integers (e, e y), and one Fraction is built here per nonzero entry.
    """
    chi, _, _, (e, y) = _solve_blocks(g, cap)
    return chi, {v: Fraction(yv, e) for v, yv in enumerate(y) if yv}


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

    Starts from the optimal coloring of `fractional_chromatic_number`, as
    the integers m = r*x over r that `_solve_blocks` returns, which cover
    every vertex at least r times. Where a vertex is covered more often, it
    is removed from covering sets in deterministic order, by their sorted
    members (splitting a multiplicity when only part of it must go), until
    it is covered exactly r times. Coverage is counted once, on integers
    (`_exact_matvec`), since shrinking a set at vertex u changes only u's
    coverage, and a vertex covered exactly r times is skipped. The total is
    untouched, so m / gcd(r, m) is a b-fold coloring witnessing chi_f.
    `_from_mask` checks each final set's independence and `CoverMultiset`
    its coverage.
    """
    chi, r, mult, _ = _solve_blocks(g, cap)
    cover = _exact_matvec(_incidence(list(mult), g.n).T, list(mult.values())).tolist()
    for v in (v for v in range(g.n) if cover[v] > r):
        bit, excess = 1 << v, cover[v] - r
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
