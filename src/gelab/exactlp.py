"""Exact rational linear programming over independent-set families.

Fractional chromatic numbers, their dual fractional cliques, and integer
cover extraction, all in exact arithmetic. Every LP takes one lane: a float
revised simplex proposes a basis, and the exact layer certifies it
(Applegate, Cook, Dash & Espinoza, ORL 2007). Certification is
fraction-free integer arithmetic over the common denominator det(B):
Bareiss elimination gives det(B) x_B and det(B) y as integers, and
feasibility against the full constraint system, nonnegativity, and
reduced-cost optimality are all re-checked on those integers. Only when
that certification fails is the LP solved again from scratch by the same
revised simplex in Fractions, with Bland's rule. Whichever lane answered,
`_solve_covering` proves primal and dual again on integers, so a bug in
the pivoting itself cannot produce a wrong answer unnoticed. Where the
optimum is not unique, which optimal coloring, b-fold multiset or dual
vector is returned depends on the pivoting; chi_f and every verdict do not.

Every rational, inside the exact layer and at its boundary, is a
`fractions.Fraction`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError, NotUniform
from .graphs import Graph, IndependentSet, _bits, _incidence, enumerate_maximal_independent_sets

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
    status: str  # "optimal" | "infeasible"
    x: list | None = None
    y: list | None = None
    obj: object = None
    basis: list | None = None
    kept_rows: list | None = None


def _simplex(cols, b, c, *, exact: bool, maxiter: int = _MAX_PIVOTS) -> _LPResult:
    """Two-phase revised simplex for min c.x, A x = b, x >= 0, b >= 0.

    Exact mode pivots by Bland's rule (no cycling) in Fractions; float mode
    uses Dantzig pricing and is only ever used to guess a basis for the
    exact layer. The basis inverse B^-1 (m x m) is held explicitly, as in
    the revised simplex of Dantzig & Orchard-Hays (1954). Each pivot prices
    every column at once as c - (c_B B^-1) A, one matvec; forms the
    entering column B^-1 a_q for the ratio test; and updates B^-1 and x_B
    by a rank-one step. The artificial columns are the identity: they are
    priced as cost - y and never stored. Duals are y = c_B B^-1 on the
    kept rows.
    """
    m, n_struct = len(b), len(cols)
    zero = Fraction(0) if exact else 0.0
    eps = zero if exact else _FLOAT_EPS
    dtype = object if exact else np.float64
    A = cols.astype(dtype)  # A^T: row j is column j of A
    Binv = np.full((m, m), zero, dtype=dtype)
    np.fill_diagonal(Binv, Fraction(1) if exact else 1.0)
    xB = np.array([zero + v for v in b], dtype=dtype)
    basis = np.arange(n_struct, n_struct + m)
    live = np.ones(m, dtype=bool)  # rows not dropped as redundant

    def pivot(r: int, enter: int, u) -> None:
        # rank-one update of B^-1 and x_B; u = B^-1 a_enter must not alias B^-1
        p, theta = Binv[r] / u[r], xB[r] / u[r]
        Binv[:] -= u[:, None] * p
        xB[:] -= u * theta
        Binv[r], xB[r] = p, theta
        basis[r] = enter

    def run_phase(cost, limit, pivots_left) -> int:
        # `cost` spans the structural columns, then the artificials; only
        # the first `limit` columns may enter
        while pivots_left > 0:
            y = cost[basis] @ Binv
            red = cost[:n_struct] - A @ y
            if limit > n_struct:
                red = np.concatenate([red, cost[n_struct:] - y])
            neg = (red < -eps).nonzero()[0]
            if not neg.size:
                return pivots_left
            # Bland: the first improving column; Dantzig: the most negative
            enter = neg[0] if exact else neg[red[neg].argmin()]
            u = Binv @ A[enter] if enter < n_struct else Binv[:, enter - n_struct].copy()
            rows = (live & (u > eps)).nonzero()[0]
            if not rows.size:
                raise InternalError("LP unbounded; covering LPs cannot be")
            ratios = xB[rows] / u[rows]
            tied = rows[ratios == ratios.min()]
            pivot(tied[basis[tied].argmin()], enter, u)  # ties: smallest basis label
            pivots_left -= 1
        raise InternalError("simplex pivot limit exhausted")

    def costs(struct, art):
        # filled in numpy: n Python floats would fragment pymalloc arenas and
        # raise peak RSS
        cost = np.full(n_struct + m, zero + art, dtype=dtype)
        cost[:n_struct] = struct
        return cost

    # phase 1: drive artificials to zero
    left = run_phase(costs(0, 1), n_struct + m, maxiter)
    infeas = xB[basis >= n_struct].sum()
    if (exact and infeas != 0) or (not exact and infeas > 1e-7):
        return _LPResult(status="infeasible")

    # drive basic artificials out; a row with no structural pivot is redundant
    for i in np.flatnonzero(basis >= n_struct):
        row = A @ Binv[i]  # row i of B^-1 A
        target = np.flatnonzero(row != zero if exact else np.abs(row) > 1e-7)
        if target.size:
            pivot(i, target[0], Binv @ A[target[0]])
        else:
            live[i] = False

    # phase 2 with the real objective; artificials may not re-enter
    cost2 = costs(c, 0)
    run_phase(cost2, n_struct, left)

    rows = np.flatnonzero(live)
    x = [zero] * n_struct
    for i in rows:
        if basis[i] < n_struct:
            x[basis[i]] = xB[i]
    cB = cost2[basis[rows]]
    return _LPResult(
        status="optimal", x=x, y=list(cB @ Binv[rows]), obj=cB @ xB[rows],
        basis=basis[rows].tolist(), kept_rows=rows.tolist(),
    )


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
    _WarmStartFailed when M is singular.
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


def _common_denominator(values) -> tuple[int, list[int]]:
    """(d, [d*v ...]) for rationals `values`, d the lcm of their denominators.

    `values` is iterated twice. Every d*v is a Python int, so sums and
    comparisons of the values run on integers over one denominator d.
    """
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _exact_matvec(M, v) -> np.ndarray:
    """M @ v exactly, for an int64 matrix M and a sequence of Python ints v.

    Runs in int64 when no partial sum can reach 2**63 (max|v| times the
    largest |M| entry times the row length stays below it), else on
    Python ints.
    """
    bound = max(map(abs, v), default=0) * M.shape[1]
    bound *= max(int(M.max(initial=0)), -int(M.min(initial=0)))
    if bound < 2**63:
        return M @ np.array(v, dtype=np.int64)
    return M.astype(object) @ np.array(v, dtype=object)


def _certify_basis(cols, b, c, basis, kept_rows) -> _LPResult:
    """Exactly solve for a basis found in floats and certify its optimality.

    All arithmetic is on integers over the common denominator det(B), from
    two Bareiss solves: B x_B = b on the kept rows and B^T y = c_B. Raises
    _WarmStartFailed unless x is nonnegative and satisfies *every* row
    (the float pass may have dropped rows it wrongly believed redundant),
    and every reduced cost c_j - y.a_j is nonnegative and zero on the
    basis. Then x and y are feasible and complementary, which proves both
    optimal whatever computed them, so a wrong float answer can never leak
    through. Rationals are built only for the nonzero outputs.
    """
    m = len(kept_rows)
    if len(basis) != m or any(j >= len(cols) for j in basis):
        raise _WarmStartFailed
    B = cols[basis][:, kept_rows].T
    det, x_num = _bareiss_solve(B, [b[r] for r in kept_rows])
    if any(v < 0 for v in x_num):
        raise _WarmStartFailed
    if _exact_matvec(cols[basis].T, x_num).tolist() != [det * v for v in b]:
        raise _WarmStartFailed

    det_y, y_kept = _bareiss_solve(B.T, [c[j] for j in basis])
    y_num = [0] * len(b)
    for r, v in zip(kept_rows, y_kept):
        y_num[r] = v
    ya = _exact_matvec(cols, y_num)
    c_det = _exact_matvec(np.asarray(c, dtype=np.int64)[:, None], [det_y])  # c_j det_y
    if np.any(ya > c_det) or np.any(ya[basis] != c_det[basis]):
        raise _WarmStartFailed

    zero = Fraction(0)
    x = [zero] * len(cols)
    for j, v in zip(basis, x_num):
        if v:
            x[j] = Fraction(v, det)
    y = [Fraction(v, det_y) if v else zero for v in y_num]
    obj = Fraction(sum(c[j] * v for j, v in zip(basis, x_num)), det)
    return _LPResult(status="optimal", x=x, y=y, obj=obj,
                     basis=list(basis), kept_rows=list(kept_rows))


def _solve_exact(cols, b, c) -> _LPResult:
    """Exact LP solve: certify the float basis, else solve cold in rationals."""
    guess = _simplex(cols, b, c, exact=False)
    if guess.status == "optimal":
        try:
            return _certify_basis(cols, b, c, guess.basis, guess.kept_rows)
        except _WarmStartFailed:
            pass
    # float infeasibility is only a hint; the exact pass decides
    return _simplex(cols, b, c, exact=True)


# ---------------------------------------------------------------------------
# fractional colorings and covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalColoring:
    """Rational weights on independent sets witnessing a covering LP value."""

    weights: dict
    total: Fraction

    def __init__(self, weights: dict):
        weights = {s: Fraction(w) for s, w in weights.items() if w != 0}
        if any(w < 0 for w in weights.values()):
            raise ValueError("negative weight in fractional coloring")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", sum(weights.values(), Fraction(0)))

    def coverage(self, v: int) -> Fraction:
        return sum((w for s, w in self.weights.items() if v in s), Fraction(0))

    def covered_vertices(self) -> frozenset[int]:
        mask = 0
        for s in self.weights:
            mask |= s.mask
        return frozenset(_bits(mask))


@dataclass(frozen=True)
class CoverMultiset:
    """Multiset of independent sets covering each covered vertex `fold` times."""

    multiplicities: dict
    fold: int
    covered: frozenset[int]

    def __init__(self, multiplicities: dict, fold: int, covered: Iterable[int]):
        multiplicities = {s: int(k) for s, k in multiplicities.items() if k}
        covered = frozenset(covered)
        if any(k < 0 for k in multiplicities.values()):
            raise ValueError("negative multiplicity")
        if multiplicities and fold < 1:
            raise ValueError("fold must be >= 1 for a nonempty cover")
        for v in covered:
            count = sum(k for s, k in multiplicities.items() if v in s)
            if count != fold:
                raise NotUniform(f"vertex {v} covered {count} times, fold is {fold}")
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
    the column count shrinks. The coloring's coverage and a matching dual
    (packing) solution are proved exactly by `_solve_covering`.
    """
    if g.n == 0:
        return Fraction(0), FractionalColoring({})
    sets = enumerate_maximal_independent_sets(g, cap)
    res, support = _solve_covering(g, sets)
    return res.obj, FractionalColoring({sets[j]: res.x[j] for j in support})


def _covering_lp(n: int, sets: Sequence[IndependentSet]):
    """(cols, b, c) of min sum x_S with every vertex covered at least once.

    The columns are the sets, then one surplus column -e_v per vertex.
    """
    cols = np.concatenate([_incidence(sets, n).astype(np.int64), -np.eye(n, dtype=np.int64)])
    return cols, [1] * n, [1] * len(sets) + [0] * n


def _solve_covering(g: Graph, sets: Sequence[IndependentSet]) -> tuple[_LPResult, list[int]]:
    """Solve the covering LP over `sets` and prove the answer, from either lane.

    On integers over one common denominator per side: x >= 0 covers every
    vertex, y >= 0 packs into every set, and sum x = sum y = obj. The primal
    side runs over the support of x only (at most n sets for a basic
    solution): a zero weight adds nothing to coverage or sum, and a
    negative one is nonzero. Returns the result and that support, the
    indices of the sets with nonzero weight.
    """
    cols, b, c = _covering_lp(g.n, sets)
    k = len(sets)
    res = _solve_exact(cols, b, c)
    if res.status != "optimal":
        raise InternalError("covering LP cannot be infeasible")
    support = [j for j, w in enumerate(res.x[:k]) if w]
    x_den, x_int = _common_denominator([res.x[j] for j in support])
    y_den, y_int = _common_denominator(res.y)
    if any(v < 0 for v in x_int) or np.any(_exact_matvec(cols[support].T, x_int) < x_den):
        raise InternalError("internal LP error: coloring negative or not covering")
    if any(v < 0 for v in y_int) or np.any(_exact_matvec(cols[:k], y_int) > y_den):
        raise InternalError("internal LP error: dual negative or not packing")
    if Fraction(sum(x_int), x_den) != res.obj or Fraction(sum(y_int), y_den) != res.obj:
        raise InternalError("internal LP error: duality gap")
    return res, support


def fractional_chromatic_dual(g: Graph, cap: int | None = None) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimal fractional clique: max sum(x) with sum over each maximal set <= 1.

    This is the dual solution of the covering LP behind
    `fractional_chromatic_number`, already verified exactly there
    (nonnegative, packing-feasible, zero duality gap), so its value is chi_f.
    """
    if g.n == 0:
        return Fraction(0), {}
    res, _ = _solve_covering(g, enumerate_maximal_independent_sets(g, cap))
    return res.obj, {v: y for v, y in enumerate(res.y) if y != 0}


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
    if g.n == 0:
        return CoverMultiset({}, 1, frozenset())
    r, counts = _common_denominator(fc.weights.values())
    mult = dict(zip(fc.weights, counts))
    for v in range(g.n):
        excess = sum(k for s, k in mult.items() if v in s) - r
        for s in sorted((s for s in mult if v in s), key=IndependentSet.sorted_members):
            if excess == 0:
                break
            take = min(excess, mult[s])
            shrunk = IndependentSet._from_mask(g, s.mask & ~(1 << v))
            if not shrunk:
                raise InternalError("internal error: tightening emptied a set")
            mult[s] -= take
            mult[shrunk] = mult.get(shrunk, 0) + take
            if mult[s] == 0:
                del mult[s]
            excess -= take
    d = math.gcd(r, *mult.values())
    cm = CoverMultiset({s: k // d for s, k in mult.items()}, r // d, range(g.n))
    if Fraction(cm.size, cm.fold) != chi:
        raise InternalError("internal error: integer cover does not realize chi_f")
    return cm
