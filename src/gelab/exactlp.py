"""Exact rational linear programming over independent-set families.

Fractional chromatic numbers, uniform-cover feasibility, and integer cover
extraction, all in exact arithmetic. Every LP takes one lane: a float
dense-tableau simplex proposes a basis, and the exact layer certifies it
(feasibility, nonnegativity, and reduced-cost optimality are all re-checked
in rational arithmetic against the full constraint system). Only when that
certification fails is the LP solved again from scratch by an exact tableau
simplex with Bland's rule. Every returned optimum is accompanied by an
exactly-verified dual certificate, so a bug in the pivoting itself cannot
produce a wrong answer unnoticed.

Rationals are `fractions.Fraction` at every public boundary; internally the
engine prefers gmpy2's mpq when available (about an order of magnitude
faster, identical semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError, NotUniform
from .graphs import Graph, IndependentSet, enumerate_maximal_independent_sets

try:
    from gmpy2 import mpq as _RAT
except ImportError:  # pragma: no cover - gmpy2 is an optional accelerator
    _RAT = Fraction

Rational = Fraction

_FLOAT_EPS = 1e-9
_MAX_PIVOTS = 200_000


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(int(x.numerator), int(x.denominator))


# ---------------------------------------------------------------------------
# simplex engine
# ---------------------------------------------------------------------------


@dataclass
class _LPResult:
    status: str  # "optimal" | "infeasible"
    x: list | None = None
    y: list | None = None
    obj: object = None
    basis: list | None = None
    kept_rows: list | None = None


def _build_matrix(cols: Sequence[Sequence[tuple[int, int]]], m: int, exact: bool):
    one = _RAT(1) if exact else 1.0
    zero = _RAT(0) if exact else 0.0
    dtype = object if exact else float
    A = np.full((m, len(cols)), zero, dtype=dtype)
    for j, col in enumerate(cols):
        for i, coef in col:
            A[i, j] = one * coef
    return A


def _tableau_simplex(cols, b, c, *, exact: bool, maxiter: int = _MAX_PIVOTS) -> _LPResult:
    """Two-phase dense-tableau simplex for min c.x, A x = b, x >= 0, b >= 0.

    Exact mode pivots by Bland's rule (no cycling); float mode uses Dantzig
    pricing and is only ever used to guess a basis for the exact layer.
    Artificial columns double as an identity block, so the final tableau
    carries the basis inverse and dual values can be read off directly.
    """
    m, n_struct = len(b), len(cols)
    zero = _RAT(0) if exact else 0.0
    one = _RAT(1) if exact else 1.0
    eps = zero if exact else _FLOAT_EPS

    A = _build_matrix(cols, m, exact)
    art = np.full((m, m), zero, dtype=object if exact else float)
    for i in range(m):
        art[i, i] = one
    T = np.concatenate([A, art, np.reshape([one * v for v in b], (m, 1))], axis=1)
    rhs = n_struct + m
    basis = list(range(n_struct, n_struct + m))
    alive = list(range(m))

    def pivot(r: int, jcol: int) -> None:
        piv = T[r, jcol]
        T[r] = T[r] / piv
        for i in alive:
            if i != r and T[i, jcol] != zero:
                T[i] = T[i] - T[i, jcol] * T[r]
        basis[r] = jcol

    def run_phase(cost, banned, pivots_left) -> tuple[str, int]:
        # reduced-cost row maintained separately from T (last entry rides
        # along over the rhs column and tracks the negated objective)
        y_like = [cost[basis[i]] for i in alive]
        red = np.array(
            [cost[j] - sum(y_like[k] * T[i, j] for k, i in enumerate(alive))
             for j in range(rhs + 1)],
            dtype=object if exact else float,
        )
        while pivots_left > 0:
            enter = -1
            if exact:
                for j in range(rhs):
                    if j not in banned and red[j] < -eps:
                        enter = j
                        break
            else:
                bestval = -eps
                for j in range(rhs):
                    if j not in banned and red[j] < bestval:
                        bestval = red[j]
                        enter = j
            if enter < 0:
                return "optimal", pivots_left
            leave_row, leave_label, ratio = -1, -1, None
            for i in alive:
                t = T[i, enter]
                if t > eps:
                    r_i = T[i, rhs] / t
                    if (
                        ratio is None
                        or r_i < ratio
                        or (r_i == ratio and basis[i] < leave_label)
                    ):
                        leave_row, leave_label, ratio = i, basis[i], r_i
            if leave_row < 0:
                raise InternalError("LP unbounded; covering LPs cannot be")
            pivot(leave_row, enter)
            factor = red[enter]
            red = red - T[leave_row] * factor
            red[enter] = zero
            pivots_left -= 1
        raise InternalError("simplex pivot limit exhausted")

    # phase 1: drive artificials to zero
    cost1 = [zero] * n_struct + [one] * m + [zero]
    banned1: set[int] = set()
    _, left = run_phase(cost1, banned1, maxiter)
    infeas = sum((T[i, rhs] for i in alive if basis[i] >= n_struct), zero)
    if (exact and infeas != 0) or (not exact and infeas > 1e-7):
        return _LPResult(status="infeasible")

    # drive basic artificials out; a row with no structural pivot is redundant
    for i in list(alive):
        if basis[i] >= n_struct:
            target = -1
            for j in range(n_struct):
                if (T[i, j] != zero) if exact else (abs(T[i, j]) > 1e-7):
                    target = j
                    break
            if target >= 0:
                pivot(i, target)
            else:
                alive.remove(i)

    # phase 2 with the real objective; artificials may not re-enter
    cost2 = list(c) + [zero] * m + [zero]
    banned2 = set(range(n_struct, n_struct + m))
    run_phase(cost2, banned2, left)

    x = [zero] * n_struct
    for i in alive:
        if basis[i] < n_struct:
            x[basis[i]] = T[i, rhs]
    # duals from the identity block: y = c_B . B^-1, zero on dropped rows
    y = [zero] * m
    for col in range(m):
        y[col] = sum((cost2[basis[i]] * T[i, n_struct + col] for i in alive), zero)
    obj = sum((cost2[basis[i]] * T[i, rhs] for i in alive), zero)
    return _LPResult(
        status="optimal", x=x, y=y, obj=obj,
        basis=[basis[i] for i in alive], kept_rows=list(alive),
    )


class _WarmStartFailed(Exception):
    pass


def _certify_basis(cols, b, c, basis, kept_rows) -> _LPResult:
    """Exactly solve for a basis found in floats and certify its optimality.

    Raises _WarmStartFailed unless the basic solution is feasible for the
    *full* system and every reduced cost is nonnegative, so a wrong float
    answer can never leak through.
    """
    m = len(kept_rows)
    if len(basis) != m or any(j >= len(cols) for j in basis):
        raise _WarmStartFailed
    row_of = {r: i for i, r in enumerate(kept_rows)}
    B = [[_RAT(0)] * m for _ in range(m)]
    for jj, j in enumerate(basis):
        for i, coef in cols[j]:
            if i in row_of:
                B[row_of[i]][jj] = _RAT(coef)

    # LU with first-nonzero pivoting, exact
    perm = list(range(m))
    lu = [row[:] for row in B]
    for k in range(m):
        p = next((r for r in range(k, m) if lu[r][k] != 0), -1)
        if p < 0:
            raise _WarmStartFailed
        if p != k:
            lu[p], lu[k] = lu[k], lu[p]
            perm[p], perm[k] = perm[k], perm[p]
        inv = 1 / lu[k][k]
        for r in range(k + 1, m):
            if lu[r][k] != 0:
                f = lu[r][k] * inv
                lu[r][k] = f
                row, prow = lu[r], lu[k]
                for t in range(k + 1, m):
                    if prow[t] != 0:
                        row[t] = row[t] - f * prow[t]

    def solve(rhs_vec):
        z = [rhs_vec[perm[r]] for r in range(m)]
        for k in range(m):
            zk = z[k]
            if zk != 0:
                col = [lu[r][k] for r in range(k + 1, m)]
                for off, lv in enumerate(col):
                    if lv != 0:
                        z[k + 1 + off] = z[k + 1 + off] - lv * zk
        for k in range(m - 1, -1, -1):
            acc = z[k]
            row = lu[k]
            for t in range(k + 1, m):
                if row[t] != 0:
                    acc = acc - row[t] * z[t]
            z[k] = acc / row[k]
        return z

    xb = solve([_RAT(b[r]) for r in kept_rows])
    if any(v < 0 for v in xb):
        raise _WarmStartFailed
    x = [_RAT(0)] * len(cols)
    for jj, j in enumerate(basis):
        x[j] = xb[jj]
    # full-system feasibility (the float pass may have dropped rows it
    # wrongly believed redundant, so every original equation is re-checked)
    m_full = len(b)
    lhs = [_RAT(0)] * m_full
    for j, xv in enumerate(x):
        if xv != 0:
            for i, coef in cols[j]:
                lhs[i] = lhs[i] + coef * xv
    if any(lhs[i] != b[i] for i in range(m_full)):
        raise _WarmStartFailed

    # duals: solve B^T y = c_B via the same LU (B = P^-1 L U gives
    # B^T = U^T L^T P, so forward-solve U^T, back-solve L^T, then unpermute)
    cB = [_RAT(c[j]) for j in basis]
    z = cB[:]
    for k in range(m):
        z[k] = z[k] / lu[k][k]
        zk = z[k]
        if zk != 0:
            for r in range(k + 1, m):
                if lu[k][r] != 0:
                    z[r] = z[r] - lu[k][r] * zk
    for k in range(m - 1, -1, -1):
        acc = z[k]
        for r in range(k + 1, m):
            if lu[r][k] != 0:
                acc = acc - lu[r][k] * z[r]
        z[k] = acc
    yk = [None] * m
    for r in range(m):
        yk[perm[r]] = z[r]
    y_full = [_RAT(0)] * m_full
    for i, r in enumerate(kept_rows):
        y_full[r] = yk[i]

    for j, col in enumerate(cols):
        red = _RAT(c[j]) - sum((y_full[i] * coef for i, coef in col), _RAT(0))
        if red < 0:
            raise _WarmStartFailed
    obj = sum((_RAT(c[j]) * x[j] for j in basis), _RAT(0))
    return _LPResult(status="optimal", x=x, y=y_full, obj=obj,
                     basis=list(basis), kept_rows=list(kept_rows))


def _solve_exact(cols, b, c) -> _LPResult:
    """Exact LP solve: certify the float basis, else solve cold in rationals."""
    guess = _tableau_simplex(cols, b, c, exact=False)
    if guess.status == "optimal":
        try:
            return _certify_basis(cols, b, c, guess.basis, guess.kept_rows)
        except _WarmStartFailed:
            pass
    # float infeasibility is only a hint; the exact pass decides
    return _tableau_simplex(cols, b, c, exact=True)


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
        out: set[int] = set()
        for s in self.weights:
            out |= s.members
        return frozenset(out)


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
    the column count shrinks. The returned coloring's coverage constraints
    and a matching dual (packing) solution are re-verified exactly before
    returning.
    """
    if g.n == 0:
        return Fraction(0), FractionalColoring({})
    sets = enumerate_maximal_independent_sets(g, cap)
    res = _solve_covering(g, sets)
    weights = {sets[j]: _frac(res.x[j]) for j in range(len(sets)) if res.x[j] != 0}
    coloring = FractionalColoring(weights)
    for v in range(g.n):
        if coloring.coverage(v) < 1:
            raise InternalError("internal LP error: vertex left uncovered")
    return _frac(res.obj), coloring


def _solve_covering(g: Graph, sets: Sequence[IndependentSet]) -> _LPResult:
    n, k = g.n, len(sets)
    cols = [[(v, 1) for v in s.sorted_members()] for s in sets]
    cols += [[(v, -1)] for v in range(n)]  # surplus
    b = [1] * n
    c = [1] * k + [0] * n
    res = _solve_exact(cols, b, c)
    if res.status != "optimal":
        raise InternalError("covering LP cannot be infeasible")
    # exact dual certificate: y >= 0, packing-feasible, strong duality
    y = res.y
    if any(v < 0 for v in y):
        raise InternalError("internal LP error: negative covering dual")
    for s in sets:
        if sum((y[v] for v in s.members), _RAT(0)) > 1:
            raise InternalError("internal LP error: dual violates packing")
    if sum(y, _RAT(0)) != res.obj:
        raise InternalError("internal LP error: duality gap")
    return res


def fractional_chromatic_dual(g: Graph, cap: int | None = None) -> tuple[Fraction, dict[int, Fraction]]:
    """Optimal fractional clique: max sum(x) with sum over each maximal set <= 1.

    This is the dual solution of the covering LP behind
    `fractional_chromatic_number`, already verified exactly there
    (nonnegative, packing-feasible, zero duality gap), so its value is chi_f.
    """
    if g.n == 0:
        return Fraction(0), {}
    res = _solve_covering(g, enumerate_maximal_independent_sets(g, cap))
    return _frac(res.obj), {v: _frac(y) for v, y in enumerate(res.y) if y != 0}


def uniform_cover_feasible(
    g: Graph, family: Sequence[IndependentSet], target: Iterable[int]
) -> FractionalColoring | None:
    """Rational weights on `family` covering every target vertex exactly once.

    Returns None when no such weighting exists. Only target rows are
    constrained; family sets may touch other vertices freely.
    """
    family = list(family)
    if not family:
        raise ValueError("family of independent sets must be nonempty")
    rows = sorted(set(target))
    for v in rows:
        g._check_vertex(v)
    if not rows:
        return FractionalColoring({})
    row_of = {v: i for i, v in enumerate(rows)}
    cols = [
        [(row_of[v], 1) for v in s.sorted_members() if v in row_of]
        for s in family
    ]
    b = [1] * len(rows)
    c = [0] * len(family)
    res = _solve_exact(cols, b, c)
    if res.status != "optimal":
        return None
    weights: dict[IndependentSet, Fraction] = {}
    for j, s in enumerate(family):
        if res.x[j] != 0:
            weights[s] = weights.get(s, Fraction(0)) + _frac(res.x[j])
    fc = FractionalColoring(weights)
    for v in rows:
        if fc.coverage(v) != 1:
            raise InternalError("internal LP error: cover not exactly uniform")
    return fc


def integralize_cover(fc: FractionalColoring) -> CoverMultiset:
    """Scale a uniform fractional cover to integer multiplicities.

    r is the lcm of the weight denominators; multiplicities are r*w and the
    fold is r times the common per-vertex coverage. Raises NotUniform when
    coverage differs across covered vertices.
    """
    if not fc.weights:
        return CoverMultiset({}, 1, frozenset())
    r = 1
    for w in fc.weights.values():
        r = math.lcm(r, w.denominator)
    covered = fc.covered_vertices()
    coverages = {fc.coverage(v) for v in covered}
    if len(coverages) > 1:
        raise NotUniform(f"coverage varies across vertices: {sorted(coverages)}")
    common = coverages.pop()
    fold = common * r
    if fold.denominator != 1:
        raise InternalError("lcm scaling must give an integer fold")
    mult = {s: int(w * r) for s, w in fc.weights.items()}
    return CoverMultiset(mult, int(fold), covered)


def b_fold_realization(g: Graph, cap: int | None = None) -> CoverMultiset:
    """An integer cover multiset realizing chi_f exactly (size/fold = chi_f).

    Starts from an optimal basic fractional coloring; where the LP optimum
    over-covers a vertex, that vertex is removed from covering sets in
    deterministic order (splitting a set's weight when only part of it must
    go) until every vertex is covered exactly once. The total weight is
    untouched, so integralizing yields a b-fold coloring witnessing chi_f.
    """
    chi, fc = fractional_chromatic_number(g, cap)
    if g.n == 0:
        return CoverMultiset({}, 1, frozenset())
    weights: dict[tuple[int, ...], Fraction] = {
        s.sorted_members(): w for s, w in fc.weights.items()
    }
    for v in range(g.n):
        cov = sum((w for mem, w in weights.items() if v in mem), Fraction(0))
        excess = cov - 1
        if excess < 0:
            raise InternalError("internal error: vertex under-covered")
        for mem in sorted(k for k in weights if v in k):
            if excess == 0:
                break
            w = weights[mem]
            take = min(excess, w)
            if take == 0:
                continue
            shrunk = tuple(u for u in mem if u != v)
            if not shrunk:
                raise InternalError(
                    "internal error: tightening emptied a set; coloring was not optimal"
                )
            weights[mem] = w - take
            weights[shrunk] = weights.get(shrunk, Fraction(0)) + take
            if weights[mem] == 0:
                del weights[mem]
            excess -= take
    fc_tight = FractionalColoring(
        {IndependentSet(g, mem): w for mem, w in weights.items()}
    )
    if fc_tight.total != chi:
        raise InternalError("internal error: tightening changed the LP objective")
    cm = integralize_cover(fc_tight)
    if Fraction(cm.size, cm.fold) != chi:
        raise InternalError("internal error: integer cover does not realize chi_f")
    return cm
