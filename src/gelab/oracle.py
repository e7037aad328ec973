"""Brute-force reference implementations, used only for testing.

Everything here is deliberately a different algorithm family from the main
code paths (exhaustive subset scans instead of Bron-Kerbosch, projected
gradient over set-combination weights instead of conditional gradient over
polytope coordinates), so that agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded
from .graphs import Distribution, Graph

BRUTE_VERTEX_CAP = 20
ENTROPY_VERTEX_CAP = 10
MULTISTART_SEEDS = (0, 1, 2, 3, 4)


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise CapExceeded(f"brute-force path capped at {cap} vertices, got {g.n}")


def _independent_mask_flags(g: Graph) -> np.ndarray:
    """Boolean flag per subset bitmask: True iff the subset is independent."""
    n = g.n
    idx = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    for v in range(n):
        picked = (idx >> np.uint32(v)) & np.uint32(1)
        clash = (idx & np.uint32(g.adjacency_mask(v))) != 0
        ok &= ~((picked == 1) & clash)
    return ok


def _popcounts(count: int) -> np.ndarray:
    idx = np.arange(count, dtype=np.uint32)
    bytes_ = idx.view(np.uint8).reshape(count, 4)
    return np.unpackbits(bytes_, axis=1).sum(axis=1)


def brute_alpha(g: Graph) -> int:
    """Independence number by exhaustive check of all 2^n subsets."""
    _check_cap(g, BRUTE_VERTEX_CAP)
    if g.n == 0:
        return 0
    ok = _independent_mask_flags(g)
    return int(_popcounts(1 << g.n)[ok].max())


def brute_maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Inclusion-maximal independent sets via the exhaustive subset scan."""
    _check_cap(g, BRUTE_VERTEX_CAP)
    ok = _independent_mask_flags(g)
    out = []
    for m in np.nonzero(ok)[0]:
        m = int(m)
        extendable = any(
            not (m >> v & 1) and g.adjacency_mask(v) & m == 0 for v in range(g.n)
        )
        if not extendable:
            out.append(_mask_members(m))
    return sorted(out)


def brute_max_weight(g: Graph, weights) -> tuple[object, list[tuple[int, ...]]]:
    """Exhaustive maximum-weight value and all subsets attaining it exactly."""
    _check_cap(g, BRUTE_VERTEX_CAP)
    best = None
    attaining: list[tuple[int, ...]] = []
    for mask in range(1 << g.n):
        skip = False
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if g.adjacency_mask(v) & mask:
                skip = True
                break
            total = total + weights[v]
        if skip:
            continue
        if best is None or total > best:
            best = total
            attaining = [_mask_members(mask)]
        elif total == best:
            attaining.append(_mask_members(mask))
    return best, sorted(attaining)


def _mask_members(mask: int) -> tuple[int, ...]:
    mask = int(mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(y) + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def brute_entropy(g: Graph, p: Distribution, precision: float = 1e-9,
                  max_iter: int = 50_000, seed_base: int = 0) -> float:
    """High-precision upper bound on the graph entropy, in bits.

    Minimizes the entropy objective over explicit convex-combination weights
    of all maximal independent sets by projected gradient (Barzilai-Borwein
    steps with Armijo backtracking and simplex projection), run from five
    fixed random starts (seeds seed_base..seed_base+4). Combined with the
    conditional-gradient lower bound it brackets the optimum.
    """
    _check_cap(g, ENTROPY_VERTEX_CAP)
    if p.n != g.n:
        raise ValueError("distribution length differs from vertex count")
    sets = brute_maximal_independent_sets(g)
    supp = list(p.support)
    if not supp:
        raise ValueError("distribution has empty support")
    M = np.zeros((len(sets), g.n))
    for i, members in enumerate(sets):
        M[i, list(members)] = 1.0
    M = M[:, supp]
    q = np.array([float(p[v]) for v in supp])

    def value(lam: np.ndarray) -> float:
        a = lam @ M
        if np.any(a <= 0.0):
            return math.inf
        return float(-(q * np.log2(a)).sum())

    def grad(lam: np.ndarray) -> np.ndarray:
        a = lam @ M
        return M @ (-q / (a * math.log(2)))

    best = math.inf
    for seed in range(seed_base, seed_base + len(MULTISTART_SEEDS)):
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(len(sets)))
        f = value(lam)
        while not math.isfinite(f):
            lam = rng.dirichlet(np.ones(len(sets)))
            f = value(lam)
        step = 1.0
        gr = grad(lam)
        since_improvement = 0
        f_best_seed = f
        for _ in range(max_iter):
            cand = _project_simplex(lam - step * gr)
            d = cand - lam
            f_cand = value(cand)
            backtracks = 0
            while f_cand > f + 1e-4 * float(gr @ d) and backtracks < 60:
                step *= 0.5
                cand = _project_simplex(lam - step * gr)
                d = cand - lam
                f_cand = value(cand)
                backtracks += 1
            gr_new = grad(cand)
            # Barzilai-Borwein step for the next round, clipped to sane range.
            s = cand - lam
            y = gr_new - gr
            sy = float(s @ y)
            if sy > 1e-18:
                step = min(max(float(s @ s) / sy, 1e-12), 1e12)
            else:
                step = 1.0
            lam, f, gr = cand, f_cand, gr_new
            if f < f_best_seed - 1e-15:
                f_best_seed = f
                since_improvement = 0
            else:
                since_improvement += 1
                # float resolution reached; more iterations cannot help
                if since_improvement >= 200:
                    break
            if np.abs(lam - _project_simplex(lam - gr)).max() <= precision:
                break
        best = min(best, f_best_seed)
    return best + 0.0


@dataclass
class VerificationReport:
    """Outcome of an independent certificate re-check."""

    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Graph, p: Distribution, cm) -> VerificationReport:
    """Re-check a cover-multiset certificate using only brute-force code paths.

    Verifies that every set is independent, that every set attains the
    exhaustively-computed maximum weight exactly, and that the support of p
    is covered uniformly (every support vertex in exactly `fold` sets,
    counted with multiplicity).
    """
    reasons: list[str] = []
    sets = list(cm.multiplicities.items())
    if not sets:
        reasons.append("empty certificate")
        return VerificationReport(False, reasons)
    for ind, mult in sets:
        members = sorted(ind.members)
        if mult < 1:
            reasons.append(f"non-positive multiplicity for {members}")
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if g.has_edge(u, v):
                    reasons.append(f"set {members} contains edge ({u},{v})")
    best, _ = brute_max_weight(g, p.weights)
    for ind, _ in sets:
        w = sum((p.weights[v] for v in ind.members), start=p.weights[0] * 0)
        if w != best:
            reasons.append(
                f"set {sorted(ind.members)} has weight {w}, maximum is {best}"
            )
    supp = set(p.support)
    if set(cm.covered) != supp:
        reasons.append(f"covered {sorted(cm.covered)} differs from support {sorted(supp)}")
    for v in sorted(supp):
        count = sum(mult for ind, mult in sets if v in ind.members)
        if count != cm.fold:
            reasons.append(f"vertex {v} covered {count} times, fold is {cm.fold}")
    return VerificationReport(not reasons, reasons)
