"""Independent result checks. Nothing here calls the code paths being timed.

Each check returns a list of problems (empty when the result is right).
Exact quantities are compared exactly; floating-point entropy values use
the tolerances pinned by the repository's acceptance tests. The brute-force
references come from `gelab.oracle`, which shares no code with the solvers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import namedtuple
from types import SimpleNamespace

from inputs import canon

FLOAT_SLACK = 1e-9   # decomposition sums and closed-form entropy brackets
OBJ_SLACK = 1e-12    # recomputed objective vs reported value (relative)
BRUTE_SLACK = 1e-8   # oracle bracket, as in the acceptance tests
BRUTE_ENTROPY_MAX_N = 10
BRUTE_ALPHA_MAX_N = 20

_Set = namedtuple("_Set", "members")  # what verify_certificate reads of a set


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _independent(adj, members) -> bool:
    members = list(members)
    return all(0 <= v < len(adj) for v in members) and not any(
        adj[u] & set(members) for u in members
    )


def entropy_errors(graph, p, *, value, gap, converged, coords, decomposition, tol,
                   alpha=None, brute=None) -> list[str]:
    """Check an entropy answer for (graph, p).

    `decomposition` is a list of (members, weight). `alpha` is the closed-form
    independence number when p is uniform on a vertex-transitive graph, so
    H = lg(n/alpha). `brute` is a callable giving the oracle's upper bound.
    """
    n, edges = graph
    adj = adjacency(n, edges)
    errs = []
    if not converged:
        errs.append("solver did not converge")
    if not 0.0 <= gap <= tol:
        errs.append(f"gap {gap!r} outside [0, {tol}]")
    acc = [0.0] * n
    total = 0.0
    for members, w in decomposition:
        if w < 0:
            errs.append(f"negative decomposition weight {w!r}")
        if not _independent(adj, members):
            errs.append(f"decomposition set {sorted(members)} is not independent")
        total += w
        for v in members:
            acc[v] += w
    if abs(total - 1.0) > FLOAT_SLACK:
        errs.append(f"decomposition weights sum to {total!r}")
    if any(abs(acc[v] - coords[v]) > FLOAT_SLACK for v in range(n)):
        errs.append("minimizer coordinates differ from their decomposition")
    support = [v for v in range(n) if p[v] > 0]
    if any(coords[v] <= 0.0 for v in support):
        errs.append("minimizer has a zero coordinate on the support")
        return errs
    objective = -sum(float(p[v]) * math.log2(coords[v]) for v in support)
    if abs(objective - value) > OBJ_SLACK * max(1.0, abs(value)):
        errs.append(f"objective at the minimizer is {objective!r}, reported {value!r}")
    h_p = -sum(float(p[v]) * math.log2(float(p[v])) for v in support)
    if value - gap < -FLOAT_SLACK or value > h_p + FLOAT_SLACK:
        errs.append(f"value {value!r} outside [0, H(P) = {h_p!r}]")
    if alpha is not None:
        ref = math.log2(n / alpha)
        if not value - gap - FLOAT_SLACK <= ref <= value + FLOAT_SLACK:
            errs.append(f"H = lg(n/alpha) = {ref!r} outside [{value - gap!r}, {value!r}]")
    if brute is not None and n <= BRUTE_ENTROPY_MAX_N:
        ref = brute()
        if not (ref - BRUTE_SLACK <= value and value - gap <= ref + BRUTE_SLACK):
            errs.append(f"oracle value {ref!r} outside [{value - gap!r}, {value!r}]")
    return errs


def coloring_errors(graph, chi: Fraction, sets_weights, *, closed=None, alpha=None) -> list[str]:
    """Check a fractional coloring: a list of (members, Fraction weight)."""
    n, edges = graph
    adj = adjacency(n, edges)
    errs = []
    coverage = [Fraction(0)] * n
    total = Fraction(0)
    for members, w in sets_weights:
        if w <= 0:
            errs.append(f"non-positive weight {w} on {sorted(members)}")
        if not _independent(adj, members):
            errs.append(f"coloring set {sorted(members)} is not independent")
            continue
        total += w
        for v in members:
            coverage[v] += w
    if any(c < 1 for c in coverage):
        errs.append("coloring leaves a vertex covered less than once")
    if total != chi:
        errs.append(f"coloring weights total {total}, reported chi_f {chi}")
    errs += chi_errors(n, chi, closed=closed, alpha=alpha)
    return errs


def chi_errors(n: int, chi: Fraction, *, closed=None, alpha=None) -> list[str]:
    errs = []
    if closed is not None and chi != closed:
        errs.append(f"chi_f {chi} differs from the closed form {closed}")
    if alpha is not None and chi < Fraction(n, alpha):
        errs.append(f"chi_f {chi} below n/alpha = {Fraction(n, alpha)}")
    return errs


def cover_errors(graph, covered, fold: int, sets_mults) -> list[str]:
    """Check an integer cover: every covered vertex lies in exactly `fold` sets."""
    n, edges = graph
    adj = adjacency(n, edges)
    errs = []
    count = [0] * n
    for members, mult in sets_mults:
        if mult < 1:
            errs.append(f"multiplicity {mult} on {sorted(members)}")
        if not _independent(adj, members):
            errs.append(f"cover set {sorted(members)} is not independent")
            continue
        for v in members:
            count[v] += mult
    if any(count[v] != fold for v in covered):
        errs.append(f"a covered vertex is not covered exactly {fold} times")
    return errs


def certificate_errors(oracle, gl_graph, gl_dist, covered, fold, sets_mults) -> list[str]:
    """Run `oracle.verify_certificate` on a certificate given as plain data."""
    cm = SimpleNamespace(
        multiplicities={_Set(frozenset(m)): k for m, k in sets_mults},
        covered=frozenset(covered),
        fold=fold,
    )
    report = oracle.verify_certificate(gl_graph, gl_dist, cm)
    return [f"certificate rejected: {r}" for r in report.reasons]


# Reference constructions, written from the definitions and label maps that
# the gelab.constructions docstrings document.

def union_ref(f, g):
    return f[0], canon(f[1] + g[1])


def substitute_ref(g, v, f):
    ng, nf = g[0], f[0]
    outer = {u: (u if u < v else u - 1) for u in range(ng) if u != v}
    inner = {x: ng - 1 + x for x in range(nf)}
    edges = [(outer[a], outer[b]) for a, b in g[1] if v not in (a, b)]
    edges += [(inner[a], inner[b]) for a, b in f[1]]
    nbrs = [b if a == v else a for a, b in g[1] if v in (a, b)]
    edges += [(outer[u], inner[x]) for u in nbrs for x in range(nf)]
    return ng - 1 + nf, canon(edges), outer, inner


def substitute_dist_ref(p, v, q):
    _, _, outer, inner = substitute_ref((len(p), ()), v, (len(q), ()))
    out = [None] * (len(p) - 1 + len(q))
    for u, new in outer.items():
        out[new] = p[u]
    for x, new in inner.items():
        out[new] = p[v] * q[x]
    return tuple(out)


def blowup_ref(g, p):
    n, edges = g
    m = math.lcm(*(Fraction(w).denominator for w in p))
    counts = [int(w * m) for w in p]
    start = [sum(counts[:v]) for v in range(n)]
    block = [range(start[v], start[v] + counts[v]) for v in range(n)]
    return m, canon((a, b) for u, v in edges for a in block[u] for b in block[v])


def gadget_ref(f, k):
    nf, fedges = f
    h = k - 1

    def pair(v, b):
        return h + v * h + b

    edges = [(i, pair(v, b)) for i in range(h) for v in range(nf) for b in range(h)]
    edges += [
        (pair(v, b), pair(w, c))
        for v in range(nf) for w in range(v + 1, nf)
        for b in range(h) for c in range(h) if b != c
    ]
    edges += [(pair(v, b), pair(w, b)) for v, w in fedges for b in range(h)]
    return h * (1 + nf), canon(edges)
