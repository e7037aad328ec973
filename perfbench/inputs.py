"""Seeded input generation: plain graphs and distributions, no gelab code.

A graph is a pair (n, edges) with edges a sorted tuple of (u, v), u < v.
Distributions are tuples of Fractions. Every graph a workload hands to the
program goes through `Draw.fresh`, which relabels it with the seeded stream
and redraws on a repeat, so no two operations (and no warm-up operation)
share an edge set: gelab caches maximal-set enumeration by edge set, and a
repeat would hide enumeration cost.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def canon(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in pairs}))


def gnp(rng: random.Random, n: int, p: float):
    return n, canon((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)


def odd_cycle(n: int):
    return n, canon((i, (i + 1) % n) for i in range(n))


def kneser(m: int, k: int):
    verts = list(itertools.combinations(range(m), k))
    return len(verts), canon(
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if not set(verts[i]) & set(verts[j])
    )


def circulant(n: int, jumps):
    return n, canon((i, (i + s) % n) for i in range(n) for s in jumps)


def triangles(k: int):
    return 3 * k, canon(
        e for t in range(k) for e in ((3 * t, 3 * t + 1), (3 * t, 3 * t + 2), (3 * t + 1, 3 * t + 2))
    )


def matched_bipartite(rng: random.Random, n: int, p: float):
    """Bipartite graph on 2h vertices containing the matching i -- i+h."""
    h = n // 2
    pairs = [(i, i + h) for i in range(h)]
    pairs += [(i, h + j) for i in range(h) for j in range(h) if i != j and rng.random() < p]
    return 2 * h, canon(pairs)


class Draw:
    """One seeded stream of inputs; remembers every edge set it handed out."""

    def __init__(self, label: str):
        self.rng = random.Random(label)
        self.seen: set = set()

    def fresh(self, make):
        """make() -> (n, edges); returns a random relabelling not seen before.

        The permutation used (old label -> new label) is left in `self.perm`
        so that a distribution built for the unlabelled graph can follow it.
        """
        rng = self.rng
        for _ in range(256):
            n, edges = make()
            perm = list(range(n))
            rng.shuffle(perm)
            graph = (n, canon((perm[u], perm[v]) for u, v in edges))
            if graph not in self.seen:
                self.seen.add(graph)
                self.perm = perm
                return graph
        raise RuntimeError("no unseen relabelling after 256 draws")

    def carry(self, weights):
        """Move a distribution along the permutation of the last `fresh` graph."""
        out = [None] * len(weights)
        for v, w in enumerate(weights):
            out[self.perm[v]] = w
        return tuple(out)


def uniform(n: int):
    return (Fraction(1, n),) * n


def weights(rng: random.Random, n: int, zeros: int = 0):
    """Random rational distribution; `zeros` random vertices get weight 0."""
    w = [rng.randint(1, 9) for _ in range(n)]
    for v in rng.sample(range(n), zeros):
        w[v] = 0
    total = sum(w)
    return tuple(Fraction(x, total) for x in w)


def counts(rng: random.Random, n: int, m: int):
    """Full-support distribution c_v / m with integer counts summing to m."""
    c = [1] * n
    for _ in range(m - n):
        c[rng.randrange(n)] += 1
    return tuple(Fraction(x, m) for x in c)


def paired(rng: random.Random, n: int, m: int):
    """Equal weight on both ends of each edge i -- i+n/2 (see matched_bipartite)."""
    h = n // 2
    c = [1] * h
    for _ in range(m // 2 - h):
        c[rng.randrange(h)] += 1
    return tuple(Fraction(x, 2 * sum(c)) for x in c + c)


def alpha_closed_form(family: str, *params) -> int:
    """Independence numbers of the vertex-transitive families used here."""
    if family == "odd-cycle":
        return (params[0] - 1) // 2
    if family == "kneser":  # Erdos-Ko-Rado, m >= 2k
        m, k = params
        return math.comb(m - 1, k - 1)
    if family == "triangles":
        return params[0]
    raise ValueError(family)
