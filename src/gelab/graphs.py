"""Graphs, independent sets, vertex distributions, and the weighted-alpha oracles.

Vertices are always labelled 0..n-1. Adjacency is kept both as a canonical
edge tuple (for hashing/equality) and as per-vertex bitmasks (for the
enumeration inner loops). An independent set is stored only as its bitmask;
its member frozenset is derived on first use and cached. All types are
immutable values; every operation here is pure, so results can be cached
and shared freely across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, VertexNotFound

DEFAULT_CAP = 40
SET_COUNT_CAP = 10**6
"""Set budget: most sets one enumeration may produce before `CapExceeded`.

It bounds every enumeration of maximal independent sets (checked as the
sets are found, before they are sorted, wrapped or turned into a matrix).
The vertex cap alone does not bound memory: 13 disjoint triangles (39
vertices) have 3**13 = 1.59M maximal independent sets.
"""


def resolve_cap(cap: int | None) -> int:
    """Effective enumeration cap: explicit argument, else GELAB_CAP, else 40."""
    if cap is not None:
        return cap
    env = os.environ.get("GELAB_CAP")
    return int(env) if env else DEFAULT_CAP


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexNotFound(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    return tuple(sorted(seen))


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _normalize_edges(n, edges))
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_hash", hash((n, self.edges)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    @property
    def vertices(self) -> range:
        return range(self.n)

    def adjacency_mask(self, v: int) -> int:
        """Neighbours of v as a bitmask."""
        self._check_vertex(v)
        return self._adj[v]

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_bits(self._adj[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def is_independent(self, members: Iterable[int]) -> bool:
        mask = 0
        for v in members:
            self._check_vertex(v)
            mask |= 1 << v
        return all(self._adj[v] & mask == 0 for v in _bits(mask))

    def induced(self, keep: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph induced by `keep`, relabelled 0..k-1 in `keep`'s sorted order.

        Returns the subgraph and the old->new label map. When `keep` is every
        vertex, the subgraph is the graph itself and the map the identity.
        """
        order = sorted(set(keep))
        for v in order:
            self._check_vertex(v)
        relabel = {old: new for new, old in enumerate(order)}
        if len(order) == self.n:
            return self, relabel
        edges = [
            (relabel[u], relabel[v])
            for u, v in self.edges
            if u in relabel and v in relabel
        ]
        return Graph(len(order), edges), relabel

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexNotFound(f"vertex {v} not in 0..{self.n - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={len(self.edges)})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


@dataclass(frozen=True, eq=False)
class IndependentSet:
    """A vertex subset of a specific graph with no internal edges.

    `mask` is the set: bit v is set iff v is a member. Every other view
    (`members`, `len`, `in`, `sorted_members`, the characteristic vector,
    the weight) is read off it; `members` is derived once and cached.
    """

    graph: Graph
    mask: int

    def __init__(self, graph: Graph, members: Iterable[int]):
        mask = 0
        for v in members:
            graph._check_vertex(v)
            mask |= 1 << v
        _check_independent(graph, mask)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, graph: Graph, mask: int) -> "IndependentSet":
        """The set with bitmask `mask`, under the same checks as `__init__`."""
        if mask >> graph.n:
            raise VertexNotFound(f"mask {mask:#x} has a bit outside 0..{graph.n - 1}")
        _check_independent(graph, mask)
        obj = object.__new__(cls)
        object.__setattr__(obj, "graph", graph)
        object.__setattr__(obj, "mask", mask)
        return obj

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    @cached_property
    def _hash(self) -> int:
        # on first use: most enumerated sets are never hashed
        return hash((self.graph._hash, self.mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndependentSet):
            return NotImplemented
        return self.mask == other.mask and self.graph == other.graph

    def __hash__(self) -> int:
        return self._hash

    def characteristic_vector(self) -> tuple[int, ...]:
        """0/1 coordinates over the owning graph's vertices (a VP(G) vertex)."""
        return tuple(self.mask >> v & 1 for v in range(self.graph.n))

    def weight(self, weights: Sequence) -> object:
        """Total weight of the members under a vertex-indexed weight vector."""
        total = 0
        for v in _bits(self.mask):
            total = total + weights[v]
        return total

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return v >= 0 and self.mask >> v & 1 == 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndependentSet({list(_bits(self.mask))})"


def _check_independent(graph: Graph, mask: int) -> None:
    """Raise ValueError when two vertices of `mask` are adjacent in `graph`."""
    adj = graph._adj
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        if adj[v] & mask:
            raise ValueError(f"members {list(_bits(mask))} contain an edge at vertex {v}")
        rest ^= low


@dataclass(frozen=True)
class Distribution:
    """Vertex-indexed probability weights, exact-rational or floating point."""

    weights: tuple
    exact: bool

    def __init__(self, weights: Sequence):
        weights = tuple(weights)
        if not weights:
            raise ValueError("distribution needs at least one vertex")
        exact = all(isinstance(w, (int, Fraction)) for w in weights)
        if exact:
            weights = tuple(Fraction(w) for w in weights)
            if any(w < 0 for w in weights):
                raise ValueError("negative probability weight")
            if sum(weights) != 1:
                raise ValueError(f"rational weights sum to {sum(weights)}, not 1")
        else:
            weights = tuple(float(w) for w in weights)
            if any(not w >= 0 for w in weights):  # NaN fails this too
                raise ValueError("negative probability weight")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise ValueError(f"weights sum to {sum(weights)!r}, not 1 within 1e-12")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise ValueError("distribution needs at least one vertex")
        # n equal weights summing to 1 need no validation
        p = object.__new__(cls)
        object.__setattr__(p, "weights", (Fraction(1, n),) * n)
        object.__setattr__(p, "exact", True)
        return p

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, w in enumerate(self.weights) if w > 0)

    def __getitem__(self, v: int):
        return self.weights[v]

    def restricted_to(self, keep: Sequence[int]) -> tuple:
        """Weights re-indexed by `keep`'s sorted order (no renormalization)."""
        return tuple(self.weights[v] for v in sorted(keep))


@dataclass(frozen=True)
class WeightedAlpha:
    """Maximum independent-set weight together with a witness attaining it."""

    value: object
    witness: IndependentSet


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_independent_masks(adj: tuple[int, ...], n: int) -> list[int]:
    """All inclusion-maximal independent sets as bitmasks, in search order.

    Bron-Kerbosch with pivoting, run on the complement (maximal independent
    sets of G are maximal cliques of ~G). The pivot is Tomita's: the vertex
    of P | X with the most complement-neighbours inside P (first by label on
    ties), so each call branches on the fewest candidates and the search
    takes O(3**(n/3)) time, the Moon-Moser bound on the output size
    (Tomita, Tanaka & Takahashi, "The worst-case time complexity for
    generating all maximal cliques and computational experiments",
    Theoretical Computer Science 363, 2006). Raises CapExceeded as soon as
    more than SET_COUNT_CAP sets have been found.
    """
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []
    budget = SET_COUNT_CAP

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                if len(out) >= budget:
                    raise CapExceeded(f"more than {budget} maximal independent sets")
                out.append(r)
            return
        pivot, best = -1, -1
        pux = p | x
        while pux:
            low = pux & -pux
            u = low.bit_length() - 1
            pux ^= low
            d = (comp[u] & p).bit_count()
            if d > best:
                pivot, best = u, d
        branch = p & ~comp[pivot]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            branch ^= low
            expand(r | low, p & comp[v], x & comp[v])
            p ^= low
            x |= low
    if n:
        expand(0, full, 0)
    else:
        out.append(0)
    return out


@lru_cache(maxsize=2048)
def _maximal_sets_cached(graph: Graph) -> tuple[int, ...]:
    """Bitmasks of the maximal independent sets, lexicographic by member list.

    The sets form an antichain, so no member list is a prefix of another and
    the first vertex where two sets differ decides their order: the set that
    holds it comes first. That is descending order of the bit strings read
    from vertex 0 upward (`bin(m)[:1:-1]`; no set being a subset of another,
    the missing trailing zeros never decide a comparison).
    """
    masks = _maximal_independent_masks(graph._adj, graph.n)
    return tuple(sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True))


def _incidence(sets: Sequence["IndependentSet"], n: int) -> np.ndarray:
    """0/1 uint8 matrix with one row per set and one column per vertex."""
    width = (n + 7) // 8
    raw = b"".join(s.mask.to_bytes(width, "little") for s in sets)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(sets), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _maximal_sets_if_capped(g: Graph, cap: int | None) -> tuple[int, ...]:
    """The cached maximal-set bitmasks, after the vertex-cap check."""
    limit = resolve_cap(cap)
    if g.n > limit:
        raise CapExceeded(f"graph has {g.n} vertices, enumeration cap is {limit}")
    return _maximal_sets_cached(g)


def enumerate_maximal_independent_sets(g: Graph, cap: int | None = None) -> list[IndependentSet]:
    """Every inclusion-maximal independent set, lexicographic by member list.

    Raises CapExceeded when g has more vertices than the vertex cap, or more
    than SET_COUNT_CAP maximal independent sets (the set budget, checked
    while the sets are found, so memory stays bounded by the budget).
    """
    return [IndependentSet._from_mask(g, mask) for mask in _maximal_sets_if_capped(g, cap)]


def alpha(g: Graph, cap: int | None = None) -> WeightedAlpha:
    """Maximum independent-set size with a witness.

    The unit-weight case of `max_weighted_independent_set`, so the witness is
    the first maximum set in enumeration order.
    """
    if g.n == 0:
        raise ValueError("alpha of the empty graph on 0 vertices is undefined")
    return max_weighted_independent_set(g, [1] * g.n, cap)


def max_weighted_independent_set(g: Graph, weights: Sequence, cap: int | None = None) -> WeightedAlpha:
    """Maximum total weight of an independent set, for nonnegative weights.

    The optimum over nonnegative weights is attained at a maximal independent
    set of the support-induced subgraph; the witness is reported within the
    support (zero-weight vertices are never added to it). Ties are broken by
    the deterministic enumeration order.
    """
    if len(weights) != g.n:
        raise ValueError("weight vector length differs from vertex count")
    if any(not w >= 0 for w in weights):  # NaN fails this too
        raise ValueError("weights must be nonnegative")
    support = [v for v in range(g.n) if weights[v] > 0]
    if not support:
        zero = weights[0] * 0 if g.n else 0
        return WeightedAlpha(value=zero, witness=IndependentSet(g, ()))
    sub, _ = g.induced(support)  # sub's vertex i is support[i]
    sub_weights = [weights[v] for v in support]
    best_val = None
    best_set = None
    for mask in _maximal_sets_if_capped(sub, cap):
        val = sum(sub_weights[v] for v in _bits(mask))
        if best_val is None or val > best_val:
            best_val = val
            best_set = mask
    witness = IndependentSet(g, (support[v] for v in _bits(best_set)))
    return WeightedAlpha(value=best_val, witness=witness)
