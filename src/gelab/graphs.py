"""Graphs, independent sets, vertex distributions, and the weighted-alpha oracles.

Vertices are always labelled 0..n-1. A graph is stored only as its
per-vertex adjacency bitmasks: equality, hashing and every solver read
them, and its sorted edge tuple is derived on first use and cached, for
output and the constructions. An independent set is stored only as its bitmask;
its member frozenset is derived on first use and cached. All types are
immutable values; every operation here is pure, so results can be cached
and shared freely across threads.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_right
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InternalError, VertexNotFound

DEFAULT_CAP = 40
SET_COUNT_CAP = 10**6
"""Set budget: most maximal independent sets a graph may have before `CapExceeded`.

It bounds every enumeration of maximal independent sets. It is checked as
the sets are found, before anything else touches them: the family is then
packed once (`_packed`), checked for independence in bulk on that pack and
sorted on it, when it is enumerated and cached. Only then do the solvers
read its bitmasks, scanned or turned into a matrix (`_incidence`, from the
same layout); a set is wrapped only when a result returns it. The vertex
cap alone does not bound memory: 13 disjoint triangles (39 vertices) have
3**13 = 1.59M maximal independent sets. Every solver splits a graph into
its parts (`_parts_of`), enumerates and reads each part alone on its own
labels, lifts only the sets a result returns, and raises the same
`CapExceeded` once the product of the parts' family sizes, the size of the
graph's own family, exceeds the budget (`_split_families`). It also bounds
the sets the family memo holds (`_family_cache`), beside its bound of
`_MAX_FAMILIES` families, the most recent 32: the reuse measured across
calls falls almost wholly within them.
"""


def resolve_cap(cap: int | None) -> int:
    """Effective enumeration cap: explicit argument, else GELAB_CAP, else 40.

    Raises ValueError when the argument is negative or GELAB_CAP is not a
    nonnegative integer: a negative cap would reject every graph as too
    large.
    """
    if cap is None:
        env = os.environ.get("GELAB_CAP")
        if not env:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError:
            cap = -1  # not an integer: rejected with the negative ones
        if cap < 0:
            raise ValueError(f"GELAB_CAP must be a nonnegative integer, got {env!r}")
    elif cap < 0:
        raise ValueError(f"enumeration cap must be nonnegative, got {cap}")
    return cap


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    `_adj` is the graph: bit v of `_adj[u]` is set iff u and v are adjacent.
    Duplicate and reversed pairs given to the constructor collapse in it.
    `edges` (each edge once as (u, v) with u < v, ascending) and the hash
    are read off it on first use and cached.
    """

    n: int
    _adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexNotFound(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "_adj", tuple(adj))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        # no vertex is its own neighbour: the bits of row u from u up are those above u
        return tuple((u, v) for u, row in enumerate(self._adj) for v in _bits(row >> u << u))

    @cached_property
    def _hash(self) -> int:
        return hash(self._adj)  # its length is n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

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

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Subgraph induced by `keep`: its vertex i is the i-th smallest vertex of `keep`.

        When `keep` is every vertex, the subgraph is the graph itself.
        """
        order = sorted(set(keep))
        for v in order[:1] + order[-1:]:  # the ends: every vertex between is in range
            self._check_vertex(v)
        if len(order) == self.n:
            return self
        relabel = {old: new for new, old in enumerate(order)}
        kept = sum(1 << v for v in order)
        # each kept edge once, from its lower end, as in `edges`
        edges = [(i, relabel[w]) for i, v in enumerate(order) for w in _bits(self._adj[v] & kept >> v << v)]
        return Graph(len(order), edges)

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
    The two fields are slots, which `_trusted` fills directly; the cached
    views live in the instance dict, made on first use.
    """

    __slots__ = ("graph", "mask", "__dict__", "__weakref__")
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

    def __reduce__(self):
        # frozen slots cannot be restored by setattr: rebuild through __init__
        return IndependentSet, (self.graph, self.sorted_members())

    @classmethod
    def _from_mask(cls, graph: Graph, mask: int) -> "IndependentSet":
        """The set with bitmask `mask`, under the same checks as `__init__`.

        For masks from anywhere but the enumeration, whose families are
        checked in bulk when they are cached (`_maximal_sets_cached`).
        """
        if mask >> graph.n:
            raise VertexNotFound(f"mask {mask:#x} has a bit outside 0..{graph.n - 1}")
        _check_independent(graph, mask)
        return cls._trusted(graph, (mask,))[0]

    @classmethod
    def _trusted(cls, graph: Graph, masks: Sequence[int]) -> list["IndependentSet"]:
        """The sets of `graph` with bitmasks `masks`, unchecked: each must be independent.

        Each field is written through its slot descriptor, past the frozen
        `__setattr__`.
        """
        new, set_graph, set_mask = object.__new__, cls.graph.__set__, cls.mask.__set__
        sets = []
        for mask in masks:
            s = new(cls)
            set_graph(s, graph)
            set_mask(s, mask)
            sets.append(s)
        return sets

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
            weights = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in weights)
            den, nums = _common_denominator(weights)
            if any(w < 0 for w in nums):
                raise ValueError("negative probability weight")
            if sum(nums) != den:
                raise ValueError(f"rational weights sum to {Fraction(sum(nums), den)}, not 1")
        else:
            weights = tuple(float(w) for w in weights)
            if any(not w >= 0 for w in weights):  # NaN fails this too
                raise ValueError("negative probability weight")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise ValueError(f"weights sum to {sum(weights)!r}, not 1 within 1e-12")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def _trusted(cls, weights: tuple, support: Sequence[int]) -> "Distribution":
        """The exact distribution `weights`, unchecked: a nonempty tuple of nonnegative Fractions summing to 1.

        For weights already proved: `uniform`'s n equal weights, and a
        distribution file, whose parse (`io.parse_distribution`) is its
        one check. `support` is the ascending labels of the nonzero
        weights, which the caller knows without a scan of all n.
        """
        p = object.__new__(cls)
        vars(p).update(weights=weights, exact=True, support=support)
        return p

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise ValueError("distribution needs at least one vertex")
        return cls._trusted((Fraction(1, n),) * n, range(n))

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def support(self) -> Sequence[int]:
        """The vertices of nonzero weight, ascending: a tuple, or `range(n)` from `uniform`.

        Worked out once per distribution, on first use, unless `_trusted`
        was handed it.
        """
        # every weight is validated nonnegative and not NaN: nonzero is positive
        return tuple(v for v, w in enumerate(self.weights) if w)

    def __getitem__(self, v: int):
        return self.weights[v]


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
    Theoretical Computer Science 363, 2006). A branch whose candidate set
    comes out empty is a leaf: it is emitted in the branch loop (when its X
    is empty too) instead of recursing, so every call has a nonempty P.
    Raises CapExceeded as soon as more than SET_COUNT_CAP sets have been
    found.
    """
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []
    budget = SET_COUNT_CAP

    def expand(r: int, p: int, x: int) -> None:
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
            near = comp[v]
            cand = p & near
            if cand:
                expand(r | low, cand, x & near)
            elif not x & near:
                if len(out) >= budget:
                    raise CapExceeded(f"more than {budget} maximal independent sets")
                out.append(r | low)
            p ^= low
            x |= low
    if n:
        expand(0, full, 0)
    else:
        out.append(0)
    return out


_REV = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
"""Bit reversal within a byte: `_REV[b]` has bit 7 - i set iff b has bit i."""

_LIMB = (1 << 64) - 1


_SCAN_ROWS = 4096
"""Rows of a family scored by one product in `max_weighted_independent_set`."""

_CacheInfo = namedtuple("_CacheInfo", "currsize sets")

_MAX_FAMILIES = 32


def _family_cache(compute: Callable[[Graph], tuple[int, ...]]):
    """`compute` memoized by graph, least recently used family first out.

    The memo holds at most `_MAX_FAMILIES` families and at most
    `SET_COUNT_CAP` sets in all, the budget read at each insertion: a family
    may hold up to the budget on its own, so a bound on families alone does
    not bound memory. The family bound is the measured reuse distance: in
    the benchmark's workloads (perfbench, seed 1), every family chif-sweep
    reads again and all but one that entropy-sweep does were read within
    the last 32 distinct graphs, and a longer-lived memo only kept families
    no call read again. A hit moves the family to the most recent end. The
    lock guards the bookkeeping only, never `compute`: two threads that miss
    on the same graph both compute it, and the first to finish inserts it.
    A family whose computation raises (`_check_family`, the set budget) is
    not cached. Like `functools.lru_cache`, the memo offers `cache_clear()`
    and `cache_info()`, here (families held, sets held).
    """
    lock = threading.Lock()
    families: OrderedDict[Graph, tuple[int, ...]] = OrderedDict()
    held = 0

    @wraps(compute)
    def cached(graph: Graph) -> tuple[int, ...]:
        nonlocal held
        with lock:
            family = families.get(graph)
            if family is not None:
                families.move_to_end(graph)
                return family
        family = compute(graph)
        with lock:
            if graph not in families:
                families[graph] = family
                held += len(family)
                while len(families) > _MAX_FAMILIES or held > SET_COUNT_CAP:
                    held -= len(families.popitem(last=False)[1])
        return family

    def cache_clear() -> None:
        nonlocal held
        with lock:
            families.clear()
            held = 0

    def cache_info() -> _CacheInfo:
        with lock:
            return _CacheInfo(len(families), held)

    cached.cache_clear = cache_clear
    cached.cache_info = cache_info
    return cached


@_family_cache
def _maximal_sets_cached(graph: Graph) -> tuple[int, ...]:
    """Bitmasks of the maximal independent sets, lexicographic by member list.

    The family is packed and checked once, in bulk, before it is sorted and
    cached (`_check_family`); a family that fails raises InternalError and
    is not cached. The sort runs on those packed rows: `np.lexsort` reads
    each row as a bit string of fixed width 8 * ceil(n/8) from vertex 0
    upward, its bytes in order, each bit-reversed (`_REV`) so that a byte's
    first bit is its lowest vertex. All keys have the same width, so
    descending order puts first the set that holds the first vertex where
    two sets differ. The sets form an antichain, so no member list is a
    prefix of another, and that order is lexicographic order of the member
    lists. A graph with no vertices has the one set (), with no bytes to
    sort on.
    """
    masks = _maximal_independent_masks(graph._adj, graph.n)
    rows = _check_family(graph, masks)
    if graph.n:
        order = np.lexsort(_REV[rows].T[::-1])[::-1]
        # permuted as an object array: a list of k index ints, alive at once,
        # would leave the int pools they took fragmented
        masks = np.array(masks, dtype=object)[order].tolist()
    return tuple(masks)


def _check_family(graph: Graph, masks: Sequence[int]) -> np.ndarray:
    """The family packed (`_packed`), once every mask is checked independent in `graph`.

    Raises InternalError otherwise. One bulk pass over an enumerated family,
    in place of a per-set check on every wrap. The ints are range-checked
    first: packing drops bits at or above n silently. Then the packed family
    is transposed into one int per vertex v, whose bit i is set iff set i
    holds v, one 64-vertex limb at a time (memory: the packed rows and
    k x 64 bytes of bits). Every edge is tested with one AND of two such
    ints, 64 sets per word. The packed rows are returned for the sort, so
    the family is serialized once.
    """
    n = graph.n
    if masks and (min(masks) < 0 or max(masks) >> n):
        raise InternalError(f"enumerated set has a bit outside 0..{n - 1}")
    rows = _packed(masks, n)
    holders: list[int] = []
    for j in range(0, rows.shape[1], 8):  # vertices 8j..8j+63
        bits = np.unpackbits(rows[:, j : j + 8], axis=1, count=min(n - 8 * j, 64), bitorder="little")
        held = np.packbits(bits, axis=0, bitorder="little")
        raw, width = held.T.tobytes(), held.shape[0]  # per vertex: bit i of its bytes is set i
        holders += [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    for u, row in enumerate(graph._adj):
        for v in _bits(row >> u << u):  # each edge once, as in `Graph.edges`
            if holders[u] & holders[v]:
                raise InternalError(f"enumerated set contains the edge ({u}, {v})")
    return rows


def _packed(masks: Sequence[int], n: int) -> np.ndarray:
    """uint8 matrix with one row per mask: its ceil(n/8) little-endian bytes.

    Built from 64-bit limbs, one `np.fromiter` pass per limb: each low limb
    is cut off every mask in turn, and what is left (the top limb) fits 64
    bits and is read as it is. So for n <= 64 the ints go to numpy in one
    pass, as they are.
    """
    k = len(masks)
    limbs = np.empty((k, (n + 63) // 64), dtype="<u8")
    rest = masks
    for j in range(limbs.shape[1] - 1):
        limbs[:, j] = np.fromiter(map(_LIMB.__and__, rest), dtype="<u8", count=k)
        rest = [m >> 64 for m in rest]
    if n:  # no vertices, no limbs
        limbs[:, -1] = np.fromiter(rest, dtype="<u8", count=k)
    return limbs.view(np.uint8)[:, : (n + 7) // 8]


def _incidence(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 uint8 matrix with one row per set bitmask and one column per vertex.

    The rows are unpacked from `_packed`, the layout the family was checked
    and sorted in.
    """
    return np.unpackbits(_packed(masks, n), axis=1, count=n, bitorder="little")


def _exact_matvec(M, v) -> np.ndarray:
    """M @ v exactly, for a matrix M with entries in {-1, 0, 1}, float64 or integer.

    `v` is a vector or matrix of integers: ints, or floats that hold them.
    Every caller passes such an M: in `exactlp` the LP's columns, the cover
    start's basis, a block of set columns, or the incidence matrix of a
    coloring, and in `max_weighted_independent_set` a block of a family's
    incidence matrix. Each product of an entry of M with one of v is then 0
    or +-v_j, so every partial sum, added in whatever order BLAS adds them,
    is an integer of magnitude at most max|v| times the row length. While
    that bound is below 2**53, a float64 holds each of those integers
    exactly, so M @ v runs in float64 through BLAS and is returned as int64
    (numpy has no BLAS for integers). Past it, the product runs on Python
    ints, with M read through int64, so that no float enters it. A `v`
    that is not an array is read as Python objects: numpy would turn a
    list holding an int in [2**63, 2**64) into float64.
    """
    v = v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
    if max(int(v.max(initial=0)), -int(v.min(initial=0))) * M.shape[1] < 2**53:
        return (M @ v.astype(np.float64)).astype(np.int64)
    return M.astype(np.int64).astype(object) @ v.astype(object)


def _row_masks(rows: np.ndarray) -> list[int]:
    """The bitmask of each row of a 0/1 integer matrix: bit j is set iff column j is nonzero.

    The inverse of `_incidence`: each row is packed little-endian and read
    as one int.
    """
    return [int.from_bytes(row, "little") for row in np.packbits(rows, axis=1, bitorder="little").tolist()]


def _greedy_cover_indices(M: np.ndarray) -> list[int]:
    """Indices of rows of the incidence matrix M greedily covering every vertex.

    Repeatedly takes the first set covering the most still-exposed vertices
    (`argmax` returns the first maximum); the best score is the number of
    vertices it covers, so the exposed count is kept as an int. `entropy`
    starts from this cover, and the covering LP from it pruned to a minimal
    cover (`exactlp._cover_start`). Runs in M's dtype, copying M to no
    other: both callers pass float64 0/1 matrices, `entropy` its incidence
    matrix and `exactlp` its LP's set columns, so each product runs on
    BLAS, and its integer scores are exact. An integer M works the same
    way. Raises InternalError when a vertex lies in no row.
    """
    remaining = np.ones(M.shape[1], dtype=M.dtype)
    exposed = M.shape[1]
    chosen: list[int] = []
    while exposed:
        scores = M @ remaining
        best = int(scores.argmax())
        covers = int(scores[best])
        if not covers:
            raise InternalError("greedy cover: a vertex lies in no set")
        chosen.append(best)
        remaining[M[best] > 0] = 0
        exposed -= covers
    return chosen


def _check_vertex_cap(g: Graph, cap: int | None) -> None:
    limit = resolve_cap(cap)
    if g.n > limit:
        raise CapExceeded(f"graph has {g.n} vertices, enumeration cap is {limit}")


def _parts_of(g: Graph) -> list[int]:
    """The parts of g as vertex bitmasks, ordered by lowest vertex.

    A part is a component of g that has an edge, and the isolated vertices
    join the first part; when g has no edge, its one part is every vertex.
    A maximal independent set of g is one maximal set of each part, united,
    and the isolated vertices lie in every maximal set of the first part.
    Each component is grown from its lowest vertex by a bit-parallel
    breadth-first search: a frontier's neighbours are the union of its
    members' adjacency masks.
    """
    adj = g._adj
    linked = 0  # the vertices with a neighbour
    for a in adj:
        linked |= a
    parts: list[int] = []
    rest = linked
    while rest:
        part = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~part
            part |= frontier
        parts.append(part)
        rest &= ~part
    isolated = ((1 << g.n) - 1) & ~linked
    if not parts:
        return [isolated]
    parts[0] |= isolated
    return parts


def _split_families(
    g: Graph, cap: int | None, read: Callable[[Graph], Sequence]
) -> list[tuple[list[int], Sequence]]:
    """(its labels, read(G[labels])) for each part of g (`_parts_of`), in order.

    The one form of the split, and the one owner of the set budget across
    parts. `read` returns a part's maximal sets, as cached masks
    (`_maximal_sets_cached`) or as the public list (`entropy`), over
    G[labels]'s own labels: vertex j of G[labels] is labels[j] of g. A
    single part's G[labels] is g itself (`Graph.induced`). Every solver
    reads each family on those labels, and only a set a result returns is
    lifted to g's (`_lift`). The vertex cap is checked on g once. Raises
    CapExceeded when g has more vertices than the vertex cap, or once the
    product of the family sizes so far exceeds `SET_COUNT_CAP`, with the
    message one enumeration of g would raise: that product is g's count.
    """
    _check_vertex_cap(g, cap)
    split, count = [], 1
    for part in _parts_of(g):
        labels = list(_bits(part))
        family = read(g.induced(labels))
        count *= len(family)
        if count > SET_COUNT_CAP:
            raise CapExceeded(f"more than {SET_COUNT_CAP} maximal independent sets")
        split.append((labels, family))
    return split


def _lift(mask: int, labels: Sequence[int]) -> int:
    """A bitmask over G[labels]'s vertices, relabelled to g's: bit j goes to labels[j].

    Run only on sets a result returns, never on a family a solver reads.
    """
    lifted = 0
    for j in _bits(mask):
        lifted |= 1 << labels[j]
    return lifted


def _refinement(blocks: Sequence[Sequence[tuple[int, object]]]) -> list[tuple[int, object]]:
    """The common refinement of mixtures on disjoint parts, as (mask, weight) pieces.

    Each block is one part's mixture: (bitmask, weight) pairs with positive
    weights, in order, every block of the same total. The blocks are laid
    side by side on one interval, each set over a stretch of its weight.
    One sweep cuts the interval at 0 and at the end of every stretch of
    every block; the piece from one cut to the next is the union of the
    sets whose stretches hold it, one per block (found by bisecting that
    block's running stretch ends). A piece's point lies in one set per
    block, so each vertex keeps the weight its block gave it. Blocks with
    no sets, of total 0, give no piece. Integer weights (the colorings of
    `exactlp`) give exact pieces. Float totals (`entropy`'s mixtures) may
    differ in their last places, so every block's last stretch ends at the
    largest total; running sums of nonnegative floats never decrease, so
    the stretch ends stay sorted.
    """
    stops = [list(accumulate((w for _, w in block), initial=0)) for block in blocks]
    end = max(block_stops[-1] for block_stops in stops)
    for block_stops in stops:
        block_stops[-1] = end
    cuts = sorted(set().union(*stops))
    pieces = []
    for start, cut in zip(cuts, cuts[1:]):
        mask = 0
        for block, block_stops in zip(blocks, stops):
            mask |= block[bisect_right(block_stops, start) - 1][0]
        pieces.append((mask, cut - start))
    return pieces


def _common_denominator(values) -> tuple[int, list[int]]:
    """(d, [d*v ...]) for rationals `values`, d the lcm of their denominators.

    `values` is iterated twice. Every d*v is a Python int, so sums and
    comparisons of the values run on integers over one denominator d. It is
    the library's one way to check, sum and scale exact weights: those of a
    `Distribution`, a parsed distribution file, a blow-up's copy counts,
    `max_weighted_independent_set`'s set weights, and the colorings, duals
    and covers of `exactlp`.
    """
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def enumerate_maximal_independent_sets(g: Graph, cap: int | None = None) -> list[IndependentSet]:
    """Every inclusion-maximal independent set, lexicographic by member list.

    Raises CapExceeded when g has more vertices than the vertex cap, or more
    than SET_COUNT_CAP maximal independent sets (the set budget, checked
    while the sets are found, so memory stays bounded by the budget). The
    family is checked for independence once, in bulk, when it is enumerated
    and cached, so each set is wrapped here without a check of its own
    (`IndependentSet._trusted`). Of the solvers only `entropy` reads this
    list, once for each part of its support; the others read the cached
    masks (`_maximal_sets_cached`), through the same split
    (`_split_families`).
    """
    _check_vertex_cap(g, cap)
    return IndependentSet._trusted(g, _maximal_sets_cached(g))


def alpha(g: Graph, cap: int | None = None) -> WeightedAlpha:
    """Maximum independent-set size with a witness.

    The unit-weight case of `max_weighted_independent_set`: each family is
    scored by one exact product per block of sets, and the witness is the
    first maximum set in enumeration order.
    """
    if g.n == 0:
        raise ValueError("alpha of the empty graph on 0 vertices is undefined")
    return max_weighted_independent_set(g, [1] * g.n, cap)


def max_weighted_independent_set(g: Graph, weights: Sequence, cap: int | None = None) -> WeightedAlpha:
    """Maximum total weight of an independent set, for finite nonnegative weights.

    The optimum over nonnegative weights is attained at a maximal independent
    set of the support-induced subgraph; the witness is reported within the
    support (zero-weight vertices are never added to it). Ties are broken by
    the deterministic enumeration order: the witness is the first maximum.
    Set weights are compared exactly: integer weights as they are, any
    others as integers over their common denominator (`_common_denominator`),
    each float read exactly as `Fraction(float)`. So the value is exact for
    rational weights, and for float weights it is the exact maximum rounded
    once. A part's family is scored `_SCAN_ROWS` sets at a time, by one
    exact product of the block's incidence matrix with those integers
    (`_exact_matvec`: float64 on BLAS while max weight times n is below
    2**53, Python ints past it); `argmax` gives each block's first maximum,
    and a later block's replaces it only when strictly heavier, so the
    part's first maximum in enumeration order is kept, as a per-set scan
    keeps it. The support-induced subgraph is solved part by part
    (`_split_families`), each part's family scored on the part's own labels
    against its own weights: each part's first maximum is taken, lifted
    alone (`_lift`), and their union is the subgraph's own first maximum,
    because two maximal sets are ordered at the first vertex where they
    differ, and that vertex lies in one part. All-zero weights (and no
    weights, on the graph with no vertices) have an empty support, and
    G[()] has one maximal set, the empty one: the value is 0 of the kind
    any value of those weights has (int for int weights, Fraction for other
    rationals, float otherwise), with the empty witness.
    """
    if len(weights) != g.n:
        raise ValueError("weight vector length differs from vertex count")
    ints = all(isinstance(w, int) for w in weights)
    rational = ints or all(isinstance(w, (int, Fraction)) for w in weights)
    if not rational and any(not 0 <= w < math.inf for w in weights):  # NaN fails this too
        raise ValueError("weights must be finite and nonnegative")
    if ints:
        den, scaled = 1, weights
    else:  # signs and set weights are then compared on integers, never as Fractions
        den, scaled = _common_denominator(weights if rational else [Fraction(w) for w in weights])
    if any(w < 0 for w in scaled):
        raise ValueError("weights must be finite and nonnegative")
    support = [v for v in range(g.n) if scaled[v] > 0]
    scaled = np.array([scaled[v] for v in support], dtype=object)
    best_set = total = 0
    for labels, family in _split_families(g.induced(support), cap, _maximal_sets_cached):
        part_scaled = scaled[labels]
        best_val = best_mask = -1  # every set weighs at least 0: the first block's maximum is kept
        for start in range(0, len(family), _SCAN_ROWS):
            block = family[start : start + _SCAN_ROWS]
            scores = _exact_matvec(_incidence(block, len(labels)), part_scaled)
            i = int(scores.argmax())  # the first maximum of the block
            if scores[i] > best_val:
                best_val, best_mask = int(scores[i]), block[i]
        best_set |= _lift(best_mask, labels)
        total += best_val
    if not ints:  # int / int is the exact quotient, rounded once
        total = Fraction(total, den) if rational else total / den
    witness = IndependentSet._from_mask(g, _lift(best_set, support))
    return WeightedAlpha(value=total, witness=witness)
