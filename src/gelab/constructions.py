"""Graph constructions: union, substitution, blow-up, and the hardness gadget.

Every construction that invents vertices returns a deterministic relabelling
to 0..n-1 alongside the graph, so certificates and distributions can be
carried across.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product

from .errors import InvalidK, NotRational, VertexSetMismatch, ZeroWeightVertex
from .graphs import Distribution, Graph, _common_denominator


def union(f: Graph, g: Graph) -> Graph:
    """Graph on the shared vertex set whose edge set is the union of both."""
    if f.n != g.n:
        raise VertexSetMismatch(f"vertex counts differ: {f.n} vs {g.n}")
    return Graph(f.n, f.edges + g.edges)


@dataclass(frozen=True)
class Substitution:
    """Result of substituting a graph for a vertex, with both label maps."""

    graph: Graph
    outer_map: dict[int, int]  # labels of g except the replaced vertex
    inner_map: dict[int, int]  # labels of f


def _substitution_maps(n_g: int, v: int, n_f: int) -> tuple[dict[int, int], dict[int, int]]:
    outer = {u: (u if u < v else u - 1) for u in range(n_g) if u != v}
    inner = {x: n_g - 1 + x for x in range(n_f)}
    return outer, inner


def substitute(g: Graph, v: int, f: Graph) -> Substitution:
    """Replace vertex v of g by the whole graph f.

    v disappears; f's vertices take over its adjacencies (every f-vertex is
    joined to every former neighbour of v) while keeping f's own edges and
    the rest of g. Remaining g-vertices keep their relative order and f's
    vertices are appended, per the returned label maps.
    """
    g._check_vertex(v)
    outer, inner = _substitution_maps(g.n, v, f.n)
    edges = []
    for a, b in g.edges:
        if v in (a, b):
            continue
        edges.append((outer[a], outer[b]))
    for a, b in f.edges:
        edges.append((inner[a], inner[b]))
    for u in g.neighbors(v):
        for x in range(f.n):
            edges.append((outer[u], inner[x]))
    return Substitution(Graph(g.n - 1 + f.n, edges), outer, inner)


def substitute_distribution(p: Distribution, v: int, q: Distribution) -> Distribution:
    """Distribution on the substituted graph.

    Outside the replaced vertex the weights are unchanged; each inserted
    vertex x receives the replaced vertex's mass times q(x). (Read the
    product as P(v)*Q(x): that is the only reading that sums to one and
    makes entropy additive across the substitution.)
    """
    if not 0 <= v < p.n:
        raise ValueError(f"vertex {v} outside distribution of length {p.n}")
    outer, inner = _substitution_maps(p.n, v, q.n)
    weights = [None] * (p.n - 1 + q.n)
    for u, new in outer.items():
        weights[new] = p[u]
    for x, new in inner.items():
        weights[new] = p[v] * q[x]
    return Distribution(weights)


@dataclass(frozen=True)
class BlowupSpec:
    """Copy counts n_v and common denominator m encoding p_v = n_v / m."""

    counts: tuple[int, ...]
    m: int

    def __post_init__(self):
        if any(c < 1 for c in self.counts):
            raise ValueError("every blow-up count must be at least 1")
        if sum(self.counts) != self.m:
            raise ValueError("counts must sum to the common denominator")

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """First new label of each vertex's copies: one running sum of the counts."""
        return tuple(accumulate(self.counts[:-1], initial=0))

    def block(self, v: int) -> range:
        """New labels of the copies of original vertex v."""
        start = self._starts[v]
        return range(start, start + self.counts[v])


def blow_up(g: Graph, p: Distribution) -> tuple[Graph, BlowupSpec]:
    """Replace each vertex v by n_v independent copies, where p_v = n_v / m.

    Copies of v are mutually non-adjacent and each is adjacent to every copy
    of every neighbour of v. The uniform distribution 1/m on the result has
    the same entropy as (g, p). Requires an exact-rational p with full
    support; delete zero-weight vertices first.
    """
    if not p.exact:
        raise NotRational("blow-up needs an exact rational distribution")
    if p.n != g.n:
        raise ValueError("distribution length differs from vertex count")
    m, counts = _common_denominator(p.weights)
    zeros = [v for v, c in enumerate(counts) if not c]
    if zeros:
        raise ZeroWeightVertex(f"vertices {zeros} have zero weight")
    spec = BlowupSpec(tuple(counts), m)
    blocks = [spec.block(v) for v in range(g.n)]
    edges = [e for u, v in g.edges for e in product(blocks[u], blocks[v])]
    return Graph(m, edges), spec


@dataclass(frozen=True)
class GadgetSpec:
    """Parameters of the symmetry-hardness gadget built from a graph f.

    Two disjoint index sets A and B of size k-1 are adjoined: the gadget's
    vertices are A plus V(f) x B. Labels 0..k-2 are the A-vertices; label
    k-1 + v*(k-1) + b is the pair (v, b), row-major in v then b.
    """

    f: Graph
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidK(f"gadget parameter k must be >= 2, got {self.k}")
        if self.f.n == 0:
            raise ValueError("gadget base graph must be nonempty")

    @property
    def n(self) -> int:
        return (self.k - 1) * (1 + self.f.n)

    def a_vertex(self, i: int) -> int:
        return i

    def pair_vertex(self, v: int, b: int) -> int:
        return (self.k - 1) + v * (self.k - 1) + b

    def role(self, label: int) -> str:
        """Human-readable role of a gadget vertex label."""
        if label < self.k - 1:
            return f"a{label}"
        v, b = divmod(label - (self.k - 1), self.k - 1)
        return f"(f{v},b{b})"


def hardness_gadget(spec: GadgetSpec) -> Graph:
    """The graph whose symmetry encodes 'f has no independent set of size k'.

    Three edge families: every A-vertex is joined to every pair (v, b);
    pairs (v, b) and (v', b') are joined whenever v != v' and b != b'; and
    pairs sharing the same b inherit f's edges. Copies of a vertex v across
    different b's form an independent set.
    """
    f, k = spec.f, spec.k
    edges = []
    for i in range(k - 1):
        for v in range(f.n):
            for b in range(k - 1):
                edges.append((spec.a_vertex(i), spec.pair_vertex(v, b)))
    for v in range(f.n):
        for v2 in range(v + 1, f.n):
            for b in range(k - 1):
                for b2 in range(k - 1):
                    if b != b2:
                        edges.append((spec.pair_vertex(v, b), spec.pair_vertex(v2, b2)))
    for v, v2 in f.edges:
        for b in range(k - 1):
            edges.append((spec.pair_vertex(v, b), spec.pair_vertex(v2, b)))
    return Graph(spec.n, edges)
