"""Merged Johnson graphs J(n,k)_I and related structures.

Vertices are the k-subsets of {1..n}; two subsets are adjacent when their
intersection has size k - i for some i in the merge set I.  I = {k} gives
the Kneser graph, I = {1..k} the complete graph.  Vertices are numbered by
co-lexicographic rank throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .subsets import all_masks, elements_of, ksubset_rank, ksubset_unrank, mask_of


# --------------------------------------------------------------------------
# Merge sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeSet:
    """A nonempty I ⊆ {1..k} with its derived sets I' = I∖{k} and
    I'' = {k−i : i ∈ I'}."""

    k: int
    I: frozenset

    def __post_init__(self):
        if not self.I:
            raise ValueError("merge set must be nonempty")
        if not self.I <= set(range(1, self.k + 1)):
            raise ValueError("merge set %s not contained in {1..%d}"
                             % (sorted(self.I), self.k))

    @property
    def i_prime(self) -> frozenset:
        return self.I - {self.k}

    @property
    def i_double_prime(self) -> frozenset:
        return frozenset(self.k - i for i in self.i_prime)

    @property
    def is_complete(self) -> bool:
        return self.I == frozenset(range(1, self.k + 1))


def merge_set(k: int, I) -> MergeSet:
    return MergeSet(k, frozenset(I))


# --------------------------------------------------------------------------
# Adjacency and graphs
# --------------------------------------------------------------------------

def adjacent(n: int, k: int, I, K: int, Kp: int) -> bool:
    """K, K' as bitmasks; adjacency iff k - |K ∩ K'| ∈ I."""
    if K == Kp:
        raise ValueError("adjacency is irreflexive")
    return k - (K & Kp).bit_count() in I


MATERIALIZE_LIMIT = 10 ** 6


class MergedJohnsonGraph:
    """J(n,k)_I on C(n,k) vertices, immutable after build.

    Edges are materialized only when the vertex count permits; adjacency
    queries always work through the intersection test.
    """

    def __init__(self, n: int, k: int, I, materialize: bool | None = None):
        if not 2 <= k <= n // 2:
            raise ValueError("need 2 <= k <= n/2, got (n, k) = (%d, %d)" % (n, k))
        self.n = n
        self.k = k
        self.merge = merge_set(k, I)
        self.I = self.merge.I
        self.num_vertices = comb(n, k)
        self.degree = sum(comb(k, i) * comb(n - k, i) for i in self.I)
        if materialize is None:
            materialize = self.num_vertices <= 10_000
        if materialize and self.num_vertices > MATERIALIZE_LIMIT:
            raise ValueError("refusing to materialize %d vertices" % self.num_vertices)
        self._masks = None
        self._edges = None
        self._adjacency = None
        if materialize:
            self._materialize()

    def vertex_mask(self, rank: int) -> int:
        if self._masks is not None:
            return self._masks[rank]
        return ksubset_unrank(self.k, rank)

    def vertex_elements(self, rank: int) -> tuple:
        """1-based elements of the rank-th k-subset."""
        return tuple(x + 1 for x in elements_of(self.vertex_mask(rank)))

    def adjacent_ranks(self, u: int, v: int) -> bool:
        return adjacent(self.n, self.k, self.I, self.vertex_mask(u), self.vertex_mask(v))

    def neighbors(self, u: int):
        """Neighbor ranks of vertex u, by direct generation: replace an
        i-subset of K with an i-subset of the complement, i ∈ I."""
        K = self.vertex_mask(u)
        inside = elements_of(K)
        outside = [x for x in range(self.n) if not (K >> x) & 1]
        out = []
        for i in sorted(self.I):
            for drop in combinations(inside, i):
                base = K & ~mask_of(drop)
                for add in combinations(outside, i):
                    out.append(ksubset_rank(base | mask_of(add)))
        return out

    def _materialize(self):
        self._masks = all_masks(self.n, self.k)
        adjacency = [[] for _ in range(self.num_vertices)]
        edges = []
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if v > u:
                    edges.append((u, v))
                adjacency[u].append(v)
        for row in adjacency:
            row.sort()
            if len(row) != self.degree:
                raise AssertionError("vertex degree disagrees with the closed form")
        self._edges = edges
        self._adjacency = adjacency

    @property
    def materialized(self) -> bool:
        return self._edges is not None

    @property
    def edges(self) -> list:
        if self._edges is None:
            raise ValueError("graph is not materialized")
        return self._edges

    @property
    def adjacency(self) -> list:
        if self._adjacency is None:
            raise ValueError("graph is not materialized")
        return self._adjacency

    @property
    def num_edges(self) -> int:
        return self.num_vertices * self.degree // 2

    # -- exports ----------------------------------------------------------

    def edge_lines(self) -> str:
        return "\n".join("%d %d" % (u + 1, v + 1) for u, v in self.edges) + "\n"

    def export_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "k": self.k,
            "I": sorted(self.I),
            "vertices": self.num_vertices,
            "edges": [[u + 1, v + 1] for u, v in self.edges],
        })

    def export_dimacs(self) -> str:
        lines = ["p edge %d %d" % (self.num_vertices, len(self.edges))]
        lines.extend("e %d %d" % (u + 1, v + 1) for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "MergedJohnsonGraph(n=%d, k=%d, I=%s)" % (self.n, self.k, sorted(self.I))


def build_graph(n: int, k: int, I, materialize: bool | None = None) -> MergedJohnsonGraph:
    return MergedJohnsonGraph(n, k, I, materialize=materialize)


# --------------------------------------------------------------------------
# Structural queries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphStats:
    degree: int
    edge_count: int
    connected: bool
    component_count: int


def graph_stats(graph: MergedJohnsonGraph) -> GraphStats:
    adjacency = graph.adjacency
    seen = [False] * graph.num_vertices
    components = 0
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return GraphStats(degree=graph.degree, edge_count=len(graph.edges),
                      connected=components == 1, component_count=components)


def johnson_distance_check(n: int, k: int, K: int, Kp: int) -> int:
    """BFS distance from K to K' in the Johnson graph J(n,k)_1; asserted
    equal to k - |K ∩ K'|."""
    expected = k - (K & Kp).bit_count()
    if K == Kp:
        return 0
    graph = MergedJohnsonGraph(n, k, {1}, materialize=False)
    start = ksubset_rank(K)
    goal = ksubset_rank(Kp)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if v == goal:
                        if dist[v] != expected:
                            raise AssertionError(
                                "BFS distance %d disagrees with intersection "
                                "formula %d" % (dist[v], expected))
                        return dist[v]
                    nxt.append(v)
        frontier = nxt
    raise AssertionError("target not reached; J(n,k)_1 should be connected")


# --------------------------------------------------------------------------
# Equipartitions of an even ground set
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Equipartition:
    """An unordered pair of complementary halves of {1..m}, keyed by the
    half containing the point 1."""

    m: int
    key_part: frozenset

    def __post_init__(self):
        if self.m % 2 != 0:
            raise ValueError("ground size must be even")
        if len(self.key_part) != self.m // 2 or 1 not in self.key_part:
            raise ValueError("key part must be the half containing 1")
        if not self.key_part <= set(range(1, self.m + 1)):
            raise ValueError("key part outside the ground set")

    @property
    def parts(self) -> tuple:
        other = frozenset(range(1, self.m + 1)) - self.key_part
        return (self.key_part, other)

    def part_containing(self, x: int) -> frozenset:
        return self.key_part if x in self.key_part else self.parts[1]


def make_equipartition(m: int, part) -> Equipartition:
    part = frozenset(part)
    if 1 not in part:
        part = frozenset(range(1, m + 1)) - part
    return Equipartition(m, part)


def all_equipartitions(m: int) -> list:
    """All C(m-1, m/2 - 1) equipartitions of {1..m}, sorted by key part."""
    rest = range(2, m + 1)
    out = [Equipartition(m, frozenset((1,) + extra))
           for extra in combinations(rest, m // 2 - 1)]
    return sorted(out, key=lambda phi: sorted(phi.key_part))


def equipartition_bijection(n: int, K: int) -> Equipartition:
    """K a ((n-1)/2)-subset mask of {1..n}, n odd: the equipartition
    {K ∪ {n+1}, complement} of {1..n+1}."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    k = (n - 1) // 2
    if K.bit_count() != k:
        raise ValueError("K must have (n-1)/2 elements")
    labels = {x + 1 for x in elements_of(K)}
    return make_equipartition(n + 1, labels | {n + 1})


def equipartition_bijection_inverse(n: int, phi: Equipartition) -> int:
    if phi.m != n + 1:
        raise ValueError("equipartition is not on n+1 points")
    part = phi.part_containing(n + 1)
    return mask_of(x - 1 for x in part - {n + 1})


# --------------------------------------------------------------------------
# Induced subgraph isomorphism classes (m = 3, 4)
# --------------------------------------------------------------------------

def _fingerprint(adj_bits: list) -> tuple:
    """Isomorphism-complete invariant for graphs on at most 4 vertices:
    sorted degree sequence, edge count, triangle count."""
    degrees = sorted(row.bit_count() for row in adj_bits)
    edges = sum(degrees) // 2
    return (tuple(degrees), edges, _triangle_count(adj_bits))


def _triangle_count(adj_bits: list) -> int:
    m = len(adj_bits)
    count = 0
    for a in range(m):
        for b in range(a + 1, m):
            if (adj_bits[a] >> b) & 1:
                for c in range(b + 1, m):
                    if (adj_bits[a] >> c) & 1 and (adj_bits[b] >> c) & 1:
                        count += 1
    return count


def _fingerprint_completeness_check():
    """One-time check: the invariant separates all isomorphism classes of
    graphs on 4 vertices (there are 11) and on 3 vertices (4)."""
    for m, expected in ((3, 4), (4, 11)):
        pairs = list(combinations(range(m), 2))
        classes = {}
        for bits in range(1 << len(pairs)):
            adj = [0] * m
            for idx, (a, b) in enumerate(pairs):
                if (bits >> idx) & 1:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
            canon = min(_relabel(adj, perm) for perm in _all_perms(m))
            classes.setdefault(canon, set()).add(_fingerprint(adj))
        if len(classes) != expected:
            raise AssertionError("wrong class count on %d vertices" % m)
        fingerprints = [next(iter(s)) for s in classes.values()]
        if any(len(s) != 1 for s in classes.values()):
            raise AssertionError("fingerprint not constant on a class")
        if len(set(fingerprints)) != expected:
            raise AssertionError("fingerprint fails to separate classes")


def _all_perms(m):
    from itertools import permutations

    return list(permutations(range(m)))


def _relabel(adj_bits, perm) -> tuple:
    m = len(adj_bits)
    out = [0] * m
    for a in range(m):
        for b in range(m):
            if (adj_bits[a] >> b) & 1:
                out[perm[a]] |= 1 << perm[b]
    return tuple(out)


_CHECKED = False


def induced_subgraph_classes(adjacency: list, m: int) -> int:
    """Number of isomorphism classes of induced m-vertex subgraphs,
    m ∈ {3, 4}, of a graph given by adjacency lists (order ≤ 64)."""
    global _CHECKED
    if m not in (3, 4):
        raise ValueError("m must be 3 or 4")
    order = len(adjacency)
    if order > 64:
        raise ValueError("graph order exceeds the exhaustive sweep bound")
    if not _CHECKED:
        _fingerprint_completeness_check()
        _CHECKED = True
    neighbor_bits = [0] * order
    for u, row in enumerate(adjacency):
        for v in row:
            neighbor_bits[u] |= 1 << v
    seen = set()
    for verts in combinations(range(order), m):
        adj = [0] * m
        for i, v in enumerate(verts):
            for j, w in enumerate(verts):
                if i != j and (neighbor_bits[v] >> w) & 1:
                    adj[i] |= 1 << j
        seen.add(_fingerprint(adj))
    return len(seen)
