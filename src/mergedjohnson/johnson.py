"""Merged Johnson graphs J(n,k)_I and related structures.

Vertices are the k-subsets of {1..n}; two subsets are adjacent when their
intersection has size k - i for some i in the merge set I.  I = {k} gives
the Kneser graph, I = {1..k} the complete graph.  Vertices are numbered by
co-lexicographic rank throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .perms import frontier_bfs
from .subsets import RefusedInput, elements_of, ksubset_unrank, ksubsets, require_int


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
            raise RefusedInput("merge set must be nonempty")
        if not all(type(i) is int and 0 < i <= self.k for i in self.I):
            # the type comes first: a float or bool member would pass the
            # range test, and the verdict holds the members as Python ints
            members = frozenset(int(require_int(i, "merge set member")) for i in self.I)
            object.__setattr__(self, "I", members)
            if not all(0 < i <= self.k for i in members):
                raise RefusedInput("merge set %s not contained in {1..%d}"
                                   % (sorted(members), self.k))

    @property
    def i_prime(self) -> frozenset:
        return self.I - {self.k}

    @property
    def i_double_prime(self) -> frozenset:
        return frozenset(self.k - i for i in self.i_prime)

    @property
    def is_complete(self) -> bool:
        return len(self.I) == self.k  # I is a subset of 1..k


def merge_set(k: int, I) -> MergeSet:
    return MergeSet(k, frozenset(I))


# --------------------------------------------------------------------------
# Adjacency and graphs
# --------------------------------------------------------------------------

MATERIALIZE_LIMIT = 10_000

# entries of the (vertices, neighbours, k) block built at a time
_BLOCK_ENTRIES = 1 << 21


class MergedJohnsonGraph:
    """J(n,k)_I on C(n,k) vertices, immutable after build.

    A graph with at most MATERIALIZE_LIMIT vertices is materialized: it
    stores its neighbours as a (V, degree) int32 matrix, which the graph
    being regular makes CSR with a constant row length.  Row u lists u's
    neighbours in generation order (see neighbors); the same rows sorted
    are kept for _keeps_edges.  Both are built when edges, neighbors,
    edge_arrays or has_edges first reads the matrix; edges is a view
    derived from it on first use, and has_edges builds its _keys on first
    use too.  A larger graph answers
    neighbors by generation alone, and refuses when degree · k passes
    _BLOCK_ENTRIES.  Vertex ranks are int64, so a graph of 2^63 vertices
    or more is refused.
    """

    def __init__(self, n: int, k: int, I):
        n, k = int(require_int(n, "n")), int(require_int(k, "k"))
        if not 2 <= k <= n // 2:
            raise RefusedInput("need 2 <= k <= n/2, got (n, k) = (%d, %d)" % (n, k))
        self.n = n
        self.k = k
        self.num_vertices = ksubsets(n, k).size  # refuses C(n,k) >= 2^63
        self.merge = merge_set(k, I)
        self.I = self.merge.I
        self.degree = sum(comb(k, i) * comb(n - k, i) for i in self.I)
        self.materialized = self.num_vertices <= MATERIALIZE_LIMIT
        self._neighbours = None
        self._sorted = None
        self._edges = None

    def vertex_mask(self, rank: int) -> int:
        if not 0 <= require_int(rank, "vertex rank") < self.num_vertices:
            raise RefusedInput("vertex rank %r outside 0..%d" % (rank, self.num_vertices - 1))
        return ksubset_unrank(self.k, rank)

    def neighbors(self, u: int):
        """Neighbor ranks of vertex u, by direct generation: replace an
        i-subset of K with an i-subset of the complement, for i in sorted
        I, the dropped subsets in lex order, for each the added ones in
        lex order."""
        K = self.vertex_mask(u)  # rejects ranks outside the graph
        if self.materialized:
            return self._matrix()[u].tolist()
        if self.degree * self.k > _BLOCK_ENTRIES:
            raise RefusedInput("degree %d is too large to list the neighbours of "
                               "an unmaterialized graph" % self.degree)
        outside = [x for x in range(self.n) if not (K >> x) & 1]
        return self._neighbour_rows(np.array([elements_of(K)]),
                                    np.array([outside]))[0].tolist()

    def _neighbour_rows(self, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Neighbour ranks, in generation order, of the vertices whose
        ascending element rows are inside, with complements outside."""
        codec = ksubsets(self.n, self.k)
        blocks = []
        for i in sorted(self.I):
            # the kept k-i elements of each dropped i-subset, and each added i-subset
            keep = np.array([[x for x in range(self.k) if x not in drop]
                             for drop in combinations(range(self.k), i)],
                            dtype=np.intp).reshape(comb(self.k, i), self.k - i)
            add = np.array(list(combinations(range(self.n - self.k), i)), dtype=np.intp)
            kept = inside[:, keep][:, :, None, :]
            added = outside[:, add][:, None, :, :]
            shape = (len(inside), len(keep), len(add))
            rows = np.concatenate([np.broadcast_to(kept, shape + (self.k - i,)),
                                   np.broadcast_to(added, shape + (i,))], axis=-1)
            blocks.append(codec.rank(rows).reshape(len(inside), -1))
        return np.concatenate(blocks, axis=1)

    def _materialize(self):
        codec = ksubsets(self.n, self.k)
        inside, outside = codec.elements, codec.complements()
        nbrs = np.empty((self.num_vertices, self.degree), dtype=np.int32)
        step = max(1, _BLOCK_ENTRIES // max(1, self.degree * self.k))
        for lo in range(0, self.num_vertices, step):
            nbrs[lo:lo + step] = self._neighbour_rows(inside[lo:lo + step],
                                                      outside[lo:lo + step])
        ordered = np.sort(nbrs, axis=1)
        rows = np.arange(self.num_vertices)[:, None]
        if (ordered == rows).any() or (ordered[:, 1:] == ordered[:, :-1]).any():
            raise AssertionError("vertex degree disagrees with the closed form")
        self._neighbours = nbrs
        self._sorted = ordered

    def _matrix(self) -> np.ndarray:
        if not self.materialized:
            raise ValueError("graph is not materialized")
        if self._neighbours is None:
            self._materialize()
        return self._neighbours

    @cached_property
    def complement(self) -> MergedJohnsonGraph | None:
        """J(n,k)_{[k]∖I}, whose edges are this graph's non-edges; None when
        I = [k] leaves no non-edges."""
        rest = set(range(1, self.k + 1)) - self.I
        return MergedJohnsonGraph(self.n, self.k, rest) if rest else None

    def edge_arrays(self) -> tuple:
        """(u, v) int arrays of the edges u < v, in the order of edges."""
        nbrs = self._matrix()
        u = np.repeat(np.arange(self.num_vertices, dtype=np.int32), self.degree)
        v = nbrs.ravel()
        forward = v > u
        return u[forward], v[forward]

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each (a[i], b[i]) is an edge.  Refused unless every rank
        is an integer in 0..V-1: the search below would alias an
        out-of-range b to another pair and truncate a float."""
        a, b = np.asarray(a), np.asarray(b)
        for ranks in (a, b):
            if ranks.size and (ranks.dtype.kind not in "iu" or ranks.min() < 0
                               or ranks.max() >= self.num_vertices):
                raise RefusedInput("vertex ranks must be integers in 0..%d"
                                   % (self.num_vertices - 1))
        return self._has_edges(a, b)

    def _has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """has_edges without the rank checks, for images of vertex
        bijections: binary search in the row-sorted neighbour keys u*V + v."""
        keys = self._keys
        query = np.asarray(a, dtype=np.int64) * self.num_vertices + b
        found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return keys[found] == query

    @cached_property
    def _keys(self) -> np.ndarray:
        """u*V + v over the sorted rows: every ordered edge, ascending."""
        self._matrix()
        rows = np.arange(self.num_vertices, dtype=np.int64)[:, None]
        return (rows * self.num_vertices + self._sorted).ravel()

    def _keeps_edges(self, images: np.ndarray) -> bool:
        """Whether the vertex bijection images maps every edge to an edge:
        for every x the sorted images of x's neighbours are the sorted
        neighbours of images[x].  Rows are mapped a block of at most
        _BLOCK_ENTRIES entries at a time."""
        nbrs, ordered = self._matrix(), self._sorted
        images = images.astype(np.int32, copy=False)  # V <= MATERIALIZE_LIMIT
        step = max(1, _BLOCK_ENTRIES // self.degree)
        for lo in range(0, self.num_vertices, step):
            mapped = np.sort(images.take(nbrs[lo:lo + step]), axis=1)
            if not np.array_equal(mapped, ordered[images[lo:lo + step]]):
                return False
        return True

    @property
    def edges(self) -> list:
        if self._edges is None:
            u, v = self.edge_arrays()
            self._edges = list(zip(u.tolist(), v.tolist()))
        return self._edges

    # -- exports ----------------------------------------------------------

    def _edge_text(self, pattern: str) -> str:
        """pattern, which holds two %d, once per edge with its 1-based ends
        u + 1, v + 1, in the order of edges: one format of the flat array."""
        ends = np.stack(self.edge_arrays(), axis=1) + 1
        return (pattern * len(ends)) % tuple(ends.ravel().tolist())

    def edge_lines(self) -> str:
        return self._edge_text("%d %d\n")

    def export_json(self) -> str:
        # json.dumps of the other keys, in order, with the edges spliced in
        # as json.dumps would write them: no list per edge is built
        head = json.dumps({"n": self.n, "k": self.k, "I": sorted(self.I),
                           "vertices": self.num_vertices})
        return '%s, "edges": [%s]}' % (head[:-1], self._edge_text("[%d, %d], ")[:-2])

    def export_dimacs(self) -> str:
        edges = self.num_vertices * self.degree // 2
        return "p edge %d %d\n" % (self.num_vertices, edges) + self._edge_text("e %d %d\n")

    def __repr__(self):
        return "MergedJohnsonGraph(n=%d, k=%d, I=%s)" % (self.n, self.k, sorted(self.I))


def build_graph(n: int, k: int, I) -> MergedJohnsonGraph:
    return MergedJohnsonGraph(n, k, I)


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
    nbrs = graph._matrix()
    seen = np.zeros(graph.num_vertices, dtype=bool)
    components = 0
    for start in range(graph.num_vertices):
        if not seen[start]:
            components += 1
            frontier_bfs(start, lambda f: nbrs[f].ravel(), seen)
    # the graph is regular: every edge is counted at both of its ends
    return GraphStats(degree=graph.degree,
                      edge_count=graph.num_vertices * graph.degree // 2,
                      connected=components == 1, component_count=components)
