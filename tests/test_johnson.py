from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from mergedjohnson.johnson import (MergedJohnsonGraph, build_graph, graph_stats,
                                   merge_set)
from mergedjohnson.subsets import all_masks, elements_of, ksubset_rank, mask_of


def adjacent(k, I, K, Kp):
    """The rule that defines J(n,k)_I, on bitmasks: k - |K ∩ K'| ∈ I."""
    return k - (K & Kp).bit_count() in I


def test_merge_set_derived_sets():
    ms = merge_set(5, {1, 4, 5})
    assert ms.i_prime == frozenset({1, 4})
    assert ms.i_double_prime == frozenset({1, 4})
    assert not ms.is_complete
    assert merge_set(3, {1, 2, 3}).is_complete


def test_petersen():
    g = build_graph(5, 2, {2})
    stats = graph_stats(g)
    assert g.num_vertices == 10
    assert stats.degree == 3
    assert stats.edge_count == 15
    assert stats.connected


def test_octahedron():
    stats = graph_stats(build_graph(4, 2, {1}))
    assert stats.degree == 4
    assert stats.edge_count == 12
    assert stats.connected


def test_kneser_matching_disconnected():
    stats = graph_stats(build_graph(6, 3, {3}))
    assert stats.degree == 1
    assert stats.component_count == 10


def test_complete_merge():
    g = build_graph(5, 2, {1, 2})
    stats = graph_stats(g)
    assert stats.edge_count == comb(10, 2)
    assert stats.degree == 9


def test_edge_partition_of_complete_graph():
    kneser = graph_stats(build_graph(5, 2, {2}))
    johnson = graph_stats(build_graph(5, 2, {1}))
    assert kneser.edge_count + johnson.edge_count == comb(10, 2)


def johnson_distance(n, k, K, Kp):
    """BFS distance from K to K' in the Johnson graph J(n,k)_1, over the
    neighbours the unmaterialized graph generates."""
    graph = MergedJohnsonGraph(n, k, {1}, materialize=False)
    dist = {ksubset_rank(K): 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist[ksubset_rank(Kp)]


def test_johnson_distance_formula():
    for K in [mask_of([0, 1, 2, 3]), mask_of([0, 2, 4, 6])]:
        for Kp in [mask_of([4, 5, 6, 7]), mask_of([0, 1, 6, 7])]:
            assert johnson_distance(8, 4, K, Kp) == 4 - bin(K & Kp).count("1")


# -- the equipartitions {K + {n+1}, complement} of {1..n+1}, n odd ------------

def make_equipartition(m, part):
    """The equipartition of {1..m} with the half part, as its half holding 1."""
    part = frozenset(part)
    if 1 not in part:
        part = frozenset(range(1, m + 1)) - part
    return part


def equipartition_bijection(n, K):
    """K a ((n-1)/2)-subset mask of {1..n}, n odd: the equipartition
    {K ∪ {n+1}, complement} of {1..n+1}."""
    labels = {x + 1 for x in elements_of(K)}
    return make_equipartition(n + 1, labels | {n + 1})


def equipartition_bijection_inverse(n, part):
    if n + 1 not in part:
        part = frozenset(range(1, n + 2)) - part
    return mask_of(x - 1 for x in part - {n + 1})


def test_equipartition_bijection_and_inverse():
    K = mask_of([0, 1])  # subset {1,2} of {1..5}
    phi = equipartition_bijection(5, K)
    assert phi == frozenset({1, 2, 6})
    assert equipartition_bijection_inverse(5, phi) == K


def test_make_equipartition_normalizes_key_part():
    assert make_equipartition(6, {4, 5, 6}) == frozenset({1, 2, 3})


# -- induced subgraph isomorphism classes (m = 3, 4) ---------------------------

def _fingerprint(m, edges):
    """Degree sequence, edge count and triangle count of the graph on
    0..m-1 with the given edges (pairs a < b): an isomorphism-complete
    invariant for m <= 4."""
    degrees = sorted(sum(v in edge for edge in edges) for v in range(m))
    triangles = sum(set(combinations(t, 2)) <= edges for t in combinations(range(m), 3))
    return tuple(degrees), len(edges), triangles


@pytest.mark.parametrize("m, expected", [(3, 4), (4, 11)])
def test_fingerprint_separates_the_graphs_on_m_vertices(m, expected):
    """The invariant is constant on each isomorphism class of graphs on m
    vertices and separates the classes (4 on 3 vertices, 11 on 4)."""
    pairs = list(combinations(range(m), 2))
    classes = {}
    for r in range(len(pairs) + 1):
        for edges in combinations(pairs, r):
            canon = min(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)
                        for p in permutations(range(m)))
            classes.setdefault(tuple(canon), set()).add(_fingerprint(m, set(edges)))
    assert len(classes) == expected
    assert all(len(s) == 1 for s in classes.values())
    assert len(set.union(*classes.values())) == expected


def induced_subgraph_classes(order, edges, m):
    """Number of isomorphism classes of the induced m-vertex subgraphs,
    m ∈ {3, 4}, of the graph on 0..order-1 with the given edges (a < b)."""
    return len({_fingerprint(m, {(i, j) for i, j in combinations(range(m), 2)
                                 if (verts[i], verts[j]) in edges})
                for verts in combinations(range(order), m)})


def test_induced_subgraph_class_counts():
    four_k2 = {(0, 1), (2, 3), (4, 5), (6, 7)}
    two_k4 = set(combinations(range(4), 2)) | set(combinations(range(4, 8), 2))
    c8 = {(i, i + 1) for i in range(7)} | {(0, 7)}
    assert induced_subgraph_classes(8, four_k2, 3) == 2
    assert induced_subgraph_classes(8, two_k4, 4) == 3
    assert induced_subgraph_classes(8, c8, 3) == 3


def test_invalid_merge_sets_rejected():
    with pytest.raises(ValueError):
        build_graph(5, 2, set())
    with pytest.raises(ValueError):
        build_graph(5, 2, {3})


def _merge_sets(k):
    return [frozenset(c) for size in range(1, k + 1)
            for c in combinations(range(1, k + 1), size)]


@pytest.mark.parametrize("n", range(4, 10))
def test_materialized_adjacency_follows_the_intersection_rule(n):
    for k in range(2, n // 2 + 1):
        masks = all_masks(n, k)
        for I in _merge_sets(k):
            g = build_graph(n, k, I)
            assert len(g.adjacency) == g.num_vertices
            for u, row in enumerate(g.adjacency):
                want = [v for v in range(g.num_vertices)
                        if v != u and adjacent(k, I, masks[u], masks[v])]
                assert row == want
                assert sorted(g.neighbors(u)) == want
            assert g.edges == [(u, v) for u in range(g.num_vertices)
                               for v in g.neighbors(u) if v > u]
            assert len(g.edges) == g.num_vertices * g.degree // 2


def test_unmaterialized_neighbors_match_the_matrix():
    full = build_graph(9, 3, {1, 3})
    lazy = build_graph(9, 3, {1, 3}, materialize=False)
    assert not lazy.materialized
    assert all(lazy.neighbors(u) == full.neighbors(u) for u in range(0, 84, 5))
    with pytest.raises(ValueError):
        lazy.edges


@pytest.mark.parametrize("read", [
    lambda g: g.edges, lambda g: g.adjacency, lambda g: g.neighbors(3),
    lambda g: g.edge_arrays(), lambda g: g.has_edges([0], [1]),
])
def test_the_matrix_is_built_when_first_read(read):
    g = build_graph(8, 3, {1, 3})
    assert g.materialized and g._neighbours is None
    read(g)
    assert g._neighbours.shape == (56, g.degree)


def test_has_edges_against_the_adjacency_lists():
    g = build_graph(8, 3, {1, 3})
    a, b = np.divmod(np.arange(g.num_vertices ** 2), g.num_vertices)
    found = g.has_edges(a, b).reshape(g.num_vertices, g.num_vertices)
    assert [np.flatnonzero(row).tolist() for row in found] == g.adjacency


def test_vertex_ranks_outside_the_graph_are_rejected():
    full = build_graph(5, 2, {2})
    lazy = build_graph(5, 2, {2}, materialize=False)
    for g in (full, lazy):
        for bad in (-1, 10):
            with pytest.raises(ValueError):
                g.neighbors(bad)
        assert g.neighbors(9) == full.neighbors(9)
        assert adjacent(2, g.I, g.vertex_mask(0), g.vertex_mask(9))
