import time
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from rank_reference import all_masks, mask_of

from mergedjohnson.johnson import (MergedJohnsonGraph, build_graph, graph_stats,
                                   merge_set)
from mergedjohnson.subsets import RefusedInput, elements_of, ksubset_rank


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
    neighbours the unmaterialized graph generates, stopping at K'."""
    graph = MergedJohnsonGraph(n, k, {1})
    assert not graph.materialized
    target = ksubset_rank(Kp)
    dist = {ksubset_rank(K): 0}
    frontier = list(dist)
    while target not in dist:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist[target]


def test_johnson_distance_formula():
    # J(17,6)_1 has 12 376 vertices, past the materialize limit
    for K in [mask_of(range(6)), mask_of([1, 3, 5, 7, 9, 16])]:
        for Kp in [mask_of([3, 4, 5, 6, 7, 8]), mask_of([0, 1, 5, 7, 9, 16]),
                   mask_of([0, 1, 2, 3, 4, 16])]:
            assert johnson_distance(17, 6, K, Kp) == 6 - bin(K & Kp).count("1")


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


@pytest.mark.parametrize("I", [
    {1.0}, {True}, {"1"}, {1, 1.5},
], ids=["float", "bool", "str", "int-and-float"])
def test_a_merge_set_member_that_is_not_an_int_is_refused_at_once(I):
    # a float member made the range test scan all of 1..k
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="not an int"):
        merge_set(10 ** 7, I)
    assert time.perf_counter() - t0 < 0.01


@pytest.mark.parametrize("n, k", [(8.0, 3), (8, 3.0), (True, 3), ("8", 3)],
                         ids=["float-n", "float-k", "bool-n", "str-n"])
def test_a_graph_refuses_an_n_or_k_that_is_not_an_integer(n, k):
    # a float n or k ended in TypeError inside the subset codec
    with pytest.raises(RefusedInput, match="is not an integer"):
        build_graph(n, k, {1})


def test_a_graph_of_numpy_integers_holds_python_ints():
    g = build_graph(np.int64(8), np.int32(3), {np.int64(1)})
    assert (type(g.n), type(g.k), {type(i) for i in g.I}) == (int, int, {int})
    assert g.neighbors(0) == build_graph(8, 3, {1}).neighbors(0)


def _merge_sets(k):
    return [frozenset(c) for size in range(1, k + 1)
            for c in combinations(range(1, k + 1), size)]


def _neighbours_by_rule(graph, u, masks):
    """The vertices adjacent to u by the intersection rule, ascending."""
    return [v for v in range(graph.num_vertices)
            if v != u and adjacent(graph.k, graph.I, masks[u], masks[v])]


@pytest.mark.parametrize("n", range(4, 10))
def test_materialized_adjacency_follows_the_intersection_rule(n):
    for k in range(2, n // 2 + 1):
        masks = all_masks(n, k)
        for I in _merge_sets(k):
            g = build_graph(n, k, I)
            assert g.materialized
            for u in range(g.num_vertices):
                assert sorted(g.neighbors(u)) == _neighbours_by_rule(g, u, masks)
            assert g.edges == [(u, v) for u in range(g.num_vertices)
                               for v in g.neighbors(u) if v > u]
            assert len(g.edges) == g.num_vertices * g.degree // 2


def _lazy_graph():
    """J(17,6)_{1,3}: 12 376 vertices, past the materialize limit."""
    graph = build_graph(17, 6, {1, 3})
    assert not graph.materialized and graph.num_vertices == 12376
    return graph


def test_unmaterialized_neighbors_follow_the_intersection_rule():
    lazy = _lazy_graph()
    masks = all_masks(17, 6)
    for u in range(0, lazy.num_vertices, 1031):
        row = lazy.neighbors(u)
        assert len(row) == lazy.degree
        assert sorted(row) == _neighbours_by_rule(lazy, u, masks)
    for read in (lambda g: g.edges, graph_stats):
        with pytest.raises(ValueError, match="not materialized"):
            read(lazy)


@pytest.mark.parametrize("n,k,I", [(2000, 3, {3}), (100000, 2, {2})])
def test_unmaterialized_neighbors_refuse_a_huge_degree(n, k, I):
    # C(1997, 3) and C(99998, 2) neighbours, about 1.3e9 and 5e9
    g = build_graph(n, k, I)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="degree %d" % g.degree):
        g.neighbors(0)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("read", [
    lambda g: g.edges, lambda g: graph_stats(g), lambda g: g.neighbors(3),
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
    assert [np.flatnonzero(row).tolist() for row in found] == \
        [sorted(g.neighbors(u)) for u in range(g.num_vertices)]


@pytest.mark.parametrize("a,b", [([0], [15]), ([0.5], [1]), ([-1], [0]), ([True], [1])],
                         ids=["past_the_last", "float", "negative", "bool"])
def test_has_edges_refuses_ranks_outside_the_graph(a, b):
    """On J(6,2)_{1} (15 vertices) the first two were [True], the answers
    for the pairs (1, 0) and (0, 1)."""
    g = build_graph(6, 2, {1})
    with pytest.raises(RefusedInput, match="integers in 0..14"):
        g.has_edges(a, b)
    assert g.has_edges([0, 14], [1, 14]).tolist() == [True, False]  # {0,1} ~ {0,2}


def test_vertex_ranks_outside_the_graph_are_rejected():
    # on a materialized graph True read the whole neighbour matrix and 3.0
    # ended in numpy's IndexError
    for g in (build_graph(5, 2, {2}), _lazy_graph()):
        for bad in (-1, g.num_vertices, True, 3.0, np.float64(3.0), "3"):
            with pytest.raises(ValueError):
                g.neighbors(bad)
        last = g.num_vertices - 1
        assert sorted(g.neighbors(last)) == _neighbours_by_rule(g, last, all_masks(g.n, g.k))
        assert g.vertex_mask(last) == mask_of(range(g.n - g.k, g.n))
        assert g.neighbors(np.int64(last)) == g.neighbors(last)
        assert g.vertex_mask(np.uint8(3)) == g.vertex_mask(3)


def test_graph_stats_counts_the_kneser_matching_components():
    # J(14,7)_{7} is a perfect matching on 3432 vertices
    stats = graph_stats(build_graph(14, 7, {7}))
    assert (stats.degree, stats.component_count, stats.connected) == (1, 1716, False)


def test_the_largest_graph_with_int64_ranks_is_lazy():
    g = build_graph(66, 33, {1})
    assert g.num_vertices == comb(66, 33) and not g.materialized
    last = g.num_vertices - 1
    assert sorted(g.neighbors(last)) == sorted(
        ksubset_rank(mask_of([x, *(y for y in range(33, 66) if y != z)]))
        for z in range(33, 66) for x in range(33))


@pytest.mark.parametrize("n, k, I", [(67, 33, {1}), (68, 34, {1}),
                                     (200000, 100000, {1}),
                                     (2 * 10 ** 6, 10 ** 6, {1}),
                                     (20000, 10000, range(1, 10001))])
def test_graphs_whose_ranks_pass_int64_are_refused(n, k, I):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="at least 2\\^63"):
        build_graph(n, k, I)
    assert time.perf_counter() - t0 < 1.0
