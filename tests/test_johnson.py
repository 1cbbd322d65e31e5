from itertools import combinations
from math import comb

import numpy as np
import pytest

from mergedjohnson.johnson import (adjacent, all_equipartitions, build_graph,
                                   equipartition_bijection,
                                   equipartition_bijection_inverse,
                                   graph_stats, induced_subgraph_classes,
                                   johnson_distance_check, make_equipartition,
                                   merge_set)
from mergedjohnson.subsets import all_masks, mask_of


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


def test_johnson_distance_formula():
    for K in [mask_of([0, 1, 2, 3]), mask_of([0, 2, 4, 6])]:
        for Kp in [mask_of([4, 5, 6, 7]), mask_of([0, 1, 6, 7])]:
            d = johnson_distance_check(8, 4, K, Kp)
            assert d == 4 - bin(K & Kp).count("1")


def test_equipartition_bijection_and_inverse():
    K = mask_of([0, 1])  # subset {1,2} of {1..5}
    phi = equipartition_bijection(5, K)
    assert phi.key_part == frozenset({1, 2, 6})
    assert equipartition_bijection_inverse(5, phi) == K


def test_all_equipartitions_count():
    parts = all_equipartitions(6)
    assert len(parts) == comb(5, 2)
    assert all(1 in phi.key_part for phi in parts)


def test_make_equipartition_normalizes_key_part():
    phi = make_equipartition(6, {4, 5, 6})
    assert phi.key_part == frozenset({1, 2, 3})


def _adjacency(n_vertices, edges):
    adj = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def test_induced_subgraph_class_counts():
    four_k2 = _adjacency(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    two_k4 = _adjacency(8, [(a, b) for block in ([0, 1, 2, 3], [4, 5, 6, 7])
                            for i, a in enumerate(block)
                            for b in block[i + 1:]])
    c8 = _adjacency(8, [(i, (i + 1) % 8) for i in range(8)])
    assert induced_subgraph_classes(four_k2, 3) == 2
    assert induced_subgraph_classes(two_k4, 4) == 3
    assert induced_subgraph_classes(c8, 3) == 3


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
                        if v != u and adjacent(n, k, I, masks[u], masks[v])]
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
            with pytest.raises(ValueError):
                g.adjacent_ranks(0, bad)
            with pytest.raises(ValueError):
                g.adjacent_ranks(bad, 0)
        assert g.neighbors(9) == full.neighbors(9)
        assert g.adjacent_ranks(0, 9)
