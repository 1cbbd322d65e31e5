from math import comb

import pytest

from mergedjohnson.perms import ActionDomain, Permutation, PermutationGroup


def s_n(n):
    return PermutationGroup([Permutation.from_cycles(n, [(0, 1)]),
                             Permutation.from_cycles(n, [tuple(range(n))])])


def test_composition_is_left_to_right():
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    # apply a first, then b
    assert (a * b).images[0] == 2


def test_inverse_and_order():
    c = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    assert c.order() == 6
    assert c * c.inverse() == Permutation.identity(6)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_symmetric_group_order(n):
    import math
    assert s_n(n).order == math.factorial(n)


def test_membership_and_elements():
    g = PermutationGroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    assert g.order == 4
    assert Permutation.from_cycles(4, [(0, 2), (1, 3)]) in g
    assert Permutation.from_cycles(4, [(0, 1)]) not in g
    assert len(set(g.elements())) == 4


def test_orbits_default_domain():
    g = PermutationGroup([Permutation.from_cycles(5, [(0, 1, 2)])])
    sizes = sorted(len(o) for o in g.orbits())
    assert sizes == [1, 1, 3]


def test_induced_subset_action_degree_and_order():
    g = s_n(5).induced_subset_action(2)
    assert g.degree == comb(5, 2)
    assert g.order == 120
    assert g.is_transitive()


def test_regularity_degree_values():
    cyclic = PermutationGroup([Permutation.from_cycles(6, [tuple(range(6))])])
    assert cyclic.regularity_degree() == 1
    assert s_n(4).regularity_degree() == 6
    # intransitive group has no regularity degree
    fix = PermutationGroup([Permutation.from_cycles(4, [(0, 1, 2)])])
    assert fix.regularity_degree() is None


def test_stabilizer_order_on_subsets():
    from mergedjohnson.subsets import mask_of
    g = s_n(4)
    domain = ActionDomain.ksubsets(4, 2)
    assert g.stabilizer_order(mask_of([0, 1]), domain) == 24 // 6


def test_from_map_and_extended():
    cycle = Permutation.from_map("abc", {"a": "b", "b": "c", "c": "a"}.get)
    assert cycle == Permutation.from_cycles(3, [(0, 1, 2)])
    assert cycle.extended(5).images == (1, 2, 0, 3, 4)


def test_transitivity_on_ksubsets_matches_orbits():
    from mergedjohnson.catalog import psl2
    group = psl2(8)  # 4-homogeneous on 9 points
    for k in (2, 3, 4):
        domain = ActionDomain.ksubsets(9, k)
        assert group.is_transitive(domain)
        assert len(group.orbits(domain)) == 1
    cyclic = PermutationGroup([Permutation.from_cycles(5, [tuple(range(5))])])
    domain = ActionDomain.ksubsets(5, 2)
    assert not cyclic.is_transitive(domain)
    assert sorted(len(o) for o in cyclic.orbits(domain)) == [5, 5]
