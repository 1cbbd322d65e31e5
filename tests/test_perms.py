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
    assert cycle.extended(5).images.tolist() == [1, 2, 0, 3, 4]


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


def test_orbit_rejects_labels_outside_the_domain():
    g = s_n(5)
    assert len(g.orbit(4)[0]) == 5
    for bad in (5, -1):
        with pytest.raises(ValueError):
            g.orbit(bad)
    pairs = ActionDomain.ksubsets(5, 2)
    assert len(g.orbit(0b10001, pairs)[0]) == 10
    for bad in (0b00111, 0b00001, 0b100001, -3):
        with pytest.raises(ValueError):
            g.orbit(bad, pairs)


@pytest.mark.parametrize("domain", [ActionDomain.points(6),
                                    ActionDomain.ksubsets(6, 3)])
def test_domain_membership_matches_its_labels(domain):
    labels = set(domain.iter_labels(6))
    assert [x for x in range(-4, 1 << 7) if domain.contains(x, 6)] == sorted(labels)


# -- array orbits and the stabilizer sweep, against plain loops -------------

def _fixed_points_by_loop(group, domain):
    labels = list(domain.iter_labels(group.degree))
    return [sum(1 for g in group.elements() if domain.apply(x, g) == x)
            for x in labels]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", ["points", "ksubsets"])
def test_sweep_counts_match_a_loop_over_elements(n, kind):
    domain = ActionDomain.points(n) if kind == "points" else ActionDomain.ksubsets(n, 2)
    group = s_n(n)
    counts = group._fixed_point_counts(domain)
    assert counts.tolist() == _fixed_points_by_loop(group, domain)


def test_sweep_counts_match_a_loop_for_a_j12_6_witness():
    from mergedjohnson.classify import witness_group
    dihedral = witness_group(12, 6, {6}, "two-regular")
    domain = ActionDomain.points(dihedral.degree)
    counts = dihedral._fixed_point_counts(domain)
    assert counts.tolist() == _fixed_points_by_loop(dihedral, domain)
    assert set(counts.tolist()) == {2}
    assert dihedral.regularity_degree() == 2


def _orbits_by_loop(group, domain):
    seen = set()
    parts = []
    for x in domain.iter_labels(group.degree):
        if x in seen:
            continue
        seen.add(x)
        block = [x]
        for y in block:
            for g in group.generators:
                z = domain.apply(y, g)
                if z not in seen:
                    seen.add(z)
                    block.append(z)
        parts.append(block)
    return parts


def test_orbits_match_a_point_by_point_search():
    from mergedjohnson.catalog import psl2
    groups = [s_n(5), psl2(8),
              PermutationGroup([Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])])]
    for group in groups:
        for domain in (ActionDomain.points(group.degree),
                       ActionDomain.ksubsets(group.degree, 2),
                       ActionDomain.ksubsets(group.degree, 3)):
            want = _orbits_by_loop(group, domain)
            assert group.orbits(domain) == want
            assert group.orbit_sizes(domain) == tuple(sorted(map(len, want)))


def test_elements_are_every_permutation_in_order():
    import itertools
    assert [tuple(g.images.tolist()) for g in s_n(4).elements()] == \
        list(itertools.permutations(range(4)))
    with pytest.raises(ValueError):
        s_n(4).elements(limit=23)
    assert len(s_n(4).elements(limit=24)) == 24


def test_hash_is_the_image_tuple_hash_and_images_are_read_only():
    a = Permutation([1, 2, 0, 4, 3])
    b = Permutation.from_cycles(5, [(0, 4)])
    group = PermutationGroup([a, b])
    built = [a, b, Permutation.identity(5), a.extended(7)]
    derived = [a * b, b.inverse(), *group.elements(),
               *group.induced_subset_action(2).generators]
    for p in built + derived:
        assert hash(p) == hash(tuple(p.images.tolist()))
        with pytest.raises(ValueError):
            p.images[0] = p.images[1]
        with pytest.raises(ValueError):
            p.images.flags.writeable = True
    with pytest.raises(ValueError):
        group.generator_images[0, 0] = 1
    with pytest.raises(ValueError):
        group.generator_images.flags.writeable = True
