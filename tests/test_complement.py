import dataclasses

import pytest

from mergedjohnson.complement import (_equipartition_tables, _phi_images,
                                      build_cocycle_data, build_pointed_psl28,
                                      complement_vertex_group, equipartition_setup,
                                      frobenius_class_action, induced_cocycle,
                                      orbit_signature, vertex_permutation)
from mergedjohnson.johnson import build_graph
from mergedjohnson.perms import Permutation
from mergedjohnson.subsets import complement_ranks, ksubsets
from mergedjohnson.verify import is_automorphism


@pytest.fixture(scope="module")
def pointed():
    return build_pointed_psl28()


@pytest.fixture(scope="module")
def datas():
    return {label: build_cocycle_data(label) for label in range(4)}


def test_pointed_group(pointed):
    assert pointed.group.degree == 10
    assert pointed.group.order == 504
    # the tenth point is fixed by the whole group
    assert all(g.images[9] == 9 for g in pointed.group.generators)


def test_equipartition_tables():
    """The halves holding point 0 are every such 5-subset once, in lex
    order, and each 5-subset maps to the equipartition it is a half of."""
    halves, phi_of_rank = _equipartition_tables()
    rows = [tuple(row) for row in halves.tolist()]
    assert len(rows) == 126 and all(row[0] == 0 for row in rows)
    assert all(list(row) == sorted(set(row)) for row in rows)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    for rank, subset in enumerate(ksubsets(10, 5).elements.tolist()):
        half = set(subset) if 0 in subset else set(range(10)) - set(subset)
        assert set(rows[phi_of_rank[rank]]) == half


def test_cocycle_classes_share_one_pointed_group_and_setup(datas, pointed):
    classes = [datas[label] for label in range(4)]
    assert all(d.pointed is classes[0].pointed for d in classes)
    assert all(d.transversal is classes[0].transversal for d in classes)
    # the shared setup equals one computed from a freshly built group
    V, transversal = equipartition_setup(pointed)
    assert all(d.V == V and d.transversal == transversal for d in classes)


def test_equal_cocycle_data_share_one_vertex_group(datas):
    groups = []
    for label in range(4):
        fresh = build_cocycle_data(label)
        assert fresh == datas[label] and fresh is not datas[label]
        groups.append(complement_vertex_group(datas[label]))
        assert complement_vertex_group(fresh) is groups[-1]
    assert len(set(map(id, groups))) == 4
    assert complement_vertex_group(build_cocycle_data(1)) is \
        complement_vertex_group(build_cocycle_data(1))


def test_split_complement_has_two_orbits(datas):
    assert orbit_signature(datas[0]) == (126, 126)


@pytest.mark.parametrize("label", [1, 2, 3])
def test_twisted_complements_are_2_regular(datas, label):
    group = complement_vertex_group(datas[label])
    assert group.order == 504
    assert orbit_signature(datas[label]) == (252,)
    assert group.regularity_degree() == 2


def test_complement_element_count(datas):
    # the lifts (gamma(s), s) of all 504 elements s form the complement: they
    # are distinct, each lies in the group its generators' lifts generate, and
    # lifting is multiplicative, which holds only with the twisting convention
    # gamma satisfies
    for data in (datas[1], datas[2], datas[3]):
        group = complement_vertex_group(data)
        elements = data.pointed.group.elements()
        lifts = {s: vertex_permutation(data, s) for s in elements}
        assert len(set(lifts.values())) == 504
        assert all(lift in group for lift in lifts.values())
        sample = elements[:8] + elements[250:258]
        assert all(lifts[a] * lifts[b] == lifts[a * b] for a in sample for b in sample)


def _cocycle_by_loop(data, s):
    """gamma(s) from its definition, one equipartition at a time."""
    bits = [None] * 126
    for i, j in enumerate(_phi_images(s.images).tolist()):
        v = data.transversal[i] * s * data.transversal[j].inverse()
        assert v in data.V
        bits[j] = data.delta(v)
    return tuple(bits)


@pytest.mark.parametrize("label", [0, 1, 2, 3])
def test_cocycle_matches_its_definition(datas, label):
    for s in datas[label].pointed.group.elements()[::25]:
        assert induced_cocycle(datas[label], s) == _cocycle_by_loop(datas[label], s)


def test_cocycle_refuses_a_decomposition_outside_v(datas):
    data = datas[1]
    # a V with one element replaced: some t_i s t_j^-1 lands outside it
    wrong = dataclasses.replace(data, V=data.V[:3] + (data.transversal[1],))
    with pytest.raises(AssertionError, match="left V"):
        for s in data.pointed.group.elements():
            induced_cocycle(wrong, s)


@pytest.mark.parametrize("I", [(1, 4), (2, 3), (1, 4, 5), (2, 3, 5)])
def test_twisted_complement_preserves_listed_merges(datas, I):
    graph = build_graph(10, 5, frozenset(I))
    group = complement_vertex_group(datas[1])
    assert all(is_automorphism(g, graph) for g in group.generators)


def test_twisted_complement_breaks_other_merges(datas):
    graph = build_graph(10, 5, frozenset({1, 2}))
    group = complement_vertex_group(datas[1])
    assert not all(is_automorphism(g, graph) for g in group.generators)


def test_frobenius_cycles_nonzero_classes(datas):
    action = {label: frobenius_class_action(datas[label]) for label in range(4)}
    assert action[0] == 0
    nonzero = {action[label] for label in (1, 2, 3)}
    assert nonzero == {1, 2, 3}
    # fixed-point-free on the nonzero classes: a 3-cycle
    assert all(action[label] != label for label in (1, 2, 3))


def test_global_flip_commutes_with_action(datas):
    flip = Permutation(complement_ranks(10, 5))
    group = complement_vertex_group(datas[1])
    assert all(flip * g == g * flip for g in group.generators)


def test_vertex_permutation_identity(datas, pointed):
    ident = Permutation.identity(10)
    assert vertex_permutation(datas[1], ident) == Permutation.identity(252)
