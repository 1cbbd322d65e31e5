import functools
import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from closure_reference import closure
from rank_reference import all_masks, mask_of

from mergedjohnson import perms
from mergedjohnson.perms import ActionDomain, Permutation, PermutationGroup
from mergedjohnson.subsets import RefusedInput, elements_of, ksubset_rank


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


def test_group_takes_its_degree_from_its_generators():
    assert PermutationGroup([Permutation.identity(6)]).degree == 6
    with pytest.raises(ValueError):
        PermutationGroup([])
    with pytest.raises(ValueError):
        PermutationGroup([Permutation.identity(4), Permutation.identity(5)])
    # degree 0 built, and regularity_degree() and elements() then divided by 0
    with pytest.raises(ValueError, match="degree of at least 1"):
        PermutationGroup([Permutation([])])


@pytest.mark.parametrize("images", [
    [0, 0, 1], [0, 1, 3], [-1, 0, 1], [[0, 1], [1, 0]], np.array([[0, 1], [1, 0]]),
])
def test_a_non_bijection_is_refused(images):
    # the 2-D arrays hit every point of 0..len - 1 row by row
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(images)


@pytest.mark.parametrize("images", [[0.5, 1.7], np.array([1.9, 0.2]), [1.0, 0.0], [True, False]])
def test_images_that_are_not_integers_are_refused(images):
    # a cast to intp would truncate [0.5, 1.7] to the identity and
    # [1.9, 0.2] to the transposition
    with pytest.raises(ValueError, match="not integers"):
        Permutation(images)


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


def test_extended():
    cycle = Permutation.from_cycles(3, [(0, 1, 2)])
    assert cycle.extended(5).images.tolist() == [1, 2, 0, 3, 4]


def test_transitivity_on_ksubsets_matches_orbits():
    from mergedjohnson.catalog import projective_line_group
    group = projective_line_group(8, "PSL2")  # 4-homogeneous on 9 points
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
    assert len(g.orbit(9, pairs)[0]) == 10
    for bad in (-1, 10):
        with pytest.raises(ValueError):
            g.orbit(bad, pairs)


@pytest.mark.parametrize("call", [
    lambda g: g.induced_subset_action(2.0),
    lambda g: g.induced_subset_action(True),
    lambda g: g.orbit(True),
    lambda g: g.orbit(2.0),
], ids=["induced_float", "induced_bool", "orbit_bool", "orbit_float"])
def test_a_non_integer_k_or_index_is_refused(call):
    """2.0 and True ended in TypeError or put True into the orbit."""
    with pytest.raises(RefusedInput, match="is not an integer"):
        call(s_n(4))


def test_an_index_of_numpy_type_gives_python_ints():
    orbit, transversal = s_n(4).orbit(np.int64(2))
    assert orbit == s_n(4).orbit(2)[0]
    assert all(type(x) is int for x in orbit + list(transversal))


@pytest.mark.parametrize("domain", [ActionDomain.points(6), ActionDomain.ksubsets(6, 2)])
@pytest.mark.parametrize("call", [
    lambda g, d: g.is_transitive(d),
    lambda g, d: g.regularity_degree(d, exhaustive_limit=0),
    lambda g, d: g.regularity_degree(d),
    lambda g, d: g.orbits(d),
    lambda g, d: g.orbit_sizes(d),
    lambda g, d: g.orbit(3, d),
], ids=["is_transitive", "regularity_unswept", "regularity_swept", "orbits",
        "orbit_sizes", "orbit"])
def test_a_domain_of_another_degree_is_refused(call, domain):
    with pytest.raises(ValueError, match="does not match degree 5"):
        call(s_n(5), domain)


# -- array orbits and the stabilizer sweep, against plain loops -------------

def _labels(domain, degree):
    """The domain's labels by index: points, or k-subset masks by rank."""
    if domain.kind == "points":
        return list(range(domain.size))
    return all_masks(degree, domain.k)


def _image(label, domain, images):
    """The image of a label under a point map, one label at a time."""
    if domain.kind == "points":
        return images[label]
    return mask_of(images[x] for x in elements_of(label))


def _index(label, domain):
    """The domain index of a label: a point, or a k-subset mask's rank."""
    return label if domain.kind == "points" else ksubset_rank(label)


@functools.cache
def _witness(n, k, I, kind, case):
    from mergedjohnson.classify import witness_group
    return witness_group(n, k, frozenset(I), kind, case)


@functools.cache
def _closure_of(name):
    """The reference closure of CLOSURE_GROUPS[name] as image tuples,
    computed once."""
    return {tuple(row) for row in closure(CLOSURE_GROUPS[name]().generators).tolist()}


def _listed(group, domain):
    """(size, reached) read from the reference closure: the number of
    elements it lists, and for each domain index whether a listed element
    carries index 0 (point 0, or the k-subset {0..k-1}) to it, ranked one
    label at a time."""
    images = closure(group.generators)
    if domain.kind == "points":
        orbit = set(images[:, 0].tolist())
    else:
        orbit = {ksubset_rank(mask_of(row)) for row in images[:, :domain.k].tolist()}
    return len(images), [x in orbit for x in range(domain.size)]


def _assert_sweep_matches_the_listed_elements(group, domain, limit=None):
    size, reached = group._sweep(domain, limit)
    assert (size, reached.tolist()) == _listed(group, domain)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", ["points", "ksubsets"])
def test_sweep_counts_match_a_loop_over_elements(n, kind):
    domain = ActionDomain.points(n) if kind == "points" else ActionDomain.ksubsets(n, 2)
    _assert_sweep_matches_the_listed_elements(s_n(n), domain)


def test_sweep_counts_match_a_loop_for_a_j12_6_witness():
    dihedral = CLOSURE_GROUPS["J(12,6) dihedral"]()
    domain = ActionDomain.points(dihedral.degree)
    size, reached = dihedral._sweep(domain)
    assert size == len(_closure_of("J(12,6) dihedral")) == 1848
    assert reached.all()
    assert dihedral.regularity_degree() == 2


def _dihedral(m):
    return PermutationGroup([_cycle(m, tuple(range(m))), Permutation(-np.arange(m) % m)])


@pytest.fixture
def no_orbit_search(monkeypatch):
    """Fail any breadth-first orbit search of a PermutationGroup."""
    def refuse(*args):
        raise AssertionError("orbit search")
    monkeypatch.setattr(PermutationGroup, "_orbit_size", refuse)


def test_a_swept_group_reads_its_orbit_from_the_sweep(no_orbit_search):
    assert _dihedral(12).regularity_degree() == 2
    assert s_n(4).regularity_degree(ActionDomain.ksubsets(4, 2)) == 4
    intransitive = PermutationGroup([Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])])
    intransitive._order = 6  # its true order, recorded so that no chain is built
    assert intransitive.regularity_degree() is None
    assert intransitive.regularity_degree(ActionDomain.ksubsets(7, 2)) is None


@pytest.mark.parametrize("domain", [ActionDomain.points(7), ActionDomain.ksubsets(7, 2),
                                    ActionDomain.ksubsets(7, 3)])
def test_the_sweep_reaches_the_orbit_of_index_0(domain):
    group = PermutationGroup([Permutation.from_cycles(7, [(0, 1, 2), (3, 4)]),
                              Permutation.from_cycles(7, [(1, 5)])])
    _, reached = group._sweep(domain)
    assert np.flatnonzero(reached).tolist() == \
        sorted(next(group._orbit_blocks(domain)).tolist())


@pytest.mark.parametrize("wrong", [12, 36, 48])
def test_a_wrong_recorded_order_fails_the_sweep(wrong):
    group = _dihedral(12)
    group._order = wrong
    with pytest.raises(AssertionError, match="order %d, but the group has 24 elements" % wrong):
        group.regularity_degree()


def test_a_wrong_recorded_order_of_an_intransitive_group_fails_the_sweep():
    intransitive = PermutationGroup([Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])])
    intransitive._order = 12
    with pytest.raises(AssertionError, match="order 12, but the group has 6 elements"):
        intransitive.regularity_degree()


def test_a_recorded_order_below_the_sweep_limit_bounds_the_closure():
    group = _dihedral(12)
    group._order = 12
    with pytest.raises(AssertionError, match="more than 20 elements"):
        group.regularity_degree(exhaustive_limit=20)


def test_a_closure_too_large_to_hold_is_not_swept(monkeypatch):
    # 12 870 elements at degree 12 870: past _SWEEP_ENTRIES, so the orbit
    # search decides transitivity and no sweep runs
    group = _witness(16, 8, range(1, 9), "cayley", 4)

    def refuse(self, domain, limit=None):
        raise AssertionError("swept %d elements" % self.order)

    monkeypatch.setattr(PermutationGroup, "_sweep", refuse)
    assert group.order * group.degree > perms._SWEEP_ENTRIES
    assert group.regularity_degree() == 1


@pytest.mark.parametrize("q, kind, k", [(7, "AHL", 2), (11, "AHL", 2), (19, "AHL", 2),
                                        (23, "AHL", 2), (27, "AHL", 2), (31, "AHL", 2),
                                        (8, "AGL", 3), (32, "AGammaL", 3)])
def test_the_orbit_search_finds_the_regular_witnesses(q, kind, k):
    """The Cayley witnesses on J(q,k) with exhaustive_limit=0: regularity
    from the orbit search and the chain's order, never from the sweep,
    whose answers are pinned in tests/data/verify_full.jsonl."""
    from mergedjohnson.nearfields import affine_group, build_dickson
    group = affine_group(build_dickson(q, 1), kind)
    assert group.order == comb(q, k)
    assert group.regularity_degree(ActionDomain.ksubsets(q, k), exhaustive_limit=0) == 1


@pytest.mark.parametrize("n, k, I, kind, case", [(32, 3, (1,), "cayley", 3),
                                                 (14, 7, (7,), "two-regular", 4)])
def test_the_largest_witnesses_swept_still_fit_the_sweep(n, k, I, kind, case):
    group = _witness(n, k, I, kind, case)
    assert group.order * group.degree <= perms._SWEEP_ENTRIES


def _orbits_by_loop(group, domain):
    gens = [g.images.tolist() for g in group.generators]
    seen = set()
    parts = []
    for x in _labels(domain, group.degree):
        if x in seen:
            continue
        seen.add(x)
        block = [x]
        for y in block:
            for g in gens:
                z = _image(y, domain, g)
                if z not in seen:
                    seen.add(z)
                    block.append(z)
        parts.append(block)
    return parts


def test_orbits_match_a_point_by_point_search():
    from mergedjohnson.catalog import projective_line_group
    groups = [s_n(5), projective_line_group(8, "PSL2"),
              PermutationGroup([Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])])]
    for group in groups:
        for domain in (ActionDomain.points(group.degree),
                       ActionDomain.ksubsets(group.degree, 2),
                       ActionDomain.ksubsets(group.degree, 3)):
            want = [[_index(x, domain) for x in block]
                    for block in _orbits_by_loop(group, domain)]
            assert group.orbits(domain) == want
            assert group.orbit_sizes(domain) == tuple(sorted(map(len, want)))


def test_orbit_lists_its_block_with_a_transversal_into_it():
    from mergedjohnson.catalog import projective_line_group
    groups = [s_n(5), projective_line_group(8, "PSL2"),
              PermutationGroup([Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])])]
    for group in groups:
        for domain in (ActionDomain.points(group.degree),
                       ActionDomain.ksubsets(group.degree, 2),
                       ActionDomain.ksubsets(group.degree, 3)):
            blocks = group.orbits(domain)
            for label in _labels(domain, group.degree):
                x = _index(label, domain)
                orbit, transversal = group.orbit(x, domain)
                block = next(b for b in blocks if x in b)
                assert sorted(orbit) == sorted(block)
                assert len(orbit) == len(set(orbit))
                assert orbit[0] == x
                if x == block[0]:
                    assert orbit == block  # the same breadth-first order
                assert sorted(transversal) == sorted(orbit)
                assert transversal[x] == Permutation.identity(group.degree)
                for y, t in transversal.items():
                    assert _index(_image(label, domain, t.images.tolist()), domain) == y


def test_elements_are_every_permutation_in_order():
    import itertools
    assert [tuple(g.images.tolist()) for g in s_n(4).elements()] == \
        list(itertools.permutations(range(4)))
    with pytest.raises(ValueError):
        s_n(4).elements(limit=23)
    assert len(s_n(4).elements(limit=24)) == 24


@pytest.mark.parametrize("group", [
    lambda: s_n(5),
    # images up to 299 fill two bytes of each big-endian key
    lambda: PermutationGroup([_cycle(300, tuple(range(300))),
                              Permutation(-np.arange(300) % 300)]),
])
def test_elements_sort_like_lexsort(group):
    rows = np.array([g.images for g in group().elements()])
    assert np.array_equal(rows, rows[np.lexsort(rows.T[::-1])])


def _cycle(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def _affine_induced(kind, k):
    from mergedjohnson.fields import build_field
    from mergedjohnson.nearfields import affine_group
    return affine_group(build_field(2, 3), kind).induced_subset_action(k)


CLOSURE_GROUPS = {
    "C7": lambda: PermutationGroup([_cycle(7, tuple(range(7)))]),
    "C12 on 7 points": lambda: PermutationGroup([_cycle(7, (0, 1, 2), (3, 4, 5, 6))]),
    "C30 on 10 points": lambda: PermutationGroup([_cycle(10, (0, 1), (2, 3, 4),
                                                         (5, 6, 7, 8, 9))]),
    "S4": lambda: s_n(4),
    "S5": lambda: s_n(5),
    "S5 from a transposition last": lambda: PermutationGroup(
        [_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1))]),
    "fixes point 0": lambda: PermutationGroup(
        [_cycle(8, (1, 2, 3, 4)), _cycle(8, (1, 2), (5, 6)), _cycle(8, (6, 7))]),
    "identity and repeated generators": lambda: PermutationGroup(
        [Permutation.identity(5), _cycle(5, (0, 1, 2)), _cycle(5, (0, 1, 2)),
         _cycle(5, (3, 4)), Permutation.identity(5), _cycle(5, (0, 1)),
         _cycle(5, (3, 4))]),
    "J(12,6) cyclic": lambda: _witness(12, 6, (1, 2, 3, 4, 5, 6), "cayley", 4),
    "J(12,6) cyclic relabelled": lambda: _witness(12, 6, (6,), "cayley", 5),
    "J(12,6) dihedral": lambda: _witness(12, 6, (6,), "two-regular", 4),
    "J(12,6) dihedral unrelabelled": lambda: _witness(12, 6, (1, 2, 3, 4, 5, 6),
                                                      "two-regular", 5),
    "AHL1(7) on 2-subsets": lambda: _witness(7, 2, (1,), "cayley", 1),
    "AGL1(8) on 2-subsets": lambda: _witness(8, 2, (1,), "two-regular", 1),
    "AGL1(8) on 3-subsets": lambda: _affine_induced("AGL", 3),
    "AGammaL1(8) on 3-subsets": lambda: _affine_induced("AGammaL", 3),
}


def _element_rows(group, limit=None):
    return [tuple(g.images.tolist()) for g in group.elements(limit)]


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_elements_match_a_closure_grown_in_plain_python(name):
    group = CLOSURE_GROUPS[name]()
    want = _closure_of(name)
    assert _element_rows(group) == sorted(want)
    assert len(want) == group.order


@pytest.mark.parametrize("swap", [False, True])
def test_closure_starts_from_the_generator_of_largest_order(swap):
    """S4 is 6 cosets of <(0 1 2 3)>, whichever generator comes first:
    of <(0 1)> it would be 12."""
    gens = s_n(4).generators
    group = PermutationGroup(gens[::-1] if swap else gens)
    c, m, rows = group._coset_rows()
    assert (c.tolist(), m, len(rows)) == ([1, 2, 3, 0], 4, 6)
    assert len(group.elements()) == 24


def test_elements_limit_when_the_first_generator_overflows(monkeypatch):
    c = _cycle(12, tuple(range(12)))
    group = PermutationGroup([c, c * c * c * c * c])  # C12, twice
    with monkeypatch.context() as patched:
        # the first generator's order exceeds the limit: no coset is named
        patched.setattr(perms, "_CosetRows", None)
        with pytest.raises(ValueError):
            group.elements(limit=11)
    assert len(group.elements(limit=12)) == 12


@pytest.mark.parametrize("name", ["S4", "J(12,6) dihedral"])
def test_elements_limit_when_a_coset_overflows(name):
    group = CLOSURE_GROUPS[name]()
    assert group.generators[0].order() < group.order
    with pytest.raises(ValueError):
        group.elements(limit=group.order - 1)
    assert len(group.elements(limit=group.order)) == group.order


def _certify_witnesses():
    """(n, k, I, kind, case) of the 98 YES verdicts with n <= 12, the
    witnesses the certify benchmark sweeps."""
    from mergedjohnson.classify import census_instances, classify_cayley, classify_two_regular
    out = []
    for n, k, I in census_instances(12):
        cayley, two_reg = classify_cayley(n, k, I), classify_two_regular(n, k, I)
        if cayley.outcome:
            out.append((n, k, I, "cayley", cayley.case))
        if two_reg.outcome:
            out.append((n, k, I, "two-regular", two_reg.cases[0]))
    return out


def test_the_sweep_counts_every_certify_witness_as_its_listed_elements():
    witnesses = _certify_witnesses()
    assert len(witnesses) == 98
    for n, k, I, kind, case in witnesses:
        group = _witness(n, k, I, kind, case)
        domain = ActionDomain.points(group.degree)
        size, reached = group._sweep(domain)
        assert (size, reached.tolist()) == _listed(group, domain), (n, k, I, kind, case)


# groups whose first generator of largest order has no cycle of that order,
# so that the canonical coset row is chosen by the images of two points
NO_FULL_CYCLE = {
    "<(0 1)(2 3 4)>": lambda: PermutationGroup([_cycle(5, (0, 1), (2, 3, 4))]),
    "<(0 1)(2 3 4), (4 5)>": lambda: PermutationGroup([_cycle(6, (0, 1), (2, 3, 4)),
                                                       _cycle(6, (4, 5))]),
    "<(0 1)(2 3 4)(5 6 7 8 9)>": lambda: CLOSURE_GROUPS["C30 on 10 points"](),
    "<(0 1 2)(3 4), (1 5)>": lambda: PermutationGroup([_cycle(7, (0, 1, 2), (3, 4)),
                                                       _cycle(7, (1, 5))]),
}


@pytest.mark.parametrize("name", sorted(NO_FULL_CYCLE))
def test_the_sweep_counts_groups_with_no_full_cycle_as_their_listed_elements(name):
    group = NO_FULL_CYCLE[name]()
    for domain in [ActionDomain.points(group.degree)] + [
            ActionDomain.ksubsets(group.degree, k) for k in range(1, group.degree + 1)]:
        _assert_sweep_matches_the_listed_elements(group, domain)


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_the_sweep_counts_the_closure_groups_as_their_listed_elements(name):
    group = CLOSURE_GROUPS[name]()
    _assert_sweep_matches_the_listed_elements(group, ActionDomain.points(group.degree))
    if group.degree <= 12:
        _assert_sweep_matches_the_listed_elements(group, ActionDomain.ksubsets(group.degree, 2))


@pytest.mark.parametrize("name", ["S4", "J(12,6) dihedral", "C7", "C30 on 10 points"])
def test_the_sweep_limit_counts_the_cosets_times_the_cycle(name):
    group = CLOSURE_GROUPS[name]()
    domain = ActionDomain.points(group.degree)
    with pytest.raises(ValueError, match="exceeded limit"):
        group._sweep(domain, limit=group.order - 1)
    _assert_sweep_matches_the_listed_elements(group, domain, limit=group.order)


def test_regularity_degree_lists_no_closure(monkeypatch):
    monkeypatch.setattr(PermutationGroup, "elements", None)
    assert _dihedral(12).regularity_degree() == 2
    assert s_n(5).regularity_degree() == 24
    assert s_n(6).regularity_degree(ActionDomain.ksubsets(6, 3)) == 36
    assert _witness(12, 6, (6,), "two-regular", 4).regularity_degree() == 2
    assert NO_FULL_CYCLE["<(0 1)(2 3 4)>"]().regularity_degree() is None


def test_closures_leave_numpy_random_unloaded():
    # numpy 1.x imports numpy.random with numpy itself
    script = """
import sys
import numpy
eager = "numpy.random" in sys.modules
from mergedjohnson.perms import ActionDomain, Permutation, PermutationGroup
s6 = PermutationGroup([Permutation.from_cycles(6, [(0, 1)]),
                       Permutation.from_cycles(6, [tuple(range(6))])])
assert len(s6.elements()) == 720
assert s6.regularity_degree(ActionDomain.ksubsets(6, 3)) == 36
print(eager, "numpy.random" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random on import")
    assert out == ["False", "False"]


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


# -- the stabilizer chain, pinned --------------------------------------------

# Per level (base point, orbit length, strong generators) and the SHA-256 of
# every level's strong generators, recorded while every Schreier generator
# was sifted, tree edges included: skipping the tree edges, which give 1 by
# construction, must leave the chain exactly as it was.  The witnesses are
# every distinct (n, k, kind, case) of the YES verdicts with n <= 12, each
# under the first merge set that has it.
CHAIN_STRUCTURE = {
    "complement 0": [(0, 126, 3), (1, 4, 2)],
    "complement 1": [(0, 252, 3), (1, 2, 1)],
    "complement 2": [(0, 252, 3), (1, 2, 1)],
    "complement 3": [(0, 252, 3), (1, 2, 1)],
    "dickson 7 3 AHL": [(0, 343, 5), (1, 171, 2)],
    "exceptional 11 1": [(0, 121, 4), (1, 120, 2)],
    "exceptional 11 2": [(0, 121, 6), (1, 120, 4)],
    "exceptional 23 1": [(0, 529, 6), (1, 528, 4)],
    "exceptional 29 1": [(0, 841, 5), (1, 840, 3)],
    "exceptional 5 1": [(0, 25, 5), (1, 24, 3)],
    "exceptional 7 1": [(0, 49, 5), (1, 48, 3)],
    "witness 10 2 1,2 cayley 4": [(0, 45, 1)],
    "witness 10 2 1,2 two-regular 5": [(0, 45, 2), (1, 2, 1)],
    "witness 10 3 1,2,3 cayley 4": [(0, 120, 1)],
    "witness 10 3 1,2,3 two-regular 5": [(0, 120, 2), (1, 2, 1)],
    "witness 10 4 1,2,3,4 cayley 4": [(0, 210, 1)],
    "witness 10 4 1,2,3,4 two-regular 5": [(0, 210, 2), (1, 2, 1)],
    "witness 10 5 1,2,3,4,5 cayley 4": [(0, 252, 1)],
    "witness 10 5 1,2,3,4,5 two-regular 5": [(0, 252, 2), (1, 2, 1)],
    "witness 10 5 1,4 two-regular 3": [(0, 252, 3), (1, 2, 1)],
    "witness 10 5 5 cayley 5": [(0, 252, 1)],
    "witness 10 5 5 two-regular 4": [(0, 252, 2), (1, 2, 1)],
    "witness 11 2 1 cayley 1": [(0, 55, 2)],
    "witness 11 2 1 two-regular 1": [(0, 55, 2), (1, 2, 1)],
    "witness 11 3 1,2,3 cayley 4": [(0, 165, 1)],
    "witness 11 3 1,2,3 two-regular 5": [(0, 165, 2), (1, 2, 1)],
    "witness 11 4 1,2,3,4 cayley 4": [(0, 330, 1)],
    "witness 11 4 1,2,3,4 two-regular 5": [(0, 330, 2), (1, 2, 1)],
    "witness 11 5 1,2,3,4,5 cayley 4": [(0, 462, 1)],
    "witness 11 5 1,2,3,4,5 two-regular 5": [(0, 462, 2), (1, 2, 1)],
    "witness 12 2 1,2 cayley 4": [(0, 66, 1)],
    "witness 12 2 1,2 two-regular 5": [(0, 66, 2), (1, 2, 1)],
    "witness 12 3 1,2,3 cayley 4": [(0, 220, 1)],
    "witness 12 3 1,2,3 two-regular 5": [(0, 220, 2), (1, 2, 1)],
    "witness 12 4 1,2,3,4 cayley 4": [(0, 495, 1)],
    "witness 12 4 1,2,3,4 two-regular 5": [(0, 495, 2), (1, 2, 1)],
    "witness 12 5 1,2,3,4,5 cayley 4": [(0, 792, 1)],
    "witness 12 5 1,2,3,4,5 two-regular 5": [(0, 792, 2), (1, 2, 1)],
    "witness 12 6 1,2,3,4,5,6 cayley 4": [(0, 924, 1)],
    "witness 12 6 1,2,3,4,5,6 two-regular 5": [(0, 924, 2), (1, 2, 1)],
    "witness 12 6 6 cayley 5": [(0, 924, 1)],
    "witness 12 6 6 two-regular 4": [(0, 924, 2), (1, 2, 1)],
    "witness 4 2 1 cayley 5": [(0, 6, 1)],
    "witness 4 2 1 two-regular 1": [(0, 6, 3), (1, 2, 1)],
    "witness 4 2 1,2 cayley 4": [(0, 6, 1)],
    "witness 5 2 1 two-regular 1": [(0, 10, 2), (1, 2, 1)],
    "witness 5 2 1,2 cayley 4": [(0, 10, 1)],
    "witness 6 2 1,2 cayley 4": [(0, 15, 1)],
    "witness 6 2 1,2 two-regular 5": [(0, 15, 2), (1, 2, 1)],
    "witness 6 3 1 two-regular 2": [(0, 20, 3), (1, 2, 1)],
    "witness 6 3 1,2,3 cayley 4": [(0, 20, 1)],
    "witness 6 3 3 cayley 5": [(0, 20, 1)],
    "witness 7 2 1 cayley 1": [(0, 21, 2)],
    "witness 7 2 1 two-regular 1": [(0, 21, 2), (1, 2, 1)],
    "witness 7 3 1,2,3 cayley 4": [(0, 35, 1)],
    "witness 7 3 1,2,3 two-regular 5": [(0, 35, 2), (1, 2, 1)],
    "witness 8 2 1 two-regular 1": [(0, 28, 4), (1, 2, 1)],
    "witness 8 2 1,2 cayley 4": [(0, 28, 1)],
    "witness 8 3 1 cayley 2": [(0, 56, 4)],
    "witness 8 3 1,2,3 two-regular 5": [(0, 56, 2), (1, 2, 1)],
    "witness 8 4 1,2,3,4 cayley 4": [(0, 70, 1)],
    "witness 8 4 1,2,3,4 two-regular 5": [(0, 70, 2), (1, 2, 1)],
    "witness 8 4 4 cayley 5": [(0, 70, 1)],
    "witness 8 4 4 two-regular 4": [(0, 70, 2), (1, 2, 1)],
    "witness 9 2 1 two-regular 1": [(0, 36, 3), (1, 2, 1)],
    "witness 9 2 1,2 cayley 4": [(0, 36, 1)],
    "witness 9 3 1,2,3 cayley 4": [(0, 84, 1)],
    "witness 9 3 1,2,3 two-regular 5": [(0, 84, 2), (1, 2, 1)],
    "witness 9 4 1,2,3,4 cayley 4": [(0, 126, 1)],
    "witness 9 4 1,2,3,4 two-regular 5": [(0, 126, 2), (1, 2, 1)],
}
CHAIN_GENERATORS_SHA256 = {
    "complement 0":
        "9f1baad89a9f5a8866daf4e0ad2c07e82ab598070e824832aa7989c6f7269fb4",
    "complement 1":
        "5b155e94b3210fe28aa9cf441a3f7e7ce11ca24a83f0a85ce3c802bdc0a2c9ae",
    "complement 2":
        "800b246c705f25f8a1a464f162bdc9e5b2d98d74152dd9e0cbef6c9b72372883",
    "complement 3":
        "5c212f1278fa78d8d9975cb29d65697d4a40eb665a64e29022a52d41e8a9798d",
    "dickson 7 3 AHL":
        "bbfd0ddc0688e8082335331f52f2aa0a719c65e7b6a9f6d5ae5065b45d75c563",
    "exceptional 11 1":
        "9d5c4f83082645adaba0ab4b4de9c40810b7209d142ddfe5c33fa08003af8baa",
    "exceptional 11 2":
        "a4528f02a7aeccc4bfb380aadcbf280d811affae24b72ba0457fc003642b2814",
    "exceptional 23 1":
        "203ecd783adfd50c75a92d43df84a42ed971286f42f49a37457b45263a429f02",
    "exceptional 29 1":
        "ba2316309de2b1629ffca55347c94444cb74a7b6eef19598afdad74ca22ac1ed",
    "exceptional 5 1":
        "aef19e8131070cc349dabf3325b2c2e9b80aa3ab0c8c7a5cd928fc9bde55cda7",
    "exceptional 7 1":
        "dcdc0c5c789eaf64a5763bafe903b598babffe180e6dd006549978175c7fb977",
    "witness 10 2 1,2 cayley 4":
        "41190378011001bef2ecf3883ca5e9a01d9e4e4f090444a5d188fa6cc56f9468",
    "witness 10 2 1,2 two-regular 5":
        "46421670a52b527e351708ca31f69c347ede2877fd0f41ab2f2e94308a07998d",
    "witness 10 3 1,2,3 cayley 4":
        "381105b81d17b2214f3b929d1ee3513088bde6d96241d7c5d0f605175c5d5621",
    "witness 10 3 1,2,3 two-regular 5":
        "3d2e2452a9cb235e5322bf88e3fa96764a527f00560767b5c2c229112f6315d2",
    "witness 10 4 1,2,3,4 cayley 4":
        "7a22fe986b037afe6b55a450da5e45d952b6fd4a0bd3ac035c949096633dbf5c",
    "witness 10 4 1,2,3,4 two-regular 5":
        "be16d4bcea56c0ba3f77a9ea722e31c5057ee3d95a1c7a458bfbb5a4251e8c85",
    "witness 10 5 1,2,3,4,5 cayley 4":
        "fad7cbb002859038955e9214065a79a9b110e06dabe092738c3c5116666ed4b8",
    "witness 10 5 1,2,3,4,5 two-regular 5":
        "179e6af3dfa2c93a0be20234fa81d09f3025c5fb996895179f63c2ac270fb056",
    "witness 10 5 1,4 two-regular 3":
        "5b155e94b3210fe28aa9cf441a3f7e7ce11ca24a83f0a85ce3c802bdc0a2c9ae",
    "witness 10 5 5 cayley 5":
        "f5b632113b264a6e6b9b93a0159aab3dd6487072d331da53b934c76387c9a376",
    "witness 10 5 5 two-regular 4":
        "53f9d70a6597f56363538bacc78db282c568a311897b8738e4f999d8b799508b",
    "witness 11 2 1 cayley 1":
        "9b5d24ddba2297da981c611138be39bcf18d70b8c928d21917a086bf7682be4b",
    "witness 11 2 1 two-regular 1":
        "9bc339002b4e650f75ea8c099eb90c71ea6b0747307f0c820257f9db888d5e96",
    "witness 11 3 1,2,3 cayley 4":
        "a724a5fbc9a467333e012a1ef9f4ce8c408b05e1a5057a4f5ef443fac4f7291b",
    "witness 11 3 1,2,3 two-regular 5":
        "ae9a9467109d2528fedeba83b790adfa0b7a2f4c0e4dfb3289d86604d9cc3eb3",
    "witness 11 4 1,2,3,4 cayley 4":
        "3e21d0df1513c95079b9eeef6cf81efdcf01dbf4ed3ca94a39670c3281515309",
    "witness 11 4 1,2,3,4 two-regular 5":
        "e30fcc58fcb7cb7cce0513df9dd5ac4f1d976b4b28083374055573fb5265c1a0",
    "witness 11 5 1,2,3,4,5 cayley 4":
        "8fa21ee01b6debdd1d6837e00ae73615f3f6e6abccc5a0c7a2b01b488ff9f888",
    "witness 11 5 1,2,3,4,5 two-regular 5":
        "20cec65058f0f5766e5a1474134495df4d5ca75a80a326fee5110d5042c91191",
    "witness 12 2 1,2 cayley 4":
        "d627934f47ccda31d7a16d6390c38f1003479ae3ac4c2b41d6c31fe7905d970a",
    "witness 12 2 1,2 two-regular 5":
        "36374aa35d2e530b00bdf2b1c5ec081b244613de076e8e217c80f16f410ecd01",
    "witness 12 3 1,2,3 cayley 4":
        "a4229422c4fbcb68d3f79ee88dc63ea2192875d602fbf3c2d258122333800dca",
    "witness 12 3 1,2,3 two-regular 5":
        "9b647b80ee02d5f4748acdf1504592b90d8fa0b72931621a47c0ca08f73e7c46",
    "witness 12 4 1,2,3,4 cayley 4":
        "3881feba37e6f8cf171cb8de2fadab2a42ab324d99eb9a41317b522d681e894a",
    "witness 12 4 1,2,3,4 two-regular 5":
        "a7c2c5bde925eb0f42acd153a06528b7d7b00f9a50901bbe76de03d1a4b473f1",
    "witness 12 5 1,2,3,4,5 cayley 4":
        "27ba65af127e2c56d8a5f36b6cfbb29ba1492fe5df539237c5c4884bc609135b",
    "witness 12 5 1,2,3,4,5 two-regular 5":
        "2870357c6fca68d71c42f04772c04ddc1260dae1059cc3f99f06a19aa3478c43",
    "witness 12 6 1,2,3,4,5,6 cayley 4":
        "e2dd834bba686d764c700cdeb34c838dbe2c31012ca36176d8afbea1c31f9c77",
    "witness 12 6 1,2,3,4,5,6 two-regular 5":
        "6bad32bd80ae0df7b9d882aad620340f44a39831eb68f570ad48ff99327a3215",
    "witness 12 6 6 cayley 5":
        "6b087f8acfe250c4bd831934e2480127c912722ebdae94f97a0f485d6b35f371",
    "witness 12 6 6 two-regular 4":
        "3660ce9cc7ad0c9658ddc5990c3ca818fe3874dd2b708190842cd2786036ef34",
    "witness 4 2 1 cayley 5":
        "90bdb89c0bd9e211f2f8f79eed66b1bfc8801be2f80328a1f6ecac2809ad0639",
    "witness 4 2 1 two-regular 1":
        "dc58c355aeecbe96ba2175373c358d24b666bb91acc27834e056268df2efe6a2",
    "witness 4 2 1,2 cayley 4":
        "2527968dd36e671b3d2095c4dae9ee22bb10c3c85c5e39fb1affbca87a73d8f7",
    "witness 5 2 1 two-regular 1":
        "a56add8deb21827f59bbfb48b3212e050cd7ab68ffab0847688fd5c0fadc0115",
    "witness 5 2 1,2 cayley 4":
        "3aa2ff841719041bc82a18ba57eabf219536f33ea946adbdf25348ca71f2ba3a",
    "witness 6 2 1,2 cayley 4":
        "2d9d5f11f3d3850431177a188fd4dcefffdb521eabb139e8817e4835ad374bb5",
    "witness 6 2 1,2 two-regular 5":
        "bf666f5ae724ea99a8b37dd46cbe21fb488726f1a4cdc08ab46af37813341e65",
    "witness 6 3 1 two-regular 2":
        "a978c48dd8b1ac21e5c16d604d5c96272170b70d676db51b46585dc983db11db",
    "witness 6 3 1,2,3 cayley 4":
        "86f724c5ab2d5391029772189b8d8032ad60e7c8fd76914b89910676e98195b1",
    "witness 6 3 3 cayley 5":
        "5d6a851f29cb81a2b8472a75a4fcb6695bcdb9b1ca9b44d56e8ec0e876c9efc8",
    "witness 7 2 1 cayley 1":
        "003e77acbbfc35a0836434d6e76b6ea785bef1341cece221b44f1968d944c473",
    "witness 7 2 1 two-regular 1":
        "2b7f405f4f371ac3deb3db4c67ceda56fd57f43e25771910740b7bd4b52b8d08",
    "witness 7 3 1,2,3 cayley 4":
        "46297ae245bc00d5066cc7a9abe0c43a8c311f6e9233c143bd9ece042b521927",
    "witness 7 3 1,2,3 two-regular 5":
        "702e1ac29a4d6fe04501c75e64c5e0119faa3dc7e02b1d68bdd39899aba35a6c",
    "witness 8 2 1 two-regular 1":
        "98486ecb91e2bb037c29047e0ed12ee752aeb7e5b22350346bb3f13ed4c922ab",
    "witness 8 2 1,2 cayley 4":
        "9700399dc3856b988da29791b93065cb7629170bc66dd5e06083fe83556da700",
    "witness 8 3 1 cayley 2":
        "edd4a7ffe3cb2515f71d29bed60dfc75011907607bf1d40d692aaf4649836831",
    "witness 8 3 1,2,3 two-regular 5":
        "119dae52678f1c12a2580592bd8ea550cd9218d57fcfdeb3dbe25dee8425b844",
    "witness 8 4 1,2,3,4 cayley 4":
        "a0c150bf4b112017befaead06058e88a8c298a8ae7e6814a2abbb47003c6f97e",
    "witness 8 4 1,2,3,4 two-regular 5":
        "7eee934e57ad5b2a9b1d3ff32a68c792e5bfc387d16ad275ca530a84e5464835",
    "witness 8 4 4 cayley 5":
        "57adc9c2d081936e9c848ba9e29fb99292a72af4091009b4954e6a2bea42ca60",
    "witness 8 4 4 two-regular 4":
        "810b728c379114116a9f4293f424c49c44c08c314c77baea99c0c4bc55f8a0f7",
    "witness 9 2 1 two-regular 1":
        "638429b9e33e99fe3e0a7a70b569592dfe3e2043120a9dda30a6fff9deb3c7b7",
    "witness 9 2 1,2 cayley 4":
        "6dffb2a5582adb949027b94a599d853249c859e55ea93cf26a175edbab904e91",
    "witness 9 3 1,2,3 cayley 4":
        "c82209a6b30436f208caefbe8fcb37c010a78a40e7b9ff28ed51ba3018ffd9c8",
    "witness 9 3 1,2,3 two-regular 5":
        "ec8b940ce80ed05f01165c2f1cf244ecc21509d6c799bdcd925c3f26e106d269",
    "witness 9 4 1,2,3,4 cayley 4":
        "630f52d48435a980e6691288150111543114e95d10562376a23f302629437886",
    "witness 9 4 1,2,3,4 two-regular 5":
        "2cad9263fa0e6873e0ad9de356f4891a0b20f7bb16da80ed16516ee558b3474c",
}


def _chain_group(key):
    from mergedjohnson import complement, nearfields
    kind, *args = key.split()
    if kind == "witness":
        n, k, merge, verdict, case = args
        return _witness(int(n), int(k), tuple(map(int, merge.split(","))),
                        verdict, int(case))
    if kind == "dickson":
        return nearfields.affine_group(nearfields.build_dickson(7, 3), "AHL")
    if kind == "exceptional":
        spec = nearfields.exceptional_spec(int(args[0]), int(args[1]))
        return nearfields.exceptional_group(spec)
    data = complement.build_cocycle_data(int(args[0]))
    return complement.complement_vertex_group(data)


def _assert_pinned(key, levels):
    assert [(lv.base, len(lv.transversal), len(lv.gens)) for lv in levels] == \
        CHAIN_STRUCTURE[key]
    gens = json.dumps([[g.tolist() for g in lv.gens] for lv in levels])
    assert hashlib.sha256(gens.encode()).hexdigest() == CHAIN_GENERATORS_SHA256[key]


@pytest.mark.parametrize("key", sorted(CHAIN_STRUCTURE))
def test_chain_structure_pinned(key):
    _assert_pinned(key, _chain_group(key).chain.levels)


def _tree_elements(level, degree):
    """The transversal element u taking the level's base to each orbit
    point, composed along the tree edges in orbit order, with no inverses
    and no cache."""
    u = {level.base: np.arange(degree)}
    for x in level.orbit_order[1:]:
        parent, gi, _ = level.transversal[x]
        u[x] = level.gens[gi][u[parent]]
    return u


@pytest.mark.parametrize("key", sorted(CHAIN_STRUCTURE))
def test_chain_past_the_cache_budget(monkeypatch, key):
    """With the cache budget cut to 3000 entries, a level whose degree x
    orbit exceeds it caches u⁻¹ only for one class of tree depths mod its
    stride.  The chain is still the pinned one; every generator is a
    member, and a generator times a transposition of two points outside
    the base is not (a nontrivial element fixing the base); every cached
    inverse is the one composed along the tree; the cache stays within the
    budget; and once every point has been looked up, no lookup walks
    stride or more tree edges from a cached point."""
    budget = 3000
    monkeypatch.setattr(perms.StabilizerChain, "_CACHE_BUDGET", budget)
    group = PermutationGroup(_chain_group(key).generators)
    chain = group.chain
    _assert_pinned(key, chain.levels)
    assert all(g in group for g in group.generators)
    a, b = sorted(set(range(group.degree)) - {lv.base for lv in chain.levels})[:2]
    swap = list(range(group.degree))
    swap[a], swap[b] = b, a
    assert group.generators[0] * Permutation(swap) not in group
    for level in chain.levels:
        assert level.stride == -(-group.degree * len(level.transversal) // budget)
        for x, u in _tree_elements(level, group.degree).items():
            assert np.array_equal(chain._inverse(level, x)[u], np.arange(group.degree))
        assert all(x == level.base or level.transversal[x][2] % level.stride == level.offset
                   for x in level.cache)
        assert (len(level.cache) - 1) * group.degree <= budget
        for x in level.transversal:
            walk = 0
            while x not in level.cache:
                x = level.transversal[x][0]
                walk += 1
            assert walk < level.stride


@pytest.mark.parametrize("key", sorted(CHAIN_STRUCTURE))
def test_chain_keeps_its_inverse_caches(monkeypatch, key):
    """Construction leaves each level's cache full: with the budget cut to
    3000 entries, before any membership test, every level caches u⁻¹ for
    exactly the base and the points of its depth class mod stride."""
    monkeypatch.setattr(perms.StabilizerChain, "_CACHE_BUDGET", 3000)
    for level in PermutationGroup(_chain_group(key).generators).chain.levels:
        assert set(level.cache) == {
            x for x, (_, _, depth) in level.transversal.items()
            if x == level.base or depth % level.stride == level.offset}
