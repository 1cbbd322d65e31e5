"""Acceptance gate: quantitative checks of the full classification at
desk scale, with runtime budgets."""

import time
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest

from mergedjohnson import perms
from mergedjohnson.classify import (aut_descriptor, census_instances,
                                    classify_cayley, classify_instance,
                                    classify_two_regular, only_an_sn,
                                    witness_group)
from mergedjohnson.complement import (build_cocycle_data, build_pointed_psl28,
                                      complement_vertex_group,
                                      frobenius_class_action, orbit_signature)
from mergedjohnson.fields import build_field
from mergedjohnson.johnson import (build_graph, graph_stats,
                                   induced_subgraph_classes, merge_set)
from mergedjohnson.nearfields import (affine_group, build_dickson,
                                      exceptional_group, exceptional_spec)
from mergedjohnson.perms import ActionDomain, Permutation, PermutationGroup
from mergedjohnson.verify import (bruteforce_automorphism_group,
                                  is_automorphism,
                                  lemma_regorbits_exhaustive_n4,
                                  lemma_two_orbit_check, regular_action_check,
                                  regular_subgroup_nonexistence,
                                  sharply_two_transitive_check)


def _regular_on_ksubsets(group, n, k):
    domain = ActionDomain.ksubsets(n, k)
    return group.regularity_degree(domain, exhaustive_limit=0)


def test_criterion_1_regular_witnesses():
    t0 = time.perf_counter()
    for q in (7, 11, 19, 23, 27, 31):
        ahl = witness_group(q, 2, frozenset({1}), "cayley")
        assert ahl.order == comb(q, 2)
        assert ahl.regularity_degree(exhaustive_limit=0) == 1
    agl8 = affine_group(build_field(2, 3), "AGL")
    assert agl8.order == 56 == comb(8, 3)
    assert _regular_on_ksubsets(agl8, 8, 3) == 1
    agammal32 = affine_group(build_field(2, 5), "AGammaL")
    assert agammal32.order == 4960 == comb(32, 3)
    assert _regular_on_ksubsets(agammal32, 32, 3) == 1
    assert time.perf_counter() - t0 <= 10.0


def test_criterion_2_dickson_near_fields():
    t0 = time.perf_counter()
    nf9 = build_dickson(3, 2)
    nf9.verify_axioms()            # proved from generators, no triple swept
    assert not nf9.is_commutative()
    agl9 = affine_group(nf9, "AGL")
    assert sharply_two_transitive_check(agl9).confirmed
    report = regular_action_check(agl9.induced_subset_action(2),
                                  build_graph(9, 2, frozenset({1})), 2)
    assert report.confirmed, report.evidence
    nf343 = build_dickson(7, 3)    # the axiom check runs during the build
    ahl343 = affine_group(nf343, "AHL")
    assert ahl343.order == comb(343, 2) == 58653
    assert _regular_on_ksubsets(ahl343, 343, 2) == 1
    assert time.perf_counter() - t0 <= 60.0


EXPECTED_G0 = {
    (5, 1): "2T",
    (7, 1): "2O",
    (11, 1): "2I",
    (11, 2): "2TxC5",
    (23, 1): "2OxC11",
    (29, 1): "2IxC7",
    (59, 1): "2IxC29",
}


def test_criterion_3_exceptional_near_fields():
    t0 = time.perf_counter()
    for (p, variant), tag in EXPECTED_G0.items():
        spec = exceptional_spec(p, variant)
        assert spec.g0_structure == tag
        group = exceptional_group(spec)
        assert group.order == p * p * (p * p - 1)
        assert sharply_two_transitive_check(group).confirmed
    assert time.perf_counter() - t0 <= 600.0


def test_criterion_4_psl28_complement_suite():
    t0 = time.perf_counter()
    pointed = build_pointed_psl28()
    datas = {label: build_cocycle_data(label, pointed) for label in range(4)}
    assert len(datas) == 4
    assert orbit_signature(datas[0]) == (126, 126)
    # keys a*252 + b of the edges in both directions, from the edge list
    edge_keys = []
    for I in [(1, 4), (2, 3)]:
        u, v = np.array(build_graph(10, 5, frozenset(I)).edges).T
        edge_keys.append((np.concatenate([u * 252 + v, v * 252 + u]), u, v))
    for label in (1, 2, 3):
        group = complement_vertex_group(datas[label])
        assert group.order == 504
        assert orbit_signature(datas[label]) == (252,)
        assert group.regularity_degree() == 2
        images = np.stack([g.images for g in group.elements()])
        for both_dirs, u, v in edge_keys:
            assert np.isin(images[:, u] * 252 + images[:, v], both_dirs).all()
    action = {label: frobenius_class_action(datas[label]) for label in range(4)}
    assert action[0] == 0
    assert {action[x] for x in (1, 2, 3)} == {1, 2, 3}
    assert all(action[x] != x for x in (1, 2, 3))   # a 3-cycle
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_5_bruteforce_aut_matches_descriptor():
    for n, k, I, expected in [(4, 2, {1}, 48), (4, 2, {2}, 48),
                              (5, 2, {1}, 120), (5, 2, {2}, 120),
                              (4, 2, {1, 2}, 720)]:
        assert bruteforce_automorphism_group(build_graph(n, k, I)) == expected
        assert aut_descriptor(n, k, I).order == expected
    # the 10-vertex complete case exceeds the 6!-brute-force cutoff;
    # formula only
    assert aut_descriptor(5, 2, {1, 2}).order == factorial(10)


def test_criterion_6_petersen_non_cayley_two_ways():
    verdict = classify_cayley(5, 2, {2})
    assert not verdict.outcome       # 5 = 1 mod 4
    s5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    report = regular_subgroup_nonexistence(s5.induced_subset_action(2),
                                           build_graph(5, 2, {2}))
    assert report.confirmed
    from mergedjohnson.classify import cayley_deficiency
    res = cayley_deficiency(5, 2, {2})
    assert res.exact == 2
    assert "AGL1" in res.witness


def test_criterion_7_lemma_suite():
    sweep = lemma_regorbits_exhaustive_n4()
    assert sweep.confirmed
    assert sweep.evidence["subgroup_count"] == 30

    s3 = PermutationGroup([Permutation.from_cycles(4, [(0, 1, 2)]),
                           Permutation.from_cycles(4, [(0, 1)])])
    assert lemma_two_orbit_check(s3).evidence["r"] == 2

    agl5 = affine_group(build_dickson(5, 1), "AGL")
    agl5_6 = PermutationGroup([Permutation(list(g.images) + [5])
                               for g in agl5.generators])
    assert lemma_two_orbit_check(agl5_6).evidence["r"] == 2

    psl28 = build_pointed_psl28()
    assert lemma_two_orbit_check(psl28.group).evidence["r"] == 4

    def adjacency(nv, edges):
        adj = [[] for _ in range(nv)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    four_k2 = adjacency(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    two_k4 = adjacency(8, [(a, b) for blk in ([0, 1, 2, 3], [4, 5, 6, 7])
                           for i, a in enumerate(blk) for b in blk[i + 1:]])
    c8 = adjacency(8, [(i, (i + 1) % 8) for i in range(8)])
    assert induced_subgraph_classes(four_k2, 3) == 2
    assert induced_subgraph_classes(two_k4, 4) == 3
    assert induced_subgraph_classes(c8, 3) == 3


# -- criterion 8: census ---------------------------------------------------

def _aut_case_predicates(n, k, I):
    ms = merge_set(k, I)
    I = ms.I
    ip, idp = ms.i_prime, ms.i_double_prime
    complete = ms.is_complete
    half_sets = (frozenset({k}), frozenset(range(1, k)))
    go10 = (n, k) == (12, 4) and I in (frozenset({1, 3}), frozenset({2, 4}))
    paired = I == frozenset(k + 1 - i for i in I)
    return {
        0: complete,
        1: (not complete and 2 * k < n - 1 and not go10),
        2: go10,
        3: (not complete and 2 * k == n - 1 and not paired),
        4: (not complete and 2 * k == n - 1 and paired),
        5: (not complete and 2 * k == n and I not in half_sets and ip != idp),
        6: (not complete and 2 * k == n and I not in half_sets and ip == idp),
        7: (not complete and 2 * k == n and I in half_sets),
    }


def test_criterion_8_census_properties():
    t0 = time.perf_counter()
    graph_cache = {}
    witness_cache = {}

    def graph_for(n, k, I):
        key = (n, k, I)
        if key not in graph_cache:
            graph_cache[key] = build_graph(n, k, I)
        return graph_cache[key]

    def witness_for(n, k, I, kind, case):
        key = (n, k, kind, case)
        if key not in witness_cache:
            witness_cache[key] = witness_group(n, k, I, kind, case)
        return witness_cache[key]

    checked_yes = 0
    for n, k, I in census_instances(12):
        fired = [c for c, hit in _aut_case_predicates(n, k, I).items() if hit]
        assert len(fired) == 1, (n, k, I, fired)
        assert aut_descriptor(n, k, I).case_id == fired[0]

        cayley = classify_cayley(n, k, I)
        two_reg = classify_two_regular(n, k, I)
        assert comb(n, k) <= 5000
        if cayley.outcome:
            w = witness_for(n, k, I, "cayley", cayley.case)
            report = regular_action_check(w, graph_for(n, k, I), 1)
            assert report.confirmed, (n, k, I, report.evidence)
            checked_yes += 1
        if two_reg.outcome:
            w = witness_for(n, k, I, "two-regular", two_reg.cases[0])
            report = regular_action_check(w, graph_for(n, k, I), 2)
            assert report.confirmed, (n, k, I, report.evidence)
            checked_yes += 1
        if not cayley.outcome and not two_reg.outcome \
                and only_an_sn(n, k, I):
            record = classify_instance(n, k, I)
            assert record["deficiency"] == {
                "exact": factorial(k) * factorial(n - k) // 2,
                "witness": "A%d" % n}
    assert checked_yes == 98

    # deficiency formula spot value, formula-level (no census at n = 14)
    record = classify_instance(14, 6, {1})
    assert record["deficiency"]["exact"] == 14515200
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_8_certifies_n13_and_n14():
    """Every YES verdict at n = 13 and 14 passes the regular action check on
    its graph, as criterion 8 does up to n = 12."""
    t0 = time.perf_counter()
    checked_yes = 0
    for n, k, I in census_instances(14):
        if n < 13:
            continue
        cayley = classify_cayley(n, k, I)
        two_reg = classify_two_regular(n, k, I)
        verdicts = ([("cayley", cayley.case, 1)] if cayley.outcome else []) \
            + ([("two-regular", two_reg.cases[0], 2)] if two_reg.outcome else [])
        for kind, case, r in verdicts:
            report = regular_action_check(witness_group(n, k, I, kind, case),
                                          build_graph(n, k, I), r)
            assert report.confirmed, (n, k, I, kind, report.evidence)
            checked_yes += 1
    assert checked_yes == 28
    assert time.perf_counter() - t0 <= 60.0


def test_certify_builds_no_chain_at_the_vertex_degree(monkeypatch):
    """Stabilizer chains built while the witnesses of every YES verdict up
    to n = 12 are built and checked, counted by degree.  The induced,
    cyclic and dihedral witnesses record their orders: the only chains are
    their parents' at degree n or below.  AGL1(5) x S2 (two-regular case
    2) and the PSL2(8) complement (case 3) assert their orders from a chain
    at the vertex degree when built.  regular_action_check builds none."""
    built = Counter()
    init = perms.StabilizerChain.__init__

    def counted(self, generators, degree):
        built[degree] += 1
        init(self, generators, degree)

    monkeypatch.setattr(perms.StabilizerChain, "__init__", counted)
    checked = 0
    for n, k, I in census_instances(12):
        cayley = classify_cayley(n, k, I)
        two_reg = classify_two_regular(n, k, I)
        verdicts = ([("cayley", cayley.case, 1)] if cayley.outcome else []) \
            + ([("two-regular", two_reg.cases[0], 2)] if two_reg.outcome else [])
        for kind, case, r in verdicts:
            built.clear()
            witness = witness_group(n, k, I, kind, case)
            if (kind, case) not in (("two-regular", 2), ("two-regular", 3)):
                assert max(built, default=n) <= n, (n, k, kind, case, built)
            graph = build_graph(n, k, I)
            built.clear()
            report = regular_action_check(witness, graph, r)
            assert report.confirmed, (n, k, I, kind, report.evidence)
            assert not built, (n, k, kind, case, built)
            checked += 1
    assert checked == 98


def test_j16_8_dihedral_witness_needs_no_chain():
    """The 2-regular dihedral witness on the 12870 vertices of J(16,8)_{8}
    records its order 2·12870 from an O(m) certificate, and its regularity
    comes from the orbit search and that order.  No stabilizer chain is
    built; one for this group did not finish within 10 minutes.  Its graph
    is past the materialize limit, so there is no edge check."""
    t0 = time.perf_counter()
    group = witness_group(16, 8, frozenset({8}), "two-regular", 4)
    assert group._chain is None
    assert group.order == 25740
    assert group.regularity_degree() == 2
    assert group._chain is None
    assert time.perf_counter() - t0 <= 10.0
