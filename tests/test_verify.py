import json

import pytest

from mergedjohnson.johnson import build_graph
from mergedjohnson.perms import Permutation, PermutationGroup
from mergedjohnson.verify import (OracleReport, bruteforce_automorphism_group,
                                  is_automorphism,
                                  lemma_regorbits_exhaustive_n4,
                                  lemma_two_orbit_check, regular_action_check,
                                  regular_subgroup_nonexistence,
                                  sharply_two_transitive_check)


def test_is_automorphism():
    petersen = build_graph(5, 2, {2})
    s5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    induced = s5.induced_subset_action(2)
    assert all(is_automorphism(g, petersen) for g in induced.generators)
    # a transposition of two non-equivalent vertices is not an automorphism
    assert not is_automorphism(Permutation.from_cycles(10, [(0, 5)]), petersen)


def test_is_automorphism_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        is_automorphism(Permutation.identity(5), build_graph(5, 2, {2}))


def test_regular_action_check_refutes_wrong_r():
    g = build_graph(7, 2, {1})
    from mergedjohnson.classify import witness_group
    w = witness_group(7, 2, {1}, "cayley")
    assert regular_action_check(w, g, 1).confirmed
    assert not regular_action_check(w, g, 2).confirmed


def test_regular_action_check_reports_broken_edge():
    petersen = build_graph(5, 2, {2})
    swap = PermutationGroup([Permutation.from_cycles(10, [(0, 5)])])
    report = regular_action_check(swap, petersen, 1)
    assert report.outcome == "refuted"
    u, v = report.evidence["broken_edge"]
    assert (u, v) in petersen.edges
    assert not petersen.adjacent_ranks(swap.generators[0](u), swap.generators[0](v))


@pytest.mark.parametrize("n,k,I,expected", [
    (4, 2, {1}, 48), (4, 2, {2}, 48),
    (5, 2, {1}, 120), (5, 2, {2}, 120),
    (4, 2, {1, 2}, 720),
])
def test_bruteforce_automorphism_counts(n, k, I, expected):
    assert bruteforce_automorphism_group(build_graph(n, k, I)) == expected


def test_bruteforce_caps_at_10_vertices():
    with pytest.raises(ValueError):
        bruteforce_automorphism_group(build_graph(6, 2, {1}))


def test_regular_subgroup_search_in_s4_on_octahedron():
    # J(4,2)_1 is a Cayley graph (a regular C6 sits inside Aut = S2 wr S3),
    # but the only order-6 subgroups of S4 are point stabilizers S3, which
    # are intransitive on the 6 vertices; the search must report none.
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    report = regular_subgroup_nonexistence(s4.induced_subset_action(2),
                                           build_graph(4, 2, {1}))
    assert report.confirmed
    from mergedjohnson.classify import classify_cayley
    assert classify_cayley(4, 2, {1}).outcome  # Cayley nonetheless


def test_regular_subgroup_search_finds_a_witness():
    from mergedjohnson.classify import witness_group
    w = witness_group(4, 2, {1}, "cayley")
    report = regular_subgroup_nonexistence(w, build_graph(4, 2, {1}))
    assert report.outcome == "refuted"
    assert "regular_subgroup_generators" in report.evidence


def test_no_regular_subgroup_on_petersen():
    s5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    report = regular_subgroup_nonexistence(s5.induced_subset_action(2),
                                           build_graph(5, 2, {2}))
    assert report.confirmed


def test_lemma_two_orbit_values():
    c3 = PermutationGroup([Permutation.from_cycles(4, [(0, 1, 2)])])
    assert lemma_two_orbit_check(c3).evidence["r"] == 1
    s3 = PermutationGroup([Permutation.from_cycles(4, [(0, 1, 2)]),
                           Permutation.from_cycles(4, [(0, 1)])])
    assert lemma_two_orbit_check(s3).evidence["r"] == 2


def test_lemma_two_orbit_refutes_transitive_group():
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    assert not lemma_two_orbit_check(s4).confirmed


def test_exhaustive_n4_sweep():
    report = lemma_regorbits_exhaustive_n4()
    assert report.confirmed
    assert report.evidence["subgroup_count"] == 30
    assert report.evidence["qualifying"] == 4


def test_sharply_two_transitive_check_negative():
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    assert not sharply_two_transitive_check(s4).confirmed


def test_report_json_roundtrip():
    report = lemma_regorbits_exhaustive_n4()
    parsed = json.loads(report.to_json())
    assert parsed["outcome"] == "confirmed"
    assert set(parsed) == {"claim", "outcome", "evidence", "elapsed_ms"}
