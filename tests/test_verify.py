import json
import time
from pathlib import Path

import numpy as np
import pytest

from mergedjohnson import johnson, verify
from mergedjohnson.classify import census_instances, witness_group
from mergedjohnson.johnson import build_graph
from mergedjohnson.nearfields import (_affine_map, affine_group, build_dickson,
                                      exceptional_group, exceptional_spec)
from mergedjohnson.perms import Permutation, PermutationGroup
from mergedjohnson.verify import (Claim, OracleReport, _broken_edge,
                                  bruteforce_automorphism_group,
                                  is_automorphism, lemma_two_orbit_check,
                                  regular_action_check,
                                  regular_subgroup_nonexistence, run_suite,
                                  sharply_two_transitive_check, suite_claims)


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


def _adjacent(graph, K, Kp):
    """Whether the vertices with masks K and K' are adjacent by the rule
    that defines J(n,k)_I: k - |K ∩ K'| ∈ I."""
    return graph.k - (K & Kp).bit_count() in graph.I


def test_regular_action_check_reports_broken_edge():
    petersen = build_graph(5, 2, {2})
    swap = PermutationGroup([Permutation.from_cycles(10, [(0, 5)])])
    report = regular_action_check(swap, petersen, 1)
    assert report.outcome == "refuted"
    u, v = report.evidence["broken_edge"]
    assert (u, v) in petersen.edges
    flip = swap.generators[0]
    assert not _adjacent(petersen, petersen.vertex_mask(flip(u)),
                         petersen.vertex_mask(flip(v)))


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


def test_regular_subgroup_search_finds_agl18_at_four_prime_factors():
    """C(8,3) = 56 = 2·2·2·7: inside AGammaL1(8) on 3-subsets the search
    reaches a regular subgroup, and J(8,3) is Cayley in the census."""
    from mergedjohnson.classify import classify_cayley
    from mergedjohnson.fields import build_field
    ambient = affine_group(build_field(2, 3), "AGammaL").induced_subset_action(3)
    graph = build_graph(8, 3, {1})
    report = regular_subgroup_nonexistence(ambient, graph)
    assert report.outcome == "refuted"
    gens = [Permutation([x - 1 for x in g])
            for g in report.evidence["regular_subgroup_generators"]]
    assert regular_action_check(PermutationGroup(gens), graph, 1).confirmed
    assert classify_cayley(8, 3, {1}).outcome


def test_regular_subgroup_search_finds_none_at_four_prime_factors():
    """C(9,2) = 36 = 2·2·3·3: AGammaL1(9) on 2-subsets has no regular
    subgroup, and J(9,2) is not Cayley in the census."""
    from mergedjohnson.classify import classify_cayley
    from mergedjohnson.fields import build_field
    report = regular_subgroup_nonexistence(
        affine_group(build_field(3, 2), "AGammaL").induced_subset_action(2),
        build_graph(9, 2, {1}))
    assert report.confirmed
    assert not classify_cayley(9, 2, {1}).outcome


def test_regular_subgroup_search_in_pgl27_on_pairs():
    """C(8,2) = 28 = 2·2·7: PGL2(7) of order 336 on 2-subsets has no
    regular subgroup, and neither has a group of order prime to 28."""
    from mergedjohnson.catalog import projective_line_group
    graph = build_graph(8, 2, {1})
    report = regular_subgroup_nonexistence(
        projective_line_group(7, "PGL2").induced_subset_action(2), graph)
    assert report.confirmed
    assert report.evidence == {"candidates": 90}
    report = regular_subgroup_nonexistence(PermutationGroup([Permutation.identity(28)]),
                                           graph)
    assert report.confirmed
    assert report.evidence == {"note": "order 28 does not divide the ambient order"}


def test_regular_subgroup_search_refuses_an_ambient_of_another_degree():
    s5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    with pytest.raises(ValueError, match="degree 5 does not match 10 vertices"):
        regular_subgroup_nonexistence(s5, build_graph(5, 2, {2}))


def test_regular_subgroup_search_refuses_an_ambient_outside_aut():
    c10 = PermutationGroup([Permutation.from_cycles(10, [tuple(range(10))])])
    with pytest.raises(ValueError, match="not automorphisms"):
        regular_subgroup_nonexistence(c10, build_graph(5, 2, {2}))


def test_subgroups_of_s4_layer_by_layer():
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    found = list(verify.subgroups(s4.elements()))
    orders = sorted(len(sub) for sub, _ in found)
    assert orders == [1] + [2] * 9 + [3] * 4 + [4] * 7 + [6] * 4 + [8] * 3 + [12, 24]
    for sub, gens in found:
        assert sub == frozenset(PermutationGroup(gens or [Permutation.identity(4)])
                                .elements())
    # each layer adds one generator
    assert [len(gens) for _, gens in found] == sorted(len(gens) for _, gens in found)
    # keep and limit prune every subgroup above the ones they drop
    small = list(verify.subgroups(s4.elements(), limit=4,
                                  keep=lambda sub: len(sub) != 2))
    assert sorted(len(sub) for sub, _ in small) == [1, 3, 3, 3, 3, 4, 4, 4]
    assert list(verify.subgroups([])) == []


def test_lemma_two_orbit_refutes_transitive_group():
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    assert not lemma_two_orbit_check(s4).confirmed


def _lemma_group(name):
    from mergedjohnson.complement import build_pointed_psl28
    from mergedjohnson.nearfields import affine_group, build_dickson
    if name == "AGL1(5) and a fixed point":
        agl5 = affine_group(build_dickson(5, 1), "AGL")
        return PermutationGroup([g.extended(6) for g in agl5.generators])
    if name == "pointed PSL2(8)":
        return build_pointed_psl28().group
    cycles = {"C3": [[(0, 1, 2)]], "S3": [[(0, 1, 2)], [(0, 1)]],
              "S4": [[(0, 1)], [(0, 1, 2, 3)]], "D4": [[(0, 1, 2, 3)], [(0, 2)]]}
    return PermutationGroup([Permutation.from_cycles(4, c) for c in cycles[name]])


# the whole report, as the per-element stabilizer loop over the group's
# elements gave it
LEMMA_REPORTS = {
    "C3": ("confirmed", {"orbit_sizes": [3, 3], "r": 1}),
    "S3": ("confirmed", {"orbit_sizes": [3, 3], "r": 2}),
    "S4": ("refuted", {"orbit_count": 1}),
    "D4": ("refuted", {"orbit_sizes": [4, 2], "r": [2, 4]}),
    "AGL1(5) and a fixed point": ("confirmed", {"orbit_sizes": [10, 10], "r": 2}),
    "pointed PSL2(8)": ("confirmed", {"orbit_sizes": [126, 126], "r": 4}),
}


@pytest.mark.parametrize("name", sorted(LEMMA_REPORTS))
def test_lemma_two_orbit_evidence_is_pinned(name):
    report = lemma_two_orbit_check(_lemma_group(name))
    assert (report.outcome, report.evidence) == LEMMA_REPORTS[name]


def test_sharply_two_transitive_check_negative():
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    assert not sharply_two_transitive_check(s4).confirmed


# -- the claim registry ----------------------------------------------------

# `verify --suite full` output with elapsed_ms removed: the one record of
# every registered claim's outcome and evidence
FULL_GOLDEN = Path(__file__).parent / "data" / "verify_full.jsonl"


@pytest.fixture(scope="module")
def full_reports():
    """Every registered claim's report, each claim checked once."""
    return list(run_suite("full"))


def _recorded_lines(reports):
    lines = []
    for report in reports:
        record = json.loads(report.to_json())
        del record["elapsed_ms"]
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def test_every_claim_matches_its_recorded_line(full_reports):
    assert _recorded_lines(full_reports) == FULL_GOLDEN.read_text().splitlines()
    assert [r.claim for r in full_reports if not r.confirmed] == []


def test_every_fast_claim_is_confirmed(full_reports):
    # the fast tier is the head of the full tier, so its reports are too
    fast = suite_claims("fast")
    fast_reports = full_reports[:len(fast)]
    assert [r.claim for r in fast_reports] == [c.text for c in fast]
    assert [r.claim for r in fast_reports if not r.confirmed] == []


def test_fast_reports_match_the_recorded_lines(full_reports):
    fast_reports = full_reports[:len(suite_claims("fast"))]
    golden = FULL_GOLDEN.read_text().splitlines()
    assert _recorded_lines(fast_reports) == golden[:len(fast_reports)]


def test_report_json_roundtrip(full_reports):
    for report in full_reports:
        parsed = json.loads(report.to_json())
        assert set(parsed) == {"claim", "outcome", "evidence", "elapsed_ms"}
        assert (parsed["claim"], parsed["outcome"]) == (report.claim, report.outcome)


def test_full_tier_is_fast_tier_then_full_only_claims():
    fast, full = suite_claims("fast"), suite_claims("full")
    assert full[:len(fast)] == fast
    assert {c.tier for c in fast} == {"fast"}
    assert {c.tier for c in full[len(fast):]} == {"full"}


def test_elapsed_ms_spans_the_whole_check(monkeypatch):
    def slow_check():
        time.sleep(0.05)  # stands for the builds before the oracle runs
        return OracleReport("slow", "confirmed", {}, 0.0)

    monkeypatch.setattr(verify, "CLAIMS", (Claim("fast", "slow", slow_check),))
    (report,) = run_suite("fast")
    assert report.elapsed_ms >= 50.0


def test_broken_edge_is_the_first_one_found():
    # values recorded with the edge check that looked pairs up in a set
    petersen = build_graph(5, 2, {2})
    swap = PermutationGroup([Permutation.from_cycles(10, [(0, 5)])])
    assert regular_action_check(swap, petersen, 1).evidence == {"broken_edge": [0, 8]}
    # an automorphism first, then a rotation of the 21 vertices
    from mergedjohnson.classify import witness_group
    ahl7 = witness_group(7, 2, {1}, "cayley")
    shift = Permutation((x + 1) % 21 for x in range(21))
    report = regular_action_check(PermutationGroup(ahl7.generators + [shift]),
                                  build_graph(7, 2, {1}), 1)
    assert report.evidence == {"broken_edge": [0, 3]}
    # the 2-regular witness of J(12,6)_{6} does not preserve J(12,6)_{1,3}
    dihedral = witness_group(12, 6, {6}, "two-regular")
    report = regular_action_check(dihedral, build_graph(12, 6, {1, 3}), 2)
    assert report.evidence == {"broken_edge": [0, 467]}
    assert regular_action_check(dihedral, build_graph(12, 6, {6}), 2).confirmed


def _pair_orbit_by_set(group):
    n = group.degree
    start = (0, 1)
    seen = {start}
    queue = [start]
    for a, b in queue:
        for g in group.generators:
            pair = (g(a), g(b))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return len(seen)


def test_pair_orbit_matches_a_set_search():
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    c5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    for group in (s4, c5, exceptional_group(exceptional_spec(5, 1))):
        report = sharply_two_transitive_check(group)
        assert report.evidence["pair_orbit"] == _pair_orbit_by_set(group)


# -- the affine certificate of sharp 2-transitivity --------------------------

@pytest.mark.parametrize("p,variant", [(5, 1), (7, 1), (11, 1), (11, 2),
                                       (23, 1), (29, 1)])
def test_affine_certificate_matches_the_pair_bfs_and_a_chain(p, variant):
    """The certificate's (order, pair orbit) equals a freshly built chain's
    order and the brute-force pair BFS.  exceptional_group records its
    order, so group.order would not read the chain."""
    group = exceptional_group(exceptional_spec(p, variant))
    certified = verify._affine_certificate(group.generator_images, group.degree)
    assert group._chain is None
    assert certified == (group.chain.order, verify._pair_orbit_bfs(group))
    assert certified[0] == group.order == p * p * (p * p - 1)


def _translations_and(p, *matrices):
    """The group of the translations of F_p^2 and the given matrices."""
    return PermutationGroup([_affine_map(p, (1, 0, 0, 1), (1, 0)),
                             _affine_map(p, (1, 0, 0, 1), (0, 1)),
                             *(_affine_map(p, m) for m in matrices)])


@pytest.mark.parametrize("matrix", [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1),
                                    (0, 1, 1, 0)])
def test_affine_certificate_off_the_sharp_case(matrix):
    """T ⋊ <M> for one matrix M mod 5, which but for the swap moves e1
    and e2 in orbits of different sizes: the certificate still matches
    the BFS and a chain, and refutes."""
    group = _translations_and(5, matrix)
    certified = verify._affine_certificate(group.generator_images, 25)
    assert certified == (group.order, verify._pair_orbit_bfs(group))
    assert not sharply_two_transitive_check(group).confirmed


@pytest.fixture
def bfs_calls(monkeypatch):
    """The groups that sharply_two_transitive_check hands to the pair BFS."""
    calls = []

    def counted(group):
        calls.append(group)
        return bfs(group)

    bfs = verify._pair_orbit_bfs
    monkeypatch.setattr(verify, "_pair_orbit_bfs", counted)
    return calls


def _exceptional_5():
    return exceptional_group(exceptional_spec(5, 1)).generators


def test_a_non_affine_generator_falls_back_to_the_bfs(bfs_calls):
    gens = _exceptional_5()
    gens[2] = gens[2] * Permutation.from_cycles(25, [(3, 17)])
    group = PermutationGroup(gens)
    assert verify._affine_certificate(group.generator_images, 25) is None
    report = sharply_two_transitive_check(group)
    assert bfs_calls == [group]
    assert not report.confirmed


def test_one_translation_falls_back_to_the_bfs(bfs_calls):
    """G0 is irreducible, so one translation's conjugates give them all and
    the group is the same; but the generators do not show it."""
    gens = _exceptional_5()
    group = PermutationGroup(gens[:1] + gens[2:])
    assert verify._affine_certificate(group.generator_images, 25) is None
    report = sharply_two_transitive_check(group)
    assert bfs_calls == [group]
    assert report.evidence == {"pair_orbit": 600, "order": 600}


def test_agl2_past_the_cap_falls_back_to_the_bfs(bfs_calls):
    group = _translations_and(5, (2, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0))
    assert verify._affine_certificate(group.generator_images, 25) is None
    report = sharply_two_transitive_check(group)
    assert bfs_calls == [group]
    assert report.evidence == {"pair_orbit": 600, "order": 25 * 480}
    assert not report.confirmed


def test_dickson_agl1_of_order_9_is_certified(bfs_calls):
    group = affine_group(build_dickson(3, 2), "AGL")
    report = sharply_two_transitive_check(group)
    assert bfs_calls == []
    assert report.confirmed
    assert report.evidence == {"pair_orbit": 72, "order": 72}


def _first_broken_by_rule(perms, graph):
    """The first broken edge by a scan of graph.edges under the adjacency
    rule, perm by perm."""
    masks = [graph.vertex_mask(r) for r in range(graph.num_vertices)]
    for p in perms:
        image = p.images.tolist()
        for u, v in graph.edges:
            if not _adjacent(graph, masks[image[u]], masks[image[v]]):
                return (u, v)
    return None


def _induced(rng, n, k):
    """The action on k-subsets of a random element of S_n."""
    point_map = Permutation(rng.permutation(n))
    return PermutationGroup([point_map]).induced_subset_action(k).generators[0]


@pytest.mark.parametrize("n", range(4, 10))
def test_broken_edge_matches_a_scan_of_every_edge(n):
    rng = np.random.default_rng(n)
    for m, k, I in census_instances(n):
        if m < n:
            continue
        graph = build_graph(n, k, I)
        size = graph.num_vertices
        swap = np.arange(size)
        a, b = rng.choice(size, 2, replace=False)
        swap[[a, b]] = swap[[b, a]]
        shuffled = Permutation(rng.permutation(size))
        induced = _induced(rng, n, k)
        for perms in ([induced], [shuffled], [Permutation(swap)],
                      [induced, shuffled], [_induced(rng, n, k), Permutation(swap)]):
            want = _first_broken_by_rule(perms, graph)
            assert _broken_edge(perms, graph) == want, (n, k, sorted(I))
        assert _broken_edge([induced], graph) is None


@pytest.mark.parametrize("n", range(4, 10))
def test_broken_edge_agrees_with_the_scan_across_row_blocks(n, monkeypatch):
    # four mapped entries a block: every graph here (V >= 6) takes at
    # least two blocks in _keeps_edges, and the materialised build too
    monkeypatch.setattr(johnson, "_BLOCK_ENTRIES", 4)
    rng = np.random.default_rng(100 + n)
    through_complement = 0
    for m, k, I in census_instances(n):
        if m < n:
            continue
        graph = build_graph(n, k, I)
        size = graph.num_vertices
        rest = graph.complement
        if rest is not None and size - 1 - graph.degree < graph.degree:
            through_complement += 1
        induced = _induced(rng, n, k)
        shuffled = Permutation(rng.permutation(size))
        # every transposition of a small graph: most break only rows past
        # the first block
        swaps = [Permutation.from_cycles(size, [(a, b)])
                 for b in range(size) for a in range(b)] if size <= 21 else []
        for perms in ([induced], [shuffled], [induced, shuffled],
                      [_induced(rng, n, k), shuffled, induced], *([p] for p in swaps)):
            want = _first_broken_by_rule(perms, graph)
            assert _broken_edge(perms, graph) == want, (n, k, sorted(I))
            kept = [_first_broken_by_rule([p], graph) is None for p in perms]
            assert [graph._keeps_edges(p.images) for p in perms] == kept
            if rest is not None:
                assert [rest._keeps_edges(p.images) for p in perms] == kept
    assert through_complement  # some graph of each n is tested on its complement


def test_a_confirmed_check_builds_no_edge_keys():
    for n, k, I, r in [(7, 2, {1}, 1), (8, 3, {1, 2}, 1), (12, 6, {6}, 2)]:
        graph = build_graph(n, k, I)
        kind = "cayley" if r == 1 else "two-regular"
        assert regular_action_check(witness_group(n, k, I, kind), graph, r).confirmed
        assert graph._neighbours is not None or graph.complement._neighbours is not None
        for checked in (graph, graph.complement):
            assert "_keys" not in checked.__dict__
    # has_edges builds them on its first call
    graph = build_graph(8, 3, {1, 3})
    graph.has_edges([0], [1])
    assert graph._keys.dtype == np.int64
    assert "_keys" in graph.__dict__


def test_complete_graph_is_checked_without_its_matrix():
    rng = np.random.default_rng(0)
    complete = build_graph(9, 4, {1, 2, 3, 4})
    assert _broken_edge([_induced(rng, 9, 4)], complete) is None
    assert _broken_edge([Permutation(rng.permutation(126))], complete) is None
    assert complete._neighbours is None


def test_broken_edge_rejects_a_non_bijection():
    petersen = build_graph(5, 2, {2})
    images = np.arange(10)
    images[3] = 4
    for graph in (petersen, build_graph(5, 2, {1, 2})):
        with pytest.raises(ValueError, match="bijection"):
            _broken_edge([Permutation._of(images)], graph)
        with pytest.raises(ValueError, match="bijection"):
            _broken_edge([Permutation._of(np.arange(1, 11))], graph)


def test_broken_edge_needs_a_materialized_graph():
    lazy = build_graph(17, 6, {1, 3})  # 12 376 vertices, past the limit
    with pytest.raises(ValueError, match="not materialized"):
        _broken_edge([Permutation.identity(lazy.num_vertices)], lazy)
