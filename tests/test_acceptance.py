"""Acceptance gate: the classification over the whole census, checked
against the oracles, with runtime budgets.  The claims of
`verify --suite full` are run and pinned in test_verify.py."""

import time
from collections import Counter
from math import comb, factorial

from mergedjohnson import perms
from mergedjohnson.classify import (aut_descriptor, census_instances,
                                    classify_cayley, classify_instance,
                                    classify_two_regular, only_an_sn,
                                    witness_group)
from mergedjohnson.johnson import build_graph, merge_set
from mergedjohnson.verify import regular_action_check


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
    """Every verdict up to n = 12 against the theorem's case predicates, and
    the deficiency of the A_n/S_n NO verdicts.  The 98 YES verdicts are
    counted here and certified on their graphs, once each, by
    test_certify_builds_no_chain_at_the_vertex_degree."""
    t0 = time.perf_counter()
    checked_yes = 0
    for n, k, I in census_instances(12):
        fired = [c for c, hit in _aut_case_predicates(n, k, I).items() if hit]
        assert len(fired) == 1, (n, k, I, fired)
        assert aut_descriptor(n, k, I).case_id == fired[0]

        cayley = classify_cayley(n, k, I)
        two_reg = classify_two_regular(n, k, I)
        assert comb(n, k) <= 5000
        checked_yes += bool(cayley.outcome) + bool(two_reg.outcome)
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
    """Every YES verdict up to n = 12 passes the regular action check on its
    graph.  Stabilizer chains built meanwhile are counted by degree.  The
    induced, cyclic and dihedral witnesses record their orders: the only
    chains are their parents' at degree n or below.  AGL1(5) x S2
    (two-regular case 2) and the PSL2(8) complement (case 3) assert their
    orders from a chain at the vertex degree when built.
    regular_action_check builds none."""
    t0 = time.perf_counter()
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
    assert time.perf_counter() - t0 <= 300.0


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
