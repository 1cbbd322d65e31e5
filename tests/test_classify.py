import io
from collections import Counter
from math import comb, factorial, log10
from pathlib import Path

import numpy as np
import pytest

from mergedjohnson import catalog, classify, cli
from mergedjohnson.classify import (CLAUSES, _with_proved_order,
                                    aut_descriptor, cayley_deficiency,
                                    census_instances, classify_cayley,
                                    classify_instance, classify_two_regular,
                                    only_an_sn, witness_group)
from mergedjohnson.johnson import build_graph
from mergedjohnson.perms import Permutation, PermutationGroup, StabilizerChain
from mergedjohnson.subsets import RefusedInput
from mergedjohnson.verify import regular_action_check


# -- automorphism group descriptor -----------------------------------------

def test_aut_complete_case():
    desc = aut_descriptor(5, 2, {1, 2})
    assert desc.case_id == 0
    assert desc.order == 3628800


def test_aut_order_past_4300_digits_is_a_formula():
    # 924! has 2270 digits and stays exact; 1716! has 4808 and is not built
    assert aut_descriptor(12, 6, set(range(1, 7))).order == factorial(924)
    order = aut_descriptor(13, 6, set(range(1, 7))).order
    assert order["formula"] == "C(13,6)!"
    assert abs(order["log10"] - log10(factorial(1716))) < 1e-3
    # 2^e * e! with e = C(2200,1100)/2 > 10^600: not even log10 fits a float
    with pytest.raises(ValueError):
        aut_descriptor(2200, 1100, {1100})


def test_aut_kneser_half_case():
    desc = aut_descriptor(6, 3, {3})
    assert desc.case_id == 7
    assert desc.order == 2 ** 10 * 3628800


def test_aut_go10_case():
    for I in ({1, 3}, {2, 4}):
        desc = aut_descriptor(12, 4, I)
        assert desc.case_id == 2
        assert desc.order == 50030759116800


def test_aut_generic_and_boundary_cases():
    assert aut_descriptor(9, 3, {1}).case_id == 1      # k < (n-1)/2
    assert aut_descriptor(9, 4, {1}).case_id == 3      # k = (n-1)/2, I != k+1-I
    assert aut_descriptor(9, 4, {1, 4}).case_id == 4   # I = k+1-I, S_{n+1}
    assert aut_descriptor(8, 4, {1, 3}).case_id == 6   # n = 2k, I' = I''
    assert aut_descriptor(8, 4, {1, 4}).case_id == 5   # n = 2k, I' != I''


def test_only_an_sn():
    assert only_an_sn(20, 6, {1})
    assert not only_an_sn(12, 5, {1})
    assert only_an_sn(13, 5, {1})
    assert not only_an_sn(11, 4, {1})
    assert only_an_sn(13, 4, {1})


def test_only_an_sn_implies_a_degree_outside_d_k_in_aut_cases_1_and_3():
    """The A_n deficiency of Aut cases 1 and 3 tests only that n lies
    outside D_k: there only_an_sn implies it."""
    rows = implied = 0
    for n, k, I in census_instances(24):
        if classify._aut_case(*classify._check_bounds(n, k, I)) not in (1, 3):
            continue
        rows += 1
        if only_an_sn(n, k, I):
            implied += 1
            assert not catalog.degrees_d_k(k, n), (n, k, I)
    assert (rows, implied) == (15900, 15604)


# -- Cayley classification -------------------------------------------------

def test_cayley_case1_requires_3_mod_4_prime_power():
    assert classify_cayley(7, 2, {1}).outcome
    assert classify_cayley(11, 2, {2}).outcome
    assert classify_cayley(23, 2, {1, 2}).outcome
    assert not classify_cayley(5, 2, {2}).outcome     # 5 = 1 mod 4
    assert not classify_cayley(13, 2, {1}).outcome
    assert not classify_cayley(15, 2, {1}).outcome    # not a prime power


def test_cayley_sporadic_cases():
    assert classify_cayley(8, 3, {2}).cases == (2,)
    assert classify_cayley(32, 3, {1, 3}).cases == (3,)


def test_cayley_complete_and_half_cases():
    assert classify_cayley(9, 3, {1, 2, 3}).cases == (4,)
    v = classify_cayley(6, 3, {3})
    assert v.cases == (5,)
    assert v.disconnected
    assert not classify_cayley(6, 3, frozenset({1, 2})).disconnected


def test_cayley_no_reasons():
    assert classify_cayley(9, 3, {1}).reason == "aut-is-Sn-no-sharp-group"
    assert classify_cayley(12, 4, {1, 3}).reason == "GO10-no-regular-subgroup"
    assert classify_cayley(8, 4, {1}).reason == "n2k-lemma"
    assert classify_cayley(9, 4, {1, 4}).reason == "n-odd-half-lemma"


# -- 2-regular classification ----------------------------------------------

def test_two_regular_cases():
    assert classify_two_regular(9, 2, {1}).cases == (1,)
    assert classify_two_regular(6, 3, {1}).cases == (2,)
    assert 3 in classify_two_regular(10, 5, {1, 4}).cases
    assert 3 in classify_two_regular(10, 5, {2, 3, 5}).cases
    assert 3 not in classify_two_regular(10, 5, {1, 2}).cases \
        if classify_two_regular(10, 5, {1, 2}).outcome else True
    assert not classify_two_regular(10, 5, {1, 2}).outcome
    assert classify_two_regular(10, 5, {5}).cases == (4,)


def test_two_regular_collects_all_clauses():
    v = classify_two_regular(4, 2, {1, 2})
    assert v.cases == (1, 5)


# -- deficiency ------------------------------------------------------------

def test_deficiency_levels():
    assert cayley_deficiency(7, 2, {1}).exact == 1
    assert cayley_deficiency(5, 2, {2}).exact == 2
    assert cayley_deficiency(6, 2, {1}).exact == 4       # PSL2(5)
    assert cayley_deficiency(12, 3, {1}).exact == 3      # PSL2(11)
    assert cayley_deficiency(11, 4, {1}).exact == 24     # M11


def test_deficiency_an_bound_when_only_an_sn():
    from math import factorial
    res = cayley_deficiency(14, 6, {1})
    assert res.exact == factorial(6) * factorial(8) // 2
    assert res.exact == 14515200


def test_deficiency_interval_when_aut_exceeds_sn():
    res = cayley_deficiency(12, 4, {1, 3})
    assert res.exact is None
    assert res.interval == (3, 483840)


# -- witness groups --------------------------------------------------------

@pytest.mark.parametrize("n,k,I,kind,r", [
    (7, 2, {1}, "cayley", 1),
    (8, 3, {2}, "cayley", 1),
    (10, 2, {1, 2}, "cayley", 1),
    (6, 3, {3}, "cayley", 1),
    (9, 2, {1}, "two-regular", 2),
    (6, 3, {1}, "two-regular", 2),
    (10, 5, {1, 4}, "two-regular", 2),
    (6, 3, {3}, "two-regular", 2),
    (5, 2, {1, 2}, "two-regular", 2),
])
def test_witness_groups_act_with_stated_regularity(n, k, I, kind, r):
    g = build_graph(n, k, I)
    w = witness_group(n, k, I, kind)
    report = regular_action_check(w, g, r)
    assert report.confirmed, report.evidence


def _yes_verdicts(n_max):
    """(n, k, I, kind, case) for every YES verdict of the census."""
    for n, k, I in census_instances(n_max):
        cayley = classify_cayley(n, k, I)
        two_reg = classify_two_regular(n, k, I)
        if cayley.outcome:
            yield n, k, I, "cayley", cayley.case
        if two_reg.outcome:
            yield n, k, I, "two-regular", two_reg.cases[0]


# the witnesses whose construction records the order it proves: induced
# actions of degree-n groups, and the cyclic and dihedral groups on Z_m;
# AGL1(5) x S2 and the PSL2(8) complements take theirs from a chain
RECORDED = {("cayley", case) for case in (1, 2, 3, 4, 5)} \
    | {("two-regular", case) for case in (1, 4, 5)}


def _fresh_order(group):
    return StabilizerChain(list(group.generator_images), group.degree).order


def test_recorded_witness_orders_match_a_fresh_chain():
    """Every YES witness of the census up to n = 14 that records its order
    gets it with no chain of its own, and a chain built from its
    generators gives the same order."""
    checked = set()
    for n, k, I, kind, case in _yes_verdicts(14):
        if (n, k, kind, case) in checked:
            continue  # the witness does not depend on I
        checked.add((n, k, kind, case))
        group = witness_group(n, k, I, kind, case)
        if (kind, case) in RECORDED:
            assert group._chain is None and group._order is not None
        assert group._order == _fresh_order(group), (n, k, kind, case)
    assert len(checked) == 83


def _two_cycles(m):
    """The product of the cycles (0 .. m/2-1) and (m/2 .. m-1)."""
    half = m // 2
    return Permutation(np.concatenate([(np.arange(half) + 1) % half,
                                       half + (np.arange(half) + 1) % half]))


def test_a_cycle_with_two_orbits_records_no_order():
    c = _two_cycles(12)
    flip = Permutation(np.concatenate([-np.arange(6) % 6, 6 + -np.arange(6) % 6]))
    for gens, order in (([c], 6), ([c, flip], 12)):
        group = _with_proved_order(PermutationGroup(gens))
        assert group._order is None
        assert group.order == _fresh_order(group) == order


def test_an_involution_that_does_not_invert_c_records_no_order():
    m = 12
    c = Permutation((np.arange(m) + 1) % m)
    half_turn = Permutation((np.arange(m) + m // 2) % m)  # commutes with c
    swap = Permutation.from_cycles(m, [(0, 1)])
    for f, order in ((half_turn, m), (swap, factorial(m))):
        group = _with_proved_order(PermutationGroup([c, f]))
        assert group._order is None
        assert group.order == order
    assert _fresh_order(PermutationGroup([c, half_turn])) == m


def _dihedral_coset_action(m):
    """Dihedral group of order 2m, the maps x -> eps*x + c on Z_m, on the m
    right cosets of H = <x -> -x>: the coset H(eps, c) is numbered c, so
    x -> x + 1 and x -> -x act on coset numbers as on Z_m."""
    points = np.arange(m)
    return _with_proved_order(PermutationGroup([Permutation((points + 1) % m),
                                                Permutation(-points % m)]))


def test_the_dihedral_certificate_needs_three_points():
    # on Z_2, x -> -x is the identity, which inverts the 2-cycle x -> x + 1
    group = _dihedral_coset_action(2)
    assert group._order is None
    assert group.order == 2
    for m in (3, 4, 7, 12):
        group = _dihedral_coset_action(m)
        assert group._order == 2 * m == _fresh_order(group)


def test_every_clause_row_fires_and_builds_only_where_it_applies():
    # every row fires in the census range but Cayley case 3, which is J(32,3)
    fired = set()
    for n, k, I in [*census_instances(14), (32, 3, frozenset({1}))]:
        for kind, verdict in (("cayley", classify_cayley(n, k, I)),
                              ("two-regular", classify_two_regular(n, k, I))):
            if not verdict.outcome:
                continue
            for case, *_ in CLAUSES[kind]:
                if case in verdict.cases:
                    fired.add((kind, case))
                    assert witness_group(n, k, I, kind, case).degree == comb(n, k)
                else:
                    with pytest.raises(ValueError, match="case %d does not apply" % case):
                        witness_group(n, k, I, kind, case)
    assert fired == {(kind, row[0]) for kind, rows in CLAUSES.items() for row in rows}
    assert [row[0] for row in CLAUSES["cayley"]] == [1, 2, 3, 4, 5]
    assert [row[0] for row in CLAUSES["two-regular"]] == [1, 2, 3, 4, 5]


def test_witness_refuses_impossible_requests():
    with pytest.raises(ValueError):
        witness_group(5, 2, {2}, "cayley")
    with pytest.raises(ValueError):
        witness_group(9, 3, {1}, "two-regular")


# -- aggregated verdict record ---------------------------------------------

def test_classify_instance_schema():
    record = classify_instance(7, 2, {1})
    assert record["n"] == 7 and record["k"] == 2 and record["I"] == [1]
    assert record["cayley"]["outcome"] == "YES"
    assert record["cayley"]["case"] == 1
    assert record["two_regular"]["outcome"] == "YES"
    assert record["deficiency"] == {"exact": 1,
                                    "witness": record["cayley"]["witness"]}
    assert record["connected"]


def test_classify_instance_disconnected_flagged():
    record = classify_instance(6, 3, {3})
    assert not record["connected"]
    assert "disconnected_flag" in record["cayley"]


def test_census_builds_each_catalog_group_once_and_one_merge_set_per_query(monkeypatch):
    catalog._group.cache_clear()
    catalog._is_k_homogeneous.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(catalog.HomogRecord, "construct",
                        counted("construct", catalog.HomogRecord.construct))
    monkeypatch.setattr(classify, "merge_set", counted("merge_set", classify.merge_set))
    queries = list(census_instances(14))
    for n, k, I in queries:
        classify_instance(n, k, I)
    assert calls == {"construct": 9, "merge_set": len(queries)}


def test_bounds_rejected():
    with pytest.raises(ValueError):
        classify_instance(5, 3, {1})   # needs n >= 2k
    with pytest.raises(ValueError):
        classify_instance(6, 1, {1})   # needs k >= 2


@pytest.mark.parametrize("n, k", [(10, 2.0), (10.0, 2), (True, 2), (10, True)])
def test_an_n_or_k_that_is_not_an_int_is_refused(n, k):
    for query in (classify_instance, classify_cayley, witness_group):
        with pytest.raises(ValueError, match="is not an integer"):
            query(n, k, {1})


def _census_line(record):
    out = io.StringIO()
    cli._emit(record, out)
    return out.getvalue()


@pytest.mark.parametrize("n, k, I", [
    (np.int64(10), 2, {1}), (10, np.int64(2), {1}), (10, 2, {np.int64(1)}),
    (np.uint8(12), np.int32(6), {np.int16(6)}),
], ids=["n", "k", "member", "all"])
def test_numpy_integers_give_the_census_line_of_python_ints(n, k, I):
    record = classify_instance(n, k, I)
    assert {type(record[key]) for key in ("n", "k")} == {int}
    assert {type(i) for i in record["I"]} == {int}
    line = _census_line(classify_instance(int(n), int(k), {int(i) for i in I}))
    assert _census_line(record) == line
    recorded = (Path(__file__).parent / "data" / "census_14.jsonl").read_text()
    assert line in recorded.splitlines(keepends=True)


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_a_bool_float_or_str_is_refused_as_n_k_or_member(bad):
    for query in ((bad, 2, {1}), (10, bad, {1}), (10, 2, {bad}), (10, 2, {3, bad})):
        with pytest.raises(RefusedInput, match="is not an integer"):
            classify_instance(*query)
