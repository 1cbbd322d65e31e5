from math import factorial, log10

import pytest

from mergedjohnson.classify import (aut_descriptor, cayley_deficiency,
                                    classify_cayley, classify_instance,
                                    classify_two_regular, only_an_sn,
                                    witness_group)
from mergedjohnson.johnson import build_graph
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


def test_bounds_rejected():
    with pytest.raises(ValueError):
        classify_instance(5, 3, {1})   # needs n >= 2k
    with pytest.raises(ValueError):
        classify_instance(6, 1, {1})   # needs k >= 2
