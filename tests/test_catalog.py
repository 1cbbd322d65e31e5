from functools import partial
from itertools import combinations
from math import comb

import pytest

from mergedjohnson import catalog, classify
from mergedjohnson.catalog import (HomogRecord, degrees_d_k, homogeneous_catalog,
                                   khomog_candidates, mathieu,
                                   minimal_stabilizer_order, moebius_generators,
                                   projective_line_group)
from mergedjohnson.fields import build_field, prime_power_decomposition
from mergedjohnson.nearfields import affine_group
from mergedjohnson.perms import ActionDomain


def test_psl2_pgl2_orders():
    assert projective_line_group(5, "PSL2").order == 60
    assert projective_line_group(7, "PSL2").order == 168
    assert projective_line_group(9, "PGL2").order == 720


def test_projective_line_groups_q9():
    groups = {name: projective_line_group(9, name)
              for name in ("PSL2", "PGL2", "M10", "PSigmaL2", "PGammaL2")}
    orders = {name: g.order for name, g in groups.items()}
    assert orders == {"PSL2": 360, "PGL2": 720, "M10": 720,
                      "PSigmaL2": 720, "PGammaL2": 1440}
    # the three groups of order 720 are told apart by scale and frobenius
    _, scale, _, _, frob = moebius_generators(9)
    assert scale not in groups["M10"] and frob not in groups["M10"]
    assert scale in groups["PGL2"] and frob not in groups["PGL2"]
    assert frob in groups["PSigmaL2"] and scale not in groups["PSigmaL2"]


@pytest.mark.parametrize("q,name", [(8, "M10"), (9, "PSU2")])
def test_projective_line_group_refuses_other_names(q, name):
    with pytest.raises(ValueError):
        projective_line_group(q, name)


def _affine_line_group(n, kind):
    return affine_group(build_field(*prime_power_decomposition(n)), kind)


def _affine_line_records():
    """The affine groups of degree 5..64 that are 2-homogeneous, as records
    in the catalog's form.  The catalog ships none (see catalog._RECORDS),
    but the witness clauses build them, so their orders and homogeneity are
    checked with the catalog's records."""
    out = []
    for n in range(5, 65):
        dec = prime_power_decomposition(n)
        if dec is None:
            continue
        _, e = dec
        kinds = [("AGL", n * (n - 1))]
        if n % 4 == 3:
            kinds.append(("AHL", n * (n - 1) // 2))
        if e > 1:
            kinds.append(("AGammaL", n * (n - 1) * e))
        for kind, order in kinds:
            homogeneity = 3 if (n, kind) in ((8, "AGL"), (8, "AGammaL"),
                                             (32, "AGammaL")) else 2
            out.append(HomogRecord("%s1(%d)" % (kind, n), n, order, homogeneity,
                                   partial(_affine_line_group, n, kind)))
    return out


CONSTRUCTIBLE = [r for r in homogeneous_catalog(2) if r.build is not None] \
    + _affine_line_records()


@pytest.mark.parametrize("record", CONSTRUCTIBLE,
                         ids=["%s-%d" % (r.name, r.degree) for r in CONSTRUCTIBLE])
def test_record_builds_its_group(record):
    group = record.construct()
    assert (group.degree, group.order) == (record.degree, record.order)
    for k in range(2, record.max_homogeneity + 1):
        assert group.is_transitive(ActionDomain.ksubsets(record.degree, k))
    # an orbit's size divides the group order, so only a divisible C(n, k)
    # needs the orbit computed to rule out transitivity
    k = record.max_homogeneity + 1
    if 2 * k <= record.degree and record.order % comb(record.degree, k) == 0:
        assert not group.is_transitive(ActionDomain.ksubsets(record.degree, k))


@pytest.mark.parametrize("n,order", [(11, 7920), (12, 95040),
                                     (23, 10200960), (24, 244823040)])
def test_mathieu_orders(n, order):
    assert mathieu(n).order == order


def test_h5_catalog():
    names = {(r.name, r.degree) for r in homogeneous_catalog(5)}
    assert names == {("M12", 12), ("M24", 24)}


def test_h4_includes_m11_and_m23():
    names = {(r.name, r.degree) for r in homogeneous_catalog(4)}
    assert ("M11", 11) in names
    assert ("M23", 23) in names
    assert ("PGammaL2(32)", 33) in names


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_catalog_lists_each_group_once(k):
    keys = [(r.name, r.degree) for r in homogeneous_catalog(k)]
    assert len(keys) == len(set(keys))


def test_degrees_d_k():
    assert degrees_d_k(5, 12)
    assert degrees_d_k(5, 24)
    assert not degrees_d_k(5, 13)
    assert degrees_d_k(4, 33)
    assert not degrees_d_k(4, 14)


def test_candidates_completeness_flags():
    _, complete = khomog_candidates(12, 4)
    assert complete
    # AGL1(9), of order 72 = 2 C(9,2), is not shipped: a minimum over the
    # shipped records would read 14 off PSL2(8)
    _, complete = khomog_candidates(9, 2)
    assert not complete
    assert minimal_stabilizer_order(9, 2) == (None, None)
    _, complete = khomog_candidates(10, 2)
    assert complete
    _, complete = khomog_candidates(16, 3)
    assert not complete


# every (n, k) at which an affine group AGL1, AHL1 or AGammaL1 of degree n
# is k-homogeneous, n <= 64: 24 prime powers at k = 2 and two powers of 2
# at k = 3
AFFINE_DEGREES = [(n, 2) for n in range(5, 65) if prime_power_decomposition(n)] \
    + [(8, 3), (32, 3)]


def test_no_deficiency_minimum_reads_an_affine_group(monkeypatch):
    """Each of the 86 graphs J(n,k)_I at those degrees is 2-regular by
    2-regular case 1 (k = 2) or Cayley by Cayley case 2 or 3 (k = 3), so
    its deficiency is 1 or 2 and the catalog minimum is never taken: the
    reason the catalog ships no affine group."""
    def unreachable(n, k):
        raise AssertionError("minimal_stabilizer_order(%d, %d) was called" % (n, k))

    monkeypatch.setattr(catalog, "minimal_stabilizer_order", unreachable)
    rows = [(n, k, frozenset(I)) for n, k in AFFINE_DEGREES
            for size in range(1, k + 1)
            for I in combinations(range(1, k + 1), size)]
    assert len(rows) == 86
    for n, k, I in rows:
        if k == 2:
            assert 1 in classify.classify_two_regular(n, k, I).cases, (n, I)
        else:
            assert {2, 3} & set(classify.classify_cayley(n, k, I).cases), (n, I)
        assert classify.classify_instance(n, k, I)["deficiency"]["exact"] <= 2


@pytest.mark.parametrize("n,k,r,witness", [
    (6, 2, 4, "PSL2(5)"),
    (10, 2, 8, "PSL2(9)"),
    (12, 2, 10, "PSL2(11)"),
    (9, 3, 6, "PSL2(8)"),
    (12, 3, 3, "PSL2(11)"),
    (9, 4, 4, "PSL2(8)"),
    (11, 4, 24, "M11"),
    (12, 5, 120, "M12"),
])
def test_minimal_stabilizer_orders(n, k, r, witness):
    value, name = minimal_stabilizer_order(n, k)
    assert value == r
    assert name == witness
