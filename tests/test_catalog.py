from math import comb

import pytest

from mergedjohnson.catalog import (degrees_d_k, homogeneous_catalog,
                                   khomog_candidates, mathieu,
                                   minimal_stabilizer_order, moebius_generators,
                                   projective_line_group)
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


CONSTRUCTIBLE = [r for r in homogeneous_catalog(2) if r.build is not None]


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
    _, complete = khomog_candidates(9, 2)
    assert complete
    _, complete = khomog_candidates(16, 3)
    assert not complete


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
