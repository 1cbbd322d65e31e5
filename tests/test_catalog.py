import pytest

from mergedjohnson.catalog import (degrees_d_k, homogeneous_catalog,
                                   khomog_candidates, mathieu,
                                   minimal_stabilizer_order, pgl2,
                                   projective_line_lattice, psl2)


def test_psl2_pgl2_orders():
    assert psl2(5).order == 60
    assert psl2(7).order == 168
    assert pgl2(9).order == 720


def test_projective_line_lattice_q9():
    lattice = projective_line_lattice(9)
    orders = {name: g.order for name, g in lattice.items()}
    assert orders == {"PSL2(9)": 360, "PGL2(9)": 720, "M10": 720,
                      "PSigmaL2(9)": 720, "PGammaL2(9)": 1440}


@pytest.mark.parametrize("n,order", [(11, 7920), (12, 95040),
                                     (23, 10200960), (24, 244823040)])
def test_mathieu_orders(n, order):
    assert mathieu(n).order == order


def test_h5_catalog():
    names = {(r.name, r.degree) for r in homogeneous_catalog(5)["records"]}
    assert names == {("M12", 12), ("M24", 24)}


def test_h4_includes_m11_and_m23():
    names = {(r.name, r.degree) for r in homogeneous_catalog(4)["records"]}
    assert ("M11", 11) in names
    assert ("M23", 23) in names
    assert ("PGammaL2(32)", 33) in names


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_catalog_lists_each_group_once(k):
    keys = [(r.name, r.degree) for r in homogeneous_catalog(k)["records"]]
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
