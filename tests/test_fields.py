import pytest

from mergedjohnson.fields import (FACTOR_BOUND, build_field, is_prime,
                                  prime_power_decomposition)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(343) == (7, 3)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None


def test_prime_power_decomposition_refuses_past_the_factoring_bound():
    assert prime_power_decomposition(FACTOR_BOUND) is None  # 2^12 * 5^12
    with pytest.raises(ValueError, match="factoring bound"):
        prime_power_decomposition(FACTOR_BOUND + 1)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_gf8_arithmetic():
    f = build_field(2, 3)
    assert f.order == 8
    t = f.omega
    x = f.one
    seen = set()
    for _ in range(7):
        x = f.mul(x, t)
        seen.add(x)
    # multiplicative group is cyclic of order 7
    assert len(seen) == 7
    assert f.add(t, t) == f.zero


def test_gf9_inverse_and_dlog():
    f = build_field(3, 2)
    for a in f.elements:
        if a == f.zero:
            continue
        assert f.mul(a, f.inv(a)) == f.one
        assert f.pow(f.omega, f.dlog_table[a]) == a


def test_frobenius_power_is_a_field_automorphism():
    f = build_field(2, 5)
    for a in f.elements[:8]:
        for b in f.elements[:8]:
            # a -> a^(2^3)
            assert f.pow(f.add(a, b), 8) == f.add(f.pow(a, 8), f.pow(b, 8))
            assert f.pow(f.mul(a, b), 8) == f.mul(f.pow(a, 8), f.pow(b, 8))


def test_each_field_is_built_once():
    assert build_field(3, 2) is build_field(3, 2)
    assert build_field(3, 2) is not build_field(3, 1)
