import time

import numpy as np
import pytest

import field_reference
from mergedjohnson.fields import (DESK_BOUND, FACTOR_BOUND, FiniteField, build_field,
                                  is_prime, prime_power_decomposition)


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


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, n))

    assert [n for n in range(-3, 5000) if is_prime(n)] == \
        [n for n in range(-3, 5000) if by_trial_division(n)]


def test_is_prime_refuses_past_the_factoring_bound():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="factoring bound"):
        is_prime(FACTOR_BOUND + 39)
    assert time.perf_counter() - t0 < 0.01


def test_gf8_arithmetic():
    f = build_field(2, 3)
    assert f.order == 8 and f.modulus == (1, 1, 0)
    # every element but 1 has order 7, so omega is t, element 2, and its
    # powers are the whole multiplicative group
    assert f.exp[1] == 2
    assert f.exp.tolist() == field_reference.powers(f, 2)
    assert sorted(f.exp.tolist()) == list(range(1, 8))
    assert not ((f.digits[2] + f.digits[2]) % 2).any()  # t + t = 0


def test_gf9_inverse_and_dlog():
    f = build_field(3, 2)
    nonzero = np.arange(1, 9)
    assert np.array_equal(f.exp[f.log[nonzero]], nonzero)
    inverses = f.exp[-f.log[nonzero] % 8]
    products = field_reference.multiply(f, f.digits[nonzero], f.digits[inverses])
    assert (field_reference.index(f, products) == 1).all()


def test_frobenius_power_is_a_field_automorphism():
    f = build_field(2, 5)
    frob = f.power_map(8, 0)  # a -> a^(2^3)
    eighth = f.digits
    for _ in range(3):
        eighth = field_reference.multiply(f, eighth, eighth)
    assert np.array_equal(frob, field_reference.index(f, eighth))

    def add(x, y):
        return field_reference.index(f, (x + y) % 2)

    def mul(x, y):
        return field_reference.index(f, field_reference.multiply(f, x, y))

    a, b = f.digits[:, None], f.digits[None, :]
    fa, fb = f.digits[frob][:, None], f.digits[frob][None, :]
    assert np.array_equal(frob[add(a, b)], add(fa, fb))
    assert np.array_equal(frob[mul(a, b)], mul(fa, fb))


# every field of degree e > 1 under the desk bound, and the primes below 200
REFERENCE_FIELDS = sorted(
    {(p, e) for p in range(2, 64) if is_prime(p)
     for e in range(2, 12) if p ** e <= DESK_BOUND}
    | {(p, 1) for p in range(2, 200) if is_prime(p)})


def test_exp_and_log_against_the_reference():
    """exp lists the powers of omega = exp[1] by the reference product, log
    inverts it, and no index below omega is primitive."""
    for p, e in REFERENCE_FIELDS:
        f = build_field(p, e)
        n = f.order
        assert np.array_equal(field_reference.index(f, f.digits), np.arange(n))
        assert f.exp[0] == 1
        successors = field_reference.multiply(f, f.digits[f.exp], f.digits[f.exp[1 % (n - 1)]])
        assert np.array_equal(field_reference.index(f, successors), np.roll(f.exp, -1))
        assert np.array_equal(f.log[f.exp], np.arange(n - 1))
        assert np.array_equal(f.exp[f.log[1:]], np.arange(1, n))
        # a = omega^log(a) has order (n - 1) / gcd(log a, n - 1)
        assert (np.gcd(f.log[1:f.exp[1 % (n - 1)]], n - 1) > 1).all()


def test_primitive_search_skips_the_prime_field(monkeypatch):
    """For e > 1 the prime-field indices 1 .. p - 1 are never tried:
    GF(59^2) tries 59, 60, 61 and takes omega = 62."""
    assert build_field(59, 2).exp[1] == 62
    tried = []
    powers = FiniteField._powers
    monkeypatch.setattr(FiniteField, "_powers",
                        lambda self, a: tried.append(a) or powers(self, a))
    assert FiniteField(59, 2).exp[1] == 62
    assert tried == [59, 60, 61, 62]
    tried.clear()
    assert FiniteField(59, 1).exp[1] == 2
    assert tried == [1, 2]


def test_each_field_is_built_once():
    assert build_field(3, 2) is build_field(3, 2)
    assert build_field(3, 2) is not build_field(3, 1)
