"""Arithmetic in GF(p^e) at desk scale.

Elements are coefficient tuples of length e over {0..p-1}, constant term
first.  The modulus is the lowest-lexicographic monic irreducible of degree
e, except GF(8) which is pinned to t^3 + t + 1 so that coordinates match
the classical presentation F_2(t).  A discrete-log table over a primitive
element makes multiplication and powering O(1) after construction.
"""

from __future__ import annotations

import itertools
import math


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def prime_power_decomposition(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e, or None if n is not a prime power."""
    if n < 2:
        return None
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            e = 0
            m = n
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
    return n, 1


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_mod(a, modulus, p):
    """Reduce a (coeff list) modulo a monic polynomial given by its
    lower-degree coefficients (so x^e = -modulus)."""
    e = len(modulus)
    a = list(a)
    for i in range(len(a) - 1, e - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j, m in enumerate(modulus):
                a[i - e + j] = (a[i - e + j] - c * m) % p
    return a[:e] + [0] * (e - len(a[:e]))


def _is_irreducible(modulus, p) -> bool:
    """Trial division by all monic polynomials of degree <= e // 2."""
    e = len(modulus)
    full = list(modulus) + [1]  # monic degree-e polynomial
    for d in range(1, e // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            divisor = list(coeffs) + [1]
            if _poly_divides(divisor, full, p):
                return False
    return True


def _poly_divides(divisor, poly, p) -> bool:
    rem = list(poly)
    dd = len(divisor) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * divisor[j]) % p
    return all(x == 0 for x in rem)


class FiniteField:
    """GF(p^e) with precomputed discrete logs over a primitive element."""

    def __init__(self, p: int, e: int, modulus=None):
        if not is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if e < 1:
            raise ValueError("e must be positive")
        if p ** e > 2 ** 32:
            raise ValueError("field order exceeds the desk bound 2^32")
        self.p = p
        self.e = e
        self.order = p ** e
        if modulus is None:
            modulus = self._pick_modulus(p, e)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e:
            raise ValueError("modulus must list the e lower coefficients")
        if e > 1 and not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.modulus = modulus

        self.elements: list[tuple[int, ...]] = [
            tuple(reversed(c)) for c in itertools.product(range(p), repeat=e)
        ]
        # itertools.product varies the last slot fastest; reversing each
        # tuple makes the constant term the fastest-varying coordinate, so
        # prime-field elements enumerate as 0, 1, 2, ...
        self.index_of = {el: i for i, el in enumerate(self.elements)}
        self.zero = (0,) * e
        self.one = tuple([1] + [0] * (e - 1))

        self.omega = self._find_primitive()
        self.omega_powers = self._powers_of(self.omega)
        self.dlog_table = {el: i for i, el in enumerate(self.omega_powers)}

    @staticmethod
    def _pick_modulus(p, e):
        if e == 1:
            return (0,)
        if (p, e) == (2, 3):
            return (1, 1, 0)  # t^3 = t + 1, the pinned GF(8) coordinates
        for coeffs in itertools.product(range(p), repeat=e):
            candidate = tuple(reversed(coeffs))
            if _is_irreducible(candidate, p):
                return candidate
        raise AssertionError("no irreducible polynomial found")

    # -- raw arithmetic --------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul_poly(self, a, b):
        if self.e == 1:
            return ((a[0] * b[0]) % self.p,)
        return tuple(_poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p))

    def mul(self, a, b):
        if a == self.zero or b == self.zero:
            return self.zero
        la, lb = self.dlog_table[a], self.dlog_table[b]
        return self.omega_powers[(la + lb) % (self.order - 1)]

    def pow(self, a, k: int):
        if a == self.zero:
            if k <= 0:
                raise ValueError("0 to a non-positive power")
            return self.zero
        la = self.dlog_table[a]
        return self.omega_powers[(la * k) % (self.order - 1)]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverting the zero element")
        return self.pow(a, self.order - 2)

    def discrete_log(self, a) -> int:
        if a == self.zero:
            raise ValueError("discrete log of zero")
        return self.dlog_table[a]

    def frobenius_power(self, a, i: int, q: int):
        """a^(q^i) where q = p^(e/d) for a divisor d of e."""
        pe = prime_power_decomposition(q)
        if pe is None or pe[0] != self.p or self.e % pe[1] != 0:
            raise ValueError("q = %d is not an admissible subfield size" % q)
        if a == self.zero:
            return self.zero
        return self.pow(a, pow(q, i, self.order - 1) if self.order > 2 else 0)

    # -- bootstrap helpers ------------------------------------------------

    def _powers_of(self, a):
        out = [self.one]
        x = self.one
        for _ in range(self.order - 2):
            x = self._mul_poly(x, a)
            out.append(x)
        return out

    def _multiplicative_order(self, a) -> int:
        x = a
        k = 1
        while x != self.one:
            x = self._mul_poly(x, a)
            k += 1
            if k > self.order:
                raise AssertionError("order computation ran away")
        return k

    def _find_primitive(self):
        target = self.order - 1
        for el in self.elements:
            if el == self.zero:
                continue
            if self._multiplicative_order(el) == target:
                return el
        raise AssertionError("no primitive element found")

    def __repr__(self):
        return "FiniteField(p=%d, e=%d)" % (self.p, self.e)


def build_field(p: int, e: int) -> FiniteField:
    return FiniteField(p, e)
