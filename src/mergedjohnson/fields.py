"""Arithmetic in GF(p^e) at desk scale.

Elements are coefficient tuples of length e over {0..p-1}, constant term
first.  The modulus is the lowest-lexicographic monic irreducible of degree
e, except GF(8) which is pinned to t^3 + t + 1 so that coordinates match
the classical presentation F_2(t).  A discrete-log table over a primitive
element makes multiplication and powering O(1) after construction.

Element i is the i-th element in that order, so i = sum(c_j p^j) over its
coefficients.  The same arithmetic on element indices comes from three
read-only arrays, each built on first use: the base-p `digits` of every
index, `exp` (exp[k] is the index of omega^k) and its inverse `log`.
`power_map` and `translation` read the point maps of the affine and
projective-line groups off them as image arrays.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .subsets import read_only


# The largest field or near-field order built.  A near-field's addition and
# multiplication tables are two order x order int32 arrays, 64 MB each at
# the bound, and its build and axiom check hold temporaries of that shape
# besides: the largest near-field under the bound, order 3721, peaks at
# 256 MB.
DESK_BOUND = 4000


def check_desk_bound(q: int, d: int) -> None:
    """ValueError when q^d exceeds DESK_BOUND, before q is factored.
    q^d >= 2^d, so capping the exponent decides even a huge d at once."""
    if q >= 2 and q ** min(d, DESK_BOUND.bit_length()) > DESK_BOUND:
        raise ValueError("order %d^%d exceeds the desk bound %d" % (q, d, DESK_BOUND))


# The largest integer factored.  Trial division runs up to sqrt(n): at the
# bound that is 10^6 candidates, under a tenth of a second for a prime.
FACTOR_BOUND = 10 ** 12


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def prime_power_decomposition(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e, or None if n is not a prime power.  ValueError
    above FACTOR_BOUND, before any trial division."""
    if n > FACTOR_BOUND:
        raise ValueError("%d exceeds the factoring bound %d" % (n, FACTOR_BOUND))
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
        check_desk_bound(p, e)
        if not is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if e < 1:
            raise ValueError("e must be positive")
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

        self.omega, self.omega_powers = self._find_primitive()
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

    # -- index arrays -----------------------------------------------------

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """(order, e): row i holds the coefficients of element i."""
        return read_only(np.arange(self.order)[:, None]
                         // self.p ** np.arange(self.e) % self.p)

    @functools.cached_property
    def exp(self) -> np.ndarray:
        """exp[k] is the index of omega^k, for 0 <= k < order - 1."""
        return read_only(np.array(self.omega_powers) @ self.p ** np.arange(self.e))

    @functools.cached_property
    def log(self) -> np.ndarray:
        """log[i] is the discrete log of element i; log[0] is a placeholder 0,
        as zero has none."""
        log = np.zeros(self.order, dtype=np.intp)
        log[self.exp] = np.arange(self.order - 1)
        return read_only(log)

    def power_map(self, scale: int, shift: int) -> np.ndarray:
        """Images of t -> omega^(log t · scale + shift) on the element
        indices, fixing 0."""
        images = np.zeros(self.order, dtype=np.intp)
        images[1:] = self.exp[(self.log[1:] * scale + shift) % (self.order - 1)]
        return images

    def translation(self, j: int) -> np.ndarray:
        """Images of t -> t + x^j on the element indices: digit j goes up
        by one mod p."""
        digit = self.digits[:, j]
        return np.arange(self.order) + ((digit + 1) % self.p - digit) * self.p ** j

    # -- bootstrap helpers ------------------------------------------------

    def _find_primitive(self):
        """(omega, [1, omega, omega^2, ...]): the first element in element
        order whose powers reach all order - 1 nonzero elements."""
        for a in self.elements[1:]:
            powers, x = [self.one], a
            while x != self.one and len(powers) < self.order:
                powers.append(x)
                x = self._mul_poly(x, a)
            if len(powers) == self.order - 1:
                return a, powers
        raise AssertionError("no primitive element found")

    def __repr__(self):
        return "FiniteField(p=%d, e=%d)" % (self.p, self.e)


@functools.lru_cache(maxsize=None)
def build_field(p: int, e: int) -> FiniteField:
    """GF(p^e), built once per (p, e): no caller writes to a FiniteField,
    and its index arrays are read-only."""
    return FiniteField(p, e)
