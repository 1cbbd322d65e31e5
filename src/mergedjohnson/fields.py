"""Arithmetic in GF(p^e) at desk scale, on element indices.

Element i has the base-p digits of i as its coefficients, constant term
first, so prime-field elements are 0, 1, 2, ...  The modulus is the
lowest-lexicographic monic irreducible of degree e, except GF(8) which is
pinned to t^3 + t + 1 so that coordinates match the classical
presentation F_2(t).

Three read-only arrays carry all the arithmetic: the `digits` of every
index, `exp` (exp[k] is the index of omega^k, omega the first index whose
powers reach every nonzero index) and its inverse `log`.  The field is
built with `digits` and `exp`, the latter by doubling with the e x e
matrix of multiplication by a candidate, squared each round; `log` is
built on first use.  `power_map` and `translation` read the point maps of
the affine and projective-line groups off them as image arrays.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .subsets import RefusedInput, read_only


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
        raise RefusedInput("order %d^%d exceeds the desk bound %d" % (q, d, DESK_BOUND))


# The largest integer factored.  Trial division runs up to sqrt(n): at the
# bound that is 10^6 candidates, under a tenth of a second for a prime.
FACTOR_BOUND = 10 ** 12


def prime_power_decomposition(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e, or None if n is not a prime power.  ValueError
    above FACTOR_BOUND, before any trial division."""
    if n > FACTOR_BOUND:
        raise RefusedInput("%d exceeds the factoring bound %d" % (n, FACTOR_BOUND))
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


def is_prime(n: int) -> bool:
    """By the trial division of prime_power_decomposition, so ValueError
    above FACTOR_BOUND."""
    return prime_power_decomposition(n) == (n, 1)


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
    """GF(p^e) on element indices: digits, exp and log arrays."""

    def __init__(self, p: int, e: int):
        check_desk_bound(p, e)
        if not is_prime(p):
            raise RefusedInput("p = %d is not prime" % p)
        if e < 1:
            raise RefusedInput("e must be positive")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = self._pick_modulus(p, e)
        # the pinned GF(8) modulus is not found by the search: this vouches for it
        if e > 1 and not _is_irreducible(self.modulus, p):
            raise AssertionError("modulus is reducible")
        # (order, e): row i holds the coefficients of element i
        self.digits = read_only(np.arange(self.order)[:, None]
                                // p ** np.arange(e) % p)
        self.exp = self._exp()

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

    def _exp(self) -> np.ndarray:
        """exp[k] is the index of omega^k, for 0 <= k < order - 1, where
        omega is the first index whose powers reach every nonzero index,
        that is the first a with a^k != 1 for 0 < k < order - 1.  For
        e > 1 the search starts at index p: the prime-field elements 1 ..
        p - 1 have orders dividing p - 1, so none of them is primitive."""
        for a in range(1 if self.e == 1 else self.p, self.order):
            powers = self._powers(a)
            if powers is not None:
                return read_only(powers)
        raise AssertionError("no primitive element found")

    def _powers(self, a: int) -> np.ndarray | None:
        """The indices of a^0 .. a^(order - 2), or None as soon as one
        after a^0 is 1.  By doubling: a row of digits times the e x e
        matrix whose row i holds the digits of t^i · a is that element
        times a, so with a^0 .. a^(m-1) known, a^m .. a^(2m-1) is one
        product with the matrix of a^m, which is squared each round."""
        p, e, count = self.p, self.e, self.order - 1
        weights = p ** np.arange(e)
        matrix = np.empty((e, e), dtype=np.int64)
        matrix[0] = self.digits[a]
        for i in range(1, e):
            # row i is row i - 1 times t: the digits shift up, and the one
            # carried out, c·t^e, comes back as -c times the modulus
            matrix[i, 0], matrix[i, 1:] = 0, matrix[i - 1, :-1]
            matrix[i] = (matrix[i] - matrix[i - 1, -1] * np.array(self.modulus)) % p
        rows = np.empty((count, e), dtype=np.int64)
        rows[0] = self.digits[1]
        powers = np.ones(count, dtype=np.int64)
        known = 1
        while known < count:
            block = slice(known, min(2 * known, count))
            rows[block] = rows[:block.stop - known] @ matrix % p
            powers[block] = rows[block] @ weights
            if (powers[block] == 1).any():
                return None
            known, matrix = block.stop, matrix @ matrix % p
        return powers

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

    def __repr__(self):
        return "FiniteField(p=%d, e=%d)" % (self.p, self.e)


@functools.lru_cache(maxsize=None)
def build_field(p: int, e: int) -> FiniteField:
    """GF(p^e), built once per (p, e): no caller writes to a FiniteField,
    and its index arrays are read-only."""
    return FiniteField(p, e)
