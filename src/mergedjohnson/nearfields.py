"""Dickson near-fields, the seven exceptional ones, and affine groups.

A Dickson near-field of order n = q^d keeps the field addition of GF(n)
and twists multiplication by Frobenius powers: g ∘ h = g^(q^j) · h, where
j is the index of the coset of d-th powers containing h.  The affine maps
t -> (t ∘ a) + b over any near-field form a sharply 2-transitive group;
restricting a to nonzero squares (n ≡ 3 mod 4) gives the index-2 subgroup
that acts regularly on 2-subsets.

The seven exceptional near-fields of order p^2 are realized through their
multiplicative groups: binary polyhedral subgroups of GL_2(p), optionally
times a scalar cyclic factor, found by a deterministic capped-closure
search and accepted only when regular on the nonzero vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FiniteField, build_field, is_prime, prime_power_decomposition
from .perms import Permutation, PermutationGroup, closure
from .subsets import read_only


# --------------------------------------------------------------------------
# Dickson pairs and near-fields
# --------------------------------------------------------------------------

def is_dickson_pair(q: int, d: int) -> bool:
    """True iff every prime r dividing d, and r = 4 when 4 | d, divides q - 1."""
    if prime_power_decomposition(q) is None:
        raise ValueError("q = %d is not a prime power" % q)
    if d < 1:
        raise ValueError("d must be positive")
    return (all((q - 1) % r == 0 for r in range(2, d + 1) if d % r == 0 and is_prime(r))
            and (d % 4 != 0 or (q - 1) % 4 == 0))


@dataclass(frozen=True)
class DicksonPair:
    q: int
    d: int

    def __post_init__(self):
        if not is_dickson_pair(self.q, self.d):
            raise ValueError("(q, d) = (%d, %d) violates the Dickson divisibility "
                             "condition" % (self.q, self.d))
        n = self.n
        # Consequences of the condition, re-verified rather than assumed.
        if (n - 1) % self.d != 0:
            raise AssertionError("d does not divide n - 1")
        residues = {self.m_of(i) % self.d for i in range(self.d)}
        if len(residues) != self.d:
            raise AssertionError("coset residues m(i) are not distinct mod d")

    @property
    def n(self) -> int:
        return self.q ** self.d

    def m_of(self, i: int) -> int:
        """m(i) = (q^i - 1) / (q - 1), the coset exponent for level i."""
        return (self.q ** i - 1) // (self.q - 1)


class NearField:
    """Finite near-field: GF(q^d) addition with Dickson-twisted product.

    Point i is the i-th element of the base field.  The near-field is two
    read-only int32 tables over these indices: add_table[a, b] is a + b,
    added digit by digit in base p, and mul_table[g, h] is g ∘ h, read off
    the base field's exp and log arrays as
    exp[(log g · q^j(h) + log h) mod (n - 1)], with zero absorbing.
    """

    def __init__(self, pair: DicksonPair):
        self.pair = pair
        p, f = prime_power_decomposition(pair.q)
        self.base = build_field(p, f * pair.d)
        if self.base.order != pair.n:
            raise AssertionError("field order mismatch")
        self.order = n = pair.n
        self.elements = self.base.elements
        self.zero = self.base.zero
        self.one = self.base.one
        # h lies in coset level j when log h ≡ m(j) mod d; scales[log h % d]
        # is then the twist exponent q^j, reduced mod n - 1
        level = {pair.m_of(j) % pair.d: j for j in range(pair.d)}
        self.scales = np.array([pow(pair.q, level[r], n - 1) for r in range(pair.d)])
        self.add_table, self.mul_table = self._tables()
        self._verify_build()

    @property
    def q(self) -> int:
        return self.pair.q

    @property
    def d(self) -> int:
        return self.pair.d

    def _tables(self):
        base, n = self.base, self.order
        add = np.zeros((n, n), dtype=np.int32)
        for j in range(base.e):
            digit = base.digits[:, j]
            add += (digit[:, None] + digit) % base.p * base.p ** j
        logs = base.log[1:]
        mul = np.zeros((n, n), dtype=np.int32)
        mul[1:, 1:] = base.exp[(logs[:, None] * self.scales[logs % self.d] + logs) % (n - 1)]
        return read_only(add), read_only(mul)

    # -- build-time verification ------------------------------------------

    def _verify_build(self):
        # closure of the twisted multiplication under composition:
        # (g ∘ h) must land in the coset demanded by m(i + j).
        d, q, n = self.d, self.q, self.order
        for i in range(d):
            for j in range(d):
                lhs = self.pair.m_of(i + j) % d
                rhs = (pow(q, j, d * (n - 1)) * self.pair.m_of(i) + self.pair.m_of(j)) % d
                if lhs != rhs:
                    raise AssertionError("m(i+j) closure identity fails")
        if n <= 729:
            self.verify_axioms(exhaustive=True)
        else:
            self.verify_axioms(exhaustive=False, samples=100000)

    def verify_axioms(self, exhaustive: bool = True, samples: int = 0):
        """Near-field axioms on the tables, in this order: identity, every
        right multiplication a bijection of the nonzero elements, then
        associativity and right distributivity for every triple whose first
        entry is in the swept rows.  Exhaustive sweeps all n rows; otherwise
        max(1, samples // n²) + 1 seeded rows are swept in full.  The build
        sweeps every row up to order 729 and passes samples = 100 000 above
        it: 2 rows, at most 2n² of the n³ triples, for every n > 316."""
        n, add, mul = self.order, self.add_table, self.mul_table
        one = self.base.index_of[self.one]
        nonzero = np.arange(1, n)
        if not (np.array_equal(mul[1:, one], nonzero)
                and np.array_equal(mul[one, 1:], nonzero)):
            raise AssertionError("identity axiom fails")
        # inverses: each column restricted to the nonzero rows is a
        # permutation of the nonzero elements
        bad = np.flatnonzero((np.sort(mul[1:, 1:], axis=0) != nonzero[:, None]).any(axis=0))
        if bad.size:
            raise AssertionError("multiplication by %r is not a bijection of the "
                                 "nonzero elements" % (self.elements[bad[0] + 1],))
        if exhaustive:
            rows = range(n)
        else:
            rng = np.random.default_rng(0)
            rows = rng.integers(0, n, size=max(1, samples // (n * n)) + 1).tolist()
        # row a as (b, c) arrays: (a∘b)∘c against a∘(b∘c), then
        # (a+b)∘c against a∘c + b∘c, the sum read from the flat add table
        for a in rows:
            if not np.array_equal(mul[mul[a]], mul[a][mul]):
                raise AssertionError("associativity fails in row a=%d" % a)
        add_flat = add.ravel()
        for a in rows:
            if not np.array_equal(mul[add[a]], add_flat[mul[a] * n + mul]):
                raise AssertionError("right distributivity fails in row a=%d" % a)

    def is_commutative(self) -> bool:
        return np.array_equal(self.mul_table, self.mul_table.T)

    def export_json(self) -> str:
        data = {
            "q": self.q,
            "d": self.d,
            "modulus": list(self.base.modulus),
        }
        if self.order <= 81:
            data["multiplication_table"] = [[list(self.elements[x]) for x in row]
                                            for row in self.mul_table.tolist()]
        return json.dumps(data)


def build_dickson(q: int, d: int) -> NearField:
    if q ** d > 2 ** 16:
        raise ValueError("near-field order exceeds the desk bound 2^16")
    return NearField(DicksonPair(q, d))


# --------------------------------------------------------------------------
# Affine groups over fields and near-fields
# --------------------------------------------------------------------------

def affine_group(f, kind: str = "AGL") -> PermutationGroup:
    """The affine maps t -> (t ∘ a) + b as a permutation group on f.

    kind: AGL (all a != 0), AHL (a a nonzero square; needs order ≡ 3 mod 4),
    AGammaL (AGL extended by Frobenius; genuine fields only).
    Point i is the i-th element of f's canonical element order.  Every
    generator is built from the base field's digits, exp and log arrays; a
    field is the near-field with d = 1, where every twist scale is 1.
    """
    if isinstance(f, NearField):
        base, scales = f.base, f.scales
    elif isinstance(f, FiniteField):
        base, scales = f, np.ones(1, dtype=np.intp)
    else:
        raise TypeError("expected FiniteField or NearField")
    n, p, d = base.order, base.p, len(scales)

    def power_map(scale, shift):
        """t -> omega^(log t · scale + shift), fixing 0."""
        images = np.zeros(n, dtype=np.intp)
        images[1:] = base.exp[(base.log[1:] * scale + shift) % (n - 1)]
        return Permutation(images)

    def right_mult(k):
        """t -> t ∘ omega^k."""
        return power_map(scales[k % d], k)

    # translations by the additive basis generate the translation group
    digits = base.digits
    gens = [Permutation(np.arange(n) + ((digits[:, j] + 1) % p - digits[:, j]) * p ** j)
            for j in range(base.e)]

    if kind == "AGL":
        gens.append(right_mult(1))
        if d > 1:
            gens.append(right_mult(d))
        group = PermutationGroup(gens)
        expected = n * (n - 1)
    elif kind == "AHL":
        if n % 4 != 3:
            raise ValueError("AHL needs order ≡ 3 mod 4, got %d" % n)
        gens.extend(_half_multiplier_gens(right_mult, base.log[1:].tolist()))
        group = PermutationGroup(gens)
        expected = n * (n - 1) // 2
    elif kind == "AGammaL":
        if d > 1:
            raise ValueError("AGammaL is defined here over genuine fields only")
        gens.append(right_mult(1))
        gens.append(power_map(p, 0))
        group = PermutationGroup(gens)
        expected = n * (n - 1) * base.e
    else:
        raise ValueError("unknown affine kind %r" % kind)

    if group.order != expected:
        raise AssertionError("affine group of kind %s came out with order %d, "
                             "expected %d" % (kind, group.order, expected))
    return group


def _half_multiplier_gens(right_mult, logs):
    """Generators for the index-2 'square multipliers' subgroup of the
    multiplicative part: all maps t -> t ∘ a with a a nonzero square.
    right_mult(k) is the map for a = omega^k, and logs lists the discrete
    logs of the nonzero elements in element order."""
    target = {right_mult(k) for k in logs if k % 2 == 0}
    gens = [right_mult(2)]
    current = set(closure(gens))
    # greedy completion; the square maps form a group, so this terminates
    while len(current) < len(target):
        missing = next(p for p in target if p not in current)
        gens.append(missing)
        current = set(closure(gens))
    if current != target:
        raise AssertionError("square-multiplier subgroup came out wrong")
    return gens


# --------------------------------------------------------------------------
# Exceptional near-fields (orders p^2, seven of them)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalSpec:
    p: int
    variant: int  # distinguishes the two p = 11 cases
    g0_structure: str  # 2T | 2O | 2I | 2TxC5 | 2OxC11 | 2IxC7 | 2IxC29

    @property
    def g0_order(self) -> int:
        return self.p * self.p - 1


EXCEPTIONAL_SPECS: tuple[ExceptionalSpec, ...] = (
    ExceptionalSpec(5, 1, "2T"),
    ExceptionalSpec(7, 1, "2O"),
    ExceptionalSpec(11, 1, "2I"),
    ExceptionalSpec(11, 2, "2TxC5"),
    ExceptionalSpec(23, 1, "2OxC11"),
    ExceptionalSpec(29, 1, "2IxC7"),
    ExceptionalSpec(59, 1, "2IxC29"),
)


def exceptional_spec(p: int, variant: int = 1) -> ExceptionalSpec:
    for spec in EXCEPTIONAL_SPECS:
        if spec.p == p and spec.variant == variant:
            return spec
    raise ValueError("no exceptional near-field with p=%d variant=%d" % (p, variant))


def _mat_mul(a, b, p):
    return ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)


def _mat_order(m, p, cap=300):
    ident = (1, 0, 0, 1)
    x = m
    for k in range(1, cap + 1):
        if x == ident:
            return k
        x = _mat_mul(x, m, p)
    raise AssertionError("matrix order exceeded cap")


def _matrix_closure(gens, p, cap):
    """Closure of 2x2 matrices; None as soon as it exceeds cap elements."""
    ident = (1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _mat_mul(x, g, p)
                if y not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _elements_with_trace(p, trace):
    """All matrices in SL_2(p) with the given trace, deterministic order."""
    out = []
    for a in range(p):
        d = (trace - a) % p
        bc = (a * d - 1) % p
        if bc == 0:
            for b in range(p):
                out.append((a, b, 0, d))
            for c in range(1, p):
                out.append((a, 0, c, d))
        else:
            for b in range(1, p):
                c = (bc * pow(b, p - 2, p)) % p
                out.append((a, b, c, d))
    return out


def _traces_of_order(p, m):
    """Traces in F_p of SL_2(p) elements of exact order m (eigenvalue pairs
    ζ, ζ^-1 with ζ a primitive m-th root of unity in F_{p^2})."""
    if (p * p - 1) % m != 0 and (p - 1) % m != 0 and (p + 1) % m != 0:
        return []
    traces = set()
    # work in GF(p^2) via the field module
    field = build_field(p, 2)
    n1 = field.order - 1
    if n1 % m != 0:
        return []
    zeta = field.pow(field.omega, n1 // m)
    z = zeta
    for j in range(1, m):
        if math.gcd(j, m) == 1:
            tr = field.add(z, field.inv(z))
            if tr[1] == 0:  # trace lies in the prime field
                traces.add(tr[0])
        z = field.mul(z, zeta)
    return sorted(traces)


def _find_binary_tetrahedral(p):
    """2T ≅ SL_2(3) inside SL_2(p): order-4 seed closed with an order-3
    element, capped closure, first hit wins."""
    x = (0, p - 1, 1, 0)  # order 4
    for tr in _traces_of_order(p, 3):
        for t in _elements_with_trace(p, tr):
            grp = _matrix_closure([x, t], p, 24)
            if grp is not None and len(grp) == 24:
                orders = {_mat_order(m, p) for m in grp}
                if orders == {1, 2, 3, 4, 6}:
                    return grp
    raise AssertionError("binary tetrahedral search failed for p=%d" % p)


def _extend_group(p, core, element_order, target):
    core_gens = list(core)
    for tr in _traces_of_order(p, element_order):
        for s in _elements_with_trace(p, tr):
            if s in core:
                continue
            grp = _matrix_closure(core_gens + [s], p, target)
            if grp is not None and len(grp) == target:
                return grp
    raise AssertionError("subgroup extension search failed for p=%d order %d"
                         % (p, target))


@lru_cache(maxsize=None)
def _find_polyhedral(p: int, tag: str):
    if tag == "2T":
        return frozenset(_find_binary_tetrahedral(p))
    if tag == "2O":
        return frozenset(_extend_group(p, _find_polyhedral(p, "2T"), 8, 48))
    if tag == "2I":
        return frozenset(_extend_group(p, _find_polyhedral(p, "2T"), 5, 120))
    raise ValueError(tag)


def _scalar_of_order(p, z):
    """A scalar matrix of multiplicative order z, or identity for z = 1."""
    if z == 1:
        return (1, 0, 0, 1)
    if (p - 1) % z != 0:
        raise AssertionError("no scalar of order %d mod %d" % (z, p))
    # the primitive element of GF(p) is its smallest primitive root
    lam = pow(build_field(p, 1).omega[0], (p - 1) // z, p)
    return (lam, 0, 0, lam)


def find_multiplicative_group(spec: ExceptionalSpec) -> set:
    """G0 ≤ GL_2(p) of order p^2 - 1 regular on nonzero vectors."""
    p = spec.p
    tag = spec.g0_structure
    core_tag = tag.split("x")[0]
    core = _find_polyhedral(p, core_tag)
    if "x" in tag:
        z = int(tag.split("C")[1])
        scalar = _scalar_of_order(p, z)
        g0 = _matrix_closure(list(core) + [scalar], p, spec.g0_order + 1)
        if g0 is None or len(g0) != spec.g0_order:
            raise AssertionError("scalar extension failed for %r" % (spec,))
    else:
        g0 = set(core)
        if len(g0) != spec.g0_order:
            raise AssertionError("polyhedral order mismatch for %r" % (spec,))
    _check_regular_on_vectors(g0, p)
    if _is_abelian(g0, p):
        raise AssertionError("exceptional G0 came out abelian")
    return set(g0)


def _check_regular_on_vectors(g0, p):
    v0 = (1, 0)
    images = set()
    for m in g0:
        w = ((v0[0] * m[0] + v0[1] * m[2]) % p, (v0[0] * m[1] + v0[1] * m[3]) % p)
        images.add(w)
    if len(images) != len(g0) or (0, 0) in images:
        raise AssertionError("G0 is not regular on nonzero vectors")


def _is_abelian(g0, p):
    gens = list(g0)[:6]
    return all(_mat_mul(a, b, p) == _mat_mul(b, a, p) for a in g0 for b in gens)


def exceptional_group(spec: ExceptionalSpec) -> PermutationGroup:
    """Sharply 2-transitive group of degree p^2: translations ⋊ G0."""
    p = spec.p
    g0 = find_multiplicative_group(spec)
    x, y = np.divmod(np.arange(p * p), p)  # point a·p + b is the vector (a, b)

    def affine_map(m, t=(0, 0)):
        """v -> v m + t on the row vectors of F_p^2."""
        return Permutation((x * m[0] + y * m[2] + t[0]) % p * p
                           + (x * m[1] + y * m[3] + t[1]) % p)

    identity = (1, 0, 0, 1)
    gens = [affine_map(identity, (1, 0)), affine_map(identity, (0, 1))]
    # pick matrix generators of G0 first (cheap closures), then build the
    # permutation group once
    matrix_gens = []
    generated = {identity}
    for m in sorted(g0):
        if m not in generated:
            matrix_gens.append(m)
            generated = _matrix_closure(matrix_gens, p, len(g0) + 1)
            if len(generated) == len(g0):
                break
    if generated != g0:
        raise AssertionError("matrix generator selection failed")
    group = PermutationGroup(gens + [affine_map(m) for m in matrix_gens])
    if group.order != p * p * (p * p - 1):
        raise AssertionError("exceptional group has wrong order")
    return group
