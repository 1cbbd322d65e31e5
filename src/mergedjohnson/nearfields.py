"""Dickson near-fields, the seven exceptional ones, and affine groups.

A Dickson near-field of order n = q^d keeps the field addition of GF(n)
and twists multiplication by Frobenius powers: g ∘ h = g^(q^j) · h, where
j is the index of the coset of d-th powers containing h.  The affine maps
t -> (t ∘ a) + b over any near-field form a sharply 2-transitive group;
restricting a to nonzero squares (n ≡ 3 mod 4) gives the index-2 subgroup
that acts regularly on 2-subsets.

The seven exceptional near-fields of order p^2 are realized through their
multiplicative groups G0: binary polyhedral subgroups of SL_2(p),
optionally times a scalar cyclic factor, accepted only when regular on the
nonzero vectors.  G0 is searched and checked as 2x2 matrices mod p,
4-tuples acting on row vectors by v -> vM: a candidate group is closed by
a capped breadth-first search over matrix products, and G0 is regular
when its p^2 - 1 elements have distinct first rows e1·M.  Before each
closure an exact trace pre-test skips a candidate that, multiplied by an
element of the core, gives a trace no element of the target's orders has:
that product would lie in the closure, which would fail anyway.
Permutations of the p^2 vectors are built only for the final generators,
the two translations and G0's chosen generators.
verify.sharply_two_transitive_check re-derives the matrices from those
permutations and shares no code with this search.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (FiniteField, build_field, check_desk_bound,
                     prime_power_decomposition)
from .perms import Permutation, PermutationGroup, frontier_bfs
from .subsets import RefusedInput, read_only


# --------------------------------------------------------------------------
# Dickson near-fields
# --------------------------------------------------------------------------

def is_dickson_pair(q: int, d: int) -> bool:
    """True iff every prime r dividing d, and r = 4 when 4 | d, divides q - 1.

    d is not factored: dividing out gcd(d, q - 1) until it is 1 removes
    exactly the primes of d that divide q - 1, so every prime of d does
    when nothing is left."""
    if prime_power_decomposition(q) is None:
        raise RefusedInput("q = %d is not a prime power" % q)
    if d < 1:
        raise RefusedInput("d must be positive")
    rest = d
    while (g := math.gcd(rest, q - 1)) > 1:
        rest //= g
    return rest == 1 and (d % 4 != 0 or (q - 1) % 4 == 0)


class NearField:
    """The Dickson near-field of order q^d: GF(q^d) addition with the
    twisted product.  ValueError unless (q, d) is a Dickson pair.

    Point i is the i-th element of the base field.  The near-field is two
    read-only int32 tables over these indices: add_table[a, b] is a + b,
    added digit by digit in base p, and mul_table[g, h] is g ∘ h, read off
    the base field's exp and log arrays as
    exp[(log g · q^j(h) + log h) mod (n - 1)], with zero absorbing.  The
    tables are built once and proved by verify_axioms alone, which shares
    no arithmetic with the construction.
    """

    def __init__(self, q: int, d: int):
        if not is_dickson_pair(q, d):
            raise RefusedInput("(q, d) = (%d, %d) violates the Dickson divisibility "
                               "condition" % (q, d))
        p, f = prime_power_decomposition(q)
        self.q, self.d = q, d
        self.base = build_field(p, f * d)
        self.order = n = self.base.order
        # h lies in coset level j when log h ≡ m(j) = (q^j - 1)/(q - 1) mod d;
        # scales[log h % d] is then the twist exponent q^j, reduced mod n - 1
        level = {(q ** j - 1) // (q - 1) % d: j for j in range(d)}
        if len(level) != d:  # else a residue has no level to read below
            raise AssertionError("coset residues m(j) are not distinct mod d")
        self.scales = np.array([pow(q, level[r], n - 1) for r in range(d)])
        self.add_table, self.mul_table = self._tables()
        self.verify_axioms()

    def _tables(self):
        # every n x n temporary is int32 like the tables: under DESK_BOUND
        # the largest entry, log · scale + log, is below 4000^2 < 2^31
        base, n = self.base, self.order
        add = np.zeros((n, n), dtype=np.int32)
        for j in range(base.e):
            digit = base.digits[:, j].astype(np.int32)
            add += (digit[:, None] + digit) % base.p * base.p ** j
        logs = base.log[1:].astype(np.int32)
        scales = self.scales.astype(np.int32)[logs % self.d]
        mul = np.zeros((n, n), dtype=np.int32)
        mul[1:, 1:] = base.exp.astype(np.int32)[(logs[:, None] * scales + logs) % (n - 1)]
        return read_only(add), read_only(mul)

    def verify_axioms(self):
        """Prove the near-field axioms on the tables, in this order: identity
        (1 is a two-sided identity and 0 absorbs), every right
        multiplication R_c: a ↦ a∘c a bijection of the nonzero set N*,
        associativity, then right distributivity.  Generators and an
        additive basis carry each law to all n³ triples, in |T| + 2e sweeps
        of n² entries for n = p^e, after one sort of the columns.

        Associativity: (a∘b)∘t = a∘(b∘t) for all a, b, that is R_t R_b =
        R_(b∘t), for each t of a set T grown from ω until the R_t carry 1
        to all of N*.  Every product of the R_t is then an R_b, the only
        one with 1 ↦ b, so the R_b form the group the R_t generate, and
        R_c R_b = R_(b∘c).  Each new t lies outside that group's orbit of 1,
        so the group at least doubles and |T| ≤ 1 + log2(n - 1).

        Addition, reported as right distributivity, the axiom that reads
        add_table: 0 is a two-sided identity, and the translations τ_x:
        a ↦ a + x at the basis points x = p^j reach every point from 0,
        commute, have order p and satisfy τ_x τ_b = τ_(b + x).  They
        generate an abelian group of order at most p^e that is transitive,
        hence regular and holding every τ_b, so + is its law.  Then
        (a + x)∘c = a∘c + x∘c at each basis point x extends to every sum
        by induction."""
        n, add, mul, p = self.order, self.add_table, self.mul_table, self.base.p
        points = np.arange(n)
        # the element 1 is index 1, as its digits are (1, 0, ..., 0)
        if not (np.array_equal(mul[1:, 1], points[1:])
                and np.array_equal(mul[1, 1:], points[1:])
                and not mul[0].any() and not mul[:, 0].any()):
            raise AssertionError("identity axiom fails")
        # inverses: each column restricted to the nonzero rows is a
        # permutation of the nonzero elements
        bad = np.flatnonzero((np.sort(mul[1:, 1:], axis=0) != points[1:, None]).any(axis=0))
        if bad.size:
            raise AssertionError("multiplication by %r is not a bijection of the "
                                 "nonzero elements" % (self._element(bad[0] + 1),))
        gens, t = [], self.base.exp[1 % (n - 1)]
        while True:
            column = mul[:, t]
            if not np.array_equal(column[mul], mul[:, column]):
                raise AssertionError("associativity fails: (a∘b)∘c != a∘(b∘c) "
                                     "for c = %r" % (self._element(t),))
            gens.append(t)
            reached = _reached(1, mul[:, gens])
            if reached[1:].all():
                break
            t = np.flatnonzero(~reached[1:])[0] + 1
        basis = [p ** j for j in range(self.base.e)]
        if not (np.array_equal(add[0], points) and np.array_equal(add[:, 0], points)
                and _reached(0, add[:, basis]).all()):
            raise AssertionError("right distributivity fails: 0 is not an additive "
                                 "identity or the basis points do not reach every point")
        shifts = [add[:, x] for x in basis]
        for x, shift in zip(basis, shifts):
            power = shift
            for _ in range(p - 1):
                power = shift[power]
            if not (np.array_equal(power, points)
                    and all(np.array_equal(shift[s], s[shift]) for s in shifts)
                    and np.array_equal(shift[add], add[:, shift])):
                raise AssertionError("right distributivity fails: addition is not a "
                                     "group at basis point %r" % (self._element(x),))
        for x in basis:
            if not np.array_equal(mul[add[:, x]], add[mul, mul[x]]):
                raise AssertionError("right distributivity fails: (a + b)∘c != "
                                     "a∘c + b∘c for b = %r" % (self._element(x),))

    def _element(self, x) -> tuple:
        """Element x as its tuple of coefficients, for messages."""
        return tuple(self.base.digits[x].tolist())

    def is_commutative(self) -> bool:
        return np.array_equal(self.mul_table, self.mul_table.T)

    def export_json(self) -> str:
        data = {
            "q": self.q,
            "d": self.d,
            "modulus": list(self.base.modulus),
        }
        if self.order <= 81:
            data["multiplication_table"] = self.base.digits[self.mul_table].tolist()
        return json.dumps(data)


def _reached(start: int, images: np.ndarray) -> np.ndarray:
    """Bool mask of the points reached from start by the maps whose image
    arrays are the columns of images."""
    seen = np.zeros(len(images), dtype=bool)
    frontier_bfs(start, lambda f: images[f].ravel(), seen)
    return seen


def build_dickson(q: int, d: int) -> NearField:
    check_desk_bound(q, d)
    return NearField(q, d)


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

    def right_mult(k):
        """t -> t ∘ omega^k."""
        return Permutation(base.power_map(scales[k % d], k))

    # translations by the additive basis generate the translation group
    gens = [Permutation(base.translation(j)) for j in range(base.e)]

    if kind == "AGL":
        gens.append(right_mult(1))
        if d > 1:
            gens.append(right_mult(d))
        group = PermutationGroup(gens)
        expected = n * (n - 1)
    elif kind == "AHL":
        if n % 4 != 3:
            raise RefusedInput("AHL needs order ≡ 3 mod 4, got %d" % n)
        gens.extend(_half_multiplier_gens(right_mult, base.log[1:].tolist()))
        group = PermutationGroup(gens)
        expected = n * (n - 1) // 2
    elif kind == "AGammaL":
        if d > 1:
            raise RefusedInput("AGammaL is defined here over genuine fields only")
        gens.append(right_mult(1))
        gens.append(Permutation(base.power_map(p, 0)))
        group = PermutationGroup(gens)
        expected = n * (n - 1) * base.e
    else:
        raise RefusedInput("unknown affine kind %r" % kind)

    if group.order != expected:
        raise AssertionError("affine group of kind %s came out with order %d, "
                             "expected %d" % (kind, group.order, expected))
    return group


def _half_multiplier_gens(right_mult, logs):
    """Generators for the index-2 'square multipliers' subgroup of the
    multiplicative part: all maps R_a: t -> t ∘ a with a a nonzero square.
    right_mult(k) is the map for a = omega^k, and logs lists the discrete
    logs of the nonzero elements in element order.  R_a sends the element
    1, which is point 1, to a, and the R_a are semiregular on the nonzero
    points, so a group of them holds R_a iff the orbit of 1 holds a."""
    target = {right_mult(k) for k in logs if k % 2 == 0}
    by_image = {g(1): g for g in target}
    gens, orbit = _orbit_generators(1, len(logs) + 1, list(by_image),
                                    by_image.__getitem__, [right_mult(2)])
    if set(np.flatnonzero(orbit).tolist()) != set(by_image):
        raise AssertionError("square-multiplier subgroup came out wrong")
    return gens


def _orbit_generators(start: int, degree: int, points, element, gens=()):
    """(gens, orbit): greedy generators of a group that is semiregular on
    the orbit of start, and that orbit as a bool mask over the degree's
    points.  From gens, while the orbit of start misses one of the points,
    element(v) joins them for the first such point v: a group element
    carrying start to v, which a semiregular group holds iff the orbit
    holds v."""
    gens, points = list(gens), np.asarray(points)
    while True:
        images = np.array([g.images for g in gens], dtype=np.intp).reshape(-1, degree)
        orbit = _reached(start, images.T)
        missing = points[~orbit[points]]
        if not missing.size:
            return gens, orbit
        gens.append(element(int(missing[0])))


# --------------------------------------------------------------------------
# Exceptional near-fields (orders p^2, seven of them)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalSpec:
    p: int
    variant: int  # distinguishes the two p = 11 cases
    g0_structure: str  # 2T | 2O | 2I | 2TxC5 | 2OxC11 | 2IxC7 | 2IxC29


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
    raise RefusedInput("no exceptional near-field with p=%d variant=%d" % (p, variant))


def _affine_map(p, m, t=(0, 0)) -> Permutation:
    """v -> v m + t on the row vectors of F_p^2, where point a·p + b is the
    vector (a, b) and m = (m0, m1, m2, m3) is the matrix [[m0, m1], [m2, m3]]."""
    x, y = np.divmod(np.arange(p * p), p)
    return Permutation((x * m[0] + y * m[2] + t[0]) % p * p
                       + (x * m[1] + y * m[3] + t[1]) % p)


# 2x2 matrices mod p are 4-tuples (m0, m1, m2, m3) for [[m0, m1], [m2, m3]],
# acting on row vectors: e1·m = (m0, m1) and e2·m = (m2, m3) are its rows
_IDENTITY = (1, 0, 0, 1)


def _mat_mul(p, a, b):
    """The product a·b mod p."""
    return ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)


def _closure(gens, p, cap):
    """The elements of <gens> ≤ GL_2(p) in breadth-first order from the
    identity, by m ↦ m·g for each generator g in turn; None when there are
    more than cap.  The product is _mat_mul's, written out: this loop is
    the search's hot spot."""
    elements = [_IDENTITY]
    seen = set(elements)
    for a, b, c, d in elements:
        for g0, g1, g2, g3 in gens:
            m = ((a * g0 + b * g2) % p, (a * g1 + b * g3) % p,
                 (c * g0 + d * g2) % p, (c * g1 + d * g3) % p)
            if m not in seen:
                if len(elements) == cap:
                    return None
                seen.add(m)
                elements.append(m)
    return elements


def _matrix_order(p, m):
    """The multiplicative order of m in GL_2(p), by repeated products."""
    order, power = 1, m
    while power != _IDENTITY:
        power = _mat_mul(p, power, m)
        order += 1
    return order


def _elements_with_trace(p, trace):
    """All matrices in SL_2(p) with the given trace, in a deterministic
    order, generated as the search asks for them."""
    for a in range(p):
        d = (trace - a) % p
        bc = (a * d - 1) % p
        if bc == 0:
            for b in range(p):
                yield (a, b, 0, d)
            for c in range(1, p):
                yield (a, 0, c, d)
        else:
            for b in range(1, p):
                yield (a, b, bc * pow(b, p - 2, p) % p, d)


def _traces_of_order(p, m):
    """Traces in F_p of SL_2(p) elements of exact order m (eigenvalue pairs
    ζ, ζ^-1 with ζ a primitive m-th root of unity in F_{p^2})."""
    field = build_field(p, 2)
    n1 = field.order - 1
    if n1 % m != 0:
        return []
    # ζ = ω^(j·n1/m) for j prime to m; ζ + ζ^-1 lies in F_p iff its
    # t-digit is 0
    logs = np.array([j * n1 // m for j in range(1, m) if math.gcd(j, m) == 1],
                    dtype=np.intp)
    traces = (field.digits[field.exp[logs]] + field.digits[field.exp[-logs % n1]]) % p
    return sorted(set(traces[traces[:, 1] == 0, 0].tolist()))


def _allowed_traces(p, orders):
    """Every trace an element of SL_2(p) whose order lies in orders can
    have: ±2, the traces of ±I and of the elements of order divisible by
    p, and those of _traces_of_order(p, m) for each m > 2 in orders.  A
    non-central semisimple element has eigenvalues ζ, ζ^-1 with ζ of its
    order, so its trace is listed there."""
    allowed = {2 % p, -2 % p}
    for m in orders:
        if m > 2:
            allowed.update(_traces_of_order(p, m))
    return allowed


def _passes_trace_test(p, core, s, allowed):
    """Whether every product c·s with c in core has a trace in allowed;
    tr(c·s) = c0 s0 + c1 s2 + c2 s1 + c3 s3."""
    s0, s1, s2, s3 = s
    return all((c0 * s0 + c1 * s2 + c2 * s1 + c3 * s3) % p in allowed
               for c0, c1, c2, c3 in core)


# tag: (the core's tag, None for <x>; the order of the element added to
# the core; the group's order; the orders of its elements)
_POLYHEDRAL = {
    "2T": (None, 3, 24, frozenset({1, 2, 3, 4, 6})),
    "2O": ("2T", 8, 48, frozenset({1, 2, 3, 4, 6, 8})),
    "2I": ("2T", 5, 120, frozenset({1, 2, 3, 4, 5, 6, 10})),
}


@lru_cache(maxsize=None)
def _find_polyhedral(p: int, tag: str) -> tuple[tuple[int, int, int, int], ...]:
    """Generators of the binary polyhedral group tag ≤ SL_2(p): the core's,
    which are x = [[0, -1], [1, 0]] of order 4 for 2T and 2T's for 2O and
    2I, and the first s of the added order, by trace in _traces_of_order
    order and then in _elements_with_trace order, whose closure with them
    has the group's order and exactly its element orders.

    Before its closure, s is skipped when some c·s with c in the core
    group has a trace outside _allowed_traces.  That product lies in the
    closure and its order is not among the group's, so the closure would
    fail anyway: the pre-test is exact, and the first success is the one
    the search without it finds."""
    core_tag, element_order, size, orders = _POLYHEDRAL[tag]
    core_gens = _find_polyhedral(p, core_tag) if core_tag else ((0, p - 1, 1, 0),)
    core = _closure(core_gens, p, size)
    allowed = _allowed_traces(p, orders)
    for tr in _traces_of_order(p, element_order):
        for s in _elements_with_trace(p, tr):
            if _passes_trace_test(p, core, s, allowed):
                gens = (*core_gens, s)
                group = _closure(gens, p, size)
                if (group is not None and len(group) == size
                        and {_matrix_order(p, m) for m in group} == orders):
                    return gens
    raise AssertionError("%s search failed for p=%d" % (tag, p))


def _scalar_of_order(p, z):
    """The scalar matrix of multiplicative order z whose entry is a power of
    the smallest primitive root mod p."""
    if (p - 1) % z != 0:
        raise AssertionError("no scalar of order %d mod %d" % (z, p))
    lam = int(build_field(p, 1).exp[(p - 1) // z % (p - 1)])
    return (lam, 0, 0, lam)


def find_multiplicative_group(spec: ExceptionalSpec) -> dict[int, int]:
    """G0 ≤ GL_2(p), generated by the polyhedral core and, for a structure
    AxCz, a scalar of order z; see _checked_g0 for the form returned."""
    p = spec.p
    tag = spec.g0_structure
    gens = list(_find_polyhedral(p, tag.split("x")[0]))
    if "x" in tag:
        gens.append(_scalar_of_order(p, int(tag.split("C")[1])))
    return _checked_g0(gens, p)


def _checked_g0(gens, p) -> dict[int, int]:
    """The map e1·g -> e2·g, rows as points m0·p + m1 -> m2·p + m3, over
    the elements g of G0 = <gens> ≤ GL_2(p), which fixes each element.
    AssertionError unless G0 is regular on the p^2 - 1 nonzero vectors,
    that is p^2 - 1 elements each with its own image of e1, and
    non-abelian, that is two generators do not commute."""
    second = {m0 * p + m1: m2 * p + m3
              for m0, m1, m2, m3 in _closure(gens, p, p * p - 1) or ()}
    if len(second) != p * p - 1:
        raise AssertionError("G0 is not regular on nonzero vectors")
    if all(_mat_mul(p, a, b) == _mat_mul(p, b, a)
           for a, b in itertools.combinations(gens, 2)):
        raise AssertionError("exceptional G0 came out abelian")
    return second


def exceptional_group(spec: ExceptionalSpec) -> PermutationGroup:
    """Sharply 2-transitive group of degree p^2: translations ⋊ G0, with
    its order p^2 (p^2 - 1) recorded, not read off a stabilizer chain: the
    generators chosen from G0 reach every nonzero vector from e1, below."""
    p = spec.p
    second = find_multiplicative_group(spec)
    gens = [_affine_map(p, (1, 0, 0, 1), (1, 0)), _affine_map(p, (1, 0, 0, 1), (0, 1))]
    # G0's generators: walking its elements in matrix order, which is the
    # order of e1·g = (m0, m1), take each one outside the subgroup chosen so
    # far.  G0 is semiregular, so a subgroup holds g iff e1's orbit under it
    # holds e1·g, and e1's orbit under the identity is e1 alone.  The g
    # with e1·g = v has the rows of the points v and second[v].
    chosen, orbit = _orbit_generators(p, p * p, np.arange(1, p * p),
                                      lambda v: _affine_map(p, divmod(v, p) + divmod(second[v], p)))
    if not orbit[1:].all():
        raise AssertionError("the chosen generators do not generate G0")
    group = PermutationGroup(gens + chosen)
    group._order = p * p * (p * p - 1)
    return group
