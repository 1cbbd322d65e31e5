"""The classification of k-homogeneous groups as executable data.

H_k denotes the k-homogeneous finite permutation groups other than A_n and
S_n, and D_k the set of their degrees.  H_k is empty for k >= 6, finite
and fully listed for k = 4, 5, and built from a handful of families for
k = 2, 3.  Every record sits in one table, `_RECORDS`, built at import,
and ships with degree and order; groups that fit on a desk (degree <= 64,
order below a few hundred million) carry their constructor, the rest are
data only.  The groups PSL2(q) <= G <= PGammaL2(q) on the projective line
all come from `projective_line_group`.  The affine groups AGL1, AHL1 and
AGammaL1 are not listed: no deficiency minimum can read one (see
`_RECORDS`).

`minimal_stabilizer_order` builds each record's group at most once per
process, on first use, and checks it k-homogeneous at most once per
(record, k).  Both caches are bounded by the table, and nothing is built
at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import comb, factorial
from typing import Callable

import numpy as np

from .fields import build_field, prime_power_decomposition
from .perms import ActionDomain, Permutation, PermutationGroup


@dataclass(frozen=True)
class HomogRecord:
    """A group of H_k; `build` constructs it, None marks a data-only record."""

    name: str
    degree: int
    order: int
    max_homogeneity: int
    build: Callable[[], PermutationGroup] | None = None

    def construct(self) -> PermutationGroup:
        if self.build is None:
            raise ValueError("%s carries no constructor" % self.name)
        return self.build()


# --------------------------------------------------------------------------
# Projective line groups PSL2(q) <= G <= PGammaL2(q) on q+1 points
# --------------------------------------------------------------------------

def moebius_generators(q: int):
    """Translation, scaling by omega and by omega^2, inversion and Frobenius
    as permutations of P^1(F_q): points 0..q-1 are the field elements in
    canonical order, point q is infinity.  Returns (translate, scale,
    scale_by_square, invert, frobenius)."""
    p, e = prime_power_decomposition(q)
    field = build_field(p, e)
    # each map fixes infinity but t -> -1/t, an element of PSL2, which swaps
    # it with 0; -1 is element p - 1
    rows = np.full((5, q + 1), q, dtype=np.intp)
    rows[:, :q] = [field.translation(0), field.power_map(1, 1), field.power_map(1, 2),
                   field.power_map(-1, field.log[p - 1]), field.power_map(p, 0)]
    rows[3, [0, q]] = q, 0
    return tuple(Permutation(row) for row in rows)


def projective_line_group(q: int, name: str) -> PermutationGroup:
    """The group `name` between PSL2(q) and PGammaL2(q): PSL2, PGL2,
    PSigmaL2, PGammaL2, or M10 (q = 9 only).

    PSL2(q) is generated by translate, scale^2 (scale for even q) and
    invert; PGL2 and PGammaL2 take scale in the middle slot, PSigmaL2 and
    PGammaL2 append frobenius, and M10 appends scale * frobenius to PSL2(9).
    """
    if name not in ("PSL2", "PGL2", "PSigmaL2", "PGammaL2", "M10") \
            or name == "M10" and q != 9:
        raise ValueError("no projective-line group %s(%d)" % (name, q))
    _, e = prime_power_decomposition(q)
    translate, scale, scale2, invert, frob = moebius_generators(q)
    odd = q % 2
    full = name in ("PGL2", "PGammaL2")
    gens = [translate, scale if full or not odd else scale2, invert]
    index = 2 if full and odd else 1
    if name in ("PSigmaL2", "PGammaL2"):
        gens.append(frob)
        index *= e
    if name == "M10":
        gens.append(scale * frob)
        index = 2
    group = PermutationGroup(gens)
    if group.order != (q + 1) * q * (q - 1) // (1 + odd) * index:
        raise AssertionError("%s(%d) order came out %d" % (name, q, group.order))
    return group


# --------------------------------------------------------------------------
# Mathieu groups (standard generators, orders verified on construction)
# --------------------------------------------------------------------------

_MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}


def _cycle_perm(degree, *cycles):
    return Permutation.from_cycles(degree, [tuple(x - 1 for x in c) for c in cycles])


def mathieu(n: int) -> PermutationGroup:
    if n == 11:
        gens = [_cycle_perm(11, tuple(range(1, 12))),
                _cycle_perm(11, (3, 7, 11, 8), (4, 10, 5, 6))]
    elif n == 12:
        gens = [_cycle_perm(12, tuple(range(1, 12))),
                _cycle_perm(12, (3, 7, 11, 8), (4, 10, 5, 6)),
                _cycle_perm(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))]
    elif n == 23:
        gens = [_cycle_perm(23, tuple(range(1, 24))),
                _cycle_perm(23, (3, 17, 10, 7, 9), (5, 4, 13, 14, 19),
                            (11, 12, 23, 8, 18), (21, 16, 15, 20, 22))]
    elif n == 24:
        gens = [_cycle_perm(24, tuple(range(1, 24))),
                _cycle_perm(24, (3, 17, 10, 7, 9), (5, 4, 13, 14, 19),
                            (11, 12, 23, 8, 18), (21, 16, 15, 20, 22)),
                _cycle_perm(24, (1, 24), (2, 23), (3, 12), (4, 16), (5, 18),
                            (6, 10), (7, 20), (8, 14), (9, 21), (11, 17),
                            (13, 22), (15, 19))]
    else:
        raise ValueError("no constructor for M_%d" % n)
    group = PermutationGroup(gens)
    if group.order != _MATHIEU_ORDERS[n]:
        raise AssertionError("M_%d generators give order %d" % (n, group.order))
    return group


# --------------------------------------------------------------------------
# Catalog records
# --------------------------------------------------------------------------

def _mathieu(n, homogeneity):
    return HomogRecord("M%d" % n, n, _MATHIEU_ORDERS[n], homogeneity,
                       partial(mathieu, n))


def _projective(q, name, order, homogeneity):
    return HomogRecord("%s(%d)" % (name, q), q + 1, order, homogeneity,
                       partial(projective_line_group, q, name))


def _projective_line_records():
    # q = 4 is skipped: PSL2(4) on 5 points is A_5 in its natural action.
    # PSL2(8), PGammaL2(8) and PGammaL2(32) are on the H_4 list already.
    out = []
    for q in range(5, 64):
        dec = prime_power_decomposition(q)
        if dec is None:
            continue
        _, e = dec
        pgl_order = (q + 1) * q * (q - 1)
        if q != 8:
            # PSL2(q) is 3-homogeneous iff q is even or q ≡ 3 mod 4
            out.append(_projective(q, "PSL2", pgl_order // (2 if q % 2 else 1),
                                   3 if (q % 2 == 0 or q % 4 == 3) else 2))
        if q % 2:
            out.append(_projective(q, "PGL2", pgl_order, 3))
        if q == 9:
            # the other two groups of index 2 in PGammaL2(9); M10 comes after
            # PGL2(9), which stays the witness of r = 6 at (10, 3)
            out.append(_projective(q, "PSigmaL2", pgl_order, 2))
            out.append(_projective(q, "M10", pgl_order, 3))
        if e > 1 and q not in (8, 32):
            out.append(_projective(q, "PGammaL2", pgl_order * e, 3))
    return out


# H_5, the rest of H_4, the H_3 sporadics, the projective line and the H_2
# sporadics; khomog_candidates sorts stably by order, so this order picks
# the witness among groups of equal order.  No affine group is listed: AGL1,
# AHL1 and AGammaL1 are k-homogeneous at a prime-power degree n for k = 2,
# where every J(n,2)_I is 2-regular (2-regular case 1), and at n = 8, 32
# for k = 3, where every J(n,3)_I is Cayley (Cayley cases 2 and 3), so no
# deficiency minimum is taken at their degrees
_RECORDS = (
    _mathieu(12, 5),
    _mathieu(24, 5),
    _mathieu(11, 4),
    _mathieu(23, 4),
    _projective(8, "PSL2", 504, 4),
    _projective(8, "PGammaL2", 1512, 4),
    _projective(32, "PGammaL2", 163680, 4),
    HomogRecord("M11 on 12", 12, 7920, 3),
    HomogRecord("M22", 22, 443520, 3),
    HomogRecord("Aut M22", 22, 887040, 3),
    *_projective_line_records(),
    HomogRecord("PSL2(11) on 11", 11, 660, 2),
    HomogRecord("A7 on 15", 15, 2520, 2),
    HomogRecord("PSigmaL2(8) on 28", 28, 1512, 2),
    HomogRecord("HS", 176, 44352000, 2),
    HomogRecord("Co3", 276, 495766656000, 2),
)

def homogeneous_catalog(k: int) -> list[HomogRecord]:
    """The shipped records of H_k, in table order.  The projective lines
    are listed up to degree 64 only, and no affine group (see _RECORDS);
    khomog_candidates says at which degrees the list is complete."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return [r for r in _RECORDS if r.max_homogeneity >= k]


# --------------------------------------------------------------------------
# Degree sets and deficiency candidates
# --------------------------------------------------------------------------

# H_4 and H_5 are listed in full, so D_4 and D_5 are read off the table
_DEGREES = {k: frozenset(r.degree for r in homogeneous_catalog(k)) for k in (4, 5)}


def degrees_d_k(k: int, n: int) -> bool:
    """Whether degree n lies in D_k, the set of degrees of groups in H_k.
    Exact for k >= 4; for k in {2, 3} exact for n <= 64."""
    if k >= 4:
        return n in _DEGREES.get(k, ())
    if k == 3:
        if n in (11, 12, 22, 23, 24):
            return True
        if n >= 8 and (n & (n - 1)) == 0:  # 2^d, subgroups of AGammaL_d(2)
            return True
        return prime_power_decomposition(n - 1) is not None and n >= 6
    # k == 2
    if prime_power_decomposition(n) is not None and n >= 4:
        return True
    if prime_power_decomposition(n - 1) is not None and n >= 6:
        return True
    projective_higher = {7, 13, 15, 21, 31, 40, 57, 63}
    unitary = {9, 28}
    symplectic = {28, 36}
    sporadic = {11, 12, 15, 22, 23, 24, 28, 176, 276}
    return n in projective_higher | unitary | symplectic | sporadic


def khomog_candidates(n: int, k: int):
    """Catalog records of degree n whose max_homogeneity is at least k,
    sorted by order, with a flag saying whether the list is known complete
    at this degree (so a minimum over it is exact)."""
    records = sorted((r for r in homogeneous_catalog(k) if r.degree == n),
                     key=lambda r: r.order)
    if k >= 4:
        complete = True
    else:
        # curated: for n <= 14 every k-homogeneous group of degree n with
        # k in {2, 3} lies in the shipped records (projective line,
        # Mathieu), but for the affine groups at the degrees named above
        complete = n <= 14 and not (k == 2 and prime_power_decomposition(n)
                                    or k == 3 and n == 8)
    return records, complete


@cache
def _group(rec: HomogRecord) -> PermutationGroup:
    """rec's group, built once per process.  `construct` still builds a
    fresh group on every call."""
    return rec.construct()


@cache
def _is_k_homogeneous(rec: HomogRecord, k: int) -> bool:
    """Whether rec's group is transitive on k-subsets, by orbit counting,
    checked once per (record, k)."""
    group = _group(rec)
    if group.degree != rec.degree:
        raise AssertionError("catalog degree mismatch for %s" % rec.name)
    return group.is_transitive(ActionDomain.ksubsets(rec.degree, k))


def minimal_stabilizer_order(n: int, k: int):
    """min |G| / C(n,k) over A_n, S_n and the catalog groups of degree n
    that are k-homogeneous.  Returns (value, witness_name) when exact, or
    (None, None) when the catalog at this degree cannot be certified.

    Catalog groups are verified k-homogeneous by orbit counting when
    constructible, once per (record, k); the formula k!(n-k)!/2 is the A_n
    bound.
    """
    records, complete = khomog_candidates(n, k)
    if not complete:
        # a group outside the shipped records might undercut the minimum
        return None, None
    vertices = comb(n, k)
    best = factorial(k) * factorial(n - k) // 2  # A_n, always k-homogeneous
    best_name = "A%d" % n
    for rec in records:
        if rec.order % vertices != 0:
            continue
        r = rec.order // vertices
        if r >= best:
            continue
        if rec.build is not None and not _is_k_homogeneous(rec, k):
            continue
        # data-only records are trusted classification data; their
        # orders still bound the minimum correctly
        best, best_name = r, rec.name
    return best, best_name
