"""The classification of k-homogeneous groups as executable data.

H_k denotes the k-homogeneous finite permutation groups other than A_n and
S_n, and D_k the set of their degrees.  H_k is empty for k >= 6, finite
and fully listed for k = 4, 5, and built from a handful of families for
k = 2, 3.  Records ship with degree and order; groups that fit on a desk
(degree <= 64, order below a few hundred million) come with constructors,
the rest are data only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .fields import build_field, prime_power_decomposition
from .nearfields import affine_group
from .perms import ActionDomain, Permutation, PermutationGroup


@dataclass(frozen=True)
class HomogRecord:
    name: str
    degree: int
    order: int
    max_homogeneity: int
    max_transitivity: int
    constructible: bool

    def construct(self) -> PermutationGroup:
        if not self.constructible:
            raise ValueError("%s carries no constructor" % self.name)
        return _construct_by_name(self.name, self.degree)


@dataclass(frozen=True)
class FamilyDescriptor:
    """An infinite family contributing to H_k, expanded on demand."""

    name: str
    degree_form: str
    min_homogeneity: int


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


def psl2(q: int) -> PermutationGroup:
    translate, scale, scale2, invert, _ = moebius_generators(q)
    if q % 2 == 0:
        gens = [translate, scale, invert]
        expected = (q + 1) * q * (q - 1)
    else:
        gens = [translate, scale2, invert]
        expected = (q + 1) * q * (q - 1) // 2
    group = PermutationGroup(gens)
    if group.order != expected:
        raise AssertionError("PSL2(%d) order came out %d" % (q, group.order))
    return group


def pgl2(q: int) -> PermutationGroup:
    translate, scale, _, invert, _ = moebius_generators(q)
    group = PermutationGroup([translate, scale, invert])
    if group.order != (q + 1) * q * (q - 1):
        raise AssertionError("PGL2(%d) order came out %d" % (q, group.order))
    return group


def pgammal2(q: int) -> PermutationGroup:
    p, e = prime_power_decomposition(q)
    translate, scale, _, invert, frob = moebius_generators(q)
    group = PermutationGroup([translate, scale, invert, frob])
    if group.order != (q + 1) * q * (q - 1) * e:
        raise AssertionError("PGammaL2(%d) order came out %d" % (q, group.order))
    return group


def psigmal2(q: int) -> PermutationGroup:
    p, e = prime_power_decomposition(q)
    translate, scale, scale2, invert, frob = moebius_generators(q)
    base = [translate, scale2, invert] if q % 2 else [translate, scale, invert]
    group = PermutationGroup(base + [frob])
    expected = (q + 1) * q * (q - 1) * e // (2 if q % 2 else 1)
    if group.order != expected:
        raise AssertionError("PSigmaL2(%d) order came out %d" % (q, group.order))
    return group


def projective_line_lattice(q: int) -> dict:
    """All groups G with PSL2(q) <= G <= PGammaL2(q), as name -> group.

    The quotient PGammaL2(q)/PSL2(q) has order gcd(2, q-1)*e; its subgroups
    are enumerated by brute force on coset representatives.
    """
    translate, scale, scale2, invert, frob = moebius_generators(q)
    psl_gens = [translate, scale2, invert] if q % 2 else [translate, scale, invert]
    psl = PermutationGroup(psl_gens)

    def in_psl(perm):
        return perm in psl

    # coset representatives of PSL in PGammaL: BFS over products of the
    # outer generators
    outer = [scale, frob]
    reps = [Permutation.identity(q + 1)]
    frontier = list(reps)
    while frontier:
        nxt = []
        for r in frontier:
            for g in outer:
                cand = r * g
                if not any(in_psl(cand * s.inverse()) for s in reps):
                    reps.append(cand)
                    nxt.append(cand)
        frontier = nxt

    def coset_index(perm):
        for i, r in enumerate(reps):
            if in_psl(perm * r.inverse()):
                return i
        raise AssertionError("element outside PGammaL2")

    m = len(reps)
    # multiplication table of the quotient
    table = [[coset_index(reps[i] * reps[j]) for j in range(m)] for i in range(m)]
    subgroups = set()
    for seed in range(1 << m):
        if not seed & 1:
            continue
        current = {i for i in range(m) if (seed >> i) & 1}
        while True:
            grown = {table[i][j] for i in current for j in current}
            if grown <= current:
                break
            current |= grown
        subgroups.add(frozenset(current))

    out = {}
    for idx, sub in enumerate(sorted(subgroups, key=lambda s: (len(s), sorted(s)))):
        group = PermutationGroup(psl_gens + [reps[i] for i in sorted(sub)])
        name = _lattice_name(q, group.order, sub, reps, in_psl, frob, scale)
        out[name] = group
    return out


def _lattice_name(q, order, sub, reps, in_psl, frob, scale):
    p, e = prime_power_decomposition(q)
    psl_order = (q + 1) * q * (q - 1) // (2 if q % 2 else 1)
    contains_scale = any(in_psl(reps[i] * scale.inverse()) for i in sub)
    contains_frob = any(in_psl(reps[i] * frob.inverse()) for i in sub)
    if order == psl_order:
        return "PSL2(%d)" % q
    if len(sub) == len(reps):
        return "PGammaL2(%d)" % q
    if contains_scale and not contains_frob and order == (q + 1) * q * (q - 1):
        return "PGL2(%d)" % q
    if contains_frob and not contains_scale and order == psl_order * e:
        return "PSigmaL2(%d)" % q
    if q == 9 and order == 720:
        return "M10"
    return "PSL2(%d).%d_%d" % (q, order // psl_order, min(sub - {0}, default=0))


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

def _pgammal_order(q):
    p, e = prime_power_decomposition(q)
    return (q + 1) * q * (q - 1) * e


_H5 = [
    HomogRecord("M12", 12, 95040, 5, 5, True),
    HomogRecord("M24", 24, 244823040, 5, 5, True),
]

_H4_ONLY = [
    HomogRecord("M11", 11, 7920, 4, 4, True),
    HomogRecord("M23", 23, 10200960, 4, 4, True),
    HomogRecord("PSL2(8)", 9, 504, 4, 3, True),
    HomogRecord("PGammaL2(8)", 9, 1512, 4, 3, True),
    HomogRecord("PGammaL2(32)", 33, 163680, 4, 3, True),
]

_H3_ONLY_SPORADIC = [
    HomogRecord("M11 on 12", 12, 7920, 3, 3, False),
    HomogRecord("M22", 22, 443520, 3, 3, False),
    HomogRecord("Aut M22", 22, 887040, 3, 3, False),
    HomogRecord("AGL1(8)", 8, 56, 3, 2, True),
    HomogRecord("AGammaL1(8)", 8, 168, 3, 2, True),
    HomogRecord("AGammaL1(32)", 32, 4960, 3, 2, True),
]

_H3_FAMILIES = [
    FamilyDescriptor("subgroups of AGammaL_d(2), degree 2^d", "2^d", 3),
    FamilyDescriptor("groups PSL2(q) <= G <= PGammaL2(q), degree q+1", "q+1", 3),
]

_H2_SPORADIC = [
    HomogRecord("PSL2(11) on 11", 11, 660, 2, 2, False),
    HomogRecord("A7 on 15", 15, 2520, 2, 2, False),
    HomogRecord("PSigmaL2(8) on 28", 28, 1512, 2, 2, False),
    HomogRecord("HS", 176, 44352000, 2, 2, False),
    HomogRecord("Co3", 276, 495766656000, 2, 2, False),
]

_H2_FAMILIES = [
    FamilyDescriptor("affine subgroups of AGammaL_d(q), degree q^d", "q^d", 2),
    FamilyDescriptor("projective PSL_d(q) <= G <= PGammaL_d(q), degree (q^d-1)/(q-1), d >= 3", "(q^d-1)/(q-1)", 2),
    FamilyDescriptor("unitary PSU3(q) <= G <= PGammaU3(q), degree q^3+1", "q^3+1", 2),
    FamilyDescriptor("symplectic Sp_2d(2), degrees 2^(d-1)(2^d +- 1)", "2^(d-1)(2^d+-1)", 2),
    FamilyDescriptor("Suzuki Sz(q) <= G <= Aut Sz(q), degree q^2+1", "q^2+1", 2),
    FamilyDescriptor("Ree Re(q) <= G <= Aut Re(q), degree q^3+1", "q^3+1", 2),
]


def homogeneous_catalog(k: int):
    """Records and family descriptors for H_k (records expanded for
    degrees <= 64, infinite families as descriptors)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k >= 6:
        return {"records": [], "families": []}
    records = list(_H5)
    families = []
    if k <= 4:
        records += _H4_ONLY
    if k <= 3:
        records += _H3_ONLY_SPORADIC
        families += _H3_FAMILIES
        records += _projective_line_records(min_homog=3)
    if k == 2:
        records += _H2_SPORADIC
        families += _H2_FAMILIES
        records += _affine_line_records()
    records = [r for r in records if r.max_homogeneity >= k]
    return {"records": records, "families": families}


def _projective_line_records(min_homog):
    # q = 4 is skipped: PSL2(4) on 5 points is A_5 in its natural action.
    # q = 8 and 32 entries already covered by the H_4 list are skipped too.
    out = []
    for q in range(5, 64):
        if prime_power_decomposition(q) is None:
            continue
        n = q + 1
        if n > 64:
            break
        p, e = prime_power_decomposition(q)
        psl_order = n * q * (q - 1) // (2 if q % 2 else 1)
        # PSL2(q) is 3-homogeneous iff q is even or q ≡ 3 mod 4
        homog_psl = 3 if (q % 2 == 0 or q % 4 == 3) else 2
        if q not in (8,):
            out.append(HomogRecord("PSL2(%d)" % q, n, psl_order, homog_psl,
                                   3 if q % 2 == 0 else 2, True))
        if q % 2:
            out.append(HomogRecord("PGL2(%d)" % q, n, n * q * (q - 1), 3, 3, True))
        if e > 1 and q not in (8, 32):
            out.append(HomogRecord("PGammaL2(%d)" % q, n, _pgammal_order(q), 3, 3, True))
    return out


def _affine_line_records():
    # AGL1(8), AGammaL1(8) and AGammaL1(32), 3-homogeneous, are on the H_3
    # list already and are skipped here.
    out = []
    for n in range(5, 65):
        dec = prime_power_decomposition(n)
        if dec is None:
            continue
        p, e = dec
        if n not in (8,):
            out.append(HomogRecord("AGL1(%d)" % n, n, n * (n - 1), 2, 2, True))
        if n % 4 == 3:
            out.append(HomogRecord("AHL1(%d)" % n, n, n * (n - 1) // 2, 2, 1, True))
        if e > 1 and n not in (8, 32):
            out.append(HomogRecord("AGammaL1(%d)" % n, n, n * (n - 1) * e, 2, 2, True))
    return out


def _construct_by_name(name: str, degree: int) -> PermutationGroup:
    if name.startswith("M") and name[1:].isdigit():
        return mathieu(int(name[1:]))
    if name.startswith("PSL2("):
        return psl2(int(name[5:-1]))
    if name.startswith("PGL2("):
        return pgl2(int(name[5:-1]))
    if name.startswith("PGammaL2("):
        return pgammal2(int(name[9:-1]))
    if name.startswith("PSigmaL2("):
        return psigmal2(int(name[9:-1]))
    if name.startswith("AGL1("):
        n = int(name[5:-1])
        p, e = prime_power_decomposition(n)
        return affine_group(build_field(p, e), "AGL")
    if name.startswith("AHL1("):
        n = int(name[5:-1])
        p, e = prime_power_decomposition(n)
        return affine_group(build_field(p, e), "AHL")
    if name.startswith("AGammaL1("):
        n = int(name[9:-1])
        p, e = prime_power_decomposition(n)
        return affine_group(build_field(p, e), "AGammaL")
    if name == "M10":
        return projective_line_lattice(9)["M10"]
    raise ValueError("no constructor for %r" % name)


# --------------------------------------------------------------------------
# Degree sets and deficiency candidates
# --------------------------------------------------------------------------

def degrees_d_k(k: int, n: int) -> bool:
    """Whether degree n lies in D_k, the set of degrees of groups in H_k.
    Exact for k >= 4; for k in {2, 3} exact for n <= 64."""
    if k >= 6:
        return False
    if k == 5:
        return n in (12, 24)
    if k == 4:
        return n in (9, 11, 12, 23, 24, 33)
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
    cat = homogeneous_catalog(k)
    records = sorted((r for r in cat["records"] if r.degree == n),
                     key=lambda r: r.order)
    if k >= 4:
        complete = True
    else:
        # curated: for n <= 14 every k-homogeneous group of degree n with
        # k in {2, 3} lies in the shipped records (affine line, projective
        # line lattice, Mathieu); powers of 2 from degree 8 up admit
        # further affine groups not shipped here
        complete = n <= 14 and not (k == 3 and n in (8, 16))
    return records, complete


def minimal_stabilizer_order(n: int, k: int):
    """min |G| / C(n,k) over A_n, S_n and the catalog groups of degree n
    that are k-homogeneous.  Returns (value, witness_name) when exact, or
    (None, None) when the catalog at this degree cannot be certified.

    Catalog groups are verified k-homogeneous by orbit counting when
    constructible; the formula k!(n-k)!/2 is the A_n bound.
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
        if rec.constructible:
            group = rec.construct()
            if group.degree != n:
                raise AssertionError("catalog degree mismatch for %s" % rec.name)
            if not group.is_transitive(ActionDomain.ksubsets(n, k)):
                continue
        # non-constructible records are trusted classification data; their
        # orders still bound the minimum correctly
        best, best_name = r, rec.name
    return best, best_name
