"""Decision procedures for merged Johnson graphs.

For J = J(n,k)_I this module computes the automorphism group descriptor,
decides whether J is a Cayley graph and whether it has a 2-regular group
of automorphisms, constructs explicit witness groups on the vertex set,
and evaluates the Cayley deficiency d(J), the least vertex-stabilizer
order over all vertex-transitive automorphism groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, factorial, lgamma, log

from . import catalog
from .fields import build_field, prime_power_decomposition
from .johnson import merge_set
from .nearfields import affine_group
from .perms import Permutation, PermutationGroup
from .subsets import complement_ranks


def _check_bounds(n, k, I):
    if not 2 <= k <= n // 2:
        raise ValueError("need 2 <= k <= n/2")
    ms = merge_set(k, I)
    return ms


# --------------------------------------------------------------------------
# Automorphism group descriptor
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AutDescriptor:
    case_id: int
    structure: str
    order: int | dict  # int, or {"formula", "log10"} past ORDER_DIGITS digits


# Python refuses to print an int of more than 4300 digits; larger orders
# are given by formula and never built.
ORDER_DIGITS = 4300
_ORDER_LIMIT = 10 ** ORDER_DIGITS
_ORDER_LIMIT_BITS = _ORDER_LIMIT.bit_length() - 1


def _power_factorial(two_exp: int, m: int, formula: str, *values) -> int | dict:
    """2^two_exp * m!, exact when it has at most ORDER_DIGITS digits, else
    {"formula": formula % values, "log10": ...} sized by lgamma.  The
    formula is formatted only then: this runs several times per query."""
    if two_exp + m * m.bit_length() < _ORDER_LIMIT_BITS:  # m! < 2^(m bitlen(m))
        return factorial(m) << two_exp
    try:
        log10 = (two_exp * log(2) + lgamma(m + 1)) / log(10)
    except OverflowError:
        raise ValueError("the automorphism order is too large to size") from None
    if log10 < ORDER_DIGITS + 1:  # one digit of slack for rounding in lgamma
        order = factorial(m) << two_exp
        if order < _ORDER_LIMIT:
            return order
    return {"formula": formula % values, "log10": round(log10, 3)}


def _orthogonal_minus_order(m: int, q: int) -> int:
    """|GO^-_{2m}(q)| by the standard product formula."""
    order = 2 * q ** (m * (m - 1)) * (q ** m + 1)
    for i in range(1, m):
        order *= q ** (2 * i) - 1
    return order


def aut_descriptor(n: int, k: int, I) -> AutDescriptor:
    ms = _check_bounds(n, k, I)
    I = ms.I
    if ms.is_complete:
        return AutDescriptor(0, "Sym(%d)" % comb(n, k),
                             _power_factorial(0, comb(n, k), "C(%d,%d)!", n, k))
    if 2 * k == n:
        e = comb(n, k) // 2
        special = I in (frozenset({k}), frozenset(range(1, k)))
        if special:
            return AutDescriptor(7, "S2 wr S%d" % e,
                                 _power_factorial(e, e, "2^%d*%d!", e, e))
        if ms.i_prime == ms.i_double_prime:
            return AutDescriptor(6, "S2^%d : S%d" % (e, n),
                                 _power_factorial(e, n, "2^%d*%d!", e, n))
        return AutDescriptor(5, "S2 x S%d" % n, _power_factorial(1, n, "2*%d!", n))
    if (n, k) == (12, 4) and I in (frozenset({1, 3}), frozenset({2, 4})):
        return AutDescriptor(2, "GO-10(2)", _orthogonal_minus_order(5, 2))
    if 2 * k < n - 1:
        return AutDescriptor(1, "S%d" % n, _power_factorial(0, n, "%d!", n))
    # k = (n-1)/2, n odd
    reflected = frozenset(k + 1 - i for i in I)
    if reflected == I:
        return AutDescriptor(4, "S%d" % (n + 1),
                             _power_factorial(0, n + 1, "%d!", n + 1))
    return AutDescriptor(3, "S%d" % n, _power_factorial(0, n, "%d!", n))


def only_an_sn(n: int, k: int, I) -> bool:
    """Whether A_n and S_n are the only vertex-transitive automorphism
    groups of J(n,k)_I."""
    ms = _check_bounds(n, k, I)
    if ms.is_complete:
        return False
    half = (n - 1) / 2
    reflected = frozenset(k + 1 - i for i in ms.I)
    if 5 < k < half:
        return True
    if 5 < k == half and reflected != ms.I:
        return True
    if k == 5 and k < half and n not in (12, 24):
        return True
    if k == 4 and k < half and n not in (9, 11, 12, 23, 24, 33):
        return True
    return False


# --------------------------------------------------------------------------
# Cayley and 2-regular verdicts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CayleyVerdict:
    outcome: bool
    cases: tuple = ()
    reason: str | None = None
    witness_spec: str | None = None
    disconnected: bool = False

    @property
    def case(self):
        return self.cases[0] if self.cases else None


@dataclass(frozen=True)
class TwoRegularVerdict:
    outcome: bool
    cases: tuple = ()
    reason: str | None = None
    witness_specs: tuple = ()


def is_connected_family(n: int, k: int, I) -> bool:
    ms = _check_bounds(n, k, I)
    return not (2 * k == n and ms.I == frozenset({k}))


def _no_reason(n, k, I):
    desc = aut_descriptor(n, k, I)
    if desc.case_id == 2:
        return "GO10-no-regular-subgroup"
    if desc.case_id in (5, 6, 7):
        return "n2k-lemma"
    if desc.case_id == 4:
        return "n-odd-half-lemma"
    return "aut-is-Sn-no-sharp-group"


def classify_cayley(n: int, k: int, I) -> CayleyVerdict:
    ms = _check_bounds(n, k, I)
    I = ms.I
    cases = []
    specs = []
    if k == 2 and n % 4 == 3 and prime_power_decomposition(n) is not None:
        cases.append(1)
        specs.append("AHL1 over a Dickson near-field of order %d" % n)
    if (n, k) == (8, 3):
        cases.append(2)
        specs.append("AGL1(8) induced on 3-subsets")
    if (n, k) == (32, 3):
        cases.append(3)
        specs.append("AGammaL1(32) induced on 3-subsets")
    if ms.is_complete:
        cases.append(4)
        specs.append("any group of order C(%d,%d), e.g. cyclic" % (n, k))
    if 2 * k == n and I in (frozenset({k}), frozenset(range(1, k))):
        cases.append(5)
        specs.append("any group of order C(%d,%d) on itself, matching paired "
                      "with complementation" % (n, k))
    if cases:
        return CayleyVerdict(True, tuple(cases), witness_spec=specs[0],
                             disconnected=not is_connected_family(n, k, I))
    return CayleyVerdict(False, reason=_no_reason(n, k, I))


TWO_REG_PSL28_MERGES = (frozenset({1, 4}), frozenset({2, 3}),
                        frozenset({1, 4, 5}), frozenset({2, 3, 5}))


def classify_two_regular(n: int, k: int, I) -> TwoRegularVerdict:
    ms = _check_bounds(n, k, I)
    I = ms.I
    cases = []
    specs = []
    if k == 2 and prime_power_decomposition(n) is not None:
        cases.append(1)
        specs.append("AGL1 over a near-field of order %d" % n)
    if (n, k) == (6, 3):
        cases.append(2)
        specs.append("AGL1(5) x S2 on the projective line plus complementation")
    if (n, k) == (10, 5) and I in TWO_REG_PSL28_MERGES:
        cases.append(3)
        specs.append("nonstandard PSL2(8) complement")
    if 2 * k == n and I in (frozenset({k}), frozenset(range(1, k))):
        cases.append(4)
        specs.append("dihedral group of order 2*C(%d,%d) on cosets of a "
                      "reflection" % (n, k))
    if ms.is_complete:
        cases.append(5)
        specs.append("dihedral group of order 2*C(%d,%d) on cosets of a "
                      "reflection" % (n, k))
    if cases:
        return TwoRegularVerdict(True, tuple(cases), witness_specs=tuple(specs))
    return TwoRegularVerdict(False, reason=_no_reason(n, k, I))


# --------------------------------------------------------------------------
# Cayley deficiency
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeficiencyResult:
    exact: int | None = None
    interval: tuple | None = None
    witness: str | None = None
    disconnected: bool = False

    def as_json_value(self):
        if self.exact is not None:
            return {"exact": self.exact, "witness": self.witness}
        return {"interval": list(self.interval)}


def cayley_deficiency(n: int, k: int, I) -> DeficiencyResult:
    ms = _check_bounds(n, k, I)
    cayley = classify_cayley(n, k, I)
    if cayley.outcome:
        return DeficiencyResult(exact=1, witness=cayley.witness_spec,
                                disconnected=cayley.disconnected)
    two_reg = classify_two_regular(n, k, I)
    if two_reg.outcome:
        return DeficiencyResult(exact=2, witness=two_reg.witness_specs[0])
    upper = factorial(k) * factorial(n - k) // 2
    desc = aut_descriptor(n, k, I)
    if desc.case_id not in (1, 3):
        # Aut J exceeds S_n; no exact minimum is known here
        return DeficiencyResult(interval=(3, upper))
    if only_an_sn(n, k, I) or not catalog.degrees_d_k(k, n):
        return DeficiencyResult(exact=upper, witness="A%d" % n)
    value, witness = catalog.minimal_stabilizer_order(n, k)
    if value is None:
        return DeficiencyResult(interval=(3, upper))
    return DeficiencyResult(exact=value, witness=witness)


# --------------------------------------------------------------------------
# Witness group constructions
# --------------------------------------------------------------------------

def _induced_on_vertices(group: PermutationGroup, k: int) -> PermutationGroup:
    return group.induced_subset_action(k)


def _projective_line6_group() -> PermutationGroup:
    """AGL1(5) x S2 on 3-subsets of P^1(F_5): points 1..5 are the field
    elements 0..4, point 6 is infinity."""
    agl5 = affine_group(build_field(5, 1), "AGL")
    agl5 = PermutationGroup([g.extended(6) for g in agl5.generators])
    if agl5.order != 20:
        raise AssertionError("AGL1(5) came out with order %d" % agl5.order)
    induced = agl5.induced_subset_action(3)
    flip = Permutation(complement_ranks(6, 3))
    group = PermutationGroup(induced.generators + [flip])
    if group.order != 40:
        raise AssertionError("AGL1(5) x S2 came out with order %d" % group.order)
    return group


def _dihedral_coset_action(m: int) -> tuple:
    """Dihedral group of order 2m acting on the m right cosets of the
    reflection subgroup H = <x -> -x>; returns (group, pairing) where
    pairing maps each coset index to its image under the central rotation
    (m even) or None (m odd)."""
    # elements (eps, c) act as x -> eps*x + c on Z_m; composition left to
    # right: (e1,c1)(e2,c2) = (e1*e2, e2*c1 + c2)
    elements = [(eps, c) for eps in (1, -1) for c in range(m)]
    index_of = {el: i for i, el in enumerate(elements)}

    def mul(a, b):
        return (a[0] * b[0], (b[0] * a[1] + b[1]) % m)

    h = [(1, 0), (-1, 0)]
    coset_of = {}
    cosets = []
    for el in elements:
        members = frozenset(index_of[mul(hh, el)] for hh in h)
        if members not in coset_of:
            coset_of[members] = len(cosets)
            cosets.append(members)
    if len(cosets) != m:
        raise AssertionError("coset count mismatch")

    member_to_coset = {}
    for ci, members in enumerate(cosets):
        for ei in members:
            member_to_coset[ei] = ci

    def coset_perm(g):
        images = [0] * m
        for ci, members in enumerate(cosets):
            ei = next(iter(members))
            images[ci] = member_to_coset[index_of[mul(elements[ei], g)]]
        return Permutation(images)

    group = PermutationGroup([coset_perm((1, 1)), coset_perm((-1, 0))])
    if group.order != 2 * m:
        raise AssertionError("dihedral coset action has order %d" % group.order)
    pairing = None
    if m % 2 == 0:
        z = (1, m // 2)
        pairing = [member_to_coset[index_of[mul(elements[next(iter(cosets[ci]))], z)]]
                   for ci in range(m)]
    return group, pairing


def _relabel_group(group: PermutationGroup, to_vertex: list) -> PermutationGroup:
    """Conjugate a degree-m group by the bijection point -> to_vertex[point]."""
    inv = [0] * len(to_vertex)
    for i, v in enumerate(to_vertex):
        inv[v] = i
    gens = []
    for g in group.generators:
        images = [0] * len(to_vertex)
        for v in range(len(to_vertex)):
            images[v] = to_vertex[g.images[inv[v]]]
        gens.append(Permutation(images))
    return PermutationGroup(gens)


def _matching_bijection(n: int, k: int, pairing: list) -> list:
    """Bijection point -> vertex rank matching the pairing point <-> paired
    point with the pairing vertex <-> complementary vertex."""
    m = comb(n, k)
    comp_rank = complement_ranks(n, k)
    to_vertex = [None] * m
    used = [False] * m
    next_vertex = 0
    for pt in range(m):
        if to_vertex[pt] is not None:
            continue
        while used[next_vertex]:
            next_vertex += 1
        v = next_vertex
        to_vertex[pt] = v
        used[v] = True
        partner = pairing[pt]
        cv = comp_rank[v]
        if to_vertex[partner] is not None or used[cv]:
            raise AssertionError("pairing mismatch while matching cosets")
        to_vertex[partner] = cv
        used[cv] = True
    return to_vertex


def witness_group(n: int, k: int, I, kind: str = "cayley",
                  case: int | None = None) -> PermutationGroup:
    """A concrete witness on the C(n,k) vertices: regular (kind='cayley')
    or 2-regular (kind='two-regular')."""
    ms = _check_bounds(n, k, I)
    if kind == "cayley":
        verdict = classify_cayley(n, k, I)
        if not verdict.outcome:
            raise ValueError("no regular group exists for (%d, %d, %s)"
                             % (n, k, sorted(ms.I)))
        case = case if case is not None else verdict.case
        if case not in verdict.cases:
            raise ValueError("case %r does not apply" % case)
        return _cayley_witness(n, k, case)
    if kind == "two-regular":
        verdict = classify_two_regular(n, k, I)
        if not verdict.outcome:
            raise ValueError("no 2-regular group exists for (%d, %d, %s)"
                             % (n, k, sorted(ms.I)))
        case = case if case is not None else verdict.cases[0]
        if case not in verdict.cases:
            raise ValueError("case %r does not apply" % case)
        return _two_regular_witness(n, k, case)
    raise ValueError("kind must be 'cayley' or 'two-regular'")


def _cayley_witness(n: int, k: int, case: int) -> PermutationGroup:
    m = comb(n, k)
    if case == 1:
        p, e = prime_power_decomposition(n)
        base = affine_group(build_field(p, e), "AHL")
        return _induced_on_vertices(base, k)
    if case == 2:
        return _induced_on_vertices(affine_group(build_field(2, 3), "AGL"), 3)
    if case == 3:
        return _induced_on_vertices(affine_group(build_field(2, 5), "AGammaL"), 3)
    if case == 4:
        # cyclic group acting on itself; any vertex identification works on
        # a complete graph
        return PermutationGroup([Permutation((x + 1) % m for x in range(m))])
    if case == 5:
        # cyclic group on itself, with the unique involution's pairing
        # aligned to complementation
        pairing = [(x + m // 2) % m for x in range(m)]
        to_vertex = _matching_bijection(n, k, pairing)
        cyclic = PermutationGroup([Permutation((x + 1) % m for x in range(m))])
        return _relabel_group(cyclic, to_vertex)
    raise ValueError("unknown case %r" % case)


def _two_regular_witness(n: int, k: int, case: int) -> PermutationGroup:
    m = comb(n, k)
    if case == 1:
        p, e = prime_power_decomposition(n)
        return _induced_on_vertices(affine_group(build_field(p, e), "AGL"), 2)
    if case == 2:
        return _projective_line6_group()
    if case == 3:
        from .complement import build_cocycle_data, complement_vertex_group

        data = build_cocycle_data(delta_label=1)
        return complement_vertex_group(data)
    if case in (4, 5):
        group, pairing = _dihedral_coset_action(m)
        if case == 4:
            to_vertex = _matching_bijection(n, k, pairing)
        else:
            to_vertex = list(range(m))
        return _relabel_group(group, to_vertex)
    raise ValueError("unknown case %r" % case)


# --------------------------------------------------------------------------
# Verdict records
# --------------------------------------------------------------------------

def classify_instance(n: int, k: int, I) -> dict:
    ms = _check_bounds(n, k, I)
    desc = aut_descriptor(n, k, I)
    cayley = classify_cayley(n, k, I)
    two_reg = classify_two_regular(n, k, I)
    deficiency = cayley_deficiency(n, k, I)
    record = {
        "n": n,
        "k": k,
        "I": sorted(ms.I),
        "aut": {"case": desc.case_id, "structure": desc.structure,
                "order": desc.order},
        "cayley": {"outcome": "YES" if cayley.outcome else "NO"},
        "two_regular": {"outcome": "YES" if two_reg.outcome else "NO"},
        "deficiency": deficiency.as_json_value(),
        "connected": is_connected_family(n, k, I),
    }
    if cayley.outcome:
        record["cayley"]["case"] = cayley.case
        record["cayley"]["cases"] = list(cayley.cases)
        record["cayley"]["witness"] = cayley.witness_spec
        if cayley.disconnected:
            record["cayley"]["disconnected_flag"] = "disconnected - not a Cayley graph"
    else:
        record["cayley"]["reason"] = cayley.reason
    if two_reg.outcome:
        record["two_regular"]["cases"] = list(two_reg.cases)
        record["two_regular"]["witnesses"] = list(two_reg.witness_specs)
    else:
        record["two_regular"]["reason"] = two_reg.reason
    return record


def classify_instance_json(n: int, k: int, I) -> str:
    return json.dumps(classify_instance(n, k, I), sort_keys=True)
