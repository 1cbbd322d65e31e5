"""Decision procedures for merged Johnson graphs.

For J = J(n,k)_I this module computes the automorphism group descriptor,
decides whether J is a Cayley graph and whether it has a 2-regular group
of automorphisms, constructs explicit witness groups on the vertex set,
and evaluates the Cayley deficiency d(J), the least vertex-stabilizer
order over all vertex-transitive automorphism groups.

Most witnesses are induced actions on k-subsets.  For n = 2k the cyclic
and dihedral ones act on Z_m, m = C(n, k), and one index array relabels
Z_m onto the vertices so that x <-> x + m/2 is complementation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, lgamma, log

import numpy as np

from . import catalog
from .fields import build_field, prime_power_decomposition
from .johnson import merge_set
from .nearfields import affine_group
from .perms import Permutation, PermutationGroup, invert_array
from .subsets import complement_ranks, read_only


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


def _power_factorial(two_exp: int, m: int, formula: str, *values,
                     m2: int = 0) -> int | dict:
    """2^two_exp * m! * m2! (two_exp = -1 halves m!, for m >= 2), exact
    when it has at most ORDER_DIGITS digits, else {"formula": formula %
    values, "log10": ...} sized by lgamma.  This runs several times per
    query: the formula is formatted only then, and without m2 no second
    factorial is taken."""
    bits = two_exp + m * m.bit_length()  # m! < 2^(m bitlen(m))
    if m2:
        bits += m2 * m2.bit_length()
    if bits >= _ORDER_LIMIT_BITS:
        try:
            log10 = (two_exp * log(2) + lgamma(m + 1) + lgamma(m2 + 1)) / log(10)
        except OverflowError:
            raise ValueError("the order is too large to size") from None
        if log10 >= ORDER_DIGITS + 1:  # one digit of slack for rounding in lgamma
            return {"formula": formula % values, "log10": round(log10, 3)}
    order = factorial(m) << two_exp if two_exp >= 0 else factorial(m) >> -two_exp
    if m2:
        order *= factorial(m2)
    if order < _ORDER_LIMIT:  # always so below the bit bound
        return order
    return {"formula": formula % values, "log10": round(log10, 3)}


def _orthogonal_minus_order(m: int, q: int) -> int:
    """|GO^-_{2m}(q)| by the standard product formula."""
    order = 2 * q ** (m * (m - 1)) * (q ** m + 1)
    for i in range(1, m):
        order *= q ** (2 * i) - 1
    return order


def _aut_case(n: int, k: int, ms) -> int:
    """The automorphism case of J(n,k)_I, the case_id of its descriptor,
    without building the order."""
    I = ms.I
    if ms.is_complete:
        return 0
    if 2 * k == n:
        if I in (frozenset({k}), frozenset(range(1, k))):
            return 7
        return 6 if ms.i_prime == ms.i_double_prime else 5
    if (n, k) == (12, 4) and I in (frozenset({1, 3}), frozenset({2, 4})):
        return 2
    if 2 * k < n - 1:
        return 1
    # k = (n-1)/2, n odd
    return 4 if frozenset(k + 1 - i for i in I) == I else 3


def aut_descriptor(n: int, k: int, I) -> AutDescriptor:
    case = _aut_case(n, k, _check_bounds(n, k, I))
    if case == 0:
        return AutDescriptor(0, "Sym(%d)" % comb(n, k),
                             _power_factorial(0, comb(n, k), "C(%d,%d)!", n, k))
    if case == 7:
        e = comb(n, k) // 2
        return AutDescriptor(7, "S2 wr S%d" % e,
                             _power_factorial(e, e, "2^%d*%d!", e, e))
    if case == 6:
        e = comb(n, k) // 2
        return AutDescriptor(6, "S2^%d : S%d" % (e, n),
                             _power_factorial(e, n, "2^%d*%d!", e, n))
    if case == 5:
        return AutDescriptor(5, "S2 x S%d" % n, _power_factorial(1, n, "2*%d!", n))
    if case == 2:
        return AutDescriptor(2, "GO-10(2)", _orthogonal_minus_order(5, 2))
    m = n + 1 if case == 4 else n
    return AutDescriptor(case, "S%d" % m, _power_factorial(0, m, "%d!", m))


def only_an_sn(n: int, k: int, I) -> bool:
    """Whether A_n and S_n are the only vertex-transitive automorphism
    groups of J(n,k)_I."""
    ms = _check_bounds(n, k, I)
    if ms.is_complete:
        return False
    if 4 <= k < (n - 1) / 2:
        return not catalog.degrees_d_k(k, n)
    return 5 < k == (n - 1) / 2 and frozenset(k + 1 - i for i in ms.I) != ms.I


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


def _no_reason(n, k, ms):
    case = _aut_case(n, k, ms)
    if case == 2:
        return "GO10-no-regular-subgroup"
    if case in (5, 6, 7):
        return "n2k-lemma"
    if case == 4:
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
    return CayleyVerdict(False, reason=_no_reason(n, k, ms))


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
    return TwoRegularVerdict(False, reason=_no_reason(n, k, ms))


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
    return _deficiency(n, k, _check_bounds(n, k, I), classify_cayley(n, k, I),
                       classify_two_regular(n, k, I))


def _deficiency(n, k, ms, cayley: CayleyVerdict,
                two_reg: TwoRegularVerdict) -> DeficiencyResult:
    if cayley.outcome:
        return DeficiencyResult(exact=1, witness=cayley.witness_spec,
                                disconnected=cayley.disconnected)
    if two_reg.outcome:
        return DeficiencyResult(exact=2, witness=two_reg.witness_specs[0])
    upper = _power_factorial(-1, k, "%d!*%d!/2", k, n - k, m2=n - k)
    if _aut_case(n, k, ms) not in (1, 3):
        # Aut J exceeds S_n; no exact minimum is known here
        return DeficiencyResult(interval=(3, upper))
    if only_an_sn(n, k, ms.I) or not catalog.degrees_d_k(k, n):
        return DeficiencyResult(exact=upper, witness="A%d" % n)
    value, witness = catalog.minimal_stabilizer_order(n, k)
    if value is None:
        return DeficiencyResult(interval=(3, upper))
    return DeficiencyResult(exact=value, witness=witness)


# --------------------------------------------------------------------------
# Witness group constructions
# --------------------------------------------------------------------------

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


def _dihedral_coset_action(m: int) -> PermutationGroup:
    """Dihedral group of order 2m, the maps x -> eps*x + c on Z_m, on the m
    right cosets of H = <x -> -x>: the coset H(eps, c) is numbered c, so
    x -> x + 1 and x -> -x act on coset numbers as on Z_m."""
    points = np.arange(m)
    return _with_proved_order(PermutationGroup([Permutation((points + 1) % m),
                                                Permutation(-points % m)]))


def _is_one_cycle(c: np.ndarray) -> bool:
    """Whether c moves every point along one cycle, by one walk from 0."""
    images = c.tolist()
    x, length = images[0], 1
    while x != 0 and length < len(images):
        x, length = images[x], length + 1
    return x == 0 and length == len(images)


def _with_proved_order(group: PermutationGroup) -> PermutationGroup:
    """Record the order of <c> or of <c, f> when c is one m-cycle: m for
    <c>, and 2m when f is an involution with f·c·f = c^-1 and m >= 3.  Then
    every element is c^i or c^i·f, and f is not a power of c, since those
    commute with c and c != c^-1.  Each check is O(m); when one fails, no
    order is recorded and the stabilizer chain gives it."""
    c, *rest = group.generator_images
    m = len(c)
    if len(rest) > 1 or not _is_one_cycle(c):
        return group
    if not rest:
        group._order = m
        return group
    f = rest[0]
    if m >= 3 and np.array_equal(f[f], np.arange(m)) \
            and np.array_equal(f[c[f]], invert_array(c)):
        group._order = 2 * m
    return group


def _relabel_group(group: PermutationGroup, to_vertex: np.ndarray) -> PermutationGroup:
    """Conjugate a degree-m group by the bijection point -> to_vertex[point].
    A conjugate has the same order, so a recorded order is carried over."""
    to_vertex = Permutation(to_vertex).images  # ValueError unless a bijection
    images = to_vertex[group.generator_images[:, invert_array(to_vertex)]]
    relabelled = PermutationGroup(Permutation._of_rows(read_only(images)))
    relabelled._order = group._order
    return relabelled


def _matching_bijection(n: int, k: int) -> np.ndarray:
    """Bijection point -> vertex rank for n = 2k taking x <-> x + m/2 to
    complementation: x < m/2 goes to the x-th vertex below its complement,
    in rank order, and x + m/2 to that vertex's complement."""
    comp = np.array(complement_ranks(n, k))
    low = np.flatnonzero(np.arange(len(comp)) < comp)
    return np.concatenate([low, comp[low]])


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
        return affine_group(build_field(p, e), "AHL").induced_subset_action(k)
    if case == 2:
        return affine_group(build_field(2, 3), "AGL").induced_subset_action(3)
    if case == 3:
        return affine_group(build_field(2, 5), "AGammaL").induced_subset_action(3)
    if case in (4, 5):
        # the cyclic group on itself: any vertex identification works on
        # case 4's complete graph, and case 5 aligns its involution's
        # pairing x <-> x + m/2 with complementation
        cycle = Permutation((np.arange(m) + 1) % m)
        cyclic = _with_proved_order(PermutationGroup([cycle]))
        return cyclic if case == 4 else _relabel_group(cyclic, _matching_bijection(n, k))
    raise ValueError("unknown case %r" % case)


def _two_regular_witness(n: int, k: int, case: int) -> PermutationGroup:
    m = comb(n, k)
    if case == 1:
        p, e = prime_power_decomposition(n)
        return affine_group(build_field(p, e), "AGL").induced_subset_action(2)
    if case == 2:
        return _projective_line6_group()
    if case == 3:
        from .complement import build_cocycle_data, complement_vertex_group

        data = build_cocycle_data(delta_label=1)
        return complement_vertex_group(data)
    if case in (4, 5):
        group = _dihedral_coset_action(m)
        if case == 4:
            group = _relabel_group(group, _matching_bijection(n, k))
        # the certificate in _dihedral_coset_action recorded the order; were
        # it to fail, the stabilizer chain would give it
        if group.order != 2 * m:
            raise AssertionError("dihedral coset action has order %d" % group.order)
        return group
    raise ValueError("unknown case %r" % case)


# --------------------------------------------------------------------------
# Verdict records
# --------------------------------------------------------------------------

def classify_instance(n: int, k: int, I) -> dict:
    ms = _check_bounds(n, k, I)
    desc = aut_descriptor(n, k, I)
    cayley = classify_cayley(n, k, I)
    two_reg = classify_two_regular(n, k, I)
    deficiency = _deficiency(n, k, ms, cayley, two_reg)
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


def census_instances(n_max: int):
    """Every (n, k, I) with 4 <= n <= n_max, 2 <= k <= n/2 and I a nonempty
    subset of 1..k, grouped by n, k and |I|."""
    for n in range(4, n_max + 1):
        for k in range(2, n // 2 + 1):
            for size in range(1, k + 1):
                for combo in combinations(range(1, k + 1), size):
                    yield n, k, frozenset(combo)
