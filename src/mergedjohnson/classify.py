"""Decision procedures for merged Johnson graphs.

For J = J(n,k)_I this module computes the automorphism group descriptor,
decides whether J is a Cayley graph and whether it has a 2-regular group
of automorphisms, constructs explicit witness groups on the vertex set,
and evaluates the Cayley deficiency d(J), the least vertex-stabilizer
order over all vertex-transitive automorphism groups.

Each theorem is one ordered table, CLAUSES[kind]: a row per case holds
its test, its witness text and the builder of its witness.  Most witnesses
are induced actions on k-subsets.  The cyclic and dihedral ones act on the
vertex ranks as on Z_m, m = C(n, k); for the n = 2k merges a bijection
carries x <-> x + m/2 to complementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb, factorial, lgamma, log

import numpy as np

from . import catalog
from .complement import build_cocycle_data, complement_vertex_group
from .fields import FACTOR_BOUND, build_field, prime_power_decomposition
from .johnson import merge_set
from .nearfields import affine_group
from .perms import Permutation, PermutationGroup, _cycle_lengths, invert_array
from .subsets import RefusedInput, complement_ranks, read_only, require_int


def _check_bounds(n, k, I):
    """(n, k, the merge set), with n and k as Python ints.  The type comes
    first, as for the merge set's members: a float or bool n or k would
    fail later in int-only arithmetic, and a numpy one would end up in the
    verdict."""
    if type(n) is not int or type(k) is not int:
        n, k = int(require_int(n, "n")), int(require_int(k, "k"))
    if not 2 <= k <= n // 2:
        raise RefusedInput("need 2 <= k <= n/2")
    if n > FACTOR_BOUND:  # case 1 tests n for a prime power by trial division
        raise RefusedInput("need n <= 10^12")
    return n, k, merge_set(k, I)


def _is_matched(n: int, k: int, I) -> bool:
    """Whether n = 2k and I is {k} or {1..k-1}, told by size and by k, with
    no set of 1..k built."""
    return 2 * k == n and (len(I) == 1 and k in I or len(I) == k - 1 and k not in I)


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
            raise RefusedInput("the order is too large to size") from None
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
        if _is_matched(n, k, I):
            return 7
        return 6 if ms.i_prime == ms.i_double_prime else 5
    if (n, k) == (12, 4) and I in (frozenset({1, 3}), frozenset({2, 4})):
        return 2
    if 2 * k < n - 1:
        return 1
    # k = (n-1)/2, n odd
    return 4 if frozenset(k + 1 - i for i in I) == I else 3


def _vertex_count(n: int, k: int) -> int:
    """C(n, k), sized by lgamma first: above 10^320 not even the log10 of an
    order built from it fits a float, and the exact C(n, k) would take
    minutes to build (40 s at n = 2*10^6)."""
    if (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10) > 320:
        raise RefusedInput("the order is too large to size")
    return comb(n, k)


def aut_descriptor(n: int, k: int, I) -> AutDescriptor:
    n, k, ms = _check_bounds(n, k, I)
    return _aut_descriptor(n, k, _aut_case(n, k, ms))


def _aut_descriptor(n: int, k: int, case: int) -> AutDescriptor:
    if case == 0:
        m = _vertex_count(n, k)
        return AutDescriptor(0, "Sym(%d)" % m, _power_factorial(0, m, "C(%d,%d)!", n, k))
    if case == 7:
        e = _vertex_count(n, k) // 2
        return AutDescriptor(7, "S2 wr S%d" % e,
                             _power_factorial(e, e, "2^%d*%d!", e, e))
    if case == 6:
        e = _vertex_count(n, k) // 2
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
    n, k, ms = _check_bounds(n, k, I)
    if ms.is_complete:
        return False
    if 4 <= k < (n - 1) / 2:
        return not catalog.degrees_d_k(k, n)
    return 5 < k == (n - 1) / 2 and frozenset(k + 1 - i for i in ms.I) != ms.I


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


def _with_proved_order(group: PermutationGroup) -> PermutationGroup:
    """Record the order of <c> or of <c, f> when c is one m-cycle: m for
    <c>, and 2m when f is an involution with f·c·f = c^-1 and m >= 3.  Then
    every element is c^i or c^i·f, and f is not a power of c, since those
    commute with c and c != c^-1.  Each check is at most log2(m) passes of
    O(m) array work; when one fails, no order is recorded and the
    stabilizer chain gives it."""
    c, *rest = group.generator_images
    m = len(c)
    # c is one m-cycle when the cycle of 0 has length m
    if len(rest) > 1 or _cycle_lengths(c, m)[0] != m:
        return group
    if not rest:
        group._order = m
        return group
    f = rest[0]
    if m >= 3 and np.array_equal(f[f], np.arange(m)) \
            and np.array_equal(f[c[f]], invert_array(c)):
        group._order = 2 * m
    return group


def _affine_witness(kind: str, n: int, k: int) -> PermutationGroup:
    """The affine group of the given kind over GF(n), induced on k-subsets."""
    p, e = prime_power_decomposition(n)
    return affine_group(build_field(p, e), kind).induced_subset_action(k)


def _rank_witness(n: int, k: int, dihedral: bool, matched: bool) -> PermutationGroup:
    """Z_m = <x -> x + 1>, or with dihedral the dihedral group <x -> x + 1,
    x -> -x> of order 2m, on the m = C(n, k) vertex ranks.  When matched
    (n = 2k), its generators are conjugated by the bijection that sends
    x < m/2 to the x-th vertex below its complement, in rank order, and
    x + m/2 to that vertex's complement, so that x <-> x + m/2 is
    complementation.  The certificate of _with_proved_order does not
    change under relabelling: it records the order either way."""
    m = comb(n, k)
    points = np.arange(m)
    rows = np.array([(points + 1) % m, -points % m][:1 + dihedral])
    if matched:
        comp = complement_ranks(n, k)
        low = np.flatnonzero(points < comp)
        to_vertex = np.concatenate([low, comp[low]])
        rows = to_vertex[rows[:, invert_array(to_vertex)]]
    return _with_proved_order(PermutationGroup(Permutation._of_rows(read_only(rows))))


def _psl28_witness(n: int, k: int) -> PermutationGroup:
    """The nonstandard PSL2(8) complement of cocycle class 1 on J(10,5)."""
    return complement_vertex_group(build_cocycle_data(delta_label=1))


# --------------------------------------------------------------------------
# Cayley and 2-regular verdicts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One theorem's answer for J(n,k)_I: on YES the cases of its clause
    table that apply, in order, with their witness texts; on NO the
    reason.  disconnected marks J(2k,k)_{k}, a perfect matching."""
    outcome: bool
    cases: tuple = ()
    reason: str | None = None
    witness_specs: tuple = ()
    disconnected: bool = False

    @property
    def case(self):
        return self.cases[0] if self.cases else None


def _no_reason(case: int) -> str:
    if case == 2:
        return "GO10-no-regular-subgroup"
    if case in (5, 6, 7):
        return "n2k-lemma"
    if case == 4:
        return "n-odd-half-lemma"
    return "aut-is-Sn-no-sharp-group"


TWO_REG_PSL28_MERGES = (frozenset({1, 4}), frozenset({2, 3}),
                        frozenset({1, 4, 5}), frozenset({2, 3, 5}))

_DIHEDRAL = "dihedral group of order 2*C({n},{k}) on cosets of a reflection"

# Each theorem as its cases in order, one row each: (case, applies(n, k, ms),
# spec, build(n, k)).  spec.format(n=n, k=k) is the witness text, and build
# makes the witness on the C(n, k) vertices.  Builders are functions of this
# module, so the library functions they call are looked up when they run.
CLAUSES = {
    "cayley": (
        (1, lambda n, k, ms: k == 2 and n % 4 == 3 and prime_power_decomposition(n) is not None,
         "AHL1 over a Dickson near-field of order {n}", partial(_affine_witness, "AHL")),
        (2, lambda n, k, ms: (n, k) == (8, 3),
         "AGL1(8) induced on 3-subsets", partial(_affine_witness, "AGL")),
        (3, lambda n, k, ms: (n, k) == (32, 3),
         "AGammaL1(32) induced on 3-subsets", partial(_affine_witness, "AGammaL")),
        (4, lambda n, k, ms: ms.is_complete,
         "any group of order C({n},{k}), e.g. cyclic",
         partial(_rank_witness, dihedral=False, matched=False)),
        (5, lambda n, k, ms: _is_matched(n, k, ms.I),
         "any group of order C({n},{k}) on itself, matching paired with complementation",
         partial(_rank_witness, dihedral=False, matched=True)),
    ),
    "two-regular": (
        (1, lambda n, k, ms: k == 2 and prime_power_decomposition(n) is not None,
         "AGL1 over a near-field of order {n}", partial(_affine_witness, "AGL")),
        (2, lambda n, k, ms: (n, k) == (6, 3),
         "AGL1(5) x S2 on the projective line plus complementation",
         lambda n, k: _projective_line6_group()),
        (3, lambda n, k, ms: (n, k) == (10, 5) and ms.I in TWO_REG_PSL28_MERGES,
         "nonstandard PSL2(8) complement", _psl28_witness),
        (4, lambda n, k, ms: _is_matched(n, k, ms.I), _DIHEDRAL,
         partial(_rank_witness, dihedral=True, matched=True)),
        (5, lambda n, k, ms: ms.is_complete, _DIHEDRAL,
         partial(_rank_witness, dihedral=True, matched=False)),
    ),
}


def _clauses(kind: str, n: int, k: int, ms) -> list:
    """The rows of CLAUSES[kind] that apply to J(n,k)_I, in case order."""
    return [row for row in CLAUSES[kind] if row[1](n, k, ms)]


def classify_cayley(n: int, k: int, I) -> Verdict:
    n, k, ms = _check_bounds(n, k, I)
    return _verdict("cayley", n, k, ms, _aut_case(n, k, ms))


def classify_two_regular(n: int, k: int, I) -> Verdict:
    n, k, ms = _check_bounds(n, k, I)
    return _verdict("two-regular", n, k, ms, _aut_case(n, k, ms))


def _verdict(kind: str, n: int, k: int, ms, case: int) -> Verdict:
    """The verdict of CLAUSES[kind] on J(n,k)_I, whose Aut case is case."""
    rows = _clauses(kind, n, k, ms)
    if not rows:
        return Verdict(False, reason=_no_reason(case))
    return Verdict(True, tuple(row[0] for row in rows),
                   witness_specs=tuple(row[2].format(n=n, k=k) for row in rows),
                   disconnected=2 * k == n and ms.I == frozenset({k}))


def witness_group(n: int, k: int, I, kind: str = "cayley",
                  case: int | None = None) -> PermutationGroup:
    """A concrete witness on the C(n,k) vertices: regular (kind='cayley')
    or 2-regular (kind='two-regular'), built by the row of the given case,
    by default the first that applies."""
    n, k, ms = _check_bounds(n, k, I)
    if kind not in CLAUSES:
        raise ValueError("kind must be 'cayley' or 'two-regular'")
    rows = _clauses(kind, n, k, ms)
    if not rows:
        raise ValueError("no %s group exists for (%d, %d, %s)" % (
            "regular" if kind == "cayley" else "2-regular", n, k, sorted(ms.I)))
    for row in rows:
        if case in (None, row[0]):
            return row[3](n, k)
    raise ValueError("case %r does not apply" % case)


# --------------------------------------------------------------------------
# Cayley deficiency
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeficiencyResult:
    exact: int | None = None
    interval: tuple | None = None
    witness: str | None = None

    def as_json_value(self):
        if self.exact is not None:
            return {"exact": self.exact, "witness": self.witness}
        return {"interval": list(self.interval)}


def cayley_deficiency(n: int, k: int, I) -> DeficiencyResult:
    n, k, ms = _check_bounds(n, k, I)
    case = _aut_case(n, k, ms)
    return _deficiency(n, k, case, _verdict("cayley", n, k, ms, case),
                       _verdict("two-regular", n, k, ms, case))


def _deficiency(n, k, case: int, cayley: Verdict, two_reg: Verdict) -> DeficiencyResult:
    if cayley.outcome:
        return DeficiencyResult(exact=1, witness=cayley.witness_specs[0])
    if two_reg.outcome:
        return DeficiencyResult(exact=2, witness=two_reg.witness_specs[0])
    upper = _power_factorial(-1, k, "%d!*%d!/2", k, n - k, m2=n - k)
    if case not in (1, 3):
        # Aut J exceeds S_n; no exact minimum is known here
        return DeficiencyResult(interval=(3, upper))
    # outside D_k only A_n and S_n are k-homogeneous of degree n.  In cases
    # 1 and 3 only_an_sn implies that n is outside D_k, so it needs no test
    if not catalog.degrees_d_k(k, n):
        return DeficiencyResult(exact=upper, witness="A%d" % n)
    value, witness = catalog.minimal_stabilizer_order(n, k)
    if value is None:
        return DeficiencyResult(interval=(3, upper))
    return DeficiencyResult(exact=value, witness=witness)


# --------------------------------------------------------------------------
# Verdict records
# --------------------------------------------------------------------------

def classify_instance(n: int, k: int, I) -> dict:
    n, k, ms = _check_bounds(n, k, I)
    case = _aut_case(n, k, ms)
    desc = _aut_descriptor(n, k, case)
    cayley = _verdict("cayley", n, k, ms, case)
    two_reg = _verdict("two-regular", n, k, ms, case)
    deficiency = _deficiency(n, k, case, cayley, two_reg)
    record = {
        "n": n,
        "k": k,
        "I": sorted(ms.I),
        "aut": {"case": desc.case_id, "structure": desc.structure,
                "order": desc.order},
        "cayley": {"outcome": "YES" if cayley.outcome else "NO"},
        "two_regular": {"outcome": "YES" if two_reg.outcome else "NO"},
        "deficiency": deficiency.as_json_value(),
        "connected": not cayley.disconnected,  # a disconnected J is Cayley case 5
    }
    if cayley.outcome:
        record["cayley"]["case"] = cayley.case
        record["cayley"]["cases"] = list(cayley.cases)
        record["cayley"]["witness"] = cayley.witness_specs[0]
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


def census_instances(n_max: int):
    """Every (n, k, I) with 4 <= n <= n_max, 2 <= k <= n/2 and I a nonempty
    subset of 1..k, grouped by n, k and |I|."""
    for n in range(4, n_max + 1):
        for k in range(2, n // 2 + 1):
            for size in range(1, k + 1):
                for combo in combinations(range(1, k + 1), size):
                    yield n, k, frozenset(combo)
