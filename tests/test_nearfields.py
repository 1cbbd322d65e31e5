import ast
import copy
import inspect
import time

import numpy as np
import pytest

import field_reference
from mergedjohnson import fields, nearfields
from mergedjohnson.fields import FiniteField, build_field, prime_power_decomposition
from mergedjohnson.nearfields import (EXCEPTIONAL_SPECS, affine_group,
                                      build_dickson, exceptional_group,
                                      exceptional_spec, is_dickson_pair)
from mergedjohnson.verify import sharply_two_transitive_check


def test_dickson_pair_predicate():
    assert is_dickson_pair(3, 2)      # order 9
    assert is_dickson_pair(7, 3)      # order 343
    assert is_dickson_pair(5, 2)
    assert not is_dickson_pair(4, 2)  # 2 does not divide q - 1 = 3
    assert not is_dickson_pair(5, 3)  # 3 does not divide 4
    assert not is_dickson_pair(3, 4)  # 4 must divide q - 1 when 4 | d


def test_dickson_bounds_come_before_the_work():
    t0 = time.perf_counter()
    assert not is_dickson_pair(2, 10 ** 9 + 7)  # a prime d, which 1 = q - 1 misses
    with pytest.raises(ValueError, match="desk bound"):
        build_dickson(3, 10 ** 9)
    assert time.perf_counter() - t0 < 1.0


def test_dickson_pair_refuses_q_above_the_factoring_bound():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="factoring bound"):
        is_dickson_pair(10 ** 14 + 31, 2)
    assert time.perf_counter() - t0 < 0.01


def _dickson_pair_by_trial_division(q, d):
    primes, r, rest = [], 2, d
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    return (all((q - 1) % r == 0 for r in primes)
            and (d % 4 != 0 or (q - 1) % 4 == 0))


def test_dickson_pair_by_gcd_matches_trial_division():
    prime_powers = [q for q in range(2, 300) if prime_power_decomposition(q)]
    mismatches = [(q, d) for q in prime_powers for d in range(1, 600)
                  if is_dickson_pair(q, d) != _dickson_pair_by_trial_division(q, d)]
    assert mismatches == []


def test_one_desk_bound_for_fields_and_near_fields(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored or built %r" % (args,))

    # the bound comes before q is factored and before anything is built
    monkeypatch.setattr(nearfields, "prime_power_decomposition", refuse)
    monkeypatch.setattr(nearfields, "NearField", refuse)
    monkeypatch.setattr(fields, "is_prime", refuse)
    for q, d in [(65521, 1), (4001, 1), (2, 12), (3, 10 ** 9), (10 ** 30 + 1, 1)]:
        with pytest.raises(ValueError, match="desk bound 4000"):
            build_dickson(q, d)
    for p, e in [(65537, 1), (2, 32), (64, 2)]:
        with pytest.raises(ValueError, match="desk bound 4000"):
            FiniteField(p, e)


@pytest.mark.parametrize("q,d,failure", [
    (4, 2, "associativity"), (8, 2, "associativity"),
    (3, 4, "coset residues"), (5, 3, "coset residues"), (2, 3, "coset residues"),
])
def test_a_pair_that_is_not_dickson_fails_the_build(monkeypatch, q, d, failure):
    """With the divisibility test bypassed, the axiom proof refuses the
    tables where d does not divide q^d - 1, and the residue guard refuses
    levels that share m(j) mod d, before they are read."""
    monkeypatch.setattr(nearfields, "is_dickson_pair", lambda q, d: True)
    with pytest.raises(AssertionError, match=failure):
        nearfields.NearField(q, d)


def test_dickson_9_is_a_proper_near_field():
    nf = build_dickson(3, 2)
    assert nf.order == 9
    assert not nf.is_commutative()
    # verify_axioms ran during the build; exercise it explicitly too
    nf.verify_axioms()


def test_dickson_d1_is_the_field():
    nf = build_dickson(9, 1)
    assert nf.order == 9
    assert nf.is_commutative()


def test_dickson_25():
    nf = build_dickson(5, 2)
    assert nf.order == 25
    assert not nf.is_commutative()


def test_affine_group_orders():
    nf7 = build_dickson(7, 1)
    assert affine_group(nf7, "AGL").order == 42
    assert affine_group(nf7, "AHL").order == 21
    nf8 = build_dickson(8, 1)
    assert affine_group(nf8, "AGL").order == 56
    assert affine_group(nf8, "AGammaL").order == 168


def test_affine_group_sharpness():
    agl = affine_group(build_dickson(3, 2), "AGL")
    report = sharply_two_transitive_check(agl)
    assert report.confirmed, report.evidence


def test_exceptional_spec_table():
    assert len(EXCEPTIONAL_SPECS) == 7
    assert exceptional_spec(11, 2).g0_structure != exceptional_spec(11, 1).g0_structure
    with pytest.raises(ValueError):
        exceptional_spec(13)


@pytest.mark.parametrize("p,variant", [(5, 1), (7, 1)])
def test_exceptional_small(p, variant):
    g = exceptional_group(exceptional_spec(p, variant))
    assert g.degree == p * p
    assert g.order == p * p * (p * p - 1)
    assert sharply_two_transitive_check(g).confirmed


@pytest.mark.parametrize("p", [5, 7])
def test_abelian_g0_is_rejected(p):
    """Multiplication by a primitive element ω of GF(p^2) is F_p-linear and
    cyclic of order p^2 - 1: regular on the nonzero vectors, but abelian.
    In the basis (1, ω) its matrix is the companion matrix of ω's minimal
    polynomial x^2 - tr(ω) x + N(ω), with N(ω) = ω^(p+1) and tr(ω) =
    ω + ω^p.  The modulus's own companion matrix will not do: its root has
    order 8 for p = 5 and 4 for p = 7."""
    field = build_field(p, 2)
    norm = int(field.exp[p + 1])
    trace = int((field.digits[field.exp[1]] + field.digits[field.exp[p]])[0] % p)
    singer = (0, 1, -norm % p, trace)
    assert len(nearfields._closure([singer], p, p * p - 1)) == p * p - 1
    with pytest.raises(AssertionError, match="abelian"):
        nearfields._checked_g0([singer], p)


# every polyhedral search the specs with p <= 29 run: 2T under each, 2O for
# 2O and 2OxC11, 2I for 2I and 2IxC7
_SEARCHES = [(5, "2T"), (7, "2T"), (11, "2T"), (23, "2T"), (29, "2T"),
             (7, "2O"), (23, "2O"), (11, "2I"), (29, "2I")]


@pytest.fixture
def fresh_polyhedral_cache():
    nearfields._find_polyhedral.cache_clear()
    yield
    nearfields._find_polyhedral.cache_clear()


@pytest.mark.parametrize("p,tag", _SEARCHES)
def test_the_trace_pre_test_skips_no_candidate_that_succeeds(p, tag):
    """Every candidate of the search whose closure with the core reaches
    the group's order passes the pre-test, and some candidate does."""
    core_tag, element_order, size, orders = nearfields._POLYHEDRAL[tag]
    core_gens = nearfields._find_polyhedral(p, core_tag) if core_tag else ((0, p - 1, 1, 0),)
    core = nearfields._closure(core_gens, p, size)
    allowed = nearfields._allowed_traces(p, orders)
    reached = [s for tr in nearfields._traces_of_order(p, element_order)
               for s in nearfields._elements_with_trace(p, tr)
               if len(nearfields._closure((*core_gens, s), p, size) or ()) == size]
    assert reached
    assert all(nearfields._passes_trace_test(p, core, s, allowed) for s in reached)


@pytest.mark.parametrize("p,tag", _SEARCHES)
def test_the_search_without_the_pre_test_finds_the_same_generators(
        monkeypatch, fresh_polyhedral_cache, p, tag):
    found = nearfields._find_polyhedral(p, tag)
    nearfields._find_polyhedral.cache_clear()
    monkeypatch.setattr(nearfields, "_allowed_traces", lambda p, orders: set(range(p)))
    assert nearfields._find_polyhedral(p, tag) == found


def test_the_g0_search_stays_in_matrices(monkeypatch, fresh_polyhedral_cache):
    """For the six specs with p <= 29 the search, cores and G0's check
    included, closes fewer than 100 groups and builds no permutation of
    the p^2 vectors."""
    closures = []

    def counted(gens, p, cap):
        closures.append(p)
        return closure(gens, p, cap)

    def refuse(*args):
        raise AssertionError("built a permutation in the G0 search")

    closure = nearfields._closure
    monkeypatch.setattr(nearfields, "_closure", counted)
    monkeypatch.setattr(nearfields, "Permutation", refuse)
    for spec in EXCEPTIONAL_SPECS:
        if spec.p <= 29:
            assert len(nearfields.find_multiplicative_group(spec)) == spec.p ** 2 - 1
    assert len(closures) < 100


def test_nearfields_imports_nothing_from_verify():
    """verify.sharply_two_transitive_check is the oracle of the
    exceptional groups, so the construction shares no code with it."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(nearfields))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any("verify" in name.split(".") for name in imported)


def test_half_group_has_index_two():
    nf11 = build_dickson(11, 1)
    agl = affine_group(nf11, "AGL")
    ahl = affine_group(nf11, "AHL")
    assert agl.order == 2 * ahl.order


# Each swap of two table entries breaks one axiom and leaves the axioms that
# verify_axioms checks before it intact (identity, bijection, associativity,
# right distributivity, in that order), so the error must name that axiom.
@pytest.mark.parametrize("q", [3, 5])  # orders 9 and 25
@pytest.mark.parametrize("axiom,table,x,y", [
    ("identity", "mul_table", (2, 1), (3, 1)),         # 2 ∘ 1 = 3
    ("bijection", "mul_table", (2, 2), (2, 3)),        # column 2 repeats 2 ∘ 3
    ("associativity", "mul_table", (2, 2), (3, 2)),    # column 2 still a bijection
    ("distributivity", "add_table", (2, 2), (2, 3)),   # the product is untouched
])
def test_axiom_sweep_catches_a_swapped_entry(q, axiom, table, x, y):
    nf = build_dickson(q, 2)
    broken = getattr(nf, table).copy()
    broken[x], broken[y] = broken[y], broken[x]
    setattr(nf, table, broken)
    with pytest.raises(AssertionError, match=axiom):
        nf.verify_axioms()


def _dickson_pairs(max_order):
    return [(q, d) for q in range(2, max_order + 1) if prime_power_decomposition(q)
            for d in range(1, max_order.bit_length())
            if q ** d <= max_order and is_dickson_pair(q, d)]


@pytest.mark.parametrize("q", [3, 5])  # orders 9 and 25
@pytest.mark.parametrize("cell", [(0, 2), (2, 0)])
def test_axiom_check_catches_a_nonzero_product_with_zero(q, cell):
    """0 ∘ 2 or 2 ∘ 0 set to 2: the identity stage also checks that 0
    absorbs, before any bijection or law is read."""
    nf = build_dickson(q, 2)
    broken = nf.mul_table.copy()
    broken[cell] = 2
    nf.mul_table = broken
    with pytest.raises(AssertionError, match="identity"):
        nf.verify_axioms()


def test_axiom_check_has_no_knob():
    assert list(inspect.signature(nearfields.NearField.verify_axioms).parameters) == ["self"]


def _sweep_finds_a_failure(nf):
    """Brute-force oracle: the near-field axioms on every triple, row by
    row, as (a∘b)∘c == a∘(b∘c) and (a+b)∘c == a∘c + b∘c, after the identity
    and bijection checks.  O(n³); True when some axiom fails."""
    n, add, mul = nf.order, nf.add_table, nf.mul_table
    nonzero = np.arange(1, n)
    if not (np.array_equal(mul[1:, 1], nonzero) and np.array_equal(mul[1, 1:], nonzero)):
        return True
    if (np.sort(mul[1:, 1:], axis=0) != nonzero[:, None]).any():
        return True
    add_flat = add.ravel()
    return any(not np.array_equal(mul[mul[a]], mul[a][mul])
               or not np.array_equal(mul[add[a]], add_flat[mul[a] * n + mul])
               for a in range(n))


def _proof_message(nf):
    """verify_axioms' AssertionError message, or None when it proves nf."""
    try:
        nf.verify_axioms()
    except AssertionError as error:
        return str(error)
    return None


def _corrupt(table, kind, rng):
    """A copy of table with one seeded corruption: two entries swapped, one
    entry overwritten by another point, one row permuted, or the table
    carried over by a transposition φ of two points other than 0 and 1,
    (a, b) ↦ φ(φ(a) · φ(b)), which keeps its own laws but breaks right
    distributivity with the other table."""
    n = len(table)
    broken = table.copy()
    x, y = tuple(rng.integers(0, n, 2)), tuple(rng.integers(0, n, 2))
    if kind == "swap":
        broken[x], broken[y] = table[y], table[x]
    elif kind == "overwrite":
        broken[x] = (table[x] + rng.integers(1, n)) % n
    elif kind == "permute":
        broken[x[0]] = rng.permutation(table[x[0]])
    else:
        u, v = rng.choice(range(2, n), 2, replace=False)
        phi = np.arange(n)
        phi[[u, v]] = v, u
        broken = phi[table[np.ix_(phi, phi)]]
    return broken


def _twist_a_coset(nf, k, m):
    """mul_table with each column R_b, for b in the orbit of c under R_ω:
    b ↦ b∘ω, replaced by R_b σ, where c is the first nonzero point outside
    the orbit of 1 and σ adds m times digit k to digit 0.  σ is additive
    and fixes 0 and 1, so every column is still an additive bijection with
    R_b(1) = b, and R_ω R_b σ = R_(b∘ω) σ keeps associativity at c = ω:
    only a generator beyond ω can see the twist."""
    mul, digits = nf.mul_table, nf.base.digits
    omega = mul[:, nf.base.exp[1]]
    orbit = [1]
    while omega[orbit[-1]] != 1:
        orbit.append(omega[orbit[-1]])
    coset = [next(c for c in range(1, nf.order) if c not in orbit)]
    while omega[coset[-1]] != coset[0]:
        coset.append(omega[coset[-1]])
    sigma = np.arange(nf.order) - digits[:, 0] + (digits[:, 0] + m * digits[:, k]) % nf.base.p
    broken = mul.copy()
    broken[:, coset] = mul[sigma][:, coset]
    return broken


def _broken_tables(nf):
    """(table name, values) for the twisted cosets of <R_ω> in mul_table,
    then 40 seeded corruptions of each kind in either table."""
    rng = np.random.default_rng(nf.order)
    broken_tables = [("mul_table", _twist_a_coset(nf, k, m))
                     for k in range(1, nf.base.e) for m in range(1, nf.base.p)]
    for table in ("mul_table", "add_table"):
        for kind in ("swap", "overwrite", "permute", "relabel"):
            broken_tables += [(table, _corrupt(getattr(nf, table), kind, rng))
                              for _ in range(40)]
    return broken_tables


def _with_table(nf, table, values):
    broken = copy.copy(nf)
    setattr(broken, table, values)
    return broken


_ORDERS_9_TO_121 = [(3, 2), (5, 2), (7, 2), (4, 3), (9, 2), (11, 2)]


@pytest.mark.parametrize("q,d", _ORDERS_9_TO_121)
def test_axiom_proof_agrees_with_the_triple_sweep(q, d):
    """Seeded single corruptions of either table at orders 9 to 121, and
    twisted cosets of <R_ω> in mul_table: the proof from generators fails
    exactly when the O(n³) sweep does."""
    nf = build_dickson(q, d)
    verdicts = []
    for table, values in _broken_tables(nf):
        broken = _with_table(nf, table, values)
        verdicts.append((_sweep_finds_a_failure(broken), _proof_message(broken) is not None))
    assert all(sweep == proof for sweep, proof in verdicts)
    assert sum(sweep for sweep, _ in verdicts) > len(verdicts) // 2


@pytest.mark.parametrize("q,d", [(3, 2), (11, 2)])
def test_a_scaled_addition_distributes_but_is_not_a_group(q, d):
    """a +' b = ω∘(a + b) passes right distributivity on every triple,
    (a +' b)∘c = ω∘(a∘c + b∘c), so the sweep accepts it; 0 is no identity
    for it, and the proof, which checks the additive group, rejects it."""
    nf = build_dickson(q, d)
    scaled = copy.copy(nf)
    scaled.add_table = nf.mul_table[nf.base.exp[1]][nf.add_table]
    assert not _sweep_finds_a_failure(scaled)
    with pytest.raises(AssertionError, match="right distributivity"):
        scaled.verify_axioms()


@pytest.mark.parametrize("q,d", _dickson_pairs(121))
def test_intact_tables_pass_the_proof_and_the_sweep(q, d):
    nf = build_dickson(q, d)   # the build runs verify_axioms
    assert not _sweep_finds_a_failure(nf)


@pytest.mark.parametrize("q,d,step", [(q, d, 1) for q, d in _dickson_pairs(121)]
                         + [(7, 3, 7)])
def test_tables_match_the_scalar_definition(q, d, step):
    """Every step-th row of both tables against the reference arithmetic of
    the base field (field_reference), with discrete logs taken by walking
    the powers of omega: a + b, and g ∘ h = g^(q^j) · h with j the level of
    the coset of d-th powers holding h, that is log h ≡ m(j) mod d."""
    nf = build_dickson(q, d)
    base, n, digits = nf.base, nf.order, nf.base.digits
    powers = field_reference.powers(base, field_reference.omega(base))
    log = {x: k for k, x in enumerate(powers)}
    level = {(q ** j - 1) // (q - 1) % d: j for j in range(d)}
    twists = [1] + [q ** level[log[h] % d] for h in range(1, n)]
    for g in range(0, n, step):
        assert np.array_equal(digits[nf.add_table[g]], (digits[g] + digits) % base.p)
        lifted = [0 if g == 0 else powers[log[g] * twist % (n - 1)] for twist in twists]
        want = field_reference.multiply(base, digits[lifted], digits)
        assert np.array_equal(digits[nf.mul_table[g]], want)


# -- the proof in row blocks -------------------------------------------------

@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("q,d", _dickson_pairs(121))
def test_row_blocks_of_one_and_two_rows_prove_every_near_field(monkeypatch, rows, q, d):
    monkeypatch.setattr(nearfields, "_AXIOM_BLOCK_ENTRIES", rows * q ** d)
    assert _proof_message(build_dickson(q, d)) is None


@pytest.mark.parametrize("q,d", _ORDERS_9_TO_121)
def test_row_blocks_keep_every_failure_message(monkeypatch, q, d):
    """Every corrupted table that the tests above use, proved in one block
    of the whole table and in blocks of one and of two rows (columns, for
    the bijection sort): each fails with the same message, so no law is
    skipped or misnamed at a block edge."""
    nf = build_dickson(q, d)
    n = nf.order
    broken = [_with_table(nf, table, values) for table, values in _broken_tables(nf)]
    for x, y in [((2, 1), (3, 1)), ((2, 2), (2, 3)), ((2, 2), (3, 2))]:
        swapped = nf.mul_table.copy()
        swapped[x], swapped[y] = swapped[y], swapped[x]
        broken.append(_with_table(nf, "mul_table", swapped))
    swapped = nf.add_table.copy()
    swapped[2, 2], swapped[2, 3] = swapped[2, 3], swapped[2, 2]
    broken.append(_with_table(nf, "add_table", swapped))
    for cell in [(0, 2), (2, 0)]:
        absorbing = nf.mul_table.copy()
        absorbing[cell] = 2
        broken.append(_with_table(nf, "mul_table", absorbing))
    broken.append(_with_table(nf, "add_table", nf.mul_table[nf.base.exp[1]][nf.add_table]))
    messages = {}
    for rows in (n, 1, 2):
        monkeypatch.setattr(nearfields, "_AXIOM_BLOCK_ENTRIES", rows * n)
        messages[rows] = [_proof_message(b) for b in broken]
    assert messages[1] == messages[n] and messages[2] == messages[n]
    assert sum(m is not None for m in messages[n]) > len(broken) // 2


@pytest.mark.parametrize("q,d,failure", [(4, 2, "associativity"), (8, 2, "associativity")])
@pytest.mark.parametrize("rows", [1, 2])
def test_row_blocks_refuse_a_pair_that_is_not_dickson(monkeypatch, q, d, failure, rows):
    monkeypatch.setattr(nearfields, "is_dickson_pair", lambda q, d: True)
    monkeypatch.setattr(nearfields, "_AXIOM_BLOCK_ENTRIES", rows * q ** d)
    with pytest.raises(AssertionError, match=failure):
        nearfields.NearField(q, d)
