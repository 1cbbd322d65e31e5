"""Brute-force oracles that independently validate classification claims.

Everything here recomputes facts from first principles at small scale:
automorphism groups by pruned enumeration, regular subgroups and the
subgroups of S4 by one complete subgroup search, orbit lemmas by sweeps.
CLAIMS, at the end, is the registry of claims that `mergedjohnson verify
--suite` runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .classify import aut_descriptor, witness_group
from .complement import (build_cocycle_data, complement_vertex_group,
                         frobenius_class_action)
from .fields import is_prime
from .johnson import MergedJohnsonGraph, build_graph
from .nearfields import (EXCEPTIONAL_SPECS, affine_group, build_dickson,
                         exceptional_group)
from .perms import (ActionDomain, Permutation, PermutationGroup, frontier_bfs,
                    is_bijection)


@dataclass(frozen=True)
class OracleReport:
    claim: str
    outcome: str  # confirmed | refuted
    evidence: dict
    elapsed_ms: float

    @property
    def confirmed(self) -> bool:
        return self.outcome == "confirmed"

    def to_json(self) -> str:
        return json.dumps({"claim": self.claim, "outcome": self.outcome,
                           "evidence": self.evidence,
                           "elapsed_ms": round(self.elapsed_ms, 3)},
                          sort_keys=True)


def _report(claim, ok, evidence) -> OracleReport:
    # elapsed_ms is left at 0 for run_suite, which times the whole claim
    return OracleReport(claim, "confirmed" if ok else "refuted", evidence, 0.0)


# --------------------------------------------------------------------------
# Automorphism tests
# --------------------------------------------------------------------------

def _broken_edge(perms, graph: MergedJohnsonGraph):
    """The first edge (u, v), in the order of graph.edges, that one of
    perms, in order, maps to a non-edge, or None when every perm is an
    automorphism.

    Each perm is tested by its sorted neighbour rows (graph._keeps_edges).
    A bijection of the vertices keeps the edges exactly when it keeps the
    non-edges, so when the complement J(n,k)_{[k]∖I} has fewer edges the
    perms are tested on it.  Only the first perm that fails is mapped
    edge by edge over graph, to name its first broken edge.
    """
    size = graph.num_vertices
    for p in perms:
        if p.degree != size:
            raise ValueError("degree %d does not match %d vertices" % (p.degree, size))
    if not graph.materialized:
        raise ValueError("graph is not materialized")
    if not all(is_bijection(p.images) for p in perms):
        raise ValueError("images are not a bijection on 0..%d" % (size - 1))
    tested = graph
    if size - 1 - graph.degree < graph.degree:
        tested = graph.complement
        if tested is None:
            return None
    for p in perms:
        if not tested._keeps_edges(p.images):
            return _first_broken([p], graph)
    return None


def _first_broken(perms, graph: MergedJohnsonGraph):
    """The first edge of graph that one of perms maps to a non-edge."""
    u, v = graph.edge_arrays()
    for p in perms:
        kept = graph._has_edges(p.images[u], p.images[v])
        if not kept.all():
            first = int(np.argmin(kept))
            return (int(u[first]), int(v[first]))
    return None


def is_automorphism(p: Permutation, graph: MergedJohnsonGraph) -> bool:
    return _broken_edge([p], graph) is None


def _action_claim(r: int, n: int, k: int, I) -> str:
    return "r=%d action on J(%d,%d)_%s" % (r, n, k, sorted(I))


def regular_action_check(group: PermutationGroup, graph: MergedJohnsonGraph,
                         r_expected: int) -> OracleReport:
    claim = _action_claim(r_expected, graph.n, graph.k, graph.I)
    broken = _broken_edge(group.generators, graph)
    if broken is not None:
        return _report(claim, False, {"broken_edge": list(broken)})
    r = group.regularity_degree()
    ok = r == r_expected
    return _report(claim, ok, {"regularity_degree": r, "order": group.order})


def sharply_two_transitive_check(group: PermutationGroup) -> OracleReport:
    """The group is sharply 2-transitive iff the orbit of the ordered pair
    of points (0, 1) has size n(n-1) = |G|.

    At degree n = p^2, p prime, both numbers are read off the affine
    structure when the generators show it (see _affine_certificate): no
    pair is visited and no stabilizer chain is built.  Otherwise, or when
    any step of the certificate fails, the orbit comes from a BFS over the
    n^2 ordered pairs and the order from the group's stabilizer chain."""
    n = group.degree
    claim = "sharply 2-transitive on %d points" % n
    certified = _affine_certificate(group.generator_images, n)
    if certified is None:
        order, orbit = group.order, _pair_orbit_bfs(group)
    else:
        order, orbit = certified
    ok = orbit == n * (n - 1) == order
    return _report(claim, ok, {"pair_orbit": orbit, "order": order})


def _pair_orbit_bfs(group: PermutationGroup) -> int:
    """Size of the orbit of the ordered pair (0, 1), by a BFS over the
    pair keys a·n + b, one level at a time."""
    n = group.degree
    # pair keys stay below n*n: int32 up to degree 46340
    dtype = np.int32 if n * n < 2 ** 31 else np.int64
    gens = group.generator_images.astype(dtype, copy=False)

    def step(pairs):
        a, b = np.divmod(pairs, n)
        return (gens[:, a] * n + gens[:, b]).ravel()

    return len(frontier_bfs(0 * n + 1, step, np.zeros(n * n, dtype=bool)))


def _affine_certificate(gens: np.ndarray, n: int) -> tuple[int, int] | None:
    """(|G|, size of the orbit of the point pair (0, 1)) for the group G
    that the rows of gens generate, read off G's affine structure, or None
    when gens do not show it.

    For n = p^2 with p prime, point a·p + b is the vector (a, b) of F_p^2.
    Each generator g must be v -> vM + t, with t = g(0) and the rows of M
    g(e1) - t and g(e2) - t, where e1 = (1, 0) is point p and e2 = (0, 1)
    point 1; this is checked on every point, and det M != 0.  The pure
    translations among the generators must span F_p^2.  Then G contains
    the translations T, G/T is the group L that the linear parts generate,
    and |G| = p^2 |L|.  The pair (0, e2) goes to (t, e2·M + t), so its
    orbit has p^2 |e2^L| pairs.  L is closed by a BFS over 2×2 matrices
    mod p and given up past p^2 - 1 elements, more than a sharply
    2-transitive G has."""
    p = math.isqrt(n)
    if p * p != n or not is_prime(p):
        return None
    vectors = np.stack(np.divmod(np.arange(n), p), axis=-1)  # (n, 2)
    images = vectors[gens]  # (generators, n, 2)
    t = images[:, 0]
    m = (images[:, [p, 1]] - t[:, None]) % p  # rows g(e1) - t, g(e2) - t
    if not np.array_equal((vectors @ m + t[:, None]) % p, images):
        return None
    if ((m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % p == 0).any():
        return None
    # the pure translations span F_p^2 iff two of them have det != 0
    shifts = t[(m == np.eye(2, dtype=m.dtype)).all(axis=(1, 2))]
    cross = np.outer(shifts[:, 0], shifts[:, 1])
    if not ((cross - cross.T) % p).any():
        return None
    mats = set(map(tuple, m.reshape(-1, 4).tolist())) - {(1, 0, 0, 1)}
    linear = _matrix_closure(mats, p, cap=n - 1)
    if linear is None:
        return None
    return n * len(linear), n * len({(c, d) for _, _, c, d in linear})


def _matrix_closure(mats, p: int, cap: int) -> list | None:
    """The group of 2×2 matrices (a, b, c, d) = [[a, b], [c, d]] mod p that
    mats generate, by a BFS from the identity; None past cap elements."""
    group = [(1, 0, 0, 1)]
    seen = set(group)
    for a, b, c, d in group:
        for e, f, g, h in mats:
            prod = ((a * e + b * g) % p, (a * f + b * h) % p,
                    (c * e + d * g) % p, (c * f + d * h) % p)
            if prod not in seen:
                if len(group) == cap:
                    return None
                seen.add(prod)
                group.append(prod)
    return group


# --------------------------------------------------------------------------
# Brute-force automorphism group
# --------------------------------------------------------------------------

def bruteforce_automorphism_group(graph: MergedJohnsonGraph) -> int:
    """|Aut| for graphs with at most 10 vertices, by backtracking with
    degree and common-neighbor pruning."""
    nv = graph.num_vertices
    if nv > 10:
        raise ValueError("brute force capped at 10 vertices")
    nbr = [set(graph.neighbors(u)) for u in range(nv)]
    deg = [len(s) for s in nbr]
    # common-neighbor counts, a cheap label-invariant
    common = [[len(nbr[u] & nbr[v]) for v in range(nv)] for u in range(nv)]

    count = 0
    image = [None] * nv
    used = [False] * nv

    def extend(u):
        nonlocal count
        if u == nv:
            count += 1
            return
        for w in range(nv):
            if used[w] or deg[w] != deg[u]:
                continue
            ok = True
            for v in range(u):
                if (v in nbr[u]) != (image[v] in nbr[w]):
                    ok = False
                    break
                if common[u][v] != common[w][image[v]]:
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                extend(u + 1)
                used[w] = False
                image[u] = None

    extend(0)
    return count


# --------------------------------------------------------------------------
# Regular subgroup search
# --------------------------------------------------------------------------

def subgroups(elements, limit: int | None = None, keep=lambda sub: True):
    """The trivial group, then the subgroups that elements of the list
    generate and keep accepts, each as (its elements as a frozenset, the
    generators it was closed from), layer by layer.  Layer 0 is the trivial
    group, and layer i + 1 is every <gens, g> over the subgroups <gens> of
    layer i and the g in the list, less the ones found before.  A closure
    of more than limit elements is dropped.  Nothing is yielded for an
    empty list.

    The search is complete at every order: a subgroup H generated by list
    elements, with at most limit elements, is reached through a chain
    <g1> < <g1, g2> < ... of list elements of H, and every group in that
    chain is a subgroup of H, so when keep accepts the subgroups of H the
    chain is kept up to H."""
    if not elements:
        return
    trivial = frozenset([Permutation.identity(elements[0].degree)])
    found = {trivial}
    layer = [(trivial, [])]
    yield layer[0]
    while layer:
        grown_layer = []
        for sub, gens in layer:
            for g in elements:
                if g in sub:
                    continue
                try:
                    grown = frozenset(PermutationGroup(gens + [g]).elements(limit))
                except ValueError:
                    continue
                if grown not in found and keep(grown):
                    found.add(grown)
                    grown_layer.append((grown, gens + [g]))
                    yield grown_layer[-1]
        layer = grown_layer


def regular_subgroup_nonexistence(ambient: PermutationGroup,
                                  graph: MergedJohnsonGraph) -> OracleReport:
    """Exhaustive search for a subgroup of order m = |V| acting regularly
    on the vertices, complete at every m.

    A regular subgroup is the identity and m - 1 fixed-point-free elements
    whose orders divide m.  The search closes subgroups from those
    candidates and keeps the ones whose order divides m and whose other
    elements fix no vertex, which every subgroup of a regular subgroup
    does; it stops at the first one of order m.  ValueError unless the
    ambient acts on the vertices and its generators are automorphisms."""
    if _broken_edge(ambient.generators, graph) is not None:
        raise ValueError("the ambient's generators are not automorphisms of the graph")
    m = graph.num_vertices
    claim = "no regular subgroup of order %d in ambient of order %d on " \
            "J(%d,%d)_%s" % (m, ambient.order, graph.n, graph.k, sorted(graph.I))
    if ambient.order > 10 ** 4:
        raise ValueError("ambient too large for exhaustive search")
    if ambient.order % m != 0:
        return _report(claim, True, {"note": "order %d does not divide the "
                                             "ambient order" % m})
    points = np.arange(ambient.degree)
    candidates = [g for g in ambient.elements()
                  if (g.images != points).all() and m % g.order() == 0]

    def semiregular(sub):
        moved = np.array([g.images for g in sub]) != points
        return m % len(sub) == 0 and moved.all(axis=1).sum() == len(sub) - 1

    for sub, gens in subgroups(candidates, limit=m, keep=semiregular):
        if len(sub) == m:
            return _report(claim, False,
                           {"regular_subgroup_generators":
                            [g.to_one_based() for g in gens]})
    return _report(claim, True, {"candidates": len(candidates)})


# --------------------------------------------------------------------------
# Orbit lemmas
# --------------------------------------------------------------------------

def lemma_two_orbit_check(group: PermutationGroup) -> OracleReport:
    """For H of even degree n = 2k: exactly two orbits on k-subsets, both
    r-regular for a common r <= 4."""
    n = group.degree
    claim = "two r-regular orbits on %d-subsets of %d points" % (n // 2, n)
    if n % 2 != 0:
        raise ValueError("degree must be even")
    domain = ActionDomain.ksubsets(n, n // 2)
    parts = list(group._orbit_blocks(domain))
    if len(parts) != 2:
        return _report(claim, False, {"orbit_count": len(parts)})
    # the elements counted by the sweep over the cosets of <g1>, independent
    # of the chain's order; a point's stabilizer has size / |orbit| of them
    size = group._sweep(domain)[0]
    if size != group.order:
        return _report(claim, False, {"order": group.order, "elements": size})
    rs = []
    for part in parts:
        if size % len(part) != 0:
            return _report(claim, False, {"orbit_size": len(part), "order": size})
        rs.append(size // len(part))
    ok = rs[0] == rs[1] and rs[0] <= 4
    return _report(claim, ok, {"orbit_sizes": [len(p) for p in parts],
                               "r": rs[0] if rs[0] == rs[1] else rs})


def lemma_regorbits_exhaustive_n4() -> OracleReport:
    """Sweep all 30 subgroups of S4: exactly the cyclic order-3 subgroups
    have two regular orbits on 2-subsets."""
    claim = "among all subgroups of S4, only C3 has two regular orbits on " \
            "2-subsets"
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    subs = [sub for sub, _ in subgroups(s4.elements())]
    if len(subs) != 30:
        return _report(claim, False, {"subgroup_count": len(subs)})
    domain = ActionDomain.ksubsets(4, 2)
    qualifying = []
    for sub in subs:
        gens = list(sub)
        h = PermutationGroup(gens)
        parts = h.orbits(domain)
        if len(parts) != 2:
            continue
        if all(len(part) == len(sub) for part in parts):
            # both orbits regular
            qualifying.append(sub)
    ok = (len(qualifying) == 4
          and all(len(s) == 3 for s in qualifying))
    return _report(claim, ok, {"subgroup_count": len(subs),
                               "qualifying": len(qualifying),
                               "qualifying_orders":
                               sorted(len(s) for s in qualifying)})


# --------------------------------------------------------------------------
# The claim registry behind `verify --suite fast|full`
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """A registered claim: its tier ("fast", or "full" for claims only the
    full suite makes), its text, and a check that builds what it needs and
    returns the claim's report."""
    tier: str
    text: str
    check: Callable[[], OracleReport]


# Cayley witnesses, regular on the vertices; up to 300 vertices in "fast"
CAYLEY_WITNESSES = (
    ("fast", 7, 2, (1,)), ("fast", 11, 2, (1, 2)), ("fast", 19, 2, (2,)),
    ("fast", 23, 2, (1,)), ("fast", 8, 3, (1,)),
    ("full", 27, 2, (1,)), ("full", 31, 2, (1, 2)), ("full", 32, 3, (1,)),
)
# brute-force |Aut| against the descriptor, on graphs of at most 10 vertices
BRUTEFORCE_AUT = ((4, 2, (1,), 48), (4, 2, (2,), 48), (4, 2, (1, 2), 720),
                  (5, 2, (1,), 120), (5, 2, (2,), 120))


def _cayley_witness(n, k, I) -> OracleReport:
    graph = build_graph(n, k, I)
    return regular_action_check(witness_group(n, k, I, "cayley"), graph, 1)


def _bruteforce_aut(claim, n, k, I, order) -> OracleReport:
    got = bruteforce_automorphism_group(build_graph(n, k, I))
    want = aut_descriptor(n, k, I).order
    return _report(claim, got == order == want,
                   {"bruteforce": got, "descriptor": want})


def _petersen_not_cayley() -> OracleReport:
    s5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    return regular_subgroup_nonexistence(s5.induced_subset_action(2),
                                         build_graph(5, 2, (2,)))


def _dickson343_regular(claim) -> OracleReport:
    ahl = affine_group(build_dickson(7, 3), "AHL")
    r = ahl.regularity_degree(ActionDomain.ksubsets(343, 2))
    return _report(claim, r == 1 and ahl.order == 58653,
                   {"order": ahl.order, "regularity_degree": r})


def _exceptional_sharp(claim, spec) -> OracleReport:
    group = exceptional_group(spec)
    sharp = sharply_two_transitive_check(group)
    ok = sharp.confirmed and group.order == spec.p ** 2 * (spec.p ** 2 - 1)
    return _report(claim, ok, {"order": group.order,
                               "pair_orbit": sharp.evidence["pair_orbit"],
                               "structure": spec.g0_structure})


def _psl28_complements(claim) -> OracleReport:
    """The split complement has two orbits of 126 vertices; the three
    others are 2-regular on J(10,5)_{1,4} and J(10,5)_{2,3}."""
    datas = [build_cocycle_data(label) for label in range(4)]
    groups = [complement_vertex_group(data) for data in datas]
    sigs = [g.orbit_sizes() for g in groups]
    ok = sigs[0] == (126, 126)
    for group, sig in zip(groups[1:], sigs[1:]):
        ok &= group.order == 504 and sig == (252,)
        ok &= group.regularity_degree() == 2
    nonsplit = [x for group in groups[1:] for x in group.generators]
    ok &= all(_broken_edge(nonsplit, build_graph(10, 5, I)) is None
              for I in [(1, 4), (2, 3)])
    frob = {x: frobenius_class_action(datas[x]) for x in range(4)}
    ok &= (frob[0] == 0 and sorted(frob[x] for x in (1, 2, 3)) == [1, 2, 3]
           and all(frob[x] != x for x in (1, 2, 3)))
    signatures = {str(label): list(sig) for label, sig in enumerate(sigs)}
    return _report(claim, ok, {"orbit_signatures": signatures,
                               "frobenius_action": frob})


def _own_report(tier, text, check, *args) -> Claim:
    """A claim whose check makes its report itself, under text."""
    return Claim(tier, text, partial(check, text, *args))


CLAIMS = (
    *(Claim(tier, _action_claim(1, n, k, I), partial(_cayley_witness, n, k, I))
      for tier, n, k, I in CAYLEY_WITNESSES),
    # AGL1 of the order-9 Dickson near-field is sharply 2-transitive
    Claim("fast", _action_claim(2, 9, 2, (1,)), lambda: regular_action_check(
        affine_group(build_dickson(3, 2), "AGL").induced_subset_action(2),
        build_graph(9, 2, (1,)), 2)),
    *(_own_report("fast", "brute-force Aut J(%d,%d)_%s has order %d"
                  % (n, k, sorted(I), order), _bruteforce_aut, n, k, I, order)
      for n, k, I, order in BRUTEFORCE_AUT),
    Claim("fast", "no regular subgroup of order 10 in ambient of order 120 "
          "on J(5,2)_[2]", _petersen_not_cayley),
    Claim("fast", "among all subgroups of S4, only C3 has two regular "
          "orbits on 2-subsets", lemma_regorbits_exhaustive_n4),
    Claim("fast", "two r-regular orbits on 2-subsets of 4 points",
          lambda: lemma_two_orbit_check(
              PermutationGroup([Permutation.from_cycles(4, [(0, 1, 2)])]))),
    _own_report("full", "AHL1 of the order-343 Dickson near-field is regular "
                "on 58653 2-subsets", _dickson343_regular),
    *(_own_report("full", "exceptional near-field p=%d variant %d gives a "
                  "sharply 2-transitive group" % (spec.p, spec.variant),
                  _exceptional_sharp, spec)
      for spec in EXCEPTIONAL_SPECS),
    _own_report("full", "PSL2(8) complement classes: orbit signatures, "
                "2-regularity, Frobenius 3-cycle", _psl28_complements),
)

# the tiers each suite runs, in order
SUITES = {"fast": ("fast",), "full": ("fast", "full")}


def suite_claims(suite: str) -> list:
    """The suite's claims in run order: the fast ones, then for "full" the
    full-only ones."""
    return [c for tier in SUITES[suite] for c in CLAIMS if c.tier == tier]


def run_suite(suite: str):
    """Yield each of the suite's reports, with elapsed_ms over the whole
    check: its witness, graph and group builds included."""
    for claim in suite_claims(suite):
        t0 = time.perf_counter()
        report = claim.check()
        yield replace(report, elapsed_ms=(time.perf_counter() - t0) * 1000.0)
