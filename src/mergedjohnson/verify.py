"""Brute-force oracles that independently validate classification claims.

Everything here recomputes facts from first principles at small scale:
automorphism groups by pruned enumeration, regular subgroups by closure
search, orbit lemmas by exhaustive subgroup sweeps.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .johnson import MergedJohnsonGraph
from .perms import ActionDomain, Permutation, PermutationGroup


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


def _report(claim, ok, evidence, t0) -> OracleReport:
    return OracleReport(claim, "confirmed" if ok else "refuted", evidence,
                        (time.perf_counter() - t0) * 1000.0)


# --------------------------------------------------------------------------
# Automorphism tests
# --------------------------------------------------------------------------

def _broken_edge(perms, graph: MergedJohnsonGraph):
    """The first edge (u, v) that one of perms, in order, maps to a
    non-edge, or None when every perm is an automorphism."""
    for p in perms:
        if p.degree != graph.num_vertices:
            raise ValueError("degree %d does not match %d vertices"
                             % (p.degree, graph.num_vertices))
    edges = {(u, v) for u, v in graph.edges} | {(v, u) for u, v in graph.edges}
    for p in perms:
        for u, v in graph.edges:
            if (p.images[u], p.images[v]) not in edges:
                return (u, v)
    return None


def is_automorphism(p: Permutation, graph: MergedJohnsonGraph) -> bool:
    return _broken_edge([p], graph) is None


def regular_action_check(group: PermutationGroup, graph: MergedJohnsonGraph,
                         r_expected: int) -> OracleReport:
    t0 = time.perf_counter()
    claim = "r=%d action on J(%d,%d)_%s" % (r_expected, graph.n, graph.k,
                                            sorted(graph.I))
    broken = _broken_edge(group.generators, graph)
    if broken is not None:
        return _report(claim, False, {"broken_edge": list(broken)}, t0)
    r = group.regularity_degree()
    ok = r == r_expected
    return _report(claim, ok, {"regularity_degree": r, "order": group.order}, t0)


def sharply_two_transitive_check(group: PermutationGroup) -> OracleReport:
    """Orbit of one ordered pair, computed independently of the stabilizer
    chain.  The group is sharply 2-transitive iff that orbit has size
    n(n-1) = |G|."""
    t0 = time.perf_counter()
    n = group.degree
    claim = "sharply 2-transitive on %d points" % n
    gens = [np.array(g.images, dtype=np.int64) for g in group.generators]
    seen = np.zeros(n * n, dtype=bool)
    frontier = np.array([0 * n + 1], dtype=np.int64)
    seen[frontier] = True
    while frontier.size:
        a, b = frontier // n, frontier % n
        nxt = np.unique(np.concatenate([g[a] * n + g[b] for g in gens]))
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    orbit = int(seen.sum())
    ok = orbit == n * (n - 1) == group.order
    return _report(claim, ok, {"pair_orbit": orbit, "order": group.order}, t0)


# --------------------------------------------------------------------------
# Brute-force automorphism group
# --------------------------------------------------------------------------

def bruteforce_automorphism_group(graph: MergedJohnsonGraph) -> int:
    """|Aut| for graphs with at most 10 vertices, by backtracking with
    degree and common-neighbor pruning."""
    nv = graph.num_vertices
    if nv > 10:
        raise ValueError("brute force capped at 10 vertices")
    nbr = [set(row) for row in graph.adjacency]
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

def regular_subgroup_nonexistence(ambient: PermutationGroup,
                                  graph: MergedJohnsonGraph) -> OracleReport:
    """Exhaustive search for a subgroup of order |V| acting regularly on
    the vertices, over subgroups generated by up to 3 elements.  Complete
    whenever every group of order |V| is 3-generated, which covers every
    order this suite exercises."""
    t0 = time.perf_counter()
    m = graph.num_vertices
    claim = "no regular subgroup of order %d in ambient of order %d on " \
            "J(%d,%d)_%s" % (m, ambient.order, graph.n, graph.k, sorted(graph.I))
    if ambient.order > 10 ** 4:
        raise ValueError("ambient too large for exhaustive search")
    if ambient.order % m != 0:
        return _report(claim, True, {"note": "order %d does not divide the "
                                             "ambient order" % m}, t0)
    elements = ambient.elements()
    identity = Permutation.identity(ambient.degree)
    # a regular subgroup consists of fixed-point-free elements plus the
    # identity, with element orders dividing |V|
    candidates = [g for g in elements
                  if g != identity
                  and all(g.images[x] != x for x in range(g.degree))
                  and m % g.order() == 0]

    def close(gens):
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    if y not in seen:
                        if len(seen) >= m:
                            return None
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def is_regular_subgroup(sub):
        if len(sub) != m:
            return False
        return all(g == identity or all(g.images[x] != x for x in range(g.degree))
                   for g in sub)

    def search(gens, generated, start):
        if len(generated) == m and is_regular_subgroup(generated):
            return gens
        if len(gens) == 3:
            return None
        for i in range(start, len(candidates)):
            g = candidates[i]
            if g in generated:
                continue  # canonical pruning: skip redundant generators
            grown = close(gens + [g])
            if grown is None or m % len(grown) != 0:
                continue
            found = search(gens + [g], grown, i + 1)
            if found is not None:
                return found
        return None

    witness = search([], {identity}, 0)
    if witness is None:
        return _report(claim, True, {"candidates": len(candidates)}, t0)
    return _report(claim, False,
                   {"regular_subgroup_generators":
                    [g.to_one_based() for g in witness]}, t0)


# --------------------------------------------------------------------------
# Orbit lemmas
# --------------------------------------------------------------------------

def lemma_two_orbit_check(group: PermutationGroup, r_max: int = 4) -> OracleReport:
    """For H of even degree n = 2k: exactly two orbits on k-subsets, both
    r-regular for a common r <= r_max."""
    t0 = time.perf_counter()
    n = group.degree
    claim = "two r-regular orbits on %d-subsets of %d points" % (n // 2, n)
    if n % 2 != 0:
        raise ValueError("degree must be even")
    k = n // 2
    domain = ActionDomain.ksubsets(n, k)
    parts = group.orbits(domain)
    if len(parts) != 2:
        return _report(claim, False, {"orbit_count": len(parts)}, t0)
    rs = []
    for part in parts:
        if group.order % len(part) != 0:
            return _report(claim, False, {"orbit_size": len(part),
                                          "order": group.order}, t0)
        r = group.order // len(part)
        stab_orders = {len([g for g in group.elements()
                            if domain.apply(x, g) == x]) for x in part}
        if stab_orders != {r}:
            return _report(claim, False, {"nonuniform": sorted(stab_orders)}, t0)
        rs.append(r)
    ok = rs[0] == rs[1] and rs[0] <= r_max
    return _report(claim, ok, {"orbit_sizes": [len(p) for p in parts],
                               "r": rs[0] if rs[0] == rs[1] else rs}, t0)


def all_subgroups(group: PermutationGroup) -> list:
    """Every subgroup, as frozensets of elements (small groups only)."""
    elements = group.elements()
    identity = Permutation.identity(group.degree)
    trivial = frozenset({identity})

    def close(seed):
        seen = set(seed)
        frontier = list(seed)
        while frontier:
            nxt = []
            for x in frontier:
                for g in seed | seen:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in elements:
                if g in sub:
                    continue
                grown = close(set(sub) | {g})
                if grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(p.images for p in s)))


def lemma_regorbits_exhaustive_n4() -> OracleReport:
    """Sweep all 30 subgroups of S4: exactly the cyclic order-3 subgroups
    have two regular orbits on 2-subsets."""
    t0 = time.perf_counter()
    claim = "among all subgroups of S4, only C3 has two regular orbits on " \
            "2-subsets"
    s4 = PermutationGroup([Permutation.from_cycles(4, [(0, 1)]),
                           Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    subs = all_subgroups(s4)
    if len(subs) != 30:
        return _report(claim, False, {"subgroup_count": len(subs)}, t0)
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
                               sorted(len(s) for s in qualifying)}, t0)
