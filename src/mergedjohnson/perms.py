"""Finite permutation algebra.

Permutations act on 0-based points {0..n-1}; all rendering for humans is
1-based.  Composition is fixed left-to-right everywhere: x·(p*q) = (x·p)·q.

PermutationGroup carries a deterministic stabilizer chain (base points are
the smallest moved points, level by level), giving exact order and a
membership test.  Chain internals use numpy arrays so that desk-scale
groups (orders up to ~10^7, degrees up to a few thousand) stay fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subsets import all_masks, ksubset_rank, mask_image


class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection on 0..n-1")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles of 0-based points."""
        images = list(range(degree))
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @classmethod
    def from_map(cls, points, fn) -> "Permutation":
        """The action of a point map: point i goes to the index of
        fn(points[i]) in points.  Points are any hashable labels; fn must
        permute them."""
        index_of = {pt: i for i, pt in enumerate(points)}
        return cls(index_of[fn(pt)] for pt in points)

    def extended(self, degree: int) -> "Permutation":
        """The same map on {0..degree-1}, fixing every added point."""
        return Permutation(self.images + tuple(range(self.degree, degree)))

    @classmethod
    def from_one_based(cls, images) -> "Permutation":
        """Parse a 1-based image list, the JSON wire format."""
        return cls(x - 1 for x in images)

    def to_one_based(self) -> list[int]:
        return [x + 1 for x in self.images]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        o = other.images
        return Permutation(o[x] for x in self.images)

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for x, y in enumerate(self.images):
            images[y] = x
        return Permutation(images)

    def act_mask(self, mask: int) -> int:
        """Image of a subset bitmask under this permutation."""
        return mask_image(mask, self.images)

    def is_identity(self) -> bool:
        return all(x == y for x, y in enumerate(self.images))

    def order(self) -> int:
        result = 1
        for cycle in self.cycles():
            result = math.lcm(result, len(cycle))
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, smallest point first."""
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycles = self.cycles()
        if not cycles:
            return "Permutation(id, degree=%d)" % self.degree
        body = "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)
        return "Permutation(%s, degree=%d)" % (body, self.degree)


def compose_arrays(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Left-to-right composite of image arrays: x -> q[p[x]]."""
    return q[p]


def invert_array(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


class _Level:
    __slots__ = ("base", "gens", "transversal", "orbit_order", "done", "cache")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[np.ndarray] = []
        # point -> (parent point, generator index); base maps to itself
        self.transversal: dict[int, tuple[int, int]] = {base: (base, -1)}
        self.orbit_order: list[int] = [base]
        self.done: set[tuple[int, int]] = set()
        self.cache: dict[int, np.ndarray] = {}


class StabilizerChain:
    """Deterministic base / strong generating set for a permutation group."""

    def __init__(self, generators: list[np.ndarray], degree: int):
        self.degree = degree
        self._identity = np.arange(degree)
        self.levels: list[_Level] = []
        nontrivial = [g for g in generators if not np.array_equal(g, self._identity)]
        if nontrivial:
            base = min(int(np.nonzero(g != self._identity)[0][0]) for g in nontrivial)
            self.levels.append(_Level(base))
            for g in nontrivial:
                self.levels[0].gens.append(g)
            self._close(0)

    # -- construction ----------------------------------------------------

    # total cached transversal entries per level, to bound memory
    _CACHE_BUDGET = 16_000_000

    def _transversal_element(self, level: _Level, point: int) -> np.ndarray:
        """Permutation mapping the level's base to the given orbit point."""
        if point == level.base:
            return self._identity
        cached = level.cache.get(point)
        if cached is not None:
            return cached
        # walk up to the nearest cached ancestor, then compose back down
        path = []
        x = point
        while x != level.base and x not in level.cache:
            parent, gi = level.transversal[x]
            path.append((x, gi))
            x = parent
        u = self._identity if x == level.base else level.cache[x]
        may_cache = self.degree * (len(level.cache) + len(path)) < self._CACHE_BUDGET
        for x, gi in reversed(path):
            u = compose_arrays(u, level.gens[gi])
            if may_cache:
                level.cache[x] = u
        return u

    def _orbit_close(self, level: _Level) -> None:
        queue = list(level.orbit_order)
        qi = 0
        while qi < len(queue):
            pt = queue[qi]
            qi += 1
            for gi, g in enumerate(level.gens):
                y = int(g[pt])
                if y not in level.transversal:
                    level.transversal[y] = (pt, gi)
                    level.orbit_order.append(y)
                    queue.append(y)

    def _strip(self, g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            y = int(g[level.base])
            if y == level.base:
                continue
            if y not in level.transversal:
                return g, i
            u = self._transversal_element(level, y)
            g = compose_arrays(g, invert_array(u))
        return g, len(self.levels)

    def _close(self, i: int) -> None:
        level = self.levels[i]
        while True:
            self._orbit_close(level)
            progressed = False
            for pt in list(level.orbit_order):
                u_pt = None
                for gi in range(len(level.gens)):
                    if (pt, gi) in level.done:
                        continue
                    level.done.add((pt, gi))
                    if u_pt is None:
                        u_pt = self._transversal_element(level, pt)
                    g = level.gens[gi]
                    y = int(g[pt])
                    u_y = self._transversal_element(level, y)
                    schreier = compose_arrays(compose_arrays(u_pt, g), invert_array(u_y))
                    residue, j = self._strip(schreier, i + 1)
                    if np.array_equal(residue, self._identity):
                        continue
                    progressed = True
                    if j == len(self.levels):
                        base = int(np.nonzero(residue != self._identity)[0][0])
                        self.levels.append(_Level(base))
                    for l in range(i + 1, j + 1):
                        self.levels[l].gens.append(residue)
                    for l in range(j, i, -1):
                        self._close(l)
            if not progressed:
                return

    # -- queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        result = 1
        for level in self.levels:
            result *= len(level.transversal)
        return result

    def contains_array(self, g: np.ndarray) -> bool:
        residue, j = self._strip(g, 0)
        return j == len(self.levels) and np.array_equal(residue, self._identity)


@dataclass(frozen=True)
class ActionDomain:
    """What a group acts on: natural points, or k-subsets as bitmasks."""

    kind: str  # "points" | "ksubsets"
    size: int
    k: int = 0

    @classmethod
    def points(cls, n: int) -> "ActionDomain":
        return cls("points", n)

    @classmethod
    def ksubsets(cls, n: int, k: int) -> "ActionDomain":
        if not 1 <= k <= n:
            raise ValueError("k out of range")
        return cls("ksubsets", math.comb(n, k), k)

    @property
    def first(self) -> int:
        """The rank-0 label: point 0, or the subset {0..k-1}."""
        return (1 << self.k) - 1 if self.kind == "ksubsets" else 0

    def iter_labels(self, degree: int):
        if self.kind == "points":
            return range(self.size)
        return iter(all_masks(degree, self.k))

    def apply(self, label, perm: Permutation):
        if self.kind == "points":
            return perm(label)
        return perm.act_mask(label)


def _point_image(x: int, images) -> int:
    return images[x]


class PermutationGroup:
    """Group generated by permutations of a common degree.

    The stabilizer chain is built lazily on first use of order/membership.
    """

    def __init__(self, generators, degree: int | None = None):
        generators = list(generators)
        if not generators and degree is None:
            raise ValueError("need generators or an explicit degree")
        if degree is None:
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError("degree mismatch among generators")
        self.degree = degree
        self.generators = generators or [Permutation.identity(degree)]
        self._chain: StabilizerChain | None = None
        self._elements: list[Permutation] | None = None

    # -- chain-backed queries --------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            arrays = [np.array(g.images) for g in self.generators]
            self._chain = StabilizerChain(arrays, self.degree)
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order

    def __contains__(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        return self.chain.contains_array(np.array(perm.images))

    # -- enumeration -----------------------------------------------------

    def elements(self, limit: int | None = None) -> list[Permutation]:
        """All group elements by closure BFS; intended for order <= ~10^5."""
        if self._elements is not None and limit is None:
            return self._elements
        identity = Permutation.identity(self.degree)
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if limit is not None and len(seen) > limit:
                            raise ValueError("closure exceeded limit %d" % limit)
            frontier = nxt
        out = sorted(seen, key=lambda p: p.images)
        if limit is None:
            self._elements = out
        return out

    # -- orbits ----------------------------------------------------------

    def orbit(self, x, domain: ActionDomain | None = None, apply=None):
        """Orbit of x plus a transversal mapping x to each orbit point.

        Returns (orbit_list, transversal) with transversal[y] a Permutation
        carrying x to y and transversal[x] the identity.
        """
        if domain is None:
            domain = ActionDomain.points(self.degree)
        if apply is None:
            apply = domain.apply
        if x not in set(domain.iter_labels(self.degree)):
            raise ValueError("label outside the action domain")
        identity = Permutation.identity(self.degree)
        transversal = {x: identity}
        orbit_list = [x]
        qi = 0
        while qi < len(orbit_list):
            y = orbit_list[qi]
            qi += 1
            for g in self.generators:
                z = apply(y, g)
                if z not in transversal:
                    transversal[z] = transversal[y] * g
                    orbit_list.append(z)
        return orbit_list, transversal

    def _orbit_search(self, x, domain: ActionDomain, seen: set) -> list:
        """Orbit of x by breadth-first search over the generators' image
        tuples, building no transversal.  Adds the orbit to seen."""
        act = mask_image if domain.kind == "ksubsets" else _point_image
        gen_images = [g.images for g in self.generators]
        seen.add(x)
        block = [x]
        for y in block:
            for images in gen_images:
                z = act(y, images)
                if z not in seen:
                    seen.add(z)
                    block.append(z)
        return block

    def orbits(self, domain: ActionDomain | None = None):
        """Partition of the domain into orbits (no transversals)."""
        if domain is None:
            domain = ActionDomain.points(self.degree)
        seen = set()
        parts = []
        for x in domain.iter_labels(self.degree):
            if x not in seen:
                parts.append(self._orbit_search(x, domain, seen))
        return parts

    def is_transitive(self, domain: ActionDomain | None = None) -> bool:
        if domain is None:
            domain = ActionDomain.points(self.degree)
        return len(self._orbit_search(domain.first, domain, set())) == domain.size

    # -- induced subset action -------------------------------------------

    def induced_subset_action(self, k: int) -> "PermutationGroup":
        """Action on k-subsets, as a group of degree C(n, k).

        Vertex numbering follows co-lex subset ranks.
        """
        if not 1 <= k <= self.degree:
            raise ValueError("k out of range")
        masks = all_masks(self.degree, k)
        induced = []
        for g in self.generators:
            images = [ksubset_rank(g.act_mask(m)) for m in masks]
            induced.append(Permutation(images))
        return PermutationGroup(induced, degree=len(masks))

    # -- regularity ------------------------------------------------------

    def regularity_degree(self, domain: ActionDomain | None = None,
                          exhaustive_limit: int = 20000) -> int | None:
        """Common vertex-stabilizer order r if transitive, else None.

        r = |G| / |domain| by orbit-stabilizer.  When the group is small
        enough to enumerate, stabilizer orders are additionally counted
        directly at every domain point.
        """
        if domain is None:
            domain = ActionDomain.points(self.degree)
        orbit_list, _ = self.orbit(domain.first, domain)
        if len(orbit_list) != domain.size:
            return None
        order = self.order
        if order % domain.size != 0:
            raise AssertionError("orbit-stabilizer violation: %d points, order %d"
                                 % (domain.size, order))
        r = order // domain.size
        if order <= exhaustive_limit:
            counts = {x: 0 for x in domain.iter_labels(self.degree)}
            for el in self.elements():
                for x in counts:
                    if domain.apply(x, el) == x:
                        counts[x] += 1
            if any(c != r for c in counts.values()):
                raise AssertionError("non-uniform stabilizer orders found")
        return r

    def stabilizer_order(self, x, domain: ActionDomain | None = None) -> int:
        """Order of the stabilizer of one label, via orbit-stabilizer."""
        if domain is None:
            domain = ActionDomain.points(self.degree)
        orbit_list, _ = self.orbit(x, domain)
        order = self.order
        if order % len(orbit_list) != 0:
            raise AssertionError("orbit-stabilizer violation")
        return order // len(orbit_list)

    def __repr__(self):
        return "PermutationGroup(degree=%d, gens=%d)" % (self.degree, len(self.generators))


def closure(perms, limit: int | None = None) -> list[Permutation]:
    """Multiplicative closure of a set of permutations.

    With a limit, raises ValueError as soon as the closure exceeds it
    (used to prune subgroup searches cheaply).
    """
    perms = list(perms)
    if not perms:
        raise ValueError("empty generating set")
    return PermutationGroup(perms).elements(limit=limit)
