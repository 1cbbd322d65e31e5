"""Finite permutation algebra.

Permutations act on 0-based points {0..n-1}; all rendering for humans is
1-based.  Composition is fixed left-to-right everywhere: x·(p*q) = (x·p)·q.

A Permutation is its read-only np.intp array of point images, and a
PermutationGroup stacks its generators' images into one array, so the
stabilizer chain, membership, orbits, the closure and the stabilizer sweep
all index arrays with no other representation.  Scalar reads give Python
ints through .tolist(); the hash is hash(tuple(images)).  The chain has
deterministic base points (the smallest moved ones, level by level), and
gives the exact order; a Schreier generator along a transversal tree edge
is 1 and is not sifted.  Each level caches u⁻¹, for u the transversal
element taking its base to an orbit point, built down the Schreier tree with
inverse generators, so a sift is one gather a level (Seress, Permutation
Group Algorithms, 2003, §4.4).  Past the cache budget a level caches one
class of tree depths mod a stride, at most |orbit| / stride arrays, and a
lookup walks fewer than stride edges from a cached point.  A level gains
points and generators only between the closes run on it, so the pairs of
orbit point and generator it has formed Schreier generators for are its
first done_points points times its first done_gens generators: a close
extends the tree from there and forms only the other pairs, in the order
a full re-walk and pass would.  The chain, every pinned one included, is
thus the one a set of formed pairs and that re-walk build.  elements() and
the stabilizer sweep both walk the cosets x∘⟨g1⟩ of g1, the first
generator of largest order, one canonical row each, by a breadth-first
search over the generators: elements() expands each row into its coset,
and the sweep lists no group but counts |g1| elements a row and maps the
domain's index 0 by each row.  The walk shares nothing with the chain, so
the sweep is an independent check of the chain's order, or of an order a
construction recorded.

A group acts on points, k-subsets (by co-lex rank) or any indexed set
through one index table, row i holding generator i's images of the indices:
frontier_bfs walks it for orbits, transversal_bfs for one with a transversal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .subsets import RefusedInput, ksubsets, read_only, require_int

# order x degree of the largest group the stabilizer sweep counts: J(32,3)'s
# AGammaL1(32) has 4960 x 4960.  The sweep holds one int32 row per coset of
# <g1>, at most 1 / |g1| of this, and forms products at most an eighth of
# it at a time
_SWEEP_ENTRIES = 1 << 25


class Permutation:
    """A bijection of {0..n-1}: images[x] is the image of x."""

    __slots__ = ("images",)

    def __init__(self, images):
        if not isinstance(images, np.ndarray):
            images = list(images)
        images = np.asarray(images)
        # an empty list reads as float64; any other non-integer image would
        # be truncated by the cast
        if images.size and images.dtype.kind not in "iu":
            raise ValueError("images are not integers")
        images = images.astype(np.intp)
        if not (images.ndim == 1 and is_bijection(images)):
            raise ValueError("images are not a bijection on 0..n-1")
        self.images = read_only(images)

    @classmethod
    def _of(cls, images: np.ndarray) -> "Permutation":
        """Wrap an intp array known to be a bijection, unchecked and uncopied."""
        perm = object.__new__(cls)
        perm.images = read_only(images)
        return perm

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> list["Permutation"]:
        """Wrap each row of a read-only (count, degree) intp array of
        bijections: a row view of a frozen array is read-only already, and
        numpy refuses the writeable flag on it."""
        out = []
        for row in rows:
            perm = object.__new__(cls)
            perm.images = row
            out.append(perm)
        return out

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._of(np.arange(degree, dtype=np.intp))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles of 0-based points; RefusedInput for a
        point that is not an integer or lies outside 0..degree-1."""
        images = list(range(degree))
        for cycle in cycles:
            cycle = list(cycle)
            for x in cycle:
                if not 0 <= require_int(x, "cycle point") < degree:
                    raise RefusedInput("cycle point %r is outside 0..%d" % (x, degree - 1))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    def extended(self, degree: int) -> "Permutation":
        """The same map on {0..degree-1}, fixing every added point."""
        return Permutation._of(np.append(self.images, np.arange(self.degree, degree)))

    def to_one_based(self) -> list[int]:
        return (self.images + 1).tolist()

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation._of(other.images[self.images])

    def inverse(self) -> "Permutation":
        return Permutation._of(invert_array(self.images))

    def order(self) -> int:
        """The lcm of the cycle lengths, read off _cycle_lengths."""
        return _order(_cycle_lengths(self.images, self.degree)) if self.degree else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, smallest point first."""
        images = self.images.tolist()
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen or images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = images[x]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other):
        return (isinstance(other, Permutation)
                and self.images.tobytes() == other.images.tobytes())

    def __hash__(self):
        return hash(tuple(self.images.tolist()))

    def __repr__(self):
        cycles = self.cycles()
        if not cycles:
            return "Permutation(id, degree=%d)" % self.degree
        body = "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)
        return "Permutation(%s, degree=%d)" % (body, self.degree)


def is_bijection(images: np.ndarray) -> bool:
    """Whether the 1-D array images permutes 0..len(images)-1, in linear
    time: every point is the image of one of the len(images) entries."""
    hit = np.zeros(len(images), dtype=bool)
    hit[images[(images >= 0) & (images < len(images))]] = True
    return bool(hit.all())


def invert_array(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def frontier_bfs(start: int, step, seen: np.ndarray) -> np.ndarray:
    """Orbit of start as an int array in breadth-first order, one level at
    a time, with no transversal.

    step(frontier) returns the images of the frontier points, all images
    of the first point, then all of the second, and so on; seen is a bool
    array over the domain and is updated in place.  Repeated images in a
    level are removed without sorting: each writes its position into an
    int32 slot array, last position first, and a position is kept when it
    reads its own value back.  Whichever write wins, each point keeps one
    position; numpy lets the last write win, so it is the first one, as
    in a point-by-point search.
    """
    slot = np.empty(len(seen), dtype=np.int32)
    frontier = np.array([start], dtype=np.intp)
    seen[start] = True
    levels = [frontier]
    while frontier.size:
        images = step(frontier)
        images = images[~seen[images]]
        position = np.arange(images.size, dtype=np.int32)
        slot[images[::-1]] = position[::-1]
        frontier = images[slot[images] == position]
        seen[frontier] = True
        levels.append(frontier)
    return np.concatenate(levels)


def transversal_bfs(start: int, table: np.ndarray, generators) -> tuple[list, dict]:
    """(orbit, transversal): the orbit of the index start in breadth-first
    order, and for each y in it a product of generators carrying start to
    y, the identity for start.  Row i of table holds generators[i]'s images
    of the domain's indices."""
    rows = table.tolist()
    transversal = {start: Permutation.identity(generators[0].degree)}
    orbit = [start]
    for y in orbit:
        for g, images in zip(generators, rows):
            z = images[y]
            if z not in transversal:
                transversal[z] = transversal[y] * g
                orbit.append(z)
    return orbit, transversal


def _powers(g: np.ndarray, order: int, points: np.ndarray | None = None) -> np.ndarray:
    """The rows g^0 .. g^(order-1) of the images of points (by default
    every point) under g's powers, by doubling: with g^0 .. g^(m-1) known,
    g^m .. g^(2m-1) is one gather."""
    if points is None:
        points = np.arange(len(g))
    rows = np.empty((order, len(points)), dtype=g.dtype)
    rows[0] = points
    power, known = g, 1  # power is g^known
    while known < order:
        take = min(known, order - known)
        # g^i * g^known sends p to power[g^i[p]]; every index is valid, and
        # mode="clip" spares take() a buffer
        power.take(rows[:take], out=rows[known:known + take], mode="clip")
        known += take
        if known < order:
            power = power[power]
    return rows


def _cycle_lengths(g: np.ndarray, bound: int) -> np.ndarray:
    """For each point of each permutation in g (one per row along the last
    axis), whose cycles are at most bound long, the length of its cycle:
    the number of points sharing its label.  The labels are found by
    doubling over the flat indices: after r rounds a point's label is the
    least flat index of its first 2^r images, the whole cycle once 2^r
    reaches bound, in log2(bound) rounds."""
    flat = (g + np.arange(0, g.size, g.shape[-1]).reshape(g.shape[:-1] + (1,))).ravel()
    label, span = np.arange(g.size), 1
    while span < bound:
        label = np.minimum(label, label[flat])
        flat, span = flat[flat], 2 * span
    return np.bincount(label, minlength=g.size)[label].reshape(g.shape)


def _order(length: np.ndarray) -> int:
    """The order of a permutation whose points lie on cycles of the given
    lengths: the lcm of the lengths."""
    return math.lcm(*np.flatnonzero(np.bincount(length)).tolist())


class _CosetRows:
    """Canonical rows of the cosets x∘⟨c⟩ = {x∘cʲ}, for c of order m, with
    x∘cʲ the map p ↦ x(cʲ(p)), whose images are x[cʲ].  A coset's row is
    the x∘cʲ whose images of the key points come first in lexicographic
    order.  The key points lie on c-cycles, one each, whose lengths have
    lcm m, so j ↦ cʲ of the key points, and so j ↦ their images under x∘cʲ,
    is injective: the row depends on the coset alone.  The images of cʲ
    are cached by j, each built from the squares c^(2^b)."""

    def __init__(self, c: np.ndarray, order: int, length: np.ndarray):
        """length[p] is the length of p's c-cycle."""
        keys, lcm = [], 1
        for cycle in sorted(set(length.tolist()), reverse=True):
            if not keys or math.lcm(lcm, cycle) != lcm:
                keys.append(int(np.argmax(length == cycle)))
                lcm = math.lcm(lcm, cycle)
        # key_images[j, i] = cʲ(keys[i])
        self.key_images = _powers(c, order, np.array(keys))
        self.squares = [c]
        self.powers: dict[int, np.ndarray] = {}

    def power(self, j: int) -> np.ndarray:
        row = self.powers.get(j)
        if row is None:
            row = np.arange(len(self.squares[0]))
            for b in range(j.bit_length()):
                if b == len(self.squares):
                    self.squares.append(self.squares[-1][self.squares[-1]])
                if j >> b & 1:
                    row = self.squares[b][row]
            self.powers[j] = row
        return row

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """The canonical row of each row's coset."""
        key_images = self.key_images
        # least[r, j]: x∘cʲ, for x row r, ties the least images so far
        images = rows.take(key_images[:, 0], axis=1)
        least = images == images.min(axis=1, keepdims=True)
        for i in range(1, key_images.shape[1]):
            images = np.where(least, rows.take(key_images[:, i], axis=1), rows.shape[1])
            least &= images == images.min(axis=1, keepdims=True)
        js = least.argmax(axis=1)
        # row i of the result is rows[i][c^js[i]], one flat gather
        index = np.array([*map(self.power, js.tolist())])
        index += np.arange(0, rows.size, rows.shape[1])[:, None]
        return rows.take(index)


class _Level:
    __slots__ = ("base", "gens", "images", "inverse_gens", "transversal", "orbit_order",
                 "done_points", "done_gens", "cache", "stride", "offset")

    def __init__(self, base: int, identity: np.ndarray):
        self.base = base
        self.gens: list[np.ndarray] = []
        # each generator's images as a list of Python ints, for scalar reads
        self.images: list[list[int]] = []
        self.inverse_gens: list[np.ndarray] = []
        # point -> (parent point, generator index, depth in the Schreier
        # tree); the base is its own parent at depth 0
        self.transversal: dict[int, tuple[int, int, int]] = {base: (base, -1, 0)}
        self.orbit_order: list[int] = [base]
        # the last _close formed the Schreier generator of every pair of one
        # of the first done_points points of orbit_order and one of the
        # first done_gens generators
        self.done_points = self.done_gens = 0
        # point -> u⁻¹, for u the transversal element taking the base to the
        # point: the base, and points whose depth is offset mod stride
        self.stride, self.offset = 1, 0
        self.cache: dict[int, np.ndarray] = {base: identity}

    def add(self, g: np.ndarray) -> None:
        self.gens.append(g)
        self.images.append(g.tolist())
        self.inverse_gens.append(invert_array(g))


class StabilizerChain:
    """Deterministic base / strong generating set for a permutation group."""

    def __init__(self, generators: list[np.ndarray], degree: int):
        self.degree = degree
        self._identity = np.arange(degree)
        self._identity_bytes = self._identity.tobytes()
        self.levels: list[_Level] = []
        nontrivial = [g for g in generators if not np.array_equal(g, self._identity)]
        if nontrivial:
            base = min(int(np.nonzero(g != self._identity)[0][0]) for g in nontrivial)
            self.levels.append(_Level(base, self._identity))
            for g in nontrivial:
                self.levels[0].add(g)
            self._close(0)

    # -- construction ----------------------------------------------------

    # total cached transversal entries per level, to bound memory
    _CACHE_BUDGET = 16_000_000

    def _inverse(self, level: _Level, point: int) -> np.ndarray:
        """u⁻¹ for the transversal element u taking the level's base to the
        orbit point: climb the Schreier tree to the nearest cached ancestor,
        then walk back down with the inverse generators, u_child⁻¹ =
        u_parent⁻¹[g⁻¹], caching the points on the way whose depth is the
        level's offset mod stride."""
        cache = level.cache
        inverse = cache.get(point)
        if inverse is not None:
            return inverse
        path = []
        x = point
        while x not in cache:
            parent, gi, depth = level.transversal[x]
            path.append((x, gi, depth))
            x = parent
        inverse = cache[x]
        for x, gi, depth in reversed(path):
            inverse = inverse[level.inverse_gens[gi]]
            if depth % level.stride == level.offset:
                cache[x] = inverse
        return inverse

    def _orbit_close(self, level: _Level) -> None:
        """Extend the Schreier tree: the points of the last close under the
        generators added since, then each new point under all of them.  The
        old points' images under the old generators are in the tree already."""
        transversal, orbit, images = level.transversal, level.orbit_order, level.images
        done_points, done_gens = level.done_points, level.done_gens
        qi = 0
        while qi < len(orbit):
            pt = orbit[qi]
            first = done_gens if qi < done_points else 0
            qi += 1
            depth = transversal[pt][2] + 1
            for gi in range(first, len(images)):
                y = images[gi][pt]
                if y not in transversal:
                    transversal[y] = (pt, gi, depth)
                    orbit.append(y)
        # within the budget every point is cached (stride 1).  Past it, only
        # the least populated class of depths mod stride: at most
        # |orbit| / stride points, so within the budget, and every point is
        # fewer than stride steps below the base or a point of the class
        stride = -(-self.degree * len(transversal) // self._CACHE_BUDGET)
        offset = 0
        if stride > 1:
            counts = Counter(d % stride for _, _, d in transversal.values())
            offset = min(range(stride), key=lambda r: (counts[r], r))
        if (stride, offset) != (level.stride, level.offset):
            level.stride, level.offset = stride, offset
            level.cache = {x: inverse for x, inverse in level.cache.items()
                           if x == level.base or transversal[x][2] % stride == offset}

    def _strip(self, g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            y = g.item(level.base)
            if y == level.base:
                continue
            inverse = level.cache.get(y)
            if inverse is None:
                if y not in level.transversal:
                    return g, i
                inverse = self._inverse(level, y)
            g = inverse[g]
        return g, len(self.levels)

    def _close(self, i: int) -> None:
        """Sift u_pt·g·u_y⁻¹, y = pt·g, for each pair of orbit point pt and
        generator g the last close on the level did not form, in orbit then
        generator order.  Only deeper levels change meanwhile, so one pass
        closes the level."""
        level = self.levels[i]
        done_points, done_gens = level.done_points, level.done_gens
        self._orbit_close(level)
        level.done_points, level.done_gens = len(level.orbit_order), len(level.gens)
        transversal, images, gens = level.transversal, level.images, level.gens
        for p, pt in enumerate(level.orbit_order):
            u_pt = None
            for gi in range(done_gens if p < done_points else 0, len(gens)):
                y = images[gi][pt]
                parent, tree_gi, _ = transversal[y]
                if parent == pt and tree_gi == gi:
                    continue  # tree edge: u_pt·g is u_y, so the generator is 1
                if u_pt is None:
                    u_pt = invert_array(self._inverse(level, pt))
                residue, j = self._strip(self._inverse(level, y)[gens[gi][u_pt]], i + 1)
                if j == len(self.levels):
                    if residue.tobytes() == self._identity_bytes:
                        continue
                    base = int(np.nonzero(residue != self._identity)[0][0])
                    self.levels.append(_Level(base, self._identity))
                for l in range(i + 1, j + 1):
                    self.levels[l].add(residue)
                for l in range(j, i, -1):
                    self._close(l)

    # -- queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        result = 1
        for level in self.levels:
            result *= len(level.transversal)
        return result

    def contains_array(self, g: np.ndarray) -> bool:
        residue, j = self._strip(g, 0)
        return j == len(self.levels) and residue.tobytes() == self._identity_bytes


@dataclass(frozen=True)
class ActionDomain:
    """What a group acts on: natural points, or k-subsets, each named by
    its index, a point or a co-lex rank."""

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


class PermutationGroup:
    """Group generated by one or more permutations of a common degree, whose
    images generator_images stacks into one read-only (generators, degree) array.

    The stabilizer chain is built lazily on first use of order/membership.
    The order is kept in _order once known: read off the chain, or set by
    a construction that has proved it, so that no chain is built for it.
    Those constructions are the induced actions on k-subsets (the order of
    the degree-n group), the exceptional sharply 2-transitive groups, and
    the cyclic and dihedral witnesses on Z_m (classify).  For a group small
    enough to enumerate, regularity_degree checks the order either way.
    """

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("need at least one generator")
        degree = generators[0].degree
        if degree == 0:
            raise ValueError("need a degree of at least 1")
        if any(g.degree != degree for g in generators):
            raise ValueError("degree mismatch among generators")
        self.degree = degree
        self.generators = generators
        self.generator_images = read_only(np.array([g.images for g in self.generators]))
        self._chain: StabilizerChain | None = None
        self._order: int | None = None
        self._elements: list[Permutation] | None = None

    # -- chain-backed queries --------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(list(self.generator_images), self.degree)
        return self._chain

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = self.chain.order
        return self._order

    def __contains__(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        return self.chain.contains_array(perm.images)

    # -- enumeration -----------------------------------------------------

    def _coset_rows(self, limit: int | None = None):
        """(c, m, rows): c the images of the first generator of largest
        order m, and one int32 row per coset x∘⟨c⟩ = {x∘cʲ} of the group,
        its _CosetRows canonical row, in the order found.  A breadth-first
        search from ⟨c⟩ forms s∘x for every generator s and every row x of
        a level, and tells new cosets by their rows' bytes.  With a limit,
        ValueError as soon as the cosets hold more than limit elements."""
        degree = self.degree
        lengths = _cycle_lengths(self.generator_images, degree)
        orders = [_order(length) for length in lengths]
        seed = orders.index(max(orders))
        m = orders[seed]
        if limit is not None and m > limit:
            raise ValueError("closure exceeded limit %d" % limit)
        c = self.generator_images[seed]
        canonical = _CosetRows(c, m, lengths[seed])
        gens = self.generator_images.astype(np.int32)
        frontier = canonical(np.arange(degree, dtype=np.int32)[None])
        seen = {frontier.tobytes()}
        levels = [frontier]
        width = frontier.itemsize * degree
        # a level is taken so many rows at a time that their products hold
        # at most _SWEEP_ENTRIES / 8 images
        step = max(1, _SWEEP_ENTRIES // (8 * len(gens) * degree))
        while len(frontier):
            grown = []
            for lo in range(0, len(frontier), step):
                # s∘x sends p to s[x[p]], for each generator s in turn
                products = canonical(gens.take(frontier[lo:lo + step], axis=1).reshape(-1, degree))
                data = products.tobytes()
                new = []
                for i in range(len(products)):
                    row = data[i * width:(i + 1) * width]
                    if row not in seen:
                        if limit is not None and (len(seen) + 1) * m > limit:
                            raise ValueError("closure exceeded limit %d" % limit)
                        seen.add(row)
                        new.append(i)
                grown.append(products[new])
            frontier = np.concatenate(grown)
            levels.append(frontier)
        return c, m, np.concatenate(levels)

    def elements(self, limit: int | None = None) -> list[Permutation]:
        """All group elements, the cosets of _coset_rows expanded and sorted
        by their images; intended for order <= ~10^5.  With a limit,
        ValueError if the group has more than limit elements."""
        if self._elements is not None and limit is None:
            return self._elements
        c, m, rows = self._coset_rows(limit)
        # row x gives the elements x∘cʲ, whose images are x[cʲ]
        rows = rows.take(_powers(c, m), axis=1).reshape(-1, self.degree).astype(np.intp)
        # one sort key per row: its images as big-endian uint32 bytes, which
        # compare bytewise in the lexicographic order of the images
        keys = rows.astype(">u4").view(np.dtype((np.void, 4 * self.degree))).ravel()
        rows = read_only(rows[np.argsort(keys)])
        out = Permutation._of_rows(rows)
        if limit is None:
            self._elements = out
        return out

    # -- orbits ----------------------------------------------------------

    def orbit(self, x, domain: ActionDomain | None = None):
        """Orbit of the domain index x plus a transversal mapping x to each
        orbit index, by transversal_bfs over the domain's indices.

        Returns (orbit_list, transversal) with transversal[y] a Permutation
        carrying x to y and transversal[x] the identity.
        """
        domain = self._domain(domain)
        if not 0 <= require_int(x, "index") < domain.size:
            raise RefusedInput("index %r outside the action domain" % (x,))
        return transversal_bfs(int(x), self._domain_generators(domain), self.generators)

    def _domain(self, domain: ActionDomain | None) -> ActionDomain:
        """domain, by default the points; ValueError unless it is the
        points or the k-subsets of this group's degree."""
        if domain is None:
            return ActionDomain.points(self.degree)
        size = self.degree if domain.kind == "points" else math.comb(self.degree, domain.k)
        if domain.size != size:
            raise ValueError("a %s domain of size %d does not match degree %d"
                             % (domain.kind, domain.size, self.degree))
        return domain

    def _domain_generators(self, domain: ActionDomain) -> np.ndarray:
        """(generators, domain size) array of the generators' images on the
        domain's indices: points, or k-subset ranks."""
        gens = self.generator_images
        if domain.kind == "ksubsets":
            return ksubsets(self.degree, domain.k).image_ranks(gens)
        return gens

    def _orbit_blocks(self, domain: ActionDomain, starts=None):
        """Orbits of the domain's indices as int arrays in breadth-first
        order, from each start (default: every index) not yet reached."""
        gens = self._domain_generators(domain)
        seen = np.zeros(domain.size, dtype=bool)
        for x in range(domain.size) if starts is None else starts:
            if not seen[x]:
                yield frontier_bfs(x, lambda f: gens[:, f].T.ravel(), seen)

    def _orbit_size(self, domain: ActionDomain) -> int:
        """Size of the orbit of the domain index 0."""
        return len(next(self._orbit_blocks(domain, [0])))

    def orbits(self, domain: ActionDomain | None = None):
        """Partition of the domain into orbits (no transversals): lists of
        indices in breadth-first order, by first index."""
        domain = self._domain(domain)
        return [block.tolist() for block in self._orbit_blocks(domain)]

    def orbit_sizes(self, domain: ActionDomain | None = None) -> tuple:
        """Sorted orbit lengths on the domain."""
        domain = self._domain(domain)
        return tuple(sorted(len(block) for block in self._orbit_blocks(domain)))

    def is_transitive(self, domain: ActionDomain | None = None) -> bool:
        domain = self._domain(domain)
        return self._orbit_size(domain) == domain.size

    # -- induced subset action -------------------------------------------

    def induced_subset_action(self, k: int) -> "PermutationGroup":
        """Action on k-subsets, as a group of degree C(n, k).

        Vertex numbering follows co-lex subset ranks.  For k < n the action
        is faithful, so the new group records this group's order, read at
        degree n, and builds no chain of its own for it.
        """
        if not 1 <= require_int(k, "k") <= self.degree:
            raise RefusedInput("k out of range")
        codec = ksubsets(self.degree, k)
        images = read_only(codec.image_ranks(self.generator_images).astype(np.intp, copy=False))
        group = PermutationGroup(Permutation._of_rows(images))
        if k < self.degree:
            # a permutation moving x to y moves a k-subset holding x but not y
            group._order = self.order
        return group

    # -- regularity ------------------------------------------------------

    def _sweep(self, domain: ActionDomain, limit: int | None = None):
        """(size, reached): the number of group elements, m for each
        _coset_rows row, and for each domain index whether some element
        carries index 0 to it.  No element is listed: the points of index 0
        go to x of their images under c⁰ … c^(m−1), for each row x.  The
        limit is _coset_rows'."""
        c, m, cosets = self._coset_rows(limit)
        # index 0 is point 0, or the k-subset {0..k-1}
        images = cosets[:, _powers(c, m, np.arange(max(1, domain.k)))]
        if domain.kind == "ksubsets":
            images = ksubsets(self.degree, domain.k).rank(images)
        reached = np.zeros(domain.size, dtype=bool)
        reached[images.ravel()] = True
        return len(cosets) * m, reached

    def regularity_degree(self, domain: ActionDomain | None = None,
                          exhaustive_limit: int = 20000) -> int | None:
        """Common vertex-stabilizer order r if transitive, else None.

        r = |G| / |domain| by orbit-stabilizer, with |G| the recorded order
        or the chain's.  A group of order at most exhaustive_limit whose
        order x degree is at most _SWEEP_ENTRIES is swept, once, by
        _sweep: the cosets of ⟨g1⟩ give the number of elements, which must
        equal |G|, and the images of index 0, which are its orbit, so no
        orbit search runs.  The sweep lists no element and shares no code
        with the chain or with any construction that records an order, so
        a wrong order of a swept group fails here, transitive or not.  Any
        other group takes its orbit from a breadth-first search and is not
        swept.
        """
        domain = self._domain(domain)
        order = self.order
        limit = min(exhaustive_limit, _SWEEP_ENTRIES // self.degree)
        if order <= limit:
            try:
                size, reached = self._sweep(domain, limit)
            except ValueError:
                raise AssertionError("order %d, but the group has more than %d "
                                     "elements" % (order, limit)) from None
            if size != order:
                raise AssertionError("order %d, but the group has %d elements"
                                     % (order, size))
            if not reached.all():
                return None
        elif self._orbit_size(domain) != domain.size:
            return None
        if order % domain.size != 0:
            raise AssertionError("orbit-stabilizer violation: %d points, order %d"
                                 % (domain.size, order))
        return order // domain.size

    def __repr__(self):
        return "PermutationGroup(degree=%d, gens=%d)" % (self.degree, len(self.generators))

