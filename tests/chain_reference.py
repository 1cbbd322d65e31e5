"""A reference Schreier–Sims that shares no code with mergedjohnson.perms.

ReferenceChain(generators, degree) builds the stabilizer chain the way
perms.StabilizerChain did before it kept two counts per level: each level
records every (orbit point, generator) pair whose Schreier generator it has
formed in a set, repeats passes over its orbit until one sifts nothing new,
and re-walks its whole Schreier tree from the base whenever it gains a
generator.  Bases, trees, strong generators, the u⁻¹ caches and the stride
rules are those of perms, so tests/test_perms.py compares the two chains
level by level.
"""

from collections import Counter

import numpy as np


def _invert(p: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(p)
    inverse[p] = np.arange(len(p))
    return inverse


class ReferenceLevel:
    def __init__(self, base: int, identity: np.ndarray):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inverse_gens: list[np.ndarray] = []
        # point -> (parent point, generator index, depth in the Schreier tree)
        self.transversal: dict[int, tuple[int, int, int]] = {base: (base, -1, 0)}
        self.orbit_order: list[int] = [base]
        self.done: set[tuple[int, int]] = set()
        self.stride, self.offset = 1, 0
        self.cache: dict[int, np.ndarray] = {base: identity}

    def add(self, g: np.ndarray) -> None:
        self.gens.append(g)
        self.inverse_gens.append(_invert(g))


class ReferenceChain:
    # total cached transversal entries per level, as in perms
    _CACHE_BUDGET = 16_000_000

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.identity = np.arange(degree)
        self.levels: list[ReferenceLevel] = []
        nontrivial = [g for g in generators if not np.array_equal(g, self.identity)]
        if nontrivial:
            base = min(int(np.nonzero(g != self.identity)[0][0]) for g in nontrivial)
            self.levels.append(ReferenceLevel(base, self.identity))
            for g in nontrivial:
                self.levels[0].add(g)
            self._close(0)

    def _inverse(self, level: ReferenceLevel, point: int) -> np.ndarray:
        """u⁻¹ for u the transversal element taking the base to point,
        walked down from the nearest cached ancestor and cached at the
        depths in the level's class mod stride."""
        cache = level.cache
        if point in cache:
            return cache[point]
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

    def _orbit_close(self, level: ReferenceLevel) -> None:
        queue = list(level.orbit_order)
        qi = 0
        while qi < len(queue):
            pt = queue[qi]
            qi += 1
            depth = level.transversal[pt][2] + 1
            for gi, g in enumerate(level.gens):
                y = int(g[pt])
                if y not in level.transversal:
                    level.transversal[y] = (pt, gi, depth)
                    level.orbit_order.append(y)
                    queue.append(y)
        stride = -(-self.degree * len(level.transversal) // self._CACHE_BUDGET)
        offset = 0
        if stride > 1:
            counts = Counter(d % stride for _, _, d in level.transversal.values())
            offset = min(range(stride), key=lambda r: (counts[r], r))
        if (stride, offset) != (level.stride, level.offset):
            level.stride, level.offset = stride, offset
            level.cache = {x: inverse for x, inverse in level.cache.items()
                           if x == level.base or level.transversal[x][2] % stride == offset}

    def _strip(self, g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            y = int(g[level.base])
            if y == level.base:
                continue
            if y not in level.transversal:
                return g, i
            g = self._inverse(level, y)[g]
        return g, len(self.levels)

    def _close(self, i: int) -> None:
        level = self.levels[i]
        while True:
            self._orbit_close(level)
            progressed = False
            for pt in list(level.orbit_order):
                u_pt = None
                for gi, g in enumerate(level.gens):
                    if (pt, gi) in level.done:
                        continue
                    level.done.add((pt, gi))
                    y = int(g[pt])
                    parent, tree_gi, _ = level.transversal[y]
                    if parent == pt and tree_gi == gi:
                        continue
                    if u_pt is None:
                        u_pt = _invert(self._inverse(level, pt))
                    residue, j = self._strip(self._inverse(level, y)[g[u_pt]], i + 1)
                    if j == len(self.levels) and np.array_equal(residue, self.identity):
                        continue
                    progressed = True
                    if j == len(self.levels):
                        base = int(np.nonzero(residue != self.identity)[0][0])
                        self.levels.append(ReferenceLevel(base, self.identity))
                    for l in range(i + 1, j + 1):
                        self.levels[l].add(residue)
                    for l in range(j, i, -1):
                        self._close(l)
            if not progressed:
                return
