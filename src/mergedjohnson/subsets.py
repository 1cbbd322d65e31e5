"""Bitmask k-subsets with co-lexicographic ranking.

Subsets of {0..n-1} are stored as integer bitmasks.  Ranks follow co-lex
order: for a subset with elements e_0 < e_1 < ... < e_{k-1} the rank is
sum(C(e_i, i+1)), so rank 0 is always {0..k-1} and ranking is O(k).
"""

from __future__ import annotations

import itertools
import math


def mask_of(elements) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def elements_of(mask: int) -> list[int]:
    out = []
    x = 0
    while mask:
        if mask & 1:
            out.append(x)
        mask >>= 1
        x += 1
    return out


def ksubset_rank(mask: int) -> int:
    """Co-lex rank of a k-subset bitmask among all popcount-equal masks."""
    rank = 0
    for i, e in enumerate(elements_of(mask)):
        rank += math.comb(e, i + 1)
    return rank


def ksubset_unrank(k: int, rank: int) -> int:
    """Inverse of ksubset_rank; returns the bitmask of the rank-th k-subset."""
    if rank < 0:
        raise ValueError("rank out of range")
    mask = 0
    r = rank
    for i in range(k, 0, -1):
        # largest c with C(c, i) <= r
        c = i - 1
        while math.comb(c + 1, i) <= r:
            c += 1
        mask |= 1 << c
        r -= math.comb(c, i)
    if r != 0:
        raise ValueError("rank out of range")
    return mask


def all_masks(n: int, k: int) -> list[int]:
    """All k-subset masks of {0..n-1} in co-lex (rank) order."""
    combos = sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])
    return [mask_of(c) for c in combos]


def complement_ranks(n: int, k: int) -> list[int]:
    """Co-lex rank of the complement of each k-subset of {0..n-1}, indexed
    by the k-subset's rank."""
    full = (1 << n) - 1
    return [ksubset_rank(full ^ m) for m in all_masks(n, k)]


def mask_image(mask: int, images) -> int:
    """Image of a subset bitmask under a point map (sequence of images)."""
    out = 0
    x = 0
    while mask:
        if mask & 1:
            out |= 1 << images[x]
        mask >>= 1
        x += 1
    return out


def popcount(mask: int) -> int:
    return mask.bit_count()
