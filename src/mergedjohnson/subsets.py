"""k-subsets of {0..n-1} named by co-lexicographic rank.

For a subset with elements e_0 < e_1 < ... < e_{k-1} the rank is
sum(C(e_i, i+1)), so rank 0 is always {0..k-1}.  `ksubset_rank` and
`ksubset_unrank` convert one subset at a time, as an integer bitmask, in
O(k); `elements_of` lists a bitmask's elements.

`ksubsets(n, k)` is the same codec on arrays, for whole domains at once:
the co-lex element table and a binomial table.  Its `rank` takes each
row's elements in any order: the rows are split into k columns, sorted
position by position by a fixed compare-exchange network on whole columns,
and ranked with one binomial-table `take` per position.  Ranks are int64,
so a codec whose C(n,k) does not fit is refused.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


class RefusedInput(ValueError):
    """An input outside what the library accepts: a bound, a type or a
    parameter that names nothing.  The CLI reports it as a usage error;
    any other ValueError is a fault of the program."""


def require_int(value, what: str):
    """value, refused unless it is an int or a numpy integer and not a
    bool: a bool would pass a range test and index an array as a mask, and
    a float would be truncated or fail inside numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise RefusedInput("%s %r is not an integer" % (what, value))
    return value


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


@functools.cache
def complement_ranks(n: int, k: int) -> np.ndarray:
    """Co-lex rank of the complement of each k-subset of {0..n-1}, indexed
    by the k-subset's rank; one read-only array per (n, k)."""
    return read_only(ksubsets(n, n - k).rank(ksubsets(n, k).complements()))


class KSubsets:
    """The k-subsets of {0..n-1} as arrays.  `elements` is the
    (C(n,k), k) table of ascending rows in co-lex order, so row r is the
    subset of rank r; `binomial` is B[e, j] = C(e, j) for e < n, j <= k.
    Each table is built on first use; both are read-only."""

    def __init__(self, n: int, k: int):
        # C(n,k) >= 2^min(k, n-k), so min(k, n-k) >= 63 is refused
        # without building C(n,k)
        self.size = math.comb(n, k) if min(k, n - k) < 63 else 1 << 63
        if self.size >= 1 << 63:
            raise RefusedInput("C(%d,%d) is at least 2^63: the %d-subsets' ranks "
                               "do not fit int64" % (n, k, k))
        self.n = n
        self.k = k
        # the narrowest type that holds a point: the sorting network runs
        # on columns of it, which take less memory traffic than intp
        self.point_dtype = np.min_scalar_type(n - 1)

    @functools.cached_property
    def elements(self) -> np.ndarray:
        # co-lex order of subsets is the reverse of the lex order of their
        # mirror images x -> n-1-x, which itertools generates
        lex = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(self.n), self.k)),
            dtype=np.intp, count=self.size * self.k).reshape(self.size, self.k)
        return read_only((self.n - 1 - lex)[::-1, ::-1])

    @functools.cached_property
    def binomial(self) -> np.ndarray:
        # stored by column, so that binomial.T[j] is a contiguous C(., j)
        return read_only(np.array([[math.comb(e, j) for e in range(self.n)]
                                   for j in range(self.k + 1)], dtype=np.int64)).T

    def rank(self, rows) -> np.ndarray:
        """Co-lex ranks of k-subsets given as rows along the last axis, each
        row's elements in any order."""
        rows = np.asarray(rows).astype(self.point_dtype, copy=False)
        return self._rank_columns([rows[..., i] for i in range(self.k)])

    def image_ranks(self, images) -> np.ndarray:
        """Rank of the image of every k-subset, in rank order, under each
        point map in images (shape (..., n)); result shape (..., C(n,k))."""
        images = np.asarray(images).astype(self.point_dtype, copy=False)
        return self._rank_columns([images[..., column] for column in self.elements.T])

    def _rank_columns(self, columns: list) -> np.ndarray:
        """sum_i B[e_i, i + 1] for e_0 < ... < e_{k-1} the elements held
        at one position of the k columns.  The columns are sorted position
        by position by odd-even transposition: k rounds of compare-exchange
        on adjacent columns sort any k values (Knuth, TAOCP vol. 3, §5.3.4,
        by the 0-1 principle)."""
        k = self.k
        for start in range(k):
            for i in range(start % 2, k - 1, 2):
                a, b = columns[i], columns[i + 1]
                columns[i], columns[i + 1] = np.minimum(a, b), np.maximum(a, b)
        by_position = self.binomial.T
        rank = by_position[1].take(columns[0])
        for i in range(1, k):
            rank += by_position[i + 1].take(columns[i])
        return rank

    def complements(self) -> np.ndarray:
        """The (C(n,k), n-k) table of each subset's complement, ascending
        rows in the subsets' rank order."""
        inside = np.zeros((self.size, self.n), dtype=bool)
        inside[np.arange(self.size)[:, None], self.elements] = True
        return np.nonzero(~inside)[1].reshape(self.size, self.n - self.k)


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, made C-contiguous, whose writeable flag
    cannot be set back: a itself (or its contiguous copy) is frozen, and
    numpy refuses the flag on a view of a frozen array."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a.view()


@functools.cache
def ksubsets(n: int, k: int) -> KSubsets:
    """The array codec of the k-subsets of {0..n-1}, one per (n, k)."""
    return KSubsets(n, k)
