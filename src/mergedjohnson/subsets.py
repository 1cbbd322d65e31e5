"""k-subsets of {0..n-1} named by co-lexicographic rank.

For a subset with elements e_0 < e_1 < ... < e_{k-1} the rank is
sum(C(e_i, i+1)), so rank 0 is always {0..k-1}.  `ksubset_rank` and
`ksubset_unrank` convert one subset at a time, as an integer bitmask, in
O(k); `elements_of` lists a bitmask's elements.

`ksubsets(n, k)` is the same codec on arrays, for whole domains at once:
the co-lex element table and a binomial table.  The element table unranks
every rank at once, from the last position down: e_i is the largest e
with C(e, i+1) at most what is left of the rank, one `searchsorted` on
binomial column i+1 for all ranks, and e_0 is what is left at the end.

`rank` takes each row's elements in any order, and `image_ranks` ranks
the image of every subset under point maps.  The rows are split into k
columns of the narrowest unsigned type that holds n - 1, sorted position
by position by a fixed compare-exchange network on whole columns, and
ranked with one binomial-table `take` per position.  Both run over blocks
of at most _BLOCK_ENTRIES ranks, so that every temporary stays small
enough for the allocator to reuse from block to block: on the 58 653
2-subsets of 343 points, one pass over whole columns spent most of its
time on fresh megabyte arrays.  In a block each position is one
C-contiguous column: `image_ranks` gathers a position's images with
`take(axis=-1)` from a contiguous copy of the block's element column,
and `rank` copies the block's rows transposed.  On 293 000 entries a
binomial `take` from a uint16 index took 1.6 ms against 0.2 ms from an
intp one, spent on numpy's cast of the index to a fresh intp array; on a
block that cast reuses memory and costs what an explicit one would, so
the columns are not cast first, which spares a call per position when a
single row is ranked.

Ranks are int64, so a codec whose C(n,k) does not fit is refused.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# ranks per block of rank and image_ranks: a block's k point columns,
# their sorted copies and its int64 ranks take a few hundred kilobytes
_BLOCK_ENTRIES = 1 << 14


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
        # position by position from the last: e_i is the largest e with
        # B[e, i+1] <= rest, and B[e, 1] = e leaves e_0 = rest
        table = np.empty((self.size, self.k), dtype=np.intp)
        rest = np.arange(self.size, dtype=np.int64)
        for i in range(self.k - 1, 0, -1):
            column = self._by_position[i + 1]
            e = column.searchsorted(rest, side="right")
            e -= 1
            table[:, i] = e
            rest -= column.take(e)
        if self.k:
            table[:, 0] = rest
        return read_only(table)

    @functools.cached_property
    def binomial(self) -> np.ndarray:
        # stored by column, so that binomial.T[j] is a contiguous C(., j)
        return read_only(np.array([[math.comb(e, j) for e in range(self.n)]
                                   for j in range(self.k + 1)], dtype=np.int64)).T

    @functools.cached_property
    def _by_position(self) -> tuple:
        # binomial.T's rows as a tuple: the kernel reads one per position
        # and call, and a tuple item costs less than a fresh row view
        return tuple(self.binomial.T)

    def rank(self, rows) -> np.ndarray:
        """Co-lex ranks of k-subsets given as rows along the last axis, each
        row's elements in any order."""
        rows = np.asarray(rows).astype(self.point_dtype, copy=False)
        if rows.size <= _BLOCK_ENTRIES * rows.shape[-1]:
            # one block: the network's first round copies these views
            return self._rank_columns([rows[..., i] for i in range(self.k)])
        flat = rows.reshape(-1, rows.shape[-1])
        ranks = np.empty(rows.shape[:-1], dtype=np.int64)
        out = ranks.reshape(-1)
        for lo in range(0, len(flat), _BLOCK_ENTRIES):
            block = flat[lo:lo + _BLOCK_ENTRIES].T.copy()
            out[lo:lo + _BLOCK_ENTRIES] = self._rank_columns(list(block))
        return ranks

    def image_ranks(self, images) -> np.ndarray:
        """Rank of the image of every k-subset, in rank order, under each
        point map in images (shape (..., n)); result shape (..., C(n,k))."""
        images = np.asarray(images).astype(self.point_dtype, copy=False)
        flat = images.reshape(-1, images.shape[-1])
        ranks = np.empty(images.shape[:-1] + (self.size,), dtype=np.int64)
        out = ranks.reshape(len(flat), self.size)
        # whole rows while a row fits in a block, else pieces of one row
        width = max(1, min(self.size, _BLOCK_ENTRIES))
        step = _BLOCK_ENTRIES // width
        for lo in range(0, self.size, width):
            positions = self.elements[lo:lo + width].T.copy()
            for r in range(0, len(flat), step):
                maps = flat[r:r + step]
                out[r:r + step, lo:lo + width] = self._rank_columns(
                    [maps.take(column, axis=-1) for column in positions])
        return ranks

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
        by_position = self._by_position
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
