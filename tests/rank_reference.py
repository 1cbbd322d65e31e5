"""Reference code for k-subsets, sharing no code with mergedjohnson.subsets:
the co-lex table from itertools, the rank kernel against the formula that
sorts each row first (tests/test_subsets.py runs check_ranks for every
n <= 12, and CI for every n <= 20), and bitmask subsets for the scalar
loops the tests compare with."""

import itertools
import math

import numpy as np

from mergedjohnson.subsets import KSubsets


def colex_table(n: int, k: int) -> np.ndarray:
    """The (C(n,k), k) intp table of the k-subsets of {0..n-1}, ascending
    rows in co-lex order: the reverse of the lex order of their mirror
    images x -> n-1-x, which itertools generates."""
    size = math.comb(n, k)
    lex = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                      dtype=np.intp, count=size * k).reshape(size, k)
    return np.ascontiguousarray((n - 1 - lex)[::-1, ::-1])


def mask_of(elements) -> int:
    """The bitmask of a set of points."""
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def all_masks(n: int, k: int) -> list[int]:
    """All k-subset masks of {0..n-1} in co-lex (rank) order."""
    return [mask_of(row) for row in colex_table(n, k).tolist()]


def sorted_image_ranks(table, images):
    """Ranks of the images of all k-subsets, the rows of table, under each
    point map in images (shape (..., n)), one map at a time: the image rows
    sorted by np.sort, then sum C(e_i, i+1) from a binomial table of
    math.comb."""
    images = np.asarray(images)
    n, k = images.shape[-1], table.shape[1]
    binomial = np.array([[math.comb(e, j) for j in range(k + 1)] for e in range(n)],
                        dtype=np.int64)
    ranks = [binomial[np.sort(p[table], axis=-1), np.arange(1, k + 1)].sum(axis=-1)
             for p in images.reshape(-1, n)]
    return np.array(ranks, dtype=np.int64).reshape(images.shape[:-1] + (len(table),))


def check_ranks(n, k):
    """AssertionError unless the codec of (n, k) lists colex_table(n, k) as
    its elements, byte for byte, ranks those rows, shuffled within each row, back to their
    ranks, for leading shapes (C(n,k),), (), (3,) and (2, 3), one row's
    rank being 0-d, and gives the sorted formula's image ranks for seeded
    permutations of leading shapes (), (3,) and (2, 3), as intp and as
    uint32."""
    codec = KSubsets(n, k)
    table = colex_table(n, k)
    elements = codec.elements
    assert elements.dtype == table.dtype and elements.shape == table.shape, (n, k)
    assert elements.flags.c_contiguous and elements.tobytes() == table.tobytes(), (n, k)
    rng = np.random.default_rng([n, k])
    shuffled = rng.permuted(table, axis=1)
    assert np.array_equal(codec.rank(shuffled), np.arange(codec.size)), (n, k)
    for r in (0, codec.size - 1):
        rank = codec.rank(shuffled[r])
        assert np.ndim(rank) == 0 and rank == r, (n, k, r)
    for shape in [(3,), (2, 3)]:
        want = rng.integers(0, codec.size, shape)
        assert np.array_equal(codec.rank(shuffled[want]), want), (n, k, shape)
    for shape in [(), (3,), (2, 3)]:
        images = rng.permuted(np.broadcast_to(np.arange(n), shape + (n,)), axis=-1)
        want = sorted_image_ranks(table, images)
        for dtype in (np.intp, np.uint32):
            got = codec.image_ranks(images.astype(dtype))
            assert got.shape == shape + (codec.size,), (n, k, shape, dtype)
            assert np.array_equal(got, want), (n, k, shape, dtype)
