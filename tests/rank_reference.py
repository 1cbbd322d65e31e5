"""Reference code for k-subsets: the rank kernel against the formula that
sorts each row first (tests/test_subsets.py runs check_ranks for every
n <= 12, and CI for every n <= 20), and bitmask subsets for the scalar
loops the tests compare with."""

import numpy as np

from mergedjohnson.subsets import KSubsets, ksubsets


def mask_of(elements) -> int:
    """The bitmask of a set of points."""
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def all_masks(n: int, k: int) -> list[int]:
    """All k-subset masks of {0..n-1} in co-lex (rank) order."""
    return [mask_of(row) for row in ksubsets(n, k).elements.tolist()]


def sorted_image_ranks(codec, images):
    """Ranks of the images of all k-subsets under one point map: the rows
    of images sorted by np.sort, then one 2-D gather in the binomial table."""
    rows = np.sort(np.asarray(images)[..., codec.elements], axis=-1)
    return codec.binomial[rows, np.arange(1, codec.k + 1)].sum(axis=-1)


def check_ranks(n, k):
    """AssertionError unless the codec of (n, k) ranks its element rows,
    shuffled within each row, back to their ranks, and gives the sorted
    formula's image ranks for seeded permutations of leading shapes (),
    (3,) and (2, 3), as intp and as uint32."""
    codec = KSubsets(n, k)
    rng = np.random.default_rng([n, k])
    shuffled = rng.permuted(codec.elements, axis=1)
    assert np.array_equal(codec.rank(shuffled), np.arange(codec.size)), (n, k)
    for r in (0, codec.size - 1):
        rank = codec.rank(shuffled[r])
        assert np.ndim(rank) == 0 and rank == r, (n, k, r)
    for shape in [(), (3,), (2, 3)]:
        images = rng.permuted(np.broadcast_to(np.arange(n), shape + (n,)), axis=-1)
        want = np.array([sorted_image_ranks(codec, p) for p in images.reshape(-1, n)])
        for dtype in (np.intp, np.uint32):
            got = codec.image_ranks(images.astype(dtype))
            assert got.shape == shape + (codec.size,), (n, k, shape, dtype)
            assert np.array_equal(got.reshape(-1, codec.size), want), (n, k, shape, dtype)
