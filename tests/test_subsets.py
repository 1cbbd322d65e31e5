import itertools
import time
from math import comb

import numpy as np
import pytest
from rank_reference import all_masks, check_ranks, colex_table, mask_of

from mergedjohnson import subsets
from mergedjohnson.subsets import (KSubsets, complement_ranks, elements_of,
                                   ksubset_rank, ksubset_unrank, ksubsets)


def mask_image(mask, images):
    """Image of a subset bitmask under a point map, one bit at a time: the
    reference for the array codec's image_ranks."""
    out = 0
    x = 0
    while mask:
        if mask & 1:
            out |= 1 << images[x]
        mask >>= 1
        x += 1
    return out


def test_mask_roundtrip():
    assert elements_of(mask_of([0, 2, 5])) == [0, 2, 5]
    assert mask_of([]) == 0
    assert mask_of(range(7)).bit_count() == 7


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (10, 5), (6, 1)])
def test_colex_rank_unrank(n, k):
    masks = all_masks(n, k)
    assert len(masks) == comb(n, k)
    for rank, mask in enumerate(masks):
        assert ksubset_rank(mask) == rank
        assert ksubset_unrank(k, rank) == mask


def test_colex_order_is_increasing_as_integers():
    # colex order on k-subsets coincides with numeric order on bitmasks
    masks = all_masks(7, 3)
    assert masks == sorted(masks)


def test_mask_image():
    # cycle 0 -> 1 -> 2 -> 0
    images = [1, 2, 0, 3]
    assert elements_of(mask_image(mask_of([0, 1]), images)) == [1, 2]
    assert elements_of(mask_image(mask_of([2, 3]), images)) == [0, 3]


# -- the array codec ---------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_rank_kernel_matches_scalar_rank(n):
    for k in range(1, n + 1):
        codec = ksubsets(n, k)
        rows = np.array(list(itertools.combinations(range(n), k)))
        want = [ksubset_rank(mask_of(row)) for row in rows.tolist()]
        assert codec.rank(rows).tolist() == want
        assert [mask_of(row) for row in codec.elements.tolist()] == \
            [ksubset_unrank(k, r) for r in range(comb(n, k))]


@pytest.mark.parametrize("n", range(1, 13))
def test_rank_kernel_takes_rows_in_any_order(n):
    for k in range(1, n + 1):
        check_ranks(n, k)


@pytest.mark.parametrize("n", range(1, 17))
def test_elements_are_the_itertools_table(n):
    """The table unranked by searchsorted equals the itertools table of
    rank_reference byte for byte, dtype and shape included."""
    for k in range(1, n + 1):
        elements, table = KSubsets(n, k).elements, colex_table(n, k)
        assert elements.dtype == table.dtype and elements.shape == table.shape, (n, k)
        assert elements.flags.c_contiguous and elements.tobytes() == table.tobytes(), (n, k)


@pytest.mark.parametrize("block", [1, 2, 5, 7, 12])
def test_blocked_ranks_equal_the_unblocked_reference(monkeypatch, block):
    """With blocks of a few ranks, pieces of one image row (C(n,k) above
    the block), whole rows per block and row-ranking blocks all meet block
    edges; check_ranks compares with the one-pass sorted formula and asks
    a 0-d rank of one row."""
    monkeypatch.setattr(subsets, "_BLOCK_ENTRIES", block)
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 1), (7, 7), (8, 3)]:
        check_ranks(n, k)


@pytest.mark.parametrize("block", [3, subsets._BLOCK_ENTRIES])
def test_ranks_own_their_memory(monkeypatch, block):
    """read_only freezes the array it is given, and a view of a writeable
    array could be made writeable again: every rank array owns its data,
    blocked or not."""
    monkeypatch.setattr(subsets, "_BLOCK_ENTRIES", block)
    codec = KSubsets(6, 3)
    images = np.tile(np.arange(6), (2, 3, 1))
    for ranks in (codec.rank(codec.elements), codec.rank(codec.elements[None]),
                  codec.image_ranks(images[0, 0]), codec.image_ranks(images)):
        assert ranks.base is None and ranks.flags.writeable


def test_rank_kernel_on_pairs_of_343_points():
    codec = ksubsets(343, 2)
    assert codec.size == 58653
    assert codec.rank(codec.elements).tolist() == list(range(codec.size))
    assert codec.rank(codec.elements).tolist() == \
        [ksubset_rank(mask_of(row)) for row in codec.elements.tolist()]


def test_image_ranks_match_mask_image():
    images = [3, 0, 6, 1, 5, 2, 4]
    codec = ksubsets(7, 3)
    want = [ksubset_rank(mask_image(m, images)) for m in all_masks(7, 3)]
    assert codec.image_ranks(images).tolist() == want
    assert codec.image_ranks([images, list(range(7))]).tolist() == \
        [want, list(range(codec.size))]


@pytest.mark.parametrize("n,k", [(8, 4), (9, 2), (10, 5)])
def test_complement_ranks_match_scalar_complements(n, k):
    full = (1 << n) - 1
    assert complement_ranks(n, k).tolist() == \
        [ksubset_rank(full ^ m) for m in all_masks(n, k)]


def test_codec_tables_are_shared_and_read_only():
    assert ksubsets(6, 3) is ksubsets(6, 3)
    with pytest.raises(ValueError):
        ksubsets(6, 3).elements[0, 0] = 5


def test_complement_ranks_are_one_read_only_array():
    assert complement_ranks(10, 5) is complement_ranks(10, 5)
    with pytest.raises(ValueError):
        complement_ranks(10, 5)[0] = 0


@pytest.mark.parametrize("n, k", [(67, 33), (67, 34), (68, 34), (126, 63),
                                  (200000, 100000), (2 * 10 ** 6, 10 ** 6)])
def test_codecs_whose_ranks_pass_int64_are_refused(n, k):
    # C(2*10^6, 10^6) alone took 39 s to build
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="at least 2\\^63"):
        KSubsets(n, k)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n, k", [(66, 33), (100, 10), (200, 8), (10 ** 6, 2), (64, 63)])
def test_codecs_whose_ranks_fit_int64_are_built(n, k):
    assert KSubsets(n, k).size == comb(n, k) < 2 ** 63
