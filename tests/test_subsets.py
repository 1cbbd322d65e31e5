import itertools
from math import comb

import numpy as np
import pytest
from rank_reference import check_ranks

from mergedjohnson.subsets import (all_masks, complement_ranks, elements_of,
                                   ksubset_rank, ksubset_unrank, ksubsets,
                                   mask_of)


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
    assert complement_ranks(n, k) == [ksubset_rank(full ^ m) for m in all_masks(n, k)]


def test_codec_tables_are_shared_and_read_only():
    assert ksubsets(6, 3) is ksubsets(6, 3)
    with pytest.raises(ValueError):
        ksubsets(6, 3).elements[0, 0] = 5
