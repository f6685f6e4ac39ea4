"""Property-based tests of the region encoding (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core import regions as reg

masks = npst.arrays(dtype=np.bool_, shape=st.integers(0, 300))


@given(mask=masks)
@settings(max_examples=200, deadline=None)
def test_encode_decode_roundtrip(mask):
    runs = reg.encode_mask(mask)
    np.testing.assert_array_equal(reg.decode_regions(runs, mask.size), mask)


@given(mask=masks)
@settings(max_examples=200, deadline=None)
def test_encoded_runs_are_sorted_disjoint_and_maximal(mask):
    runs = reg.encode_mask(mask)
    assert all(run.stop <= mask.size for run in runs)
    # sorted, disjoint and maximal: consecutive runs never touch
    for a, b in zip(runs, runs[1:]):
        assert a.stop < b.start


@given(mask=masks)
@settings(max_examples=200, deadline=None)
def test_element_count_matches_mask_popcount(mask):
    runs = reg.encode_mask(mask)
    assert reg.n_elements(runs) == int(mask.sum())


@given(mask=masks)
@settings(max_examples=100, deadline=None)
def test_records_decode_to_the_runs(mask):
    np.testing.assert_array_equal(
        reg.decode_records(reg.encode_records(mask), mask.size),
        reg.decode_regions(reg.encode_mask(mask), mask.size))


@given(mask=npst.arrays(dtype=np.bool_,
                        shape=npst.array_shapes(min_dims=2, max_dims=4,
                                                max_side=6)))
@settings(max_examples=100, deadline=None)
def test_multidimensional_masks_flatten_in_c_order(mask):
    runs = reg.encode_mask(mask)
    np.testing.assert_array_equal(
        reg.decode_regions(runs, mask.size), mask.reshape(-1))
