"""Tests of the critical-region run-length encoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import regions as reg
from repro.core.regions import Region


class TestRegion:
    def test_length_and_contains(self):
        r = Region(3, 7)
        assert len(r) == 4
        assert 3 in r and 6 in r
        assert 7 not in r and 2 not in r

    def test_invalid_region_rejected(self):
        with pytest.raises(ValueError):
            Region(5, 3)
        with pytest.raises(ValueError):
            Region(-1, 3)

    def test_empty_region_allowed(self):
        assert len(Region(4, 4)) == 0

    def test_overlaps(self):
        assert Region(0, 5).overlaps(Region(4, 8))
        assert not Region(0, 5).overlaps(Region(5, 8))

    def test_as_slice(self):
        arr = np.arange(10)
        np.testing.assert_array_equal(arr[Region(2, 5).as_slice()], [2, 3, 4])

    def test_ordering(self):
        assert sorted([Region(5, 8), Region(0, 2)])[0] == Region(0, 2)


class TestEncodeDecode:
    def test_all_true_is_single_run(self):
        assert reg.encode_mask(np.ones(10, dtype=bool)) == [Region(0, 10)]

    def test_all_false_is_empty(self):
        assert reg.encode_mask(np.zeros(10, dtype=bool)) == []

    def test_empty_mask(self):
        assert reg.encode_mask(np.zeros(0, dtype=bool)) == []

    def test_alternating_pattern(self):
        mask = np.array([True, False, True, True, False, True])
        assert reg.encode_mask(mask) == [Region(0, 1), Region(2, 4),
                                         Region(5, 6)]

    def test_multidimensional_mask_uses_c_order(self):
        mask = np.array([[True, True], [False, True]])
        assert reg.encode_mask(mask) == [Region(0, 2), Region(3, 4)]

    def test_decode_inverts_encode(self):
        mask = np.array([False, True, True, False, True])
        runs = reg.encode_mask(mask)
        np.testing.assert_array_equal(reg.decode_regions(runs, 5), mask)

    def test_decode_rejects_out_of_range_region(self):
        with pytest.raises(ValueError):
            reg.decode_regions([Region(0, 6)], 5)


class TestRegionAlgebra:
    def test_n_elements(self):
        assert reg.n_elements([Region(0, 3), Region(5, 6)]) == 4

    def test_aux_record_nbytes_counts_32_bytes_per_record(self):
        mask = np.zeros((4, 10), dtype=bool)
        mask[:, :6] = True            # four equal runs: one record
        assert reg.aux_record_nbytes(mask, 8) == 32

    def test_aux_record_nbytes_is_zero_when_pruning_does_not_pay(self):
        mask = np.ones(10, dtype=bool)
        mask[3] = False               # saves 8 bytes, a record costs 32
        assert reg.aux_record_nbytes(mask, 8) == 0
        assert reg.aux_record_nbytes(np.ones(10, dtype=bool), 8) == 0


class TestRecords:
    def test_a_progression_of_equal_runs_is_one_record(self):
        mask = np.zeros((64, 65), dtype=bool)
        mask[:, :64] = True
        np.testing.assert_array_equal(reg.encode_records(mask),
                                      [[0, 64, 65, 64]])

    def test_runs_group_greedily_from_the_left(self):
        mask = np.zeros(40, dtype=bool)
        for start in (10, 20, 30):
            mask[start:start + 2] = True
        mask[33] = True
        np.testing.assert_array_equal(reg.encode_records(mask),
                                      [[10, 2, 10, 3], [33, 1, 1, 1]])

    def test_empty_and_full_masks(self):
        assert reg.encode_records(np.zeros(5, dtype=bool)).shape == (0, 4)
        np.testing.assert_array_equal(
            reg.encode_records(np.ones(5, dtype=bool)), [[0, 5, 5, 1]])
        assert not reg.decode_records(np.zeros((0, 4)), 5).any()

    def test_decode_expands_every_run(self):
        np.testing.assert_array_equal(
            reg.decode_records([[1, 2, 4, 2], [9, 1, 1, 1]], 10),
            [0, 1, 1, 0, 0, 1, 1, 0, 0, 1])

    @pytest.mark.parametrize("records, reason", [
        ([[3, 1, 1, 1], [0, 1, 1, 1]], "unsorted"),
        ([[0, 3, 3, 1], [2, 1, 1, 1]], "overlap"),
        ([[8, 3, 3, 1]], "past the array"),
        ([[0, 1, 1, 20]], "past the array"),
        ([[0, -1, 1, 1]], "negative"),
        ([[0, 0, 1, 1]], "no element"),
        ([[0, 3, 2, 2]], "stride"),
    ])
    def test_decode_rejects_invalid_records(self, records, reason):
        with pytest.raises(ValueError, match=reason):
            reg.decode_records(records, 10)

    def test_prune_records_breaks_even_on_the_whole_variable(self):
        mask = np.ones(8, dtype=bool)
        mask[4:] = False              # 4 uncritical elements, one record
        assert reg.prune_records(mask, 8) is None        # 32 B vs 32 B
        np.testing.assert_array_equal(reg.prune_records(mask, 16),
                                      [[0, 4, 4, 1]])     # 32 B vs 64 B
        assert reg.prune_records(np.ones(8, dtype=bool), 16) is None
