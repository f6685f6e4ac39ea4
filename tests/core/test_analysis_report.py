"""Tests of the scrutinize orchestration and the Table II/III reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ScrutinyResult, scrutinize
from repro.core.regions import encode_records
from repro.core.report import (StorageRow, UncriticalRow, format_bytes,
                               format_table, pruned_variable_nbytes,
                               storage_rows, uncritical_rows)
from repro.npb import registry


class TestScrutinize:
    def test_result_metadata(self, bt_t, bt_t_result):
        assert bt_t_result.benchmark == "BT"
        assert bt_t_result.problem_class == "T"
        assert bt_t_result.step == bt_t.total_steps // 2
        assert bt_t_result.method == "ad"
        assert set(bt_t_result.variables) == {"u", "step"}

    def test_result_carries_the_checkpoint_state(self, bt_t, bt_t_result):
        assert set(bt_t_result.state) == {"u", "step"}
        assert bt_t_result.state["u"].shape == bt_t.params.u_shape

    def test_aggregate_counts(self, bt_t_result):
        total = sum(c.n_elements for c in bt_t_result.variables.values())
        uncritical = sum(c.n_uncritical
                         for c in bt_t_result.variables.values())
        assert bt_t_result.n_elements == total
        assert bt_t_result.n_uncritical == uncritical
        assert bt_t_result.uncritical_rate == pytest.approx(
            uncritical / total)

    def test_storage_accounting(self, bt_t_result):
        assert bt_t_result.pruned_nbytes < bt_t_result.full_nbytes
        assert bt_t_result.pruned_total_nbytes == (
            bt_t_result.pruned_nbytes + bt_t_result.aux_nbytes)
        assert 0.0 < bt_t_result.storage_saved_fraction < 1.0
        # saved fraction equals the uncritical byte fraction of the
        # floating-point payload
        saved_bytes = bt_t_result.full_nbytes - bt_t_result.pruned_nbytes
        expected = bt_t_result.variables["u"].n_uncritical * 8
        assert saved_bytes == expected

    def test_masks_and_regions_views(self, bt_t_result):
        masks = bt_t_result.masks()
        regions = bt_t_result.regions()
        assert set(masks) == set(regions) == {"u", "step"}
        assert masks["u"].dtype == bool

    def test_to_dict_is_json_serialisable(self, bt_t_result):
        import json

        payload = bt_t_result.to_dict()
        text = json.dumps(payload)
        assert "benchmark" in text
        assert payload["variables"]["u"]["uncritical"] \
            == bt_t_result.variables["u"].n_uncritical

    def test_describe_mentions_every_variable(self, bt_t_result):
        text = bt_t_result.describe()
        assert "BT" in text and "u[" in text and "step" in text

    def test_explicit_state_overrides_step(self, bt_t):
        state = bt_t.checkpoint_state(1)
        result = scrutinize(bt_t, step=3, state=state)
        assert result.step == 3  # reported step is the caller's label
        assert np.array_equal(result.state["u"], state["u"])

    def test_summaries_match_variables(self, bt_t_result):
        summaries = {s.name: s for s in bt_t_result.summaries()}
        for name, crit in bt_t_result.variables.items():
            assert summaries[name].uncritical == crit.n_uncritical


class TestUncriticalRows:
    def test_rows_skip_integers_scalars_and_fully_critical(self):
        results = {"CG": scrutinize(registry.create("CG", "T")).variables,
                   "EP": scrutinize(registry.create("EP", "T")).variables}
        rows = uncritical_rows(results)
        labels = [row.label for row in rows]
        assert labels == ["CG(x)"]

    def test_include_fully_critical_flag(self):
        results = {"EP": scrutinize(registry.create("EP", "T")).variables}
        rows = uncritical_rows(results, include_fully_critical=True)
        assert {r.variable for r in rows} == {"q"}

    def test_row_properties(self):
        row = UncriticalRow("BT", "u", 25, 100)
        assert row.uncritical_rate == pytest.approx(0.25)
        assert row.label == "BT(u)"
        assert row.as_cells()[-1] == "25.0%"


class TestStorageRows:
    def test_rows_cover_every_benchmark(self, bt_t_result):
        rows = storage_rows({"BT": bt_t_result.variables})
        assert len(rows) == 1
        row = rows[0]
        assert row.benchmark == "BT"
        assert row.optimized_nbytes < row.original_nbytes
        assert row.aux_nbytes > 0
        assert 0.0 < row.saved_fraction < 1.0
        assert row.net_saved_fraction < row.saved_fraction

    def test_storage_row_zero_division_guard(self):
        row = StorageRow("X", 0, 0)
        assert row.saved_fraction == 0.0
        assert row.net_saved_fraction == 0.0

    def test_pruned_variable_nbytes_includes_region_records(self, bt_t_result):
        crit = bt_t_result.variables["u"]
        assert pruned_variable_nbytes(crit) \
            == crit.critical_nbytes + 32 * len(encode_records(crit.mask))


class TestFormatting:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512b"
        assert format_bytes(81120) == "79.2kb"
        assert format_bytes(5 * 1024 ** 2) == "5.0Mb"
        assert format_bytes(3 * 1024 ** 3) == "3.00Gb"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [("1", "2"), ("333", "4")],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
        # all data rows have the same width
        assert len(lines[3]) == len(lines[4])
