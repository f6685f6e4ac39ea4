"""Tests of mixed-precision checkpoint writing, reading and restart."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.ckpt.format import (CheckpointFormatError, CheckpointHeader,
                               write_container)
from repro.ckpt.precision import (map_key, pack_tiers,
                                  read_mixed_precision_checkpoint, tier_key,
                                  unpack_tiers,
                                  write_mixed_precision_checkpoint)
from repro.ckpt.writer import verbatim_record, write_full_checkpoint
from repro.core.analysis import scrutinize
from repro.core.impact import (TIER_DOUBLE, TIER_DROP, TIER_HALF,
                               TIER_SINGLE, PrecisionPlan, plan_precision,
                               plan_precision_for_budget)
from repro.core.variables import CheckpointVariable, VariableKind
from repro.npb import registry


class DummyBench:
    name = "DUMMY"

    class params:  # noqa: D106 - minimal stand-in
        problem_class = "T"

    def step_variable(self):
        return "it"


@pytest.fixture()
def bench():
    return DummyBench()


#: elements per tier block of ``v``: large enough that the tiers save
#: more than the container header of the extra records costs
BLOCK = 256
N = 4 * BLOCK


@pytest.fixture()
def state(rng):
    return {"v": 100.0 * rng.random(N) + 1.0, "it": 2}


@pytest.fixture()
def plans():
    tiers = np.repeat(np.array([TIER_DROP, TIER_HALF, TIER_SINGLE,
                                TIER_DOUBLE], dtype=np.int8), BLOCK)
    return {"v": PrecisionPlan(CheckpointVariable("v", (N,)), tiers)}


class TestTierKey:
    def test_format(self):
        assert tier_key("y_re", TIER_HALF) == "y_re@1"
        assert map_key("y") == "y@map"


class TestTierMap:
    @pytest.mark.parametrize("size", [1, 3, 4, 5, 1001])
    def test_pack_round_trips_at_two_bits_per_element(self, rng, size):
        tiers = rng.integers(0, 4, size=size).astype(np.int8)
        packed = pack_tiers(tiers)
        assert packed.dtype == np.uint8 and packed.size == -(-size // 4)
        np.testing.assert_array_equal(unpack_tiers(packed, size), tiers)


class TestWriteRead:
    def test_roundtrip_precision_per_tier(self, tmp_path, bench, state,
                                          plans):
        written = write_mixed_precision_checkpoint(
            tmp_path / "m.ckpt", bench, state, plans)
        assert written.mode == "mixed"
        loaded = read_mixed_precision_checkpoint(written.path)
        base = {"v": np.zeros(N), "it": 0}
        restored = loaded.materialize(base)
        v, ref = restored["v"], state["v"]
        half, single, double = (slice(k * BLOCK, (k + 1) * BLOCK)
                                for k in (1, 2, 3))
        # dropped elements keep the base value
        np.testing.assert_array_equal(v[:BLOCK], 0.0)
        # half precision: correct to ~3 decimal digits, not exact
        np.testing.assert_allclose(v[half], ref[half], rtol=1e-3)
        assert not np.array_equal(v[half], ref[half])
        # single precision: correct to ~7 digits
        np.testing.assert_allclose(v[single], ref[single], rtol=1e-6)
        # double precision: exact
        np.testing.assert_array_equal(v[double], ref[double])
        # unplanned integer record restored exactly
        assert restored["it"] == 2

    def test_mixed_is_smaller_than_full_payload(self, tmp_path, bench, state,
                                                plans):
        written = write_mixed_precision_checkpoint(
            tmp_path / "m.ckpt", bench, state, plans)
        full = write_full_checkpoint(tmp_path / "f.ckpt", bench, state)
        assert written.nbytes < full.nbytes
        # the tier map lives in the file: no auxiliary file
        assert written.aux_path is None and written.aux_nbytes == 0
        assert not (tmp_path / "m.ckpt.aux").exists()
        loaded = read_mixed_precision_checkpoint(written.path)
        stored = sum(rec.nbytes for rec in loaded.header.records
                     if rec.pruned)
        assert stored == BLOCK * (2 + 4 + 8)
        assert loaded.header.record(map_key("v")).nbytes == N // 4

    def test_values_beyond_a_tier_are_stored_in_a_wider_one(self, tmp_path,
                                                            bench, state,
                                                            plans):
        v = state["v"]
        v[BLOCK] = 1.0e6            # planned half: beyond float16's 65504
        v[BLOCK + 1] = -1.0e300     # planned half: beyond float32 too
        v[2 * BLOCK] = 1.0e300      # planned single: beyond float32
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow in a cast
            written = write_mixed_precision_checkpoint(
                tmp_path / "m.ckpt", bench, state, plans)
        loaded = read_mixed_precision_checkpoint(written.path)
        restored = loaded.materialize({"v": np.zeros(N), "it": 0})["v"]
        assert np.isfinite(restored).all()
        np.testing.assert_allclose(restored[BLOCK], 1.0e6, rtol=2.0 ** -24)
        assert restored[BLOCK + 1] == -1.0e300
        assert restored[2 * BLOCK] == 1.0e300
        stored = sum(rec.nbytes for rec in loaded.header.records
                     if rec.pruned)
        assert stored == (BLOCK - 2) * 2 + BLOCK * 4 + (BLOCK + 2) * 8
        # the plan itself is left as it was
        assert plans["v"].tiers[BLOCK] == TIER_HALF

    def test_all_double_lossless_plan_stores_verbatim(self, tmp_path, bench,
                                                      state):
        plans = {"v": PrecisionPlan(CheckpointVariable("v", (N,)),
                                    np.full(N, TIER_DOUBLE, dtype=np.int8))}
        written = write_mixed_precision_checkpoint(
            tmp_path / "m.ckpt", bench, state, plans)
        # nothing saved: the full checkpoint is written
        assert written.mode == "full"
        loaded = read_mixed_precision_checkpoint(written.path)
        assert not loaded.header.record("v").pruned
        restored = loaded.materialize({})
        np.testing.assert_array_equal(restored["v"], state["v"])

    def test_plan_shape_mismatch_rejected(self, tmp_path, bench, state):
        bad = {"v": PrecisionPlan(CheckpointVariable("v", (8,)),
                                  np.full(8, TIER_DOUBLE, dtype=np.int8))}
        bad["v"].tiers[0] = TIER_HALF
        with pytest.raises(ValueError, match="does not match"):
            write_mixed_precision_checkpoint(tmp_path / "m.ckpt", bench,
                                             state, bad)

    def test_tiny_state_falls_back_to_the_full_checkpoint(self, tmp_path,
                                                          bench):
        # 4 elements cannot pay for the header of the tier records
        state = {"v": np.array([1.0, 2.0, 3.0, 4.0]), "it": 2}
        tiers = np.array([TIER_DROP, TIER_HALF, TIER_SINGLE, TIER_DOUBLE],
                         dtype=np.int8)
        plans = {"v": PrecisionPlan(CheckpointVariable("v", (4,)), tiers)}
        written = write_mixed_precision_checkpoint(
            tmp_path / "m.ckpt", bench, state, plans)
        full = write_full_checkpoint(tmp_path / "f.ckpt", bench, state)
        assert written.mode == "full" and written.nbytes == full.nbytes
        restored = read_mixed_precision_checkpoint(
            written.path).materialize({})
        np.testing.assert_array_equal(restored["v"], state["v"])

    def test_reading_wrong_mode_rejected(self, tmp_path):
        it = np.asarray(2)
        header = CheckpointHeader(benchmark="DUMMY", problem_class="T",
                                  step=2, mode="pruned",
                                  records=[verbatim_record("it", it)])
        write_container(tmp_path / "p.ckpt", header, {"it": it})
        with pytest.raises(CheckpointFormatError, match="mixed"):
            read_mixed_precision_checkpoint(tmp_path / "p.ckpt")

    @pytest.mark.parametrize("damage", ["missing", "short", "recount"])
    def test_bad_tier_map_rejected(self, tmp_path, bench, state, plans,
                                   damage):
        written = write_mixed_precision_checkpoint(
            tmp_path / "m.ckpt", bench, state, plans)
        loaded = read_mixed_precision_checkpoint(written.path)
        header, arrays = loaded.header, dict(loaded.arrays)
        packed = arrays.pop(map_key("v"))
        if damage == "short":
            arrays[map_key("v")] = packed[:-1]
        elif damage == "recount":
            # move one element from the double tier to the half tier
            tiers = unpack_tiers(packed, N)
            tiers[-1] = TIER_HALF
            arrays[map_key("v")] = pack_tiers(tiers)
        header.records = [rec for rec in header.records
                          if rec.key in arrays]
        write_container(tmp_path / "bad.ckpt", header, arrays)
        with pytest.raises(CheckpointFormatError, match="tier"):
            read_mixed_precision_checkpoint(tmp_path / "bad.ckpt")

    def test_materialize_requires_base_for_planned_keys(self, tmp_path,
                                                        bench, state, plans):
        written = write_mixed_precision_checkpoint(
            tmp_path / "m.ckpt", bench, state, plans)
        loaded = read_mixed_precision_checkpoint(written.path)
        with pytest.raises(ValueError, match="base state"):
            loaded.materialize({"it": 0})


class TestComplexPairVariables:
    def test_both_components_share_the_plan(self, tmp_path, bench, rng):
        n = 2 * BLOCK
        state = {"y_re": rng.random(n), "y_im": rng.random(n), "it": 1}
        var = CheckpointVariable("y", (n,), VariableKind.COMPLEX_PAIR)
        tiers = np.repeat(np.array([TIER_DROP, TIER_HALF, TIER_DOUBLE,
                                    TIER_DOUBLE], dtype=np.int8), n // 4)
        plans = {"y": PrecisionPlan(var, tiers)}
        written = write_mixed_precision_checkpoint(tmp_path / "m.ckpt",
                                                   bench, state, plans)
        loaded = read_mixed_precision_checkpoint(written.path)
        assert written.mode == "mixed"
        assert [rec.key for rec in loaded.header.records].count(
            map_key("y")) == 1
        base = {"y_re": np.zeros(n), "y_im": np.zeros(n), "it": 0}
        restored = loaded.materialize(base)
        half = slice(n // 4, n // 2)
        for key in ("y_re", "y_im"):
            np.testing.assert_array_equal(restored[key][:n // 4], 0.0)
            np.testing.assert_allclose(restored[key][half], state[key][half],
                                       rtol=1e-3)
            np.testing.assert_array_equal(restored[key][n // 2:],
                                          state[key][n // 2:])


class TestEndToEndOnBenchmarks:
    @pytest.mark.parametrize("name", ["BT", "MG", "FT"])
    def test_tolerance_driven_restart_passes_verification(self, name,
                                                          tmp_path):
        bench = registry.create(name, "T")
        result = scrutinize(bench)
        plans = plan_precision_for_budget(result.variables, result.state,
                                          budget=0.0)
        written = write_mixed_precision_checkpoint(
            tmp_path / f"{name}.ckpt", bench, result.state, plans,
            step=result.step)
        loaded = read_mixed_precision_checkpoint(written.path)
        restored = loaded.materialize(bench.initial_state())
        final = bench.run(restored, bench.total_steps - loaded.step)
        assert bench.verify(final).passed

    def test_aggressive_plan_saves_more_bytes_than_pruning(self, tmp_path):
        from repro.ckpt.writer import write_pruned_checkpoint

        bench = registry.create("MG", "T")
        result = scrutinize(bench)
        pruned = write_pruned_checkpoint(tmp_path / "p.ckpt", bench,
                                         result.state, result.variables,
                                         step=result.step)
        plans = plan_precision(result.variables)
        mixed = write_mixed_precision_checkpoint(tmp_path / "m.ckpt", bench,
                                                 result.state, plans,
                                                 step=result.step)
        assert mixed.nbytes < pruned.nbytes
