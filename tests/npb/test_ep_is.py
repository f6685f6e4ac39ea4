"""Tests of the EP (random deviates) and IS (integer sort) ports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import scrutinize
from repro.npb.ep import EP
from repro.npb.is_ import IS
from repro.npb.reference import PUBLISHED, VALUES


@pytest.fixture(scope="module")
def ep():
    return EP(problem_class="T")


@pytest.fixture(scope="module")
def ep_s():
    return EP(problem_class="S")


@pytest.fixture(scope="module")
def ep_s_final(ep_s):
    return ep_s.run_full()


@pytest.fixture(scope="module")
def is_bench():
    return IS(problem_class="T")


class TestEPBatches:
    def test_batch_seed_zero_is_default_seed(self, ep):
        # EP seeds from NPB's EP seed, not the CG/FT/IS default seed
        from repro.npb.common import EP_SEED

        assert ep._batch_seed(0) == EP_SEED

    def test_batch_seeds_match_sequential_stream(self, ep):
        # batch k's seed equals the state after k * batch_draws draws
        from repro.npb.common import EP_SEED, LCG_MULTIPLIER, randlc

        x = EP_SEED
        for _ in range(ep._batch_draws):
            _, x = randlc(x, LCG_MULTIPLIER)
        assert ep._batch_seed(1) == x

    def test_batch_sums_are_deterministic(self, ep):
        a = ep._batch_sums(3)
        b = ep._batch_sums(3)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(a[2], b[2])

    def test_annulus_counts_do_not_exceed_pairs(self, ep):
        _, _, counts = ep._batch_sums(0)
        assert counts.sum() <= 2 ** ep.params.nk
        assert np.all(counts >= 0)

    def test_gaussian_sums_have_plausible_magnitude(self, ep):
        # the mean of ~0.78 * 2**nk standard normals is O(sqrt(n))
        sx, sy, counts = ep._batch_sums(0)
        n_accepted = counts.sum()
        assert abs(sx) < 10.0 * np.sqrt(n_accepted)
        assert abs(sy) < 10.0 * np.sqrt(n_accepted)


class TestEPDynamics:
    def test_total_steps_is_batch_count(self, ep):
        assert ep.total_steps == ep.params.n_batches

    def test_accumulators_are_additive_across_a_checkpoint(self, ep):
        # run all batches in one go vs. restart from a mid-run checkpoint
        full = ep.run_full()
        mid = ep.checkpoint_state(ep.total_steps // 2)
        resumed = ep.run(mid, ep.total_steps - ep.total_steps // 2)
        assert resumed["sx"] == pytest.approx(full["sx"], rel=1e-12)
        assert resumed["sy"] == pytest.approx(full["sy"], rel=1e-12)
        np.testing.assert_allclose(resumed["q"], full["q"])

    def test_run_and_verify_passes(self, ep):
        assert ep.run_and_verify().passed

    def test_verification_fails_on_corrupted_sums(self, ep):
        final = ep.run_full()
        final["sx"] = float(final["sx"]) * 1.01
        assert not ep.verify(final).passed

    def test_verification_without_published_values_uses_recorded_values(
            self, ep):
        assert ep.verify(ep.run_full()).notes == "recorded values"

    def test_all_elements_critical(self, ep):
        result = scrutinize(ep, step=ep.total_steps // 2)
        for crit in result.variables.values():
            assert crit.n_uncritical == 0


class TestEPAgainstNPB:
    """Class S is NPB's class S: its published values are the oracle."""

    def test_class_s_reproduces_npb_published_values(self, ep_s_final):
        published = VALUES[("EP", "S")]
        assert ("EP", "S") in PUBLISHED
        assert float(ep_s_final["sx"]) == pytest.approx(published["sx"],
                                                        rel=1e-8)
        assert float(ep_s_final["sy"]) == pytest.approx(published["sy"],
                                                        rel=1e-8)
        assert published["sx"] == -3.247834652034740e3
        assert published["sy"] == -6.958407078382297e3
        assert published["gc"] == 13176389
        assert float(np.sum(ep_s_final["q"])) == 13176389

    def test_class_s_verifies_against_published_values(self, ep_s,
                                                       ep_s_final):
        result = ep_s.verify(ep_s_final)
        assert result.passed
        assert result.notes == "NPB published values"

    def test_class_s_rejects_a_1e7_relative_change_to_sy(self, ep_s,
                                                         ep_s_final):
        final = dict(ep_s_final)
        final["sy"] = float(final["sy"]) * (1.0 + 1.0e-7)
        result = ep_s.verify(final)
        assert not result.passed
        assert result.details["sy"] > ep_s.epsilon


class TestISRanking:
    def test_bucket_pointers_are_exclusive_prefix_sums(self, is_bench):
        keys = is_bench.initial_state()["key_array"]
        ptrs = is_bench._bucket_pointers(keys)
        buckets = keys >> is_bench._shift
        counts = np.bincount(buckets, minlength=is_bench.params.num_buckets)
        np.testing.assert_array_equal(np.diff(ptrs), counts[:-1])
        assert ptrs[0] == 0

    def test_rank_counts_strictly_smaller_keys(self, is_bench, rng):
        keys = rng.integers(0, is_bench.params.max_key, size=200)
        ranks = is_bench._rank(keys)
        for idx in rng.choice(200, size=10, replace=False):
            assert ranks[idx] == np.count_nonzero(keys < keys[idx])

    def test_sorting_by_rank_orders_the_keys(self, is_bench):
        keys = is_bench.run_full()["key_array"]
        ranks = is_bench._rank(keys)
        ordered = keys[np.argsort(ranks, kind="stable")]
        assert np.all(np.diff(ordered) >= 0)


class TestISDynamics:
    def test_advance_updates_two_keys(self, is_bench):
        state = is_bench.initial_state()
        new = is_bench._advance(state)
        changed = np.flatnonzero(new["key_array"] != state["key_array"])
        assert changed.size <= 2
        assert new["iteration"] == 1

    def test_partial_verification_increments_every_iteration(self, is_bench):
        final = is_bench.run_full()
        assert final["passed_verification"] == is_bench.total_steps

    def test_run_and_verify_passes(self, is_bench):
        assert is_bench.run_and_verify().passed

    def test_verification_fails_if_partial_checks_missed(self, is_bench):
        final = is_bench.run_full()
        final["passed_verification"] = 0
        assert not is_bench.verify(final).passed

    def test_all_variables_rule_critical(self, is_bench):
        result = scrutinize(is_bench, step=is_bench.total_steps // 2)
        for crit in result.variables.values():
            assert crit.method == "rule"
            assert crit.n_uncritical == 0
