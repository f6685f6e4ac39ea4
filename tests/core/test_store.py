"""Tests of the persistent result store (:mod:`repro.core.store`)."""

from __future__ import annotations

import hashlib
import json
import warnings

import numpy as np
import pytest

import repro
from repro.core import analysis
from repro.core.store import ResultStore, cache_key
from repro.experiments.runner import ExperimentRunner
from repro.npb import registry


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cache")


KEY_PARAMS = dict(benchmark="BT", problem_class="T", method="ad", n_probes=1)


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(**KEY_PARAMS) == cache_key(**KEY_PARAMS)

    def test_depends_on_every_parameter(self):
        base = cache_key(**KEY_PARAMS)
        variants = [
            dict(KEY_PARAMS, benchmark="MG"),
            dict(KEY_PARAMS, problem_class="S"),
            dict(KEY_PARAMS, method="activity"),
            dict(KEY_PARAMS, n_probes=2),
            dict(KEY_PARAMS, step=3),
            dict(KEY_PARAMS, steps=1),
            dict(KEY_PARAMS, probe_scale=1.0e-2),
            dict(KEY_PARAMS, version="0.0.0-other"),
        ]
        keys = [cache_key(**params) for params in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_key_hashes_exactly_the_identity_fields(self):
        """Golden: the address is the SHA-256 of these nine fields only."""
        payload = {"format": 1, "benchmark": "BT", "problem_class": "T",
                   "method": "ad", "n_probes": 1, "probe_scale": 1.0e-3,
                   "step": 3, "steps": None, "version": "9.9.9"}
        blob = json.dumps(payload, sort_keys=True).encode("ascii")
        assert cache_key(**KEY_PARAMS, step=3, version="9.9.9") \
            == hashlib.sha256(blob).hexdigest()[:20]

    def test_probe_scale_never_aliases(self):
        # regression: runs with different perturbation magnitudes probe
        # different base states and must never share a cache entry
        scales = (1.0e-3, 1.0e-2, 2.0e-3, 1.0e-3 + 1.0e-12)
        keys = {cache_key(**KEY_PARAMS, probe_scale=s) for s in scales}
        assert len(keys) == len(scales)

    def test_probe_scale_defaults_to_analyzer_default(self):
        from repro.core.criticality import CriticalityAnalyzer

        default = CriticalityAnalyzer().probe_scale
        assert cache_key(**KEY_PARAMS) \
            == cache_key(**KEY_PARAMS, probe_scale=default)

    def test_defaults_to_package_version(self):
        assert cache_key(**KEY_PARAMS) == cache_key(
            **KEY_PARAMS, version=repro.__version__)

    def test_entries_of_the_previous_version_are_not_served(self, tmp_path,
                                                            bt_t_result):
        # 1.10.0 moved CG's gradients in their last bits (banded matvec),
        # 1.11.0 moved FT's (FFT) and MG's (strided axis matmul) and 1.12.0
        # moved EP's values (NPB's EP seed), so results stored by any
        # earlier version must miss under the current one
        for old in ("1.9.0", "1.10.0", "1.11.0"):
            assert repro.__version__ != old
            assert cache_key(**KEY_PARAMS, version=old) \
                != cache_key(**KEY_PARAMS)
            ResultStore(tmp_path / old, version=old).put(bt_t_result,
                                                         n_probes=1)
            current = ResultStore(tmp_path / old)
            assert current.fetch(**KEY_PARAMS) is None
            assert current.misses == 1

    def test_benchmark_name_case_insensitive(self):
        assert cache_key(**dict(KEY_PARAMS, benchmark="bt")) \
            == cache_key(**KEY_PARAMS)


class TestRoundTrip:
    def test_result_survives_save_load(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        store.save(key, bt_t_result)
        loaded = store.load("BT", key)

        assert loaded is not None
        assert loaded.benchmark == bt_t_result.benchmark
        assert loaded.problem_class == bt_t_result.problem_class
        assert loaded.step == bt_t_result.step
        assert loaded.method == bt_t_result.method
        assert list(loaded.variables) == list(bt_t_result.variables)
        for name, crit in bt_t_result.variables.items():
            got = loaded.variables[name]
            assert got.variable == crit.variable
            assert got.method == crit.method
            assert np.array_equal(got.mask, crit.mask)
            assert set(got.gradients) == set(crit.gradients)
            for state_key, grad in crit.gradients.items():
                assert np.array_equal(got.gradients[state_key], grad)

    def test_state_types_and_values_preserved(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        store.save(key, bt_t_result)
        loaded = store.load("BT", key)
        assert set(loaded.state) == set(bt_t_result.state)
        for state_key, value in bt_t_result.state.items():
            restored = loaded.state[state_key]
            assert type(restored) is type(value)
            assert np.array_equal(np.asarray(restored), np.asarray(value))

    def test_derived_quantities_identical(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        store.save(key, bt_t_result)
        loaded = store.load("BT", key)
        assert loaded.n_uncritical == bt_t_result.n_uncritical
        assert loaded.pruned_nbytes == bt_t_result.pruned_nbytes
        assert loaded.regions() == bt_t_result.regions()
        assert loaded.to_dict() == bt_t_result.to_dict()

    def test_contains(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        assert not store.contains("BT", key)
        store.save(key, bt_t_result)
        assert store.contains("BT", key)


class TestMissBehaviour:
    def test_empty_store_misses(self, store):
        assert store.load("BT", store.key(**KEY_PARAMS)) is None
        assert store.misses == 1 and store.hits == 0

    def test_corrupt_metadata_is_a_miss(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        meta_path = store.save(key, bt_t_result)
        meta_path.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.load("BT", key) is None

    def test_missing_array_file_is_a_miss(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        store.save(key, bt_t_result)
        (store.root / "BT" / f"{key}.npz").unlink()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.load("BT", key) is None

    def test_truncated_array_file_is_a_miss(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        store.save(key, bt_t_result)
        npz_path = store.root / "BT" / f"{key}.npz"
        npz_path.write_bytes(npz_path.read_bytes()[:100])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.load("BT", key) is None

    def test_unwritable_store_does_not_lose_results(self, tmp_path):
        # cache dir path occupied by a regular file: computation must
        # succeed anyway, persistence silently degrades
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        runner = ExperimentRunner(problem_class="T", cache_dir=blocker)
        result = runner.result("CG")
        assert result.benchmark == "CG"

    def test_format_bump_is_a_miss(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        meta_path = store.save(key, bt_t_result)
        meta = json.loads(meta_path.read_text())
        meta["format"] = 999
        meta_path.write_text(json.dumps(meta))
        assert store.load("BT", key) is None


class TestCorruptionQuarantine:
    """Corrupt entries are counted, warned about once and renamed aside."""

    def _entry(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        store.save(key, bt_t_result)
        return key, store.root / "BT" / f"{key}.json", \
            store.root / "BT" / f"{key}.npz"

    def _flip_byte(self, path):
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_digest_mismatch_counts_warns_and_quarantines(
            self, store, bt_t_result):
        key, meta_path, npz_path = self._entry(store, bt_t_result)
        self._flip_byte(npz_path)
        damaged = npz_path.read_bytes()

        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.load("BT", key) is None
        assert store.corrupt_entries == 1
        # both files renamed aside, content preserved for post-mortem
        assert not meta_path.exists() and not npz_path.exists()
        aside = npz_path.with_name(f"{npz_path.name}.corrupt-0")
        assert aside.read_bytes() == damaged
        assert aside in store.quarantined_paths
        assert meta_path.with_name(f"{meta_path.name}.corrupt-0").is_file()
        # the key now re-misses cleanly and can be re-populated
        assert store.load("BT", key) is None
        assert store.corrupt_entries == 1
        store.save(key, bt_t_result)
        assert store.load("BT", key) is not None

    def test_warning_fires_once_counter_keeps_counting(
            self, store, bt_t_result):
        key1, _, npz1 = self._entry(store, bt_t_result)
        key2 = store.key(**dict(KEY_PARAMS, n_probes=2))
        store.save(key2, bt_t_result)
        npz2 = store.root / "BT" / f"{key2}.npz"
        self._flip_byte(npz1)
        self._flip_byte(npz2)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.load("BT", key1) is None
            assert store.load("BT", key2) is None
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert store.corrupt_entries == 2

    def test_quarantine_suffix_never_clobbers(self, store, bt_t_result):
        key, _, npz_path = self._entry(store, bt_t_result)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2):
                self._flip_byte(npz_path)
                assert store.load("BT", key) is None
                store.save(key, bt_t_result)
        for counter in range(2):
            assert npz_path.with_name(
                f"{npz_path.name}.corrupt-{counter}").is_file()
        assert store.corrupt_entries == 2

    def test_truncation_and_bad_json_count_too(self, store, bt_t_result):
        key, meta_path, npz_path = self._entry(store, bt_t_result)
        npz_path.write_bytes(npz_path.read_bytes()[:100])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert store.load("BT", key) is None
            store.save(key, bt_t_result)
            meta_path.write_text("{ not json")
            assert store.load("BT", key) is None
        assert store.corrupt_entries == 2

    def test_plain_misses_stay_uncounted(self, store, bt_t_result):
        key = store.key(**KEY_PARAMS)
        assert store.load("BT", key) is None          # absent entry
        meta_path = store.save(key, bt_t_result)
        meta = json.loads(meta_path.read_text())
        meta["format"] = 999
        meta_path.write_text(json.dumps(meta))
        assert store.load("BT", key) is None          # format bump
        store.save(key, bt_t_result)
        (store.root / "BT" / f"{key}.npz").unlink()
        meta_path.unlink()
        assert store.load("BT", key) is None          # deleted entry
        assert store.corrupt_entries == 0
        assert store.quarantined_paths == []

    def test_failure_marker_results_are_refused(self, store):
        from repro.experiments.faults import failure_from_exception
        from repro.experiments.parallel import (ScrutinyJob,
                                                _failure_result, job_token)

        job = ScrutinyJob("BT", "T")
        failure = failure_from_exception(
            benchmark="BT", job_token=job_token(job),
            exc=ValueError("poisoned"), attempts=3)
        with pytest.raises(ValueError, match="failure-marker"):
            store.save(store.key(**KEY_PARAMS),
                       _failure_result(job, failure))


class TestRunnerIntegration:
    def _counting_runner(self, tmp_path, monkeypatch, **kwargs):
        calls = []
        real = analysis.scrutinize

        def counting(bench, **kw):
            calls.append(bench.name)
            return real(bench, **kw)

        # the parallel module resolves scrutinize at call time via run_job
        monkeypatch.setattr("repro.experiments.parallel.scrutinize",
                            counting)
        runner = ExperimentRunner(problem_class="T",
                                  cache_dir=tmp_path / "cache", **kwargs)
        return runner, calls

    def test_cache_hit_skips_recomputation(self, tmp_path, monkeypatch):
        cold, cold_calls = self._counting_runner(tmp_path, monkeypatch)
        first = cold.result("CG")
        assert cold_calls == ["CG"]

        warm, warm_calls = self._counting_runner(tmp_path, monkeypatch)
        second = warm.result("CG")
        assert warm_calls == []          # served entirely from disk
        assert warm.store.hits == 1
        assert np.array_equal(first.variables["x"].mask,
                              second.variables["x"].mask)

    def test_no_cache_flag_disables_store(self, tmp_path, monkeypatch):
        cold, _ = self._counting_runner(tmp_path, monkeypatch)
        cold.result("CG")

        runner, calls = self._counting_runner(tmp_path, monkeypatch,
                                              use_cache=False)
        assert runner.store is None
        runner.result("CG")
        assert calls == ["CG"]           # recomputed despite the warm dir

    def test_method_change_invalidates(self, tmp_path, monkeypatch):
        ad, _ = self._counting_runner(tmp_path, monkeypatch)
        ad.result("CG")

        activity, calls = self._counting_runner(tmp_path, monkeypatch,
                                                method="activity")
        result = activity.result("CG")
        assert calls == ["CG"]           # different method -> different key
        assert result.method == "activity"

    def test_n_probes_change_invalidates(self, tmp_path, monkeypatch):
        one, _ = self._counting_runner(tmp_path, monkeypatch)
        one.result("CG")

        three, calls = self._counting_runner(tmp_path, monkeypatch,
                                             n_probes=3)
        three.result("CG")
        assert calls == ["CG"]

    def test_probe_scale_change_invalidates(self, tmp_path, monkeypatch):
        # regression: probe_scale used to be missing from the cache key,
        # so two runs with different perturbation magnitudes aliased
        default, _ = self._counting_runner(tmp_path, monkeypatch,
                                           n_probes=2)
        default.result("CG")

        wider, calls = self._counting_runner(tmp_path, monkeypatch,
                                             n_probes=2, probe_scale=1.0e-1)
        wider.result("CG")
        assert calls == ["CG"]           # different scale -> different key

        again, calls = self._counting_runner(tmp_path, monkeypatch,
                                             n_probes=2, probe_scale=1.0e-1)
        again.result("CG")
        assert calls == []               # same scale hits its own entry

    def test_probe_batching_change_invalidates(self, tmp_path, monkeypatch,
                                               force_per_probe):
        """Not any more: how probes execute is not part of the result.

        Whether the analyzer stacks the probes or falls back to one sweep
        per probe, the masks are identical, so a fallback run is served
        from the entry the batched run wrote.
        """
        batched, _ = self._counting_runner(tmp_path, monkeypatch,
                                           n_probes=2)
        batched.result("CG")

        force_per_probe()
        looped, calls = self._counting_runner(tmp_path, monkeypatch,
                                              n_probes=2)
        looped.result("CG")
        assert calls == []

    def test_version_change_invalidates(self, tmp_path, bt_t_result):
        v1 = ResultStore(tmp_path / "cache", version="1.0.0")
        v1.put(bt_t_result, n_probes=1)
        assert v1.fetch(**KEY_PARAMS) is not None

        v2 = ResultStore(tmp_path / "cache", version="2.0.0")
        assert v2.fetch(**KEY_PARAMS) is None


class TestSweepIndependence:
    """One store serves both sweeps: the sweep is not result identity."""

    PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")

    def test_monolithic_fill_serves_segmented_reads(self, tmp_path):
        cache = tmp_path / "cache"
        ExperimentRunner(problem_class="T", sweep="monolithic",
                         cache_dir=cache).prefetch(self.PORTS)

        warm = ExperimentRunner(problem_class="T", sweep="segmented",
                                cache_dir=cache)
        cached = warm.results(self.PORTS)
        assert warm.store.misses == 0
        assert warm.store.hits == len(self.PORTS)
        assert warm.fault_stats.completed == 0     # nothing recomputed

        for name in self.PORTS:
            fresh = analysis.scrutinize(registry.create(name, "T"),
                                        sweep="segmented")
            got = cached[name]
            assert list(got.variables) == list(fresh.variables)
            for var, crit in fresh.variables.items():
                assert np.array_equal(crit.mask, got.variables[var].mask), \
                    f"{name}.{var} mask"
                assert list(crit.gradients) == \
                    list(got.variables[var].gradients)
                for key, grad in crit.gradients.items():
                    stored = got.variables[var].gradients[key]
                    assert grad.dtype == stored.dtype
                    assert grad.shape == stored.shape
                    assert grad.tobytes() == stored.tobytes(), \
                        f"{name}.{var}[{key}] gradient bits"
