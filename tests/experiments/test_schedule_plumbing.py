"""Snapshot-schedule plumbing: there is no schedule choice.

The segmented sweeps keep every boundary snapshot.  Since repro 1.9.0 no
schedule is public surface above :mod:`repro.ad` -- jobs, store keys, the
experiment runner and the CLI carry none -- and the ``repro.ad`` sweep
functions take no schedule, budget or spill directory either.  These tests
pin that absence and that every segmented analysis builds keep-all
stores.
"""

from __future__ import annotations

import pytest

import repro
import repro.ad.activity as activity_mod
import repro.ad.segmented as segmented_mod
from repro.ad.probes import segmented_batched_gradients
from repro.ad.schedule import SnapshotSchedule
from repro.ad.segmented import segmented_gradients
from repro.cli import build_parser, main
from repro.core.analysis import scrutinize
from repro.core.criticality import CriticalityAnalyzer
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ParallelRunner, ScrutinyJob, run_job
from repro.npb import registry


def _schedules_made(monkeypatch) -> list[SnapshotSchedule]:
    """Record every snapshot store a sweep builds."""
    made: list[SnapshotSchedule] = []
    real = segmented_mod.make_schedule

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    # every segmented sweep (gradient, probe-batched, activity) builds its
    # stores through the one driver in repro.ad.segmented
    monkeypatch.setattr(segmented_mod, "make_schedule", spy)
    return made


class TestScrutinyJobSchedule:
    def test_schedule_defaults_to_all(self, monkeypatch):
        made = _schedules_made(monkeypatch)
        run_job(ScrutinyJob("CG", "T", sweep="segmented"))
        assert len(made) == 1 and type(made[0]) is SnapshotSchedule
        assert not any("snapshot" in field
                       for field in ScrutinyJob("CG", "T").key_params())

    def test_jobs_differing_only_in_schedule_are_distinct(self):
        """A job no longer carries a schedule to differ in."""
        with pytest.raises(TypeError, match="snapshot_schedule"):
            ScrutinyJob("CG", "T", sweep="segmented",
                        snapshot_schedule="binomial")

    def test_spill_dir_is_not_analysis_identity(self):
        assert "spill_dir" not in ScrutinyJob("CG", "T").key_params()
        with pytest.raises(TypeError, match="spill_dir"):
            ScrutinyJob("CG", "T", sweep="segmented", spill_dir="/tmp/a")

class TestStoreScheduleKey:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad", n_probes=1)

    def test_schedule_is_part_of_the_key(self):
        """Not any more: every schedule computes the same result."""
        with pytest.raises(TypeError, match="snapshot_schedule"):
            cache_key(**self.PARAMS, snapshot_schedule="binomial",
                      version="1")

    def test_budget_is_part_of_the_key(self):
        """Not any more: the budget only trades memory for recomputation."""
        with pytest.raises(TypeError, match="snapshot_budget"):
            cache_key(**self.PARAMS, snapshot_budget=4, version="1")

    def test_version_bumped_past_1_2_0(self):
        # the 1.9.0 bump drops the schedule fields from the key payload;
        # no entry written under an older layout is ever read back
        assert tuple(int(p) for p in repro.__version__.split(".")) >= (1, 9, 0)
        assert cache_key(**self.PARAMS) != cache_key(**self.PARAMS,
                                                     version="1.8.0")

    def test_put_fetch_roundtrip_under_schedule_key(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", sweep="segmented"))
        store.put(result, n_probes=1)
        assert store.fetch(**self.PARAMS) is not None
        assert store.fetch(**{**self.PARAMS, "n_probes": 2}) is None

    def test_parallel_runner_persists_under_job_schedule(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(workers=1, store=store)
        job = ScrutinyJob("CG", "T", sweep="segmented")
        engine.run([job])
        assert store.fetch(**job.key_params()) is not None
        before = store.hits
        engine.run([job])
        assert store.hits == before + 1


class TestAnalyzerSchedule:
    @pytest.mark.parametrize("option", ("snapshot_schedule",
                                        "snapshot_budget", "spill_dir"))
    def test_sweep_functions_take_no_schedule(self, option):
        bench = registry.create("CG", "T")
        state = bench.initial_state()
        for sweep in (segmented_gradients,
                      activity_mod.segmented_read_masks):
            with pytest.raises(TypeError, match=option):
                sweep(bench, state, **{option: None})
        with pytest.raises(TypeError, match=option):
            segmented_batched_gradients(bench, [state], **{option: None})

    def test_analyzer_rejects_schedule_without_segmented_sweep(self):
        # the analyzer accepts no schedule at all, under either sweep
        for sweep in ("monolithic", "segmented"):
            with pytest.raises(TypeError, match="snapshot_schedule"):
                CriticalityAnalyzer(sweep=sweep,
                                    snapshot_schedule="binomial")
            with pytest.raises(TypeError, match="spill_dir"):
                CriticalityAnalyzer(sweep=sweep, spill_dir="/tmp/scratch")

    def test_analyzer_rejects_inapplicable_budget_and_spill_dir(self):
        with pytest.raises(TypeError, match="snapshot_budget"):
            CriticalityAnalyzer(sweep="segmented", snapshot_budget=8)
        with pytest.raises(TypeError, match="snapshot_budget"):
            scrutinize(registry.create("CG", "T"), sweep="segmented",
                       snapshot_budget=8)

    def test_run_job_surfaces_inapplicable_schedule(self):
        with pytest.raises(TypeError, match="snapshot_schedule"):
            run_job(ScrutinyJob("CG", "T", snapshot_schedule="binomial"))

    def test_analyzer_defaults(self, monkeypatch):
        made = _schedules_made(monkeypatch)
        CriticalityAnalyzer(sweep="segmented", n_probes=2).analyze(
            registry.create("CG", "T"))
        # one keep-everything store per probe of the batched sweep
        assert len(made) == 2
        assert all(type(sched) is SnapshotSchedule for sched in made)


class TestRunnerSchedule:
    def test_scrutinize_builds_one_schedule(self, monkeypatch):
        made = _schedules_made(monkeypatch)
        result = scrutinize(registry.create("CG", "T"), sweep="segmented")
        assert result.benchmark == "CG"
        assert len(made) == 1


class TestCliSchedule:
    def test_parser_accepts_schedule_flags(self):
        """The schedule flags are gone; the sweep is the only knob."""
        parser = build_parser()
        for flags in (["--snapshot-schedule", "binomial"],
                      ["--snapshot-budget", "4"],
                      ["--spill-dir", "/tmp/scratch"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["--sweep", "segmented", *flags,
                                   "analyze", "CG"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "CG"])
        assert not hasattr(args, "snapshot_schedule")
        assert not hasattr(args, "snapshot_budget")
        assert not hasattr(args, "spill_dir")

    def test_parser_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--snapshot-schedule", "fifo", "analyze", "CG"])

    def test_schedule_flags_require_segmented_sweep(self, capsys):
        for sweep in ("monolithic", "segmented"):
            with pytest.raises(SystemExit):
                main(["--sweep", sweep, "analyze", "CG",
                      "--snapshot-schedule", "spill"])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_budget_lower_bound_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--sweep", "segmented", "analyze", "CG",
                  "--snapshot-budget", "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_budget_and_spill_dir_require_their_schedules(self, capsys):
        for flags in (["--snapshot-budget", "8"],
                      ["--spill-dir", "/tmp/scratch"]):
            with pytest.raises(SystemExit):
                main(["--sweep", "segmented", "analyze", "CG", *flags])
            assert "unrecognized arguments" in capsys.readouterr().err
