"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The arithmetic tests use a scripted clock; the smoke tests run each
workload's code path once at class T, traced, and check that the layer self
times add up to the iteration's wall time.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

import measure
import run
import spans
import workloads
from spans import Instrumentation, Span, Tracer, layer_split


class ScriptedClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def _nested_tracer() -> Tracer:
    # iteration [0, 10]: ad.trace [1, 4] holding npb.forward [2, 3],
    # then ckpt.write [5, 9]
    tracer = Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span(spans.ROOT):
        with tracer.span("ad.trace"):
            with tracer.span("npb.forward"):
                pass
        with tracer.span("ckpt.write"):
            pass
    return tracer


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    tracer = _nested_tracer()
    assert [s.name for s in tracer.spans] == [
        spans.ROOT, "ad.trace", "npb.forward", "ckpt.write"]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    parent = Span("ad.segmented", 0.0, 10.0)
    children = [Span("npb.forward", 1.0, 5.0, parent=0),
                Span("npb.forward", 3.0, 6.0, parent=0),
                Span("npb.forward", 8.0, 12.0, parent=0)]
    own = spans.self_times([parent, *children])
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_split_adds_up_to_the_root():
    split = layer_split(_nested_tracer().spans)
    assert split["wall_s"] == 10.0
    assert split["other_s"] == 3.0
    assert split["ad.self_s"] == 2.0
    assert split["npb.self_s"] == 1.0
    assert split["ckpt.self_s"] == 4.0
    assert split["core.self_s"] == 0.0
    assert split["ad.trace_s"] == 2.0
    assert spans.layer_sum_error(split) == 0.0


def test_layer_sum_error_flags_a_gap():
    split = layer_split(_nested_tracer().spans)
    split["other_s"] -= 1.0
    assert spans.layer_sum_error(split) == pytest.approx(0.1)


def test_layer_split_ignores_spans_outside_the_root():
    tracer = _nested_tracer()
    tracer.spans.append(Span("core.mask", 20.0, 30.0))
    assert layer_split(tracer.spans)["core.self_s"] == 0.0


def test_inclusive_by_attr_sums_per_port():
    tracer = Tracer(clock=ScriptedClock(0, 1, 2, 4))
    with tracer.span("core.analyze", port="CG"):
        pass
    with tracer.span("core.analyze", port="CG"):
        pass
    assert spans.inclusive_by_attr(tracer.spans, "core.analyze", "port") \
        == {"CG": 3.0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=ScriptedClock(0, 1))
    with pytest.raises(RuntimeError):
        with tracer.span("npb.forward"):
            raise RuntimeError("boom")
    assert tracer.spans[0].duration == 1.0
    assert not tracer.inside("npb")


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, med, q3 = measure.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert measure.spread(values) == pytest.approx((q3 - q1) / med)


def test_quartiles_of_one_value():
    assert measure.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert measure.spread([2.5]) == 0.0
    with pytest.raises(ValueError):
        measure.quartiles([])


@pytest.mark.parametrize("n, expected", [(10, None), (99, None), (100, 90.0),
                                         (999, 90.0), (1000, 99.0),
                                         (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_summarize_reports_tail_only_with_enough_samples():
    assert "p90" not in measure.summarize([1.0] * 20)
    summary = measure.summarize([float(i) for i in range(100)])
    assert summary["n"] == 100 and summary["p90"] == 90.0


# ----------------------------------------------------------------------
# exact counts
# ----------------------------------------------------------------------
def test_exact_metric_names():
    assert measure.is_exact("npb.steps")
    assert measure.is_exact("ckpt.bytes_ratio.FT")
    assert measure.is_exact("ckpt_bytes_ratio")
    assert not measure.is_exact("ckpt.write_s")
    assert not measure.is_exact("wall_s")


def test_exact_record_flags_a_changed_count(tmp_path: Path):
    record = tmp_path / "exact.json"
    first = {"npb.steps": 100, "wall_s": 1.0}
    assert measure.check_exact_record(record, first) == []
    assert json.loads(record.read_text()) == {"npb.steps": 100}
    assert measure.check_exact_record(record, {"npb.steps": 100,
                                               "wall_s": 2.0}) == []
    problems = measure.check_exact_record(record, {"npb.steps": 101})
    assert problems and "npb.steps" in problems[0]
    # a failed comparison does not overwrite the record
    assert json.loads(record.read_text()) == {"npb.steps": 100}


def test_environment_records_blas_and_sizes(tmp_path: Path):
    env = measure.environment(tmp_path, {"CG": {"na": 1400}})
    assert env["git_sha"] is None and env["git_dirty"] is None
    assert env["nproc"] >= 1
    assert env["problem_sizes"] == {"CG": {"na": 1400}}
    assert set(env["blas"]) == {"vendor", "version", "threads"}


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def test_instrumentation_restores_every_binding():
    import repro.ckpt.failure as failure
    import repro.core.criticality as criticality
    from repro.core.store import ResultStore
    from repro.npb.base import NPBBenchmark
    from repro.npb.cg import CG

    before = (NPBBenchmark.run, criticality.backward, ResultStore.load,
              failure.run_with_checkpoints, "verify" in vars(CG))
    with Instrumentation(Tracer()):
        assert NPBBenchmark.run is not before[0]
        assert criticality.backward is not before[1]
    after = (NPBBenchmark.run, criticality.backward, ResultStore.load,
             failure.run_with_checkpoints, "verify" in vars(CG))
    assert after == before


# ----------------------------------------------------------------------
# class-T smoke of each workload's code path, traced
# ----------------------------------------------------------------------
def _assert_adds_up(it) -> dict[str, float]:
    split = layer_split(it.tracer.spans)
    assert spans.layer_sum_error(split) < 1e-9
    assert split["wall_s"] == pytest.approx(it.wall_s, rel=0.02)
    assert run.self_check([it]) == []
    return split


def test_regen_cold_code_path(tmp_path: Path):
    regen = workloads.Regen(warm=False, problem_class="T",
                            reports=("table2", "table3", "verify"))
    it = regen.iterate(tmp_path / "work", tmp_path / "unused",
                       tracer=Tracer())
    assert it.failures == [] and it.attempted > 0
    split = _assert_adds_up(it)
    for layer in ("npb", "ad", "core", "ckpt", "experiments"):
        assert split[f"{layer}.self_s"] > 0, layer
    counters = it.tracer.counters
    assert counters["core.store_misses"] == len(regen.ports)
    assert counters["experiments.journal_writes"] == len(regen.ports)
    assert counters["ad.tape_nodes"] > 0 and counters["npb.steps"] > 0
    assert 0 < it.masks_s < it.wall_s and 0 < it.restart_s < it.wall_s
    assert set(it.ckpt_bytes) == set(regen.ports)


def test_regen_warm_code_path(tmp_path: Path):
    regen = workloads.Regen(warm=True, problem_class="T",
                            reports=("table2",))
    regen.setup(tmp_path / "store")
    it = regen.iterate(tmp_path / "work", tmp_path / "store",
                       tracer=Tracer())
    assert it.failures == []
    split = _assert_adds_up(it)
    counters = it.tracer.counters
    assert counters["core.store_hits"] == len(regen.ports)
    assert counters["core.store_bytes_read"] > 0
    assert counters.get("ad.tape_nodes", 0) == 0
    assert split["ad.self_s"] == 0.0


def test_pipeline_code_path(tmp_path: Path):
    pipeline = workloads.Pipeline(seed=3, problem_class="T")
    it = pipeline.iterate(tmp_path / "work", tracer=Tracer())
    assert it.failures == []
    # per checkpoint step: one mask-consistency check, one restart check
    # (class T has no reference digests)
    assert it.attempted == 2 * 2 * len(pipeline.ports)
    split = _assert_adds_up(it)
    assert split["ad.segmented_s"] > 0 and split["ckpt.write_s"] > 0
    assert it.tracer.counters["ad.plan_hits"] > 0
    assert it.tracer.counters.get("core.store_hits", 0) == 0


def test_pipeline_checkpoints_both_ends_of_the_middle_half():
    from repro.npb import registry

    garbage = set()
    for seed in range(5):
        pipeline = workloads.Pipeline(seed=seed)
        for port, (steps, noise) in pipeline.plan.items():
            total = registry.create(port, "A").total_steps
            mid, quarter = total // 2, total // 4
            assert steps == (mid - quarter, mid + quarter)
            assert total - mid - quarter >= quarter  # inside the middle half
            garbage.add(noise)
    # the seed varies the garbage, never the steps
    assert len(garbage) == 5 * len(workloads.PORTS_A)
    assert workloads.Pipeline(seed=7).plan == workloads.Pipeline(seed=7).plan


def test_unknown_workload_is_refused():
    with pytest.raises(KeyError):
        workloads.make("regen-x", 0)
