"""Activity analysis: monolithic vs segmented vs plan-replayed.

For each measured port the derivative-free activity (first-touch read-set)
analysis is timed three ways: the monolithic tape walk (trace the whole
remaining loop, walk it once), the chained segmented sweep with the tracer
re-run per segment (``trace_cache="off"``), and the plan-replayed segmented
sweep with a warm :class:`~repro.ad.plan.PlanCache` (transfer masks derived
once from the compiled step plan, every step segment replays without
tracing; the output segment is always traced).  FT and EP are not
measured: their steps depend on the loop counter and are never planned.  Masks are asserted bitwise-identical across all three, wall-clock
and peak tape nodes/bytes are recorded, and the replay hit counts are read
back out of :class:`~repro.ad.segmented.SweepStats`.

The pytest entry pins the PR's acceptance criterion -- the warm
plan-replayed analysis beats the monolithic walk on the recording-bound
class-T ports while holding the peak tape to one iteration -- and the
module is runnable standalone to emit the ``BENCH_activity.json`` perf
baseline consumed by ``scripts/ci_check.sh``::

    python benchmarks/test_activity_replay.py --json BENCH_activity.json
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ad import activity as act
from repro.ad.plan import PlanCache
from repro.ad.segmented import SweepStats
from repro.npb import registry

try:
    from benchmarks.conftest import interleaved_seconds
except ImportError:  # run as a script from inside benchmarks/
    from conftest import interleaved_seconds

#: ports timed monolithic vs segmented vs plan-replayed; class T is the
#: recording-bound regime the plan-derived transfer is about, the class-A
#: rows show the enlarged scenario the chained sweep unlocks
MEASURED = (("BT", "T"), ("SP", "T"), ("MG", "T"), ("CG", "T"),
            ("LU", "T"), ("CG", "A"), ("MG", "A"))

#: the recording-bound class-T ports the acceptance criterion pins: warm
#: plan replays must beat re-tracing the monolithic tape outright
PINNED_BEATS_MONO = {("CG", "T"), ("LU", "T")}


def _monolithic_once(bench, state, watch):
    """One monolithic analysis: trace the remaining loop, walk the tape."""
    tape, leaves, _out = bench.traced_restart(state, watch=list(watch))
    results = act.read_masks(tape, [leaves[key] for key in watch])
    return dict(zip(watch, results)), tape


def measure_activity(name: str, problem_class: str,
                     repeats: int = 5) -> dict:
    """Monolithic vs segmented vs plan-replayed activity telemetry."""
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)
    watch = list(bench.default_watch_keys())
    if problem_class == "A":
        repeats = min(repeats, 3)

    # reference masks + the monolithic tape's peak footprint
    mono, tape = _monolithic_once(bench, state, watch)
    mono_stats = SweepStats()
    mono_stats.observe(tape)
    del tape

    # warm the plan cache (capture, compile), then check bitwise identity
    # of all three modes in their measured steady state
    cache = PlanCache()
    for _ in range(2):
        planned = act.segmented_read_masks(bench, state, watch=watch,
                                           trace_cache="plan",
                                           plan_cache=cache)
    seg = act.segmented_read_masks(bench, state, watch=watch,
                                   trace_cache="off")
    for key in watch:
        for field in ("read", "moved"):
            a = getattr(mono[key], field)
            b = getattr(seg[key], field)
            c = getattr(planned[key], field)
            assert np.array_equal(a, b), \
                f"{name}[{key}].{field}: segmented masks differ"
            assert np.array_equal(a, c), \
                f"{name}[{key}].{field}: plan-replayed masks differ"

    t_mono, t_seg, t_plan = interleaved_seconds([
        lambda: _monolithic_once(bench, state, watch),
        lambda: act.segmented_read_masks(bench, state, watch=watch,
                                         trace_cache="off"),
        lambda: act.segmented_read_masks(bench, state, watch=watch,
                                         plan_cache=cache),
    ], repeats)

    seg_stats = SweepStats()
    act.segmented_read_masks(bench, state, watch=watch, trace_cache="off",
                             stats=seg_stats)
    plan_stats = SweepStats()
    act.segmented_read_masks(bench, state, watch=watch,
                             plan_cache=cache, stats=plan_stats)
    return {
        "benchmark": name,
        "problem_class": problem_class,
        "steps": bench.total_steps,
        "monolithic_seconds": round(t_mono, 5),
        "segmented_seconds": round(t_seg, 5),
        "plan_replayed_seconds": round(t_plan, 5),
        "speedup_vs_monolithic": round(t_mono / t_plan, 3),
        "monolithic_peak_nodes": mono_stats.peak_nodes,
        "monolithic_peak_nbytes": mono_stats.peak_nbytes,
        "segmented_peak_nodes": seg_stats.peak_nodes,
        "segmented_peak_nbytes": seg_stats.peak_nbytes,
        "plan_replayed_peak_nodes": plan_stats.peak_nodes,
        "stats": {
            "activity_segments": plan_stats.activity_segments,
            "activity_plan_replays": plan_stats.activity_plan_replays,
            "activity_retraces": plan_stats.activity_retraces,
            "activity_peak_mask_nbytes":
                plan_stats.activity_peak_mask_nbytes,
            "plan_rejects": plan_stats.plan_rejects,
        },
    }


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class", MEASURED,
                         ids=[f"{n}-{c}" for n, c in MEASURED])
def test_activity_replay(benchmark, name, problem_class):
    """plan-replayed bitwise-identical, O(1-iteration) tape and (where
    pinned) faster than re-tracing the monolithic tape."""
    row = benchmark.pedantic(lambda: measure_activity(name, problem_class),
                             iterations=1, rounds=1)
    benchmark.extra_info.update(row)

    stats = row["stats"]
    # a warm cache serves every step segment from the plan transfer; only
    # the output segment traces
    assert stats["activity_retraces"] == 1, row
    assert stats["activity_plan_replays"] \
        == stats["activity_segments"] - 1, row
    assert stats["plan_rejects"] == 0, row
    assert stats["activity_peak_mask_nbytes"] > 0, row

    # the segmented peak stays at one iteration's tape; the monolithic
    # tape grows with the step count (>= 2 steps of margin)
    if row["steps"] > 2:
        assert row["segmented_peak_nodes"] * 2 \
            <= row["monolithic_peak_nodes"], row

    if (name, problem_class) in PINNED_BEATS_MONO:
        assert row["speedup_vs_monolithic"] > 1.0, \
            (f"{name}-{problem_class}: plan-replayed activity only "
             f"{row['speedup_vs_monolithic']:.2f}x over monolithic "
             f"(must beat 1.0x)")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure monolithic vs segmented vs plan-replayed "
                    "activity analyses; emit a JSON baseline")
    parser.add_argument("--json", default="BENCH_activity.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class in MEASURED:
        row = measure_activity(name, problem_class)
        rows.append(row)
        print(f"{name}-{problem_class} ({row['steps']} steps): "
              f"mono={row['monolithic_seconds']}s "
              f"seg={row['segmented_seconds']}s "
              f"plan={row['plan_replayed_seconds']}s "
              f"-> {row['speedup_vs_monolithic']}x  "
              f"(peak nodes {row['monolithic_peak_nodes']} -> "
              f"{row['segmented_peak_nodes']}, "
              f"replays={row['stats']['activity_plan_replays']}/"
              f"{row['stats']['activity_segments']})")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"activity": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
