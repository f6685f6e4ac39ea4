"""Trace-once / replay-many: plan-on vs plan-off segmented sweeps.

For each measured port the steady-state segmented sweep is timed with the
replay-plan cache warm (``trace_cache="plan"`` with a shared
:class:`~repro.ad.plan.PlanCache`, the state every probe loop runs in)
and with the cache disabled (``trace_cache="off"``, the pre-plan tracer).
Only ports whose step structure is counter-independent are measured: FT
and EP bake the loop counter into their steps, are never planned and
trace exactly as with the cache off.  Gradients are asserted
bitwise-identical, wall-clock, the blocks a sweep leaves allocated and its
peak traced bytes are recorded, and the plan hit/miss + arena telemetry is
read back out of :class:`~repro.ad.segmented.SweepStats`.

The pytest entry pins the plan at least 1.5x faster on the recording-bound
class-T CG sweep, and
the module is runnable standalone to emit the ``BENCH_plan.json`` perf
baseline consumed by ``scripts/ci_check.sh``::

    python benchmarks/test_trace_plan.py --json BENCH_plan.json
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.ad.plan import PlanCache
from repro.ad.segmented import SweepStats, segmented_gradients
from repro.npb import registry

try:
    from benchmarks.conftest import interleaved_seconds
except ImportError:  # run as a script from inside benchmarks/
    from conftest import interleaved_seconds

#: ports timed plan-on vs plan-off; class T is the recording-bound regime
#: the plan is about, class S shows the array-bound (BLAS-dominated) end
MEASURED = (("BT", "T"), ("SP", "T"), ("MG", "T"), ("CG", "T"),
            ("LU", "T"), ("CG", "S"))

#: the recording-bound port pinned at >= 1.5x
PINNED_SPEEDUP = {("CG", "T"): 1.5}


def _sweep_allocations(bench, state, **kwargs) -> tuple[int, int]:
    """Memory blocks one sweep leaves allocated, and the peak bytes it
    allocated on top of what was live before it (tracemalloc)."""
    tracemalloc.start(1)
    try:
        snapshot0 = tracemalloc.take_snapshot()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        segmented_gradients(bench, state, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
        snapshot1 = tracemalloc.take_snapshot()
        stats = snapshot1.compare_to(snapshot0, "filename")
        return int(sum(max(s.count_diff, 0) for s in stats)), int(peak)
    finally:
        tracemalloc.stop()


def measure_plan(name: str, problem_class: str, repeats: int = 5) -> dict:
    """Plan-on vs plan-off wall-clock, allocations and telemetry."""
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)

    cache = PlanCache()
    # learn + compile, then measure steady state (the analyzer's shared
    # per-analysis cache reaches this state after its first probe sweep)
    reference = segmented_gradients(bench, state, trace_cache="off")
    for _ in range(2):
        warmed = segmented_gradients(bench, state, plan_cache=cache)
    for key in reference:
        a = np.asarray(reference[key], dtype=np.float64)
        b = np.asarray(warmed[key], dtype=np.float64)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
            f"{name}[{key}]: plan-on gradients differ bitwise"

    if problem_class == "S":
        repeats = min(repeats, 3)    # class-S sweeps are ~0.5 s each
    t_off, t_on = interleaved_seconds([
        lambda: segmented_gradients(bench, state, trace_cache="off"),
        lambda: segmented_gradients(bench, state, plan_cache=cache),
    ], repeats)

    alloc_off, peak_off = _sweep_allocations(bench, state,
                                             trace_cache="off")
    alloc_on, peak_on = _sweep_allocations(bench, state, plan_cache=cache)

    stats = SweepStats()
    segmented_gradients(bench, state, stats=stats, plan_cache=cache)
    return {
        "benchmark": name,
        "problem_class": problem_class,
        "steps": bench.total_steps,
        "plan_off_seconds": round(t_off, 5),
        "plan_on_seconds": round(t_on, 5),
        "speedup": round(t_off / t_on, 3),
        "plan_off_alloc_blocks": alloc_off,
        "plan_on_alloc_blocks": alloc_on,
        "plan_off_peak_bytes": peak_off,
        "plan_on_peak_bytes": peak_on,
        "stats": {
            "trace_cache": stats.trace_cache,
            "plan_hits": stats.plan_hits,
            "plan_misses": stats.plan_misses,
            "plan_compiles": stats.plan_compiles,
            "plan_rejects": stats.plan_rejects,
            "plan_arena_slots": stats.plan_arena_slots,
            "plan_arena_nbytes": stats.plan_arena_nbytes,
        },
    }


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class", MEASURED,
                         ids=[f"{n}-{c}" for n, c in MEASURED])
def test_plan_speedup(benchmark, name, problem_class):
    """plan-on bitwise-identical and (where pinned) >= 1.5x faster."""
    row = benchmark.pedantic(lambda: measure_plan(name, problem_class),
                             iterations=1, rounds=1)
    benchmark.extra_info.update(row)

    stats = row["stats"]
    assert stats["trace_cache"] == "plan"
    assert stats["plan_hits"] > 0, row
    assert stats["plan_arena_slots"] > 0, row
    assert stats["plan_rejects"] == 0, row

    floor = PINNED_SPEEDUP.get((name, problem_class))
    if floor is not None:
        assert row["speedup"] >= floor, \
            (f"{name}-{problem_class}: plan-on only "
             f"{row['speedup']:.2f}x over plan-off (need >= {floor}x)")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure plan-on vs plan-off segmented sweeps; "
                    "emit a JSON baseline")
    parser.add_argument("--json", default="BENCH_plan.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class in MEASURED:
        row = measure_plan(name, problem_class)
        rows.append(row)
        print(f"{name}-{problem_class} ({row['steps']} steps): "
              f"off={row['plan_off_seconds']}s on={row['plan_on_seconds']}s "
              f"-> {row['speedup']}x  "
              f"(allocs {row['plan_off_alloc_blocks']} -> "
              f"{row['plan_on_alloc_blocks']}, peak "
              f"{row['plan_off_peak_bytes']} -> "
              f"{row['plan_on_peak_bytes']} B, "
              f"hits={row['stats']['plan_hits']}, "
              f"arena={row['stats']['plan_arena_nbytes']} B)")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"plan": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
