"""Plan lowering: fused vs unfused warm replay.

For each coarse class-T port (the recording-bound regime where the plan
compiles within one sweep) the *warm replay* of the cached step plan --
one ``replay_step`` call, forward kernels plus reverse sweep over the
preallocated arena -- is timed under two configurations of the
capture -> IR -> passes -> executor pipeline:

* ``fused``    -- ``plan_optimize="fuse"`` (the default: fusion groups,
  dead-slot elimination, packed arena, and the specialised
  ``out=``-buffer kernels);
* ``unfused``  -- ``plan_optimize="off"`` (the faithful pre-lowering
  replay: every instruction runs its primitive's rule, no passes).

Both modes are timed back to back in each of 41 rounds; the speedup is
the median over the rounds of the unfused/fused time ratio, so load that
outlasts a round slows both modes of the round alike and cancels.

Gradients are asserted bitwise-identical across both modes and
against the uncached tracer, and the liveness-packed arena footprint is
asserted strictly smaller than the unpacked one on every measured port.
The pytest entry pins the lowering PR's acceptance criterion -- the
fused interpreter is at least 1.5x faster than the unfused replay on at
least the pinned recording-bound ports -- and the module is runnable
standalone to emit the ``BENCH_lowering.json`` perf baseline consumed by
``scripts/ci_check.sh``::

    python benchmarks/test_plan_lowering.py --json BENCH_lowering.json
"""

from __future__ import annotations

import json
import statistics

import numpy as np
import pytest

from repro.ad.plan import PlanCache
from repro.ad.segmented import segmented_gradients
from repro.npb import registry

try:
    from benchmarks.conftest import paired_samples
except ImportError:  # run as a script from inside benchmarks/
    from conftest import paired_samples

#: the coarse class-T ports: their step plans compile within one sweep,
#: so the steady state of every probe loop is pure warm replay
MEASURED = (("BT", "T"), ("SP", "T"), ("MG", "T"), ("CG", "T"),
            ("LU", "T"))

#: recording-bound ports the acceptance criterion pins at >= 1.5x
#: fused-over-unfused warm replay
PINNED_SPEEDUP = {("BT", "T"): 1.5, ("CG", "T"): 1.5}

#: every measured port must at least break even (generous noise margin)
FLOOR_SPEEDUP = 1.0

#: plan_optimize per measured mode
MODES = {"fused": "fuse", "unfused": "off"}


def _bitwise(a, b, label: str) -> None:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, f"{label}: shape {a.shape} vs {b.shape}"
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: bits differ"


def _warm_step_plan(bench, state, plan_optimize: str):
    """Warm a cache through 3 sweeps; return (cache, cached step plan)."""
    cache = PlanCache(plan_optimize=plan_optimize)
    for _ in range(3):   # capture, compile, warm replay
        grads = segmented_gradients(bench, state, plan_cache=cache)
    plans = [entry.plan for entry in cache._entries.values()
             if entry.plan is not None]
    assert plans, f"{bench.name}: no step plan compiled"
    return cache, plans[0], grads


def measure_lowering(name: str, problem_class: str, repeats: int = 10,
                     rounds: int = 41) -> dict:
    """Warm-replay wall-clock per mode, bitwise parity, arena telemetry."""
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)
    reference = segmented_gradients(bench, state, trace_cache="off")

    caches, plans = {}, {}
    for mode, plan_optimize in MODES.items():
        cache, plan, grads = _warm_step_plan(bench, state, plan_optimize)
        caches[mode], plans[mode] = cache, plan
        for key in reference:
            _bitwise(reference[key], grads[key],
                     f"{name} {mode} sweep[{key}]")

    # one replay each, asserted bitwise across modes before timing
    plan0 = plans["fused"]
    cotangents = {key: np.ones(plan0._shapes[slot], dtype=np.float64)
                  for key, slot in zip(plan0.watch, plan0._leaf_slots)}
    replayed = {mode: plan.replay_step(state, cotangents)
                for mode, plan in plans.items()}
    for key in replayed["fused"]:
        _bitwise(replayed["unfused"][key], replayed["fused"][key],
                 f"{name} fused replay[{key}]")

    def replays(plan):
        return lambda: [plan.replay_step(state, cotangents)
                        for _ in range(repeats)]

    samples = [dict(zip(plans, times)) for times in paired_samples(
        [replays(plan) for plan in plans.values()], rounds)]
    best = {mode: min(s[mode] for s in samples) for mode in plans}
    # the speedup is the median of the per-round unfused/fused ratios:
    # both modes of one round share the machine's load of that moment
    speedup = statistics.median(s["unfused"] / s["fused"] for s in samples)

    fused = caches["fused"]
    row = {
        "benchmark": name,
        "problem_class": problem_class,
        "replay_us": {mode: round(best[mode] * 1e6 / repeats, 2)
                      for mode in MODES},
        "speedup_fused": round(speedup, 3),
        "fused_ops": fused.fused_ops,
        "eliminated_slots": fused.eliminated_slots,
        "arena_nbytes": fused.arena_nbytes,
        "arena_nbytes_packed": fused.arena_nbytes_packed,
    }
    # the liveness pass must actually shrink the arena, strictly, on
    # every measured port (acceptance criterion of the lowering PR)
    assert 0 < row["arena_nbytes_packed"] < row["arena_nbytes"], row
    unfused = caches["unfused"]
    assert unfused.fused_ops == 0 and unfused.eliminated_slots == 0
    assert unfused.arena_nbytes_packed == unfused.arena_nbytes
    return row


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class", MEASURED,
                         ids=[f"{n}-{c}" for n, c in MEASURED])
def test_lowering_speedup(benchmark, name, problem_class):
    """fused replay bitwise-identical and (where pinned) >= 1.5x faster."""
    row = benchmark.pedantic(lambda: measure_lowering(name, problem_class),
                             iterations=1, rounds=1)
    benchmark.extra_info.update(row)

    assert row["fused_ops"] > 0, row

    floor = PINNED_SPEEDUP.get((name, problem_class), FLOOR_SPEEDUP)
    assert row["speedup_fused"] >= floor, \
        (f"{name}-{problem_class}: fused replay only "
         f"{row['speedup_fused']:.2f}x over unfused (need >= {floor}x)")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure fused vs unfused warm plan replay; "
                    "emit a JSON baseline")
    parser.add_argument("--json", default="BENCH_lowering.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class in MEASURED:
        row = measure_lowering(name, problem_class)
        rows.append(row)
        us = row["replay_us"]
        print(f"{name}-{problem_class}: unfused={us['unfused']}us "
              f"fused={us['fused']}us "
              f"-> {row['speedup_fused']}x fused "
              f"(arena {row['arena_nbytes']} -> "
              f"{row['arena_nbytes_packed']} B, "
              f"fused_ops={row['fused_ops']})")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"lowering": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
