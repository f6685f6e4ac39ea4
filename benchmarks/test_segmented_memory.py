"""Segmented vs. monolithic reverse sweep -- peak tape memory and wall-clock.

For each measured benchmark the full remaining-loop analysis is run twice:
once on a single monolithic tape and once with the segmented sweep
(:mod:`repro.ad.segmented`).  The monolithic peak is the whole tape; the
segmented peak is the largest single per-iteration tape.  The pytest entry
asserts the ~steps-fold peak reduction (and bitwise-equal gradients); a
second one pins the same for the activity (read-set) sweep on the class-A
scenario it is meant for.  The module is also runnable standalone to emit
the ``BENCH_segmented.json`` perf baseline consumed by
``scripts/ci_check.sh``::

    python benchmarks/test_segmented_memory.py --json BENCH_segmented.json
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.ad import activity as act
from repro.ad.reverse import backward
from repro.ad.segmented import (SweepStats, float_state_keys,
                                segmented_gradients)
from repro.npb import registry

#: benchmarks whose class-S analyses span many iterations (the regime the
#: segmented sweep is about); EP's class-S loop is far too long for a
#: monolithic baseline measurement, which is rather the point -- it is
#: measured at class T where the monolithic tape still fits comfortably
MEASURED = (("CG", "S"), ("FT", "S"), ("EP", "T"), ("LU", "T"))


def measure_sweeps(name: str, problem_class: str) -> dict:
    """Peak tape size and wall-clock of both sweeps, from step 0."""
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)       # analyse the entire main loop
    steps = bench.total_steps
    watch = bench.default_watch_keys()

    t0 = time.perf_counter()
    tape, leaves, out = bench.traced_restart(state, watch=watch)
    mono_grads = dict(zip(watch, backward(tape, out,
                                          [leaves[k] for k in watch],
                                          strict=False)))
    mono_seconds = time.perf_counter() - t0
    mono_nodes, mono_nbytes = len(tape), tape.nbytes()
    del tape, leaves, out

    stats = SweepStats()
    t0 = time.perf_counter()
    seg_grads = segmented_gradients(bench, state, watch=watch, stats=stats)
    seg_seconds = time.perf_counter() - t0

    for key in watch:
        a = np.asarray(mono_grads[key], dtype=np.float64)
        b = np.asarray(seg_grads[key], dtype=np.float64)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
            f"{name}[{key}]: sweeps disagree bitwise"

    chain = float_state_keys(state)
    return {
        "benchmark": name,
        "problem_class": problem_class,
        "steps": steps,
        "chain_leaves": len(chain),
        "state_nbytes": int(sum(np.asarray(state[k], dtype=np.float64).size
                                for k in chain)) * 8,
        "monolithic_nodes": mono_nodes,
        "monolithic_nbytes": mono_nbytes,
        "monolithic_seconds": round(mono_seconds, 4),
        "segmented_peak_nodes": stats.peak_nodes,
        "segmented_peak_nbytes": stats.peak_nbytes,
        "segmented_total_nodes": stats.total_nodes,
        "segmented_seconds": round(seg_seconds, 4),
        "node_reduction": round(mono_nodes / max(stats.peak_nodes, 1), 2),
        "nbytes_reduction": round(mono_nbytes / max(stats.peak_nbytes, 1),
                                  2),
    }


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class", MEASURED,
                         ids=[f"{n}-{c}" for n, c in MEASURED])
def test_segmented_peak_memory_scales_with_one_iteration(benchmark, name,
                                                         problem_class):
    """Peak tape size drops ~steps-fold; gradients stay bitwise equal."""
    row = benchmark.pedantic(lambda: measure_sweeps(name, problem_class),
                             iterations=1, rounds=1)
    benchmark.extra_info.update(row)

    steps = row["steps"]
    # the segmented peak must be bounded by a single iteration's tape: the
    # monolithic tape holds ~steps of them.  Every segment re-watches the
    # chained state entries as fresh leaves (the monolithic tape watches
    # them once), so the per-segment leaf overhead is added back before
    # comparing; factor 2 slack absorbs the output segment and
    # per-benchmark asymmetry between iterations.
    leaf_nodes = steps * row["chain_leaves"]
    leaf_nbytes = steps * row["state_nbytes"]
    assert row["segmented_peak_nodes"] * steps \
        <= (row["monolithic_nodes"] + leaf_nodes) * 2, row
    assert row["segmented_peak_nbytes"] * steps \
        <= (row["monolithic_nbytes"] + leaf_nbytes) * 2, row
    # and it never records asymptotically more work than the monolithic tape
    assert row["segmented_total_nodes"] \
        <= 2 * row["monolithic_nodes"] + leaf_nodes + steps, row


#: class-A ports whose segmented activity sweep is pinned against the
#: monolithic walk: CG's 30 steps and MG's dense 16**3 stencil
ACTIVITY_MEASURED = (("CG", "A"), ("MG", "A"))


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class", ACTIVITY_MEASURED,
                         ids=[f"{n}-{c}" for n, c in ACTIVITY_MEASURED])
def test_segmented_activity_matches_monolithic(name, problem_class):
    """Segmented read/moved masks equal the one-tape walk bit for bit, and
    the peak tape is at most half the monolithic one past two steps."""
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)
    watch = list(bench.default_watch_keys())
    tape, leaves, _out = bench.traced_restart(state, watch=watch)
    mono = dict(zip(watch, act.read_masks(tape,
                                          [leaves[k] for k in watch])))
    mono_nodes = len(tape)
    del tape, leaves, _out

    stats = SweepStats()
    seg = act.segmented_read_masks(bench, state, watch=watch, stats=stats)
    for key in watch:
        for field in ("read", "moved"):
            assert np.array_equal(getattr(mono[key], field),
                                  getattr(seg[key], field)), \
                f"{name}-{problem_class}[{key}].{field}: masks differ"
    if bench.total_steps > 2:
        assert stats.peak_nodes * 2 <= mono_nodes, (stats.peak_nodes,
                                                    mono_nodes)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure segmented vs monolithic sweep peaks and emit "
                    "a JSON perf baseline")
    parser.add_argument("--json", default="BENCH_segmented.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class in MEASURED:
        row = measure_sweeps(name, problem_class)
        rows.append(row)
        print(f"{name}-{problem_class}: monolithic {row['monolithic_nodes']}"
              f" nodes / {row['monolithic_nbytes']} B, segmented peak "
              f"{row['segmented_peak_nodes']} nodes / "
              f"{row['segmented_peak_nbytes']} B "
              f"({row['node_reduction']}x node reduction; "
              f"{row['monolithic_seconds']}s vs "
              f"{row['segmented_seconds']}s)")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"rows": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
