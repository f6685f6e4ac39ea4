"""Tangent (forward-mode) vs. segmented reverse sweep -- the probe crossover.

The tape-free tangent sweep carries one stacked direction per watched
element through a plain concrete ``run``: its cost scales with the number
of watched *directions*, while a reverse sweep's cost scales with the
number of *probes* (each probe is a full trace-and-backward pass, however
few elements are watched).  The regime the tangent sweep is for is
therefore few-watched-elements x long-loop x many-probes -- EP, whose
whole watch list is 12 scalars (``sx``, ``sy``, ``q``) across a 512-step
class-A loop.  CG at class T (62 watched directions, short loop) is
measured as the counter-case where the reverse sweep stays ahead.

Every configuration cross-checks the criticality masks of the two methods
elementwise before timing is reported.  The two sweeps run back to back in
each timing round (:func:`benchmarks.conftest.paired_samples`), and the
pytest entry asserts the crossover on the median per-round ratio (tangent
beats the batched segmented reverse sweep on the many-probe EP
configuration), so load that outlasts a round cancels out; the module is
also runnable standalone to
emit the ``BENCH_tangent.json`` perf baseline consumed by
``scripts/ci_check.sh``::

    python benchmarks/test_tangent_sweep.py --json BENCH_tangent.json
"""

from __future__ import annotations

import json
import statistics

import numpy as np
import pytest

from repro.ad.probes import segmented_batched_gradients
from repro.ad.segmented import SweepStats
from repro.ad.tangent import tangent_gradients
from repro.core.criticality import criticality_from_gradient
from repro.npb import registry

try:
    from benchmarks.conftest import paired_samples
except ImportError:  # run as a script from inside benchmarks/
    from conftest import paired_samples

#: (benchmark, class, n_probes) grid: EP-A is the tangent regime (12
#: watched directions, 512 steps); CG-T is the reverse regime (62 watched
#: directions, short loop) kept as the honest counter-case
MEASURED = (("EP", "A", 1), ("EP", "A", 4), ("EP", "A", 16), ("CG", "T", 4))

#: the acceptance configuration: many probes on the long few-direction loop
CROSSOVER = ("EP", "A", 16)

#: timing rounds of the acceptance configuration (one for the others, whose
#: times are reported but not asserted on)
CROSSOVER_ROUNDS = 7


def _perturbed(state, watch, rng, scale=1.0e-6):
    """A probe state drawn the way the analyzer's ``_perturb_state`` does."""
    probed = dict(state)
    for key in watch:
        base = np.asarray(state[key], dtype=np.float64)
        rms = float(np.sqrt(np.mean(base ** 2)))
        probed[key] = base + scale * (rms or 1.0) \
            * rng.standard_normal(base.shape)
    return probed


def measure_crossover(name: str, problem_class: str, n_probes: int,
                      rounds: int = 1) -> dict:
    """Wall-clock and peak memory of both multi-probe sweeps.

    The sweeps run back to back in each of ``rounds`` rounds; the reported
    seconds are the best round's, the ratios medians of per-round ratios.
    """
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)
    watch = list(bench.default_watch_keys())
    directions = int(sum(np.size(state[k]) for k in watch))
    rng = np.random.default_rng(20240824)
    states = [dict(state)] \
        + [_perturbed(state, watch, rng) for _ in range(n_probes - 1)]
    last = {}  # the last round's gradients and stats

    def reverse():
        last["rev_stats"] = stats = SweepStats()
        last["rev"] = segmented_batched_gradients(bench, states, watch=watch,
                                                  stats=stats)

    def tangent():
        last["tan_stats"] = stats = SweepStats()
        last["tan"] = [tangent_gradients(bench, s, watch=watch, stats=stats)
                       for s in states]

    samples = paired_samples([reverse, tangent], rounds)
    reverse_seconds = min(r for r, _ in samples)
    tangent_seconds = min(t for _, t in samples)
    tangent_vs_reverse = statistics.median(t / r for r, t in samples)
    rev, tan = last["rev"], last["tan"]
    rev_stats, tan_stats = last["rev_stats"], last["tan_stats"]

    # the timing is only meaningful if both methods see the same structure:
    # per-probe criticality masks must agree elementwise
    for p in range(n_probes):
        for key in watch:
            assert np.array_equal(
                criticality_from_gradient(np.asarray(rev[key])[p]),
                criticality_from_gradient(tan[p][key])), \
                f"{name}[{key}] probe {p}: tangent mask diverges from reverse"

    return {
        "benchmark": name,
        "problem_class": problem_class,
        "steps": bench.total_steps,
        "n_probes": n_probes,
        "watched_directions": directions,
        "reverse_seconds": round(reverse_seconds, 4),
        "reverse_peak_tape_nbytes": rev_stats.peak_nbytes,
        "tangent_seconds": round(tangent_seconds, 4),
        "tangent_passes": tan_stats.tangent_passes,
        "tangent_peak_state_nbytes": tan_stats.tangent_peak_state_nbytes,
        "rounds": rounds,
        "tangent_vs_reverse": round(tangent_vs_reverse, 3),
        "tangent_speedup": round(1.0 / tangent_vs_reverse, 2),
    }


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class,n_probes", MEASURED,
                         ids=[f"{n}-{c}-p{p}" for n, c, p in MEASURED])
def test_tangent_crossover(benchmark, name, problem_class, n_probes):
    """Masks agree everywhere; tangent wins the many-probe EP regime."""
    crossover = (name, problem_class, n_probes) == CROSSOVER
    row = benchmark.pedantic(
        lambda: measure_crossover(name, problem_class, n_probes,
                                  CROSSOVER_ROUNDS if crossover else 1),
        iterations=1, rounds=1)
    benchmark.extra_info.update(row)

    # one stacked forward pass carries every direction of every probe
    assert row["tangent_passes"] == n_probes
    if crossover:
        # the median per-round ratio: tangent < reverse
        assert row["tangent_vs_reverse"] < 1.0, row
        # and it does so without a tape: peak state footprint stays below
        # the reverse sweep's peak per-iteration tape
        assert row["tangent_peak_state_nbytes"] \
            < row["reverse_peak_tape_nbytes"], row


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure the tangent-vs-reverse probe crossover and "
                    "emit a JSON perf baseline")
    parser.add_argument("--json", default="BENCH_tangent.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class, n_probes in MEASURED:
        row = measure_crossover(
            name, problem_class, n_probes,
            CROSSOVER_ROUNDS if (name, problem_class, n_probes) == CROSSOVER
            else 1)
        rows.append(row)
        print(f"{name}-{problem_class} x {n_probes} probes "
              f"({row['watched_directions']} directions, "
              f"{row['steps']} steps): reverse {row['reverse_seconds']}s, "
              f"tangent {row['tangent_seconds']}s "
              f"({row['tangent_speedup']}x)")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"rows": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
