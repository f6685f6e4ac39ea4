"""Batched vs. per-probe multi-probe sweeps -- wall-clock and mask parity.

For each measured configuration the full mid-run criticality analysis
(``scrutinize``-equivalent: checkpoint state + AD sweeps + masks) is run
three ways: a single probe (the baseline every multi-probe cost is judged
against), four probes executed by the batched probe axis
(:mod:`repro.ad.probes`, one trace + one sweep), and four probes executed
by the legacy per-probe loop (four traces + four sweeps).

Two regimes are pinned separately:

* **recording-bound** (class T rows): the per-primitive Python recording
  overhead dominates the numpy work, which is the regime the batched sweep
  amortises -- four probes must complete within **2x** the single-probe
  wall-clock (the per-probe loop pays ~4x);
* **array-bound** (class S rows): the per-probe numpy work grows -- CG's
  banded matvecs touch ``(2 * nonzer + 1) * NA`` entries per probe, FT
  scales two 2 MB spectral planes into a 4 MB complex transform buffer per
  probe -- so four probes are up to four times the
  arithmetic no matter how they are scheduled.  Here the batched sweep
  must still *beat the loop it replaces* (on CG-S one trace and one
  banded kernel call per matvec serve all probes, ~1.6-1.9x faster than
  the loop; on FT the win narrows to dispatch amortisation), and a 4x
  regression cap guards against the batched path ever costing more than
  the naive loop's asymptote.

In both regimes the masks must be identical between the two paths.  The
module is also runnable standalone to emit the ``BENCH_probes.json`` perf
baseline consumed by ``scripts/ci_check.sh``::

    python benchmarks/test_probe_batching.py --json BENCH_probes.json
"""

from __future__ import annotations

import json
import statistics

import numpy as np
import pytest

from repro.core.criticality import CriticalityAnalyzer
from repro.npb import registry

try:
    from benchmarks.conftest import paired_samples
except ImportError:  # run as a script from inside benchmarks/
    from conftest import paired_samples

#: (benchmark, problem class, batched-vs-single wall-clock bound, timing
#: rounds); ``None`` skips the single-ratio cap where the single-probe
#: baseline is too small and noisy to divide by reliably (FT-S: ~0.1-0.25 s
#: run-to-run) -- the batched-vs-loop assertion still applies there.  FT-S
#: batched and per-probe cost about the same (median per-round ratio
#: 0.99-1.01 with the sampled transform, 1.07-1.08 before it, on a 2-vCPU
#: host; single rounds 0.85-1.5 under load), so its median needs 15 rounds
#: to stay clear of the 1.1 bound
MEASURED = (
    ("CG", "T", 2.0, 5),    # recording-bound: the batching premise, hard 2x
    ("FT", "T", 2.0, 5),
    ("CG", "S", 4.0, 5),    # array-bound: regression cap at the loop asymptote
    ("FT", "S", None, 15),
)

#: probes of the multi-probe configurations
N_PROBES = 4


class _PerProbeAnalyzer(CriticalityAnalyzer):
    """The analyzer without its batched sweep: the per-probe fallback loop."""

    def _batched_probe_gradients(self, *args, **kwargs):
        return None


def _analyzer(n_probes, probe_batching):
    analyzer_cls = CriticalityAnalyzer if probe_batching == "batched" \
        else _PerProbeAnalyzer
    return analyzer_cls(method="ad", n_probes=n_probes)


def measure_probe_batching(name: str, problem_class: str,
                           rounds: int = 5) -> dict:
    """Wall-clock of 1-probe vs batched/per-probe 4-probe analyses.

    The three modes run back to back in each of ``rounds`` rounds
    (:func:`benchmarks.conftest.paired_samples`); the ratios are medians of
    the per-round ratios, so load that outlasts a round cancels out.
    """
    bench = registry.create(name, problem_class)
    step = bench.total_steps // 2
    state = bench.checkpoint_state(step)
    modes = {"single": (1, "batched"), "batched": (N_PROBES, "batched"),
             "per-probe": (N_PROBES, "per-probe")}
    masks = {}

    def analysis(mode):
        def run():
            masks[mode] = _analyzer(*modes[mode]).analyze(
                bench, state=state, step=step)
        return run

    analysis("single")()                                  # warm caches
    samples = [dict(zip(modes, times)) for times in paired_samples(
        [analysis(mode) for mode in modes], rounds)]
    best = {mode: min(s[mode] for s in samples) for mode in modes}

    def ratio(a, b):
        return round(statistics.median(s[a] / s[b] for s in samples), 2)

    masks_identical = all(
        np.array_equal(masks["batched"][var].mask,
                       masks["per-probe"][var].mask)
        for var in masks["batched"])

    return {
        "benchmark": name,
        "problem_class": problem_class,
        "n_probes": N_PROBES,
        "single_probe_seconds": round(best["single"], 4),
        "batched_seconds": round(best["batched"], 4),
        "per_probe_seconds": round(best["per-probe"], 4),
        "batched_vs_single": ratio("batched", "single"),
        "per_probe_vs_single": ratio("per-probe", "single"),
        "batched_vs_per_probe": ratio("batched", "per-probe"),
        "batched_speedup": ratio("per-probe", "batched"),
        "masks_identical": bool(masks_identical),
    }


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class,bound,rounds", MEASURED,
                         ids=[f"{n}-{c}" for n, c, *_ in MEASURED])
def test_batched_probes_amortise_the_per_probe_loop(benchmark, name,
                                                    problem_class, bound,
                                                    rounds):
    """Batched 4-probe analysis beats the loop; masks unchanged."""
    row = benchmark.pedantic(
        lambda: measure_probe_batching(name, problem_class, rounds),
        iterations=1, rounds=1)
    benchmark.extra_info.update(row)

    assert row["masks_identical"], row
    # the batched sweep must pay for itself against the loop it replaces:
    # the median per-round ratio (10% slack absorbs timer noise on the
    # bandwidth-bound FT-S row)
    assert row["batched_vs_per_probe"] <= 1.1, row
    # and stay within the regime's batched-vs-single bound: 2x where
    # recording overhead dominates, the 4x loop asymptote elsewhere
    if bound is not None:
        assert row["batched_vs_single"] <= bound, row


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure batched vs per-probe multi-probe analyses and "
                    "emit a JSON perf baseline")
    parser.add_argument("--json", default="BENCH_probes.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class, _bound, rounds in MEASURED:
        row = measure_probe_batching(name, problem_class, rounds)
        rows.append(row)
        print(f"{name}-{problem_class}: 1 probe "
              f"{row['single_probe_seconds']}s, {N_PROBES} probes batched "
              f"{row['batched_seconds']}s ({row['batched_vs_single']}x "
              f"single), per-probe {row['per_probe_seconds']}s "
              f"({row['per_probe_vs_single']}x single); batched speedup "
              f"{row['batched_speedup']}x, masks "
              f"{'identical' if row['masks_identical'] else 'DIFFER'}")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"rows": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
