"""The repository benchmark: one command, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regen-s-cold --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures untraced iterations and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics (self time per layer and span,
counters, tracing overhead).  Set-up runs several times in child processes
(import, construction and, for ``regen-s-warm``, filling the result store)
and reports its median.  Iterations run back to back until the next one
would end past ``--seconds`` (a traced run makes at least one of each kind).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record --
environment fingerprint, every sample, every span -- is written to
``.bench_work/results/``.  Everything the benchmark writes stays under
``.bench_work/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: set-up repetitions per run (``setup_s`` is their median)
SETUP_REPS = 3

#: span self times reported by name (``<span>_s``)
SPAN_TIMES = (
    "npb.forward_s", "npb.verify_s", "npb.construct_s",
    "ad.trace_s", "ad.reverse_s", "ad.segmented_s",
    "core.analyze_s", "core.mask_s", "core.regions_s",
    "core.store_load_s", "core.store_save_s",
    "ckpt.write_s", "ckpt.read_s", "ckpt.restore_s",
    "experiments.engine_s", "experiments.report_s",
)

#: counters bumped by the span wrappers
COUNTERS = (
    "npb.steps", "ad.tape_nodes", "ad.plan_hits", "ad.plan_misses",
    "ad.plan_compiles", "ad.snapshot_peak_bytes", "core.store_hits",
    "core.store_misses", "core.store_bytes_read", "core.store_bytes_written",
    "experiments.journal_writes",
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-into", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package() -> None:
    """Put ``src`` on the path; fail loudly when the package is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {ROOT / 'src'}; run "
                 f"from a full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # library temp files (verify's checkpoint dirs, Table III's measurement
    # dirs) stay inside the checkout, in this process and its children
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def _setup_times(args: argparse.Namespace, store: Path) -> list[float]:
    """Wall time of each set-up, each in a fresh interpreter."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-into", str(store)]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=170,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _run_iterations(workload, args, store: Path) -> list:
    from spans import Tracer

    iterations = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iterations.append(workload.iterate(
            WORK / workload.name / "iteration", store,
            tracer=Tracer() if traced else None))
        elapsed = time.perf_counter() - start
        next_one = max(it.wall_s for it in iterations)
        if len(iterations) >= 1 + args.trace \
                and elapsed + next_one > args.seconds:
            return iterations


def _exact_values(it) -> dict[str, float]:
    values: dict[str, float] = {"ckpt_bytes_ratio": it.ckpt_bytes_ratio}
    for port, (data, aux, full) in it.ckpt_bytes.items():
        values[f"ckpt.data_bytes.{port}"] = data
        values[f"ckpt.aux_bytes.{port}"] = aux
        values[f"ckpt.full_bytes.{port}"] = full
    if it.tracer is not None:
        values.update({name: it.tracer.counters.get(name, 0)
                       for name in COUNTERS})
    return values


def end_to_end(iterations, setup: list[float]) -> dict[str, float]:
    from measure import quartiles

    def median(attr: str) -> float:
        return quartiles([getattr(it, attr) for it in iterations])[1]

    return {
        "wall_s": median("wall_s"),
        "masks_s": median("masks_s"),
        "restart_s": median("restart_s"),
        "ckpt_bytes_ratio": iterations[0].ckpt_bytes_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": quartiles(setup)[1],
    }


def per_layer(traced, untraced, attempted: int, failed: int
              ) -> dict[str, float]:
    from measure import quartiles
    from repro.npb import registry
    from spans import inclusive_by_attr, layer_split

    it = sorted(traced, key=lambda t: t.wall_s)[(len(traced) - 1) // 2]
    spans = it.tracer.spans
    split = layer_split(spans)
    counters = it.tracer.counters
    values = {name: split.get(name, 0.0) for name in SPAN_TIMES}
    values.update({key: split[key] for key in split if key.endswith("self_s")})
    values.update({name: int(counters.get(name, 0)) for name in COUNTERS})
    lookups = values["ad.plan_hits"] + values["ad.plan_misses"]
    values["ad.plan_hit_ratio"] = values["ad.plan_hits"] / lookups \
        if lookups else 0.0
    per_port = inclusive_by_attr(spans, "core.analyze", "port")
    for port in registry.available_benchmarks():
        values[f"core.analyze_s.{port}"] = per_port.get(port, 0.0)
        data, aux, full = it.ckpt_bytes.get(port, (0, 0, 0))
        values[f"ckpt.bytes_ratio.{port}"] = (data + aux) / full \
            if full else 0.0
    for index, key in enumerate(("ckpt.data_bytes", "ckpt.aux_bytes",
                                 "ckpt.full_bytes")):
        values[key] = sum(sizes[index] for sizes in it.ckpt_bytes.values())
    values["other_s"] = split["other_s"]
    values["traced_wall_s"] = split["wall_s"]
    values["trace_overhead_frac"] = \
        quartiles([t.wall_s for t in traced])[1] \
        / quartiles([u.wall_s for u in untraced])[1] - 1.0
    values["failed_frac"] = failed / attempted
    return values


def self_check(iterations) -> list[str]:
    """Harness invariants: exact counts repeat, layer times add up."""
    from measure import exact_mismatches
    from spans import layer_split, layer_sum_error

    problems = []
    for traced in (False, True):
        group = [it for it in iterations if (it.tracer is not None) == traced]
        for it in group[1:]:
            problems += [f"exact count changed between iterations: {m}"
                         for m in exact_mismatches(_exact_values(group[0]),
                                                   _exact_values(it))]
    for it in iterations:
        if it.tracer is None:
            continue
        split = layer_split(it.tracer.spans)
        if layer_sum_error(split) > 1e-9:
            problems.append("layer self times do not add up to the root span")
        gap = abs(split["wall_s"] - it.wall_s) / it.wall_s
        if gap > 0.02:
            problems.append(f"traced wall {split['wall_s']:.4f}s is "
                            f"{gap:.1%} off the iteration's {it.wall_s:.4f}s")
    return problems


def _print_summary(workload, setup, iterations, metrics) -> None:
    from measure import summarize

    print(f"workload {workload.name}: {len(iterations)} iteration(s), "
          f"{sum(it.tracer is not None for it in iterations)} traced")
    samples = {attr: [getattr(it, attr) for it in iterations
                      if it.tracer is None]
               for attr in ("wall_s", "masks_s", "restart_s")}
    for attr, values in {**samples, "setup_s": setup}.items():
        print(f"  {attr:<10}" + "".join(
            f" {key}={value:.4g}" for key, value in summarize(values).items()))
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']!r} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_package()
    import workloads
    from measure import check_exact_record, code_digest, environment

    workload = workloads.make(args.workload, args.seed)
    if args.setup_into is not None:
        workload.setup(args.setup_into)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    store = WORK / workload.name / "store"
    setup = _setup_times(args, store)
    iterations = _run_iterations(workload, args, store)

    attempted = sum(it.attempted for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    untraced = [it for it in iterations if it.tracer is None]
    traced = [it for it in iterations if it.tracer is not None]
    if args.trace:
        values = per_layer(traced, untraced, attempted, len(failures))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    problems = self_check(iterations)
    exact = {**_exact_values(traced[0] if traced else untraced[0]),
             **values}
    record = WORK / "exact" / f"{workload.name}-{code_digest(ROOT)}.json"
    problems += [f"exact count differs from an earlier run: {m}"
                 for m in check_exact_record(record, exact)]

    result_path = WORK / "results" / (f"{workload.name}-seed{args.seed}-"
                                      f"trace{args.trace}.json")
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(ROOT, workload.problem_sizes()),
        "setup_s": setup, "metrics": metrics, "failures": failures,
        "problems": problems,
        "iterations": [it.to_json() for it in iterations],
    }, indent=1, default=float))

    _print_summary(workload, setup, iterations, metrics)
    for line in failures + problems:
        print(f"  FAILED: {line}")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
