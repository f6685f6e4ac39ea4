"""Command-line interface: ``repro-scrutinize``.

Sub-commands map one-to-one onto the experiment drivers plus a per-benchmark
``analyze`` command::

    repro-scrutinize analyze BT --step 30
    repro-scrutinize table1
    repro-scrutinize table2
    repro-scrutinize table3
    repro-scrutinize figures --export-dir out/figures
    repro-scrutinize verify --class T
    repro-scrutinize ablation methods
    repro-scrutinize precision --benchmarks MG LU
    repro-scrutinize incremental
    repro-scrutinize all

Every command prints the same text the experiment report carries and exits
non-zero when the result deviates from the paper (useful in CI).

Global ``--workers N`` fans the per-benchmark AD analyses out across worker
processes and ``--cache-dir DIR`` persists results on disk, so e.g.::

    repro-scrutinize --workers 4 --cache-dir out/cache all   # cold: parallel
    repro-scrutinize --cache-dir out/cache all               # warm: instant

Global ``--sweep segmented`` bounds the AD tape memory to one main-loop
iteration and replays compiled step plans (bitwise-identical masks), which
is what makes the enlarged problem class A analysable::

    repro-scrutinize --class A --sweep segmented analyze FT

The sweep is the only execution choice; results computed by either sweep
share one cache entry.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.criticality import DEFAULT_PROBE_SCALE, METHODS
from repro.experiments import (ExperimentRunner, ablation, figures,
                               incremental, precision, table1, table2,
                               table3, verify)
from repro.experiments.faults import FaultPolicy, parse_chaos
from repro.npb import registry
from repro.viz import describe_mask, legend, render_mask_1d

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-scrutinize",
        description="Scrutinize checkpoint variables with automatic "
                    "differentiation (SC 2024 reproduction)")
    parser.add_argument("--class", dest="problem_class", default="S",
                        choices=("S", "T", "A"),
                        help="problem class (S reproduces the paper, "
                             "T is a reduced size for quick runs, A is the "
                             "enlarged class unlocked by --sweep segmented; "
                             "class A is registered for "
                             + ", ".join(registry.registered("A")) + ")")
    parser.add_argument("--method", default="ad", choices=METHODS,
                        help="criticality analysis method: 'ad' is the "
                             "paper's reverse-mode sweep, 'activity' the "
                             "derivative-free read-set baseline (honours "
                             "--sweep like 'ad'), 'rule' keeps every "
                             "element")
    parser.add_argument("--probes", type=int, default=1,
                        help="number of AD probes per variable")
    parser.add_argument("--probe-scale", type=float,
                        default=DEFAULT_PROBE_SCALE,
                        help="relative magnitude of the probe "
                             "perturbations; part of the result-cache key, "
                             "so different magnitudes never alias")
    parser.add_argument("--sweep", default="monolithic",
                        choices=("monolithic", "segmented"),
                        help="sweep strategy of the 'ad' and 'activity' "
                             "analyses: 'monolithic' records every "
                             "remaining iteration on one tape, 'segmented' "
                             "chains per-iteration tapes and replays "
                             "compiled step plans, so peak memory is "
                             "bounded by a single iteration (identical "
                             "masks; both sweeps share cache entries)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the per-benchmark "
                             "analyses (1 = in-process, the default)")
    parser.add_argument("--cache-dir", default=None,
                        help="persist scrutiny results in this directory "
                             "so repeated runs skip the AD sweeps; also "
                             "holds the batch journal that makes "
                             "interrupted runs resumable")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir and recompute everything")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="failed attempts a job may accumulate before "
                             "it is quarantined as poisoned (default 2)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="wall-clock seconds one job attempt may run "
                             "before the engine recycles the worker pool "
                             "and requeues it (default: no timeout; "
                             "requires --workers > 1 -- an in-process job "
                             "cannot be preempted)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        help="base of the exponential backoff between "
                             "retry attempts, in seconds (deterministic "
                             "jitter is added on top; default 0.05)")
    parser.add_argument("--on-failure", default="raise",
                        choices=("raise", "record"),
                        help="what a poisoned job (retries exhausted) does "
                             "to the batch: 'raise' (default) re-raises "
                             "its exception; 'record' completes the batch "
                             "and reports the structured failure in the "
                             "fault summary")
    parser.add_argument("--no-journal", action="store_true",
                        help="do not record per-job completion in the "
                             "cache directory's journal.jsonl (journalled "
                             "runs resume after a kill without re-running "
                             "finished jobs)")
    parser.add_argument("--chaos", default=None, metavar="MODES",
                        help="deterministic fault injection for CI "
                             "smokes: comma-separated subset of "
                             "worker-kill, hang, transient, corrupt-cache "
                             "(each injected fault strikes a job's first "
                             "attempt only, so retries recover and the "
                             "results stay bitwise identical to a "
                             "fault-free run)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed decorrelating --chaos targeting "
                             "across runs (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze",
                             help="scrutinize one benchmark's variables")
    analyze.add_argument("benchmark",
                         choices=list(registry.available_benchmarks()))
    analyze.add_argument("--step", type=int, default=None,
                         help="checkpoint step (default: mid-run)")
    analyze.add_argument("--show-masks", action="store_true",
                         help="also print a 1-D rendering of every mask")

    sub.add_parser("table1", help="Table I: checkpoint-variable inventory")
    sub.add_parser("table2", help="Table II: uncritical element counts")
    table3_parser = sub.add_parser(
        "table3", help="Table III: checkpoint storage comparison")
    table3_parser.add_argument("--no-disk", action="store_true",
                               help="skip writing measurement checkpoints")

    figures_parser = sub.add_parser("figures",
                                    help="Figures 3-8: distributions")
    figures_parser.add_argument("--figure", default=None,
                                choices=sorted(figures.FIGURES),
                                help="regenerate a single figure")
    figures_parser.add_argument("--export-dir", default=None,
                                help="write CSV/JSON/PGM artefacts here")

    verify_parser = sub.add_parser(
        "verify", help="Section IV-C: restart verification")
    verify_parser.add_argument("--benchmarks", nargs="+", default=None,
                               help="subset of benchmarks to verify")

    ablation_parser = sub.add_parser("ablation", help="design ablations")
    ablation_parser.add_argument("which",
                                 choices=("methods", "probes", "encoding"))

    precision_parser = sub.add_parser(
        "precision", help="impact-aware mixed-precision checkpoints "
                          "(future-work extension)")
    precision_parser.add_argument("--benchmarks", nargs="+", default=None,
                                  help="subset of benchmarks to study")
    precision_parser.add_argument("--no-aggressive", action="store_true",
                                  help="skip the aggressive quantile plan")

    incremental_parser = sub.add_parser(
        "incremental", help="criticality pruning vs. incremental deltas "
                            "(extension)")
    incremental_parser.add_argument("--benchmarks", nargs="+", default=None,
                                    help="subset of benchmarks to study")

    sub.add_parser("all", help="run every table and figure experiment")
    return parser


def _make_runner(args: argparse.Namespace,
                 step: int | None = None) -> ExperimentRunner:
    policy = FaultPolicy(max_retries=args.max_retries,
                         timeout=args.job_timeout,
                         backoff=args.retry_backoff)
    chaos = None
    if args.chaos is not None:
        chaos = parse_chaos(args.chaos, seed=args.chaos_seed)
    return ExperimentRunner(problem_class=args.problem_class,
                            method=args.method, n_probes=args.probes,
                            step=step, workers=args.workers,
                            cache_dir=args.cache_dir,
                            use_cache=not args.no_cache,
                            sweep=args.sweep,
                            probe_scale=args.probe_scale,
                            fault_policy=policy,
                            on_failure=args.on_failure,
                            journal=not args.no_journal,
                            chaos=chaos)


def _print_fault_summary(runner: ExperimentRunner) -> None:
    """Surface failure/retry/quarantine telemetry after a command."""
    stats = runner.fault_stats
    if stats.eventful():
        print()
        print(stats.summary())


def _run_analyze(args: argparse.Namespace,
                 runner: ExperimentRunner) -> int:
    result = runner.result(args.benchmark)
    print(result.describe())
    if args.show_masks and result.ok:
        print()
        print(legend())
        for name, crit in result.variables.items():
            print(f"\n{crit.variable}:")
            print(render_mask_1d(crit.mask))
            print(describe_mask(crit.mask))
    _print_fault_summary(runner)
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.max_retries < 0:
        parser.error("--max-retries must be non-negative")
    if args.retry_backoff < 0:
        parser.error("--retry-backoff must be non-negative")
    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error("--job-timeout must be positive")
    if args.job_timeout is not None and args.workers <= 1:
        parser.error("--job-timeout requires --workers > 1 (an in-process "
                     "job cannot be preempted)")
    if args.chaos is None and args.chaos_seed != 0:
        parser.error("--chaos-seed requires --chaos")
    if args.no_journal and args.cache_dir is None:
        parser.error("--no-journal only applies with --cache-dir (the "
                     "journal lives next to the result store)")

    # the runner validates the analysis arguments (and the chaos modes)
    try:
        runner = _make_runner(args, step=getattr(args, "step", None))
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "analyze":
        try:
            runner.check_benchmark(args.benchmark)
        except ValueError as exc:
            parser.error(str(exc))
        return _run_analyze(args, runner)

    reports = []
    if args.command == "table1":
        reports.append(table1.run(runner))
    elif args.command == "table2":
        reports.append(table2.run(runner))
    elif args.command == "table3":
        reports.append(table3.run(runner,
                                  measure_on_disk=not args.no_disk))
    elif args.command == "figures":
        if args.figure:
            reports.append(figures.run(args.figure, runner,
                                       export_dir=args.export_dir))
        else:
            reports.append(figures.run_all(runner,
                                           export_dir=args.export_dir))
    elif args.command == "verify":
        benchmarks = tuple(b.upper() for b in args.benchmarks) \
            if args.benchmarks else verify.VERIFY_BENCHMARKS
        reports.append(verify.run(runner, benchmarks=benchmarks))
    elif args.command == "ablation":
        if args.which == "methods":
            reports.append(ablation.run_methods(
                problem_class=args.problem_class))
        elif args.which == "probes":
            reports.append(ablation.run_probes(
                problem_class=args.problem_class))
        else:
            reports.append(ablation.run_encoding(
                problem_class=args.problem_class))
    elif args.command == "precision":
        benchmarks = tuple(b.upper() for b in args.benchmarks) \
            if args.benchmarks else precision.DEFAULT_BENCHMARKS
        reports.append(precision.run(
            runner, benchmarks=benchmarks,
            include_aggressive=not args.no_aggressive))
    elif args.command == "incremental":
        benchmarks = tuple(b.upper() for b in args.benchmarks) \
            if args.benchmarks else incremental.DEFAULT_BENCHMARKS
        reports.append(incremental.run(runner, benchmarks=benchmarks))
    elif args.command == "all":
        runner.prefetch(registry.available_benchmarks())
        reports.append(table1.run(runner))
        reports.append(table2.run(runner))
        reports.append(table3.run(runner))
        reports.append(figures.run_all(runner))
        reports.append(verify.run(runner))

    for report in reports:
        print(report.text)
        print()
    _print_fault_summary(runner)
    ok = all(r.matches_paper for r in reports) \
        and runner.fault_stats.quarantined == 0
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - module CLI convenience
    sys.exit(main())
