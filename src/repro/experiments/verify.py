"""Section IV-C -- verifying the AD results by restarting from pruned
checkpoints.

For every benchmark the harness:

1. runs the main loop with periodic *pruned* checkpoints (only critical
   elements written, regions in the auxiliary file), resuming from the
   analysed checkpoint state (``ScrutinyResult.state`` after
   ``ScrutinyResult.step`` iterations) rather than re-running the clean
   prefix from step 0 -- the checkpoints, and so the restart, are the same;
2. injects a failure part-way through the run;
3. rebuilds the restart state from a fresh initial state whose *uncritical*
   elements are overwritten with garbage (they were not checkpointed, so
   after a real failure they hold whatever the allocator left there);
4. restores the latest pruned checkpoint, finishes the run and lets the
   benchmark's own verification phase judge the result.

The paper's claim is that every benchmark passes.  A negative control is
included: re-corrupting the *critical* elements after the restore (modelling
a checkpoint that failed to bring them back) must make the verification
fail -- evidence that the elements the analysis kept really are critical.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.ckpt.failure import default_fail_step, run_failure_scenario
from repro.core.report import format_table

from .paper import VERIFY_BENCHMARKS
from .runner import ExperimentReport, ExperimentRunner

__all__ = ["run"]


def run(runner: ExperimentRunner | None = None,
        benchmarks: tuple[str, ...] = VERIFY_BENCHMARKS,
        directory: str | Path | None = None,
        include_negative_control: bool = True,
        interval: int | None = None) -> ExperimentReport:
    """Run the restart-correctness experiment for every benchmark.

    Parameters
    ----------
    runner:
        Shared experiment runner (its problem class decides run sizes; the
        paper uses class S).
    benchmarks:
        Benchmarks to cover; defaults to the full 8-benchmark suite.
    directory:
        Where checkpoint files are written (a temporary directory by
        default).
    include_negative_control:
        Also run the corrupted-critical-elements scenario on the first
        benchmark and require it to fail.
    interval:
        Checkpoint interval in main-loop iterations; defaults to roughly a
        quarter of each benchmark's run so a checkpoint exists before the
        failure.
    """
    runner = runner or ExperimentRunner()
    # batch the underlying analyses so a parallel runner fans them out once
    runner.prefetch(benchmarks)
    workdir = Path(directory) if directory is not None \
        else Path(tempfile.mkdtemp(prefix="repro_verify_"))

    def scenario(name: str, path: Path, **kwargs):
        bench = runner.benchmark(name)
        result = runner.result(name)
        bench_interval = interval or max(bench.total_steps // 4, 1)
        # resume from the analysed state when it lies before the failure
        start = {} if result.step >= default_fail_step(bench, bench_interval) \
            else {"state": result.state, "start_step": result.step}
        return result, run_failure_scenario(
            bench, path, result.variables, interval=bench_interval,
            mode="pruned", corrupt="uncritical", **start, **kwargs)

    rows = []
    records = []
    all_passed = True
    for name in benchmarks:
        result, record = scenario(name, workdir / name.lower())
        records.append(record)
        all_passed &= record.verification_passed
        rows.append((name, str(record.fail_step), str(record.restart_step),
                     str(result.n_uncritical),
                     "PASSED" if record.verification_passed else "FAILED"))

    negative = None
    if include_negative_control and benchmarks:
        name = benchmarks[0]
        _, negative = scenario(name, workdir / f"{name.lower()}_negative",
                               unrecovered="critical")
        rows.append((f"{name} (negative control)",
                     str(negative.fail_step), str(negative.restart_step),
                     "critical dropped",
                     "FAILED as expected" if not negative.verification_passed
                     else "PASSED (unexpected)"))
        all_passed &= not negative.verification_passed

    text = format_table(
        ["Benchmark", "Failure step", "Restart step",
         "Elements not checkpointed", "Verification"],
        rows, title="Section IV-C: restart verification with pruned "
                    "checkpoints")
    text += ("\n\nall benchmarks restarted successfully and passed their "
             "verification" if all_passed else
             "\n\nsome scenario did not behave as the paper reports")

    return ExperimentReport(
        name="verify",
        text=text,
        data={"scenarios": records, "negative_control": negative},
        matches_paper=all_passed,
    )
