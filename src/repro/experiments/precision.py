"""Extension experiment -- impact-aware mixed-precision checkpointing.

The paper's future work ("using lower precision for uncritical or even those
elements that are of very low impact") implemented end to end:

1. reuse the AD analysis' per-element derivative magnitudes as *impact*
   scores;
2. build a **tolerance-driven** precision plan per benchmark: every element
   is stored at the cheapest tier (drop / half / single / double) such that
   the first-order bound on the output perturbation stays under an error
   budget (:func:`repro.core.impact.plan_precision_for_budget`);
3. **auto-tune the budget against the application's own verification**: the
   first-order bound targets the scalar output, but the NPB verification
   phases check several derived quantities against tight relative
   tolerances, so the planner walks a geometric ladder of budgets and keeps
   the largest one whose mixed-precision restart still passes verification
   (the ladder bottoms out at the plain pruned plan, which always passes);
4. for contrast, also report an **aggressive quantile plan** (lowest-impact
   quartile in half precision, next two quartiles in single) that ignores
   the tolerance -- it saves more bytes but breaks the strictest
   verifications, which is exactly why the tolerance-driven planner exists.

Every size is what a checkpoint takes on disk: the file plus its auxiliary
region file, if any, against the full checkpoint file.  Both writers fall
back to the full checkpoint when they would not save bytes, so no saving
is negative, and the mixed-precision writer stores a variable as region
records, as the pruned writer does, whenever that beats its tier map, so
a tuned mixed checkpoint is never bigger than the pruned one.  The mixed
and pruned files have names of equal length, because the header of a
checkpoint with region records names its auxiliary file.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.ad import ops
from repro.ckpt.precision import (read_mixed_precision_checkpoint,
                                  write_mixed_precision_checkpoint)
from repro.ckpt.restart import restart_benchmark
from repro.ckpt.writer import write_full_checkpoint, write_pruned_checkpoint
from repro.core.impact import (estimate_roundoff_impact, plan_precision,
                               plan_precision_for_budget)
from repro.core.report import format_bytes, format_table

from .runner import ExperimentReport, ExperimentRunner

__all__ = ["DEFAULT_BENCHMARKS", "run"]


#: benchmarks used for the extension study (the ones with a non-trivial
#: floating-point payload)
DEFAULT_BENCHMARKS = ("BT", "SP", "MG", "CG", "LU", "FT")

#: starting fraction of (verification tolerance x output magnitude) granted
#: to the quantisation error budget
DEFAULT_BUDGET_FRACTION = 0.01

#: how many times the budget is divided by 10 before giving up and falling
#: back to the plain pruned plan
MAX_BUDGET_TRIALS = 5


def _restart_verification(bench, mixed_path) -> bool:
    """Restore a mixed-precision checkpoint, finish the run and verify."""
    return restart_benchmark(
        bench, read_mixed_precision_checkpoint(mixed_path)).passed


def _tune_budget(bench, result, workdir: Path, name: str,
                 budget_fraction: float):
    """Walk a geometric budget ladder until the restart verifies.

    Returns ``(plans, budget, written, verified, trials)`` for the first
    budget on the ladder whose mixed-precision restart passes the
    benchmark's verification; the last rung is budget 0 (pure pruning).
    """
    output_value = abs(float(ops.to_numpy(
        bench.restart_output(result.state))))
    epsilon = float(getattr(bench, "epsilon", 1.0e-8))
    base_budget = budget_fraction * epsilon * max(output_value, 1.0e-30)

    budgets = [base_budget / 10 ** k for k in range(MAX_BUDGET_TRIALS)]
    budgets.append(0.0)
    for trial, budget in enumerate(budgets, start=1):
        plans = plan_precision_for_budget(result.variables, result.state,
                                          budget)
        written = write_mixed_precision_checkpoint(
            workdir / f"{name.lower()}_mixed{trial}.ckpt", bench,
            result.state, plans, step=result.step)
        if _restart_verification(bench, written.path):
            return plans, budget, written, True, trial
    return plans, budget, written, False, len(budgets)  # pragma: no cover


def run(runner: ExperimentRunner | None = None,
        benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
        budget_fraction: float = DEFAULT_BUDGET_FRACTION,
        include_aggressive: bool = True,
        directory: str | Path | None = None) -> ExperimentReport:
    """Run the mixed-precision study; tolerance-driven restarts must verify."""
    runner = runner or ExperimentRunner()
    # batch the underlying analyses so a parallel runner fans them out once
    runner.prefetch(benchmarks)
    workdir = Path(directory) if directory is not None \
        else Path(tempfile.mkdtemp(prefix="repro_precision_"))

    rows = []
    data = {}
    all_verified = True
    for name in benchmarks:
        bench = runner.benchmark(name)
        result = runner.result(name)

        plans, budget, mixed, verified, trials = _tune_budget(
            bench, result, workdir, name, budget_fraction)
        bound = estimate_roundoff_impact(plans, result.variables,
                                         result.state)
        all_verified &= verified

        full = write_full_checkpoint(
            workdir / f"{name.lower()}_full.ckpt", bench, result.state,
            step=result.step)
        pruned = write_pruned_checkpoint(
            workdir / f"{name.lower()}_pruned.ckpt", bench, result.state,
            result.variables, step=result.step)

        aggressive_nbytes = None
        aggressive_verified = None
        if include_aggressive:
            aggressive_plans = plan_precision(result.variables)
            aggressive = write_mixed_precision_checkpoint(
                workdir / f"{name.lower()}_aggressive.ckpt", bench,
                result.state, aggressive_plans, step=result.step)
            aggressive_nbytes = aggressive.total_nbytes
            aggressive_verified = _restart_verification(bench,
                                                        aggressive.path)

        tier_counts = {tier: 0 for tier in range(4)}
        for plan in plans.values():
            for tier, count in plan.tier_counts().items():
                tier_counts[tier] += count

        data[name] = {
            "plans": plans,
            "budget": budget,
            "trials": trials,
            "roundoff_bound": bound,
            "verified": verified,
            "full_nbytes": full.nbytes,
            "pruned_nbytes": pruned.total_nbytes,
            "mixed_nbytes": mixed.total_nbytes,
            "tier_counts": tier_counts,
            "aggressive_nbytes": aggressive_nbytes,
            "aggressive_verified": aggressive_verified,
        }
        rows.append((
            name,
            format_bytes(full.nbytes),
            format_bytes(pruned.total_nbytes),
            format_bytes(mixed.total_nbytes),
            f"{100 * (1 - mixed.total_nbytes / full.nbytes):.1f}%",
            f"PASSED ({trials} trial{'s' if trials > 1 else ''})"
            if verified else "FAILED",
            "-" if aggressive_nbytes is None
            else format_bytes(aggressive_nbytes),
            "-" if aggressive_verified is None
            else ("PASSED" if aggressive_verified else "FAILED"),
        ))

    text = format_table(
        ["Benchmark", "Full", "Pruned", "Mixed (tuned)", "Mixed saved",
         "Verification", "Mixed (aggressive)", "Aggressive verif."],
        rows,
        title="Extension: impact-aware mixed-precision checkpoints "
              f"(budget ladder starting at {budget_fraction:g} x tolerance "
              "x output)")
    text += ("\n\nevery tuned mixed-precision restart passed its "
             "benchmark's own verification" if all_verified else
             "\n\nWARNING: a tuned restart failed verification even at a "
             "zero budget -- this should be impossible")
    if include_aggressive:
        text += ("\nthe aggressive quantile plan shows the storage ceiling "
                 "when the verification tolerance is ignored; where its "
                 "verification fails, the tolerance-driven planner is doing "
                 "its job")

    return ExperimentReport(name="precision", text=text, data=data,
                            matches_paper=all_verified)
