"""Ablation experiments for the design choices of the analysis.

Not part of the paper's evaluation, but they answer the two questions a
reader of the paper is left with:

* **Method ablation** -- how do the AD masks compare with a cheaper
  first-touch read-set (activity) analysis and with the conservative
  checkpoint-everything rule?  For simply-accessed variables the two
  coincide (the paper's Section V observation: uncritical elements are
  uncritical because they are never read); the read-set analysis
  over-approximates when only a sub-slice of an extracted block feeds the
  output (MG's residual) and misses reads that happen through copies of the
  variable (LU's solution in later iterations), which is exactly why the
  paper reaches for AD.
* **Probe ablation** -- does probing the derivative at several perturbed
  base states change any mask?  (It should not: the zeros are structural.)
* **Encoding ablation** -- how many strided region records does each mask
  need compared with its plain start/end runs and with a raw bitmap, and
  what does that do to the net storage saving?
"""

from __future__ import annotations

import numpy as np

from repro.core.masks import mask_agreement
from repro.core.regions import RECORD_NBYTES, encode_records
from repro.core.report import format_table

from .paper import TABLE2_BENCHMARKS
from .runner import ExperimentReport, ExperimentRunner

__all__ = ["run_methods", "run_probes", "run_encoding"]


def run_methods(benchmarks: tuple[str, ...] = ("BT", "MG", "CG"),
                problem_class: str = "S") -> ExperimentReport:
    """Compare AD, activity-analysis and rule-based criticality masks."""
    ad_runner = ExperimentRunner(problem_class=problem_class, method="ad")
    act_runner = ExperimentRunner(problem_class=problem_class,
                                  method="activity")

    rows = []
    data = {}
    for name in benchmarks:
        ad_result = ad_runner.result(name)
        act_result = act_runner.result(name)
        for var_name, ad_crit in ad_result.variables.items():
            act_crit = act_result.variables[var_name]
            agreement = mask_agreement(ad_crit.mask, act_crit.mask)
            identical = agreement["only_a"] == 0 and agreement["only_b"] == 0
            data[(name, var_name)] = agreement
            rows.append((f"{name}({var_name})",
                         str(ad_crit.n_uncritical),
                         str(act_crit.n_uncritical),
                         "yes" if identical else "no",
                         str(agreement["only_b"]),
                         str(agreement["only_a"])))

    text = format_table(
        ["Variable", "AD uncritical", "Read-set uncritical",
         "Masks identical", "Read-but-no-impact", "Impact-through-copies"],
        rows, title="Ablation: AD vs. first-touch read-set (activity) "
                    "analysis")
    text += ("\n\nrule-based baseline: 0 uncritical elements everywhere "
             "(checkpoint everything).\n"
             "'Read-but-no-impact' elements are read directly but have zero "
             "derivative; 'Impact-through-copies' elements influence the "
             "output only via copies, which the read-set analysis cannot "
             "see -- both gaps are why the paper uses AD.")
    return ExperimentReport(name="ablation_methods", text=text,
                            data={"agreement": data},
                            matches_paper=True)


def run_probes(benchmarks: tuple[str, ...] = ("BT", "CG"),
               n_probes: int = 3,
               problem_class: str = "S") -> ExperimentReport:
    """Check that multi-probe AD produces the same masks as a single sweep."""
    single = ExperimentRunner(problem_class=problem_class, n_probes=1)
    multi = ExperimentRunner(problem_class=problem_class, n_probes=n_probes)

    rows = []
    identical_everywhere = True
    for name in benchmarks:
        res1 = single.result(name)
        resn = multi.result(name)
        for var_name, crit1 in res1.variables.items():
            critn = resn.variables[var_name]
            identical = bool(np.array_equal(crit1.mask, critn.mask))
            identical_everywhere &= identical
            rows.append((f"{name}({var_name})", str(crit1.n_uncritical),
                         str(critn.n_uncritical),
                         "yes" if identical else "NO"))

    text = format_table(
        ["Variable", "1-probe uncritical", f"{n_probes}-probe uncritical",
         "Masks identical"],
        rows, title="Ablation: single-sweep vs. multi-probe AD")
    text += ("\n\nidentical masks confirm the zero derivatives are "
             "structural (elements never read), not coincidental"
             if identical_everywhere else
             "\n\nWARNING: multi-probe analysis changed a mask -- a zero "
             "derivative was coincidental")
    return ExperimentReport(name="ablation_probes", text=text,
                            data={}, matches_paper=identical_everywhere)


def run_encoding(benchmarks: tuple[str, ...] = TABLE2_BENCHMARKS,
                 problem_class: str = "S") -> ExperimentReport:
    """Compare region records against a raw bitmap as auxiliary metadata."""
    runner = ExperimentRunner(problem_class=problem_class)
    rows = []
    data = {}
    for name in benchmarks:
        result = runner.result(name)
        for var_name, crit in result.variables.items():
            if crit.n_uncritical == 0:
                continue
            n_runs = len(crit.regions())
            n_records = len(encode_records(crit.mask))
            region_bytes = RECORD_NBYTES * n_records
            bitmap_bytes = (crit.n_elements + 7) // 8
            saved = crit.full_nbytes - crit.critical_nbytes
            data[(name, var_name)] = {
                "n_runs": n_runs,
                "n_records": n_records,
                "region_bytes": region_bytes,
                "bitmap_bytes": bitmap_bytes,
                "payload_saved": saved,
            }
            rows.append((f"{name}({var_name})", str(n_runs), str(n_records),
                         str(region_bytes), str(bitmap_bytes), str(saved)))

    text = format_table(
        ["Variable", "Critical runs", "Region records",
         "Region records (bytes)", "Bitmap (bytes)", "Payload bytes saved"],
        rows, title="Ablation: auxiliary-file encodings")
    text += (f"\n\neach region record is {RECORD_NBYTES} bytes "
             "(start, length, stride, count) and covers a whole arithmetic "
             "progression of equal runs, so the regular masks (FT's padding "
             "plane in every row, MG's and BT/SP's stripes) need a handful "
             "of records where the paper's start/end pairs need one per "
             "run; a raw bitmap costs one bit per element whatever the "
             "pattern.")
    return ExperimentReport(name="ablation_encoding", text=text,
                            data={"rows": data},
                            matches_paper=True)
