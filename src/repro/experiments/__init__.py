"""Experiment drivers that regenerate every table and figure of the paper.

One module per artefact:

=============  ==========================================================
module         paper artefact
=============  ==========================================================
``table1``     Table I (checkpoint-variable inventory)
``table2``     Table II (uncritical element counts)
``table3``     Table III (checkpoint storage before/after pruning)
``figures``    Figures 3-8 (critical/uncritical distributions)
``verify``     Section IV-C (restart verification with pruned checkpoints)
``ablation``   method / probe / encoding ablations (beyond the paper)
``precision``  impact-aware mixed-precision checkpoints (the paper's
               future-work extension)
``incremental`` criticality pruning vs. element-level incremental deltas
=============  ==========================================================

Every driver accepts a shared :class:`~repro.experiments.runner
.ExperimentRunner` so the expensive AD analyses are computed once per
session, and returns an :class:`~repro.experiments.runner.ExperimentReport`
with formatted text, structured data and a ``matches_paper`` verdict.

The runner is backed by the parallel scrutiny engine
(:mod:`repro.experiments.parallel`): per-benchmark analyses are
embarrassingly parallel, so a runner constructed with ``workers=N`` fans
missing analyses out across ``N`` worker processes, and one constructed
with ``cache_dir=...`` persists every :class:`~repro.core.analysis
.ScrutinyResult` in a content-addressed on-disk store
(:class:`repro.core.store.ResultStore`) -- a warm cache regenerates every
table and figure without re-running a single AD sweep::

    runner = ExperimentRunner(workers=4, cache_dir="out/cache")
    runner.prefetch(registry.available_benchmarks())   # parallel sweep
    table2.run(runner)                                 # instant
    table3.run(runner)                                 # instant

The CLI exposes the same controls as global ``--workers N``,
``--cache-dir DIR`` and ``--no-cache`` flags.
"""

from . import (ablation, figures, incremental, paper, parallel, precision,
               table1, table2, table3, verify)
from .parallel import ParallelRunner, ScrutinyJob
from .runner import ExperimentReport, ExperimentRunner

__all__ = [
    "ExperimentRunner",
    "ExperimentReport",
    "ParallelRunner",
    "ScrutinyJob",
    "parallel",
    "paper",
    "table1",
    "table2",
    "table3",
    "figures",
    "verify",
    "ablation",
    "precision",
    "incremental",
]
