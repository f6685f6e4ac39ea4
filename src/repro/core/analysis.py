"""End-to-end orchestration of the scrutiny analysis.

``scrutinize`` runs the paper's whole per-benchmark pipeline in one call:

1. run the benchmark to the requested checkpoint step and capture the state
   of its checkpoint variables;
2. run the criticality analysis (:mod:`repro.core.criticality`) on every
   variable;
3. package the masks, region encodings and storage accounting in a
   :class:`ScrutinyResult` the experiment drivers, the checkpoint library
   and the visualisation layer all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.criticality import (DEFAULT_PROBE_SCALE, CriticalityAnalyzer,
                                    VariableCriticality)
from repro.core.masks import MaskSummary
from repro.core.regions import Region
from repro.core.report import pruned_variable_nbytes

__all__ = ["ScrutinyResult", "scrutinize"]


@dataclass
class ScrutinyResult:
    """Outcome of the element-level analysis of one benchmark.

    Attributes
    ----------
    benchmark:
        Benchmark name ("BT", "MG", ...).
    problem_class:
        Problem class of the analysed run ("S" reproduces the paper).
    step:
        Main-loop index of the checkpoint the analysis is based on.
    method:
        Criticality method used ("ad", "activity" or "rule").
    variables:
        Per-variable criticality, keyed by variable name in Table I order.
    state:
        The concrete checkpoint state the analysis was run on (kept so the
        checkpoint library can immediately write a pruned checkpoint of it).
    failure:
        ``None`` for a genuine analysis.  When the fault-tolerant engine
        gives up on a job (``on_failure="record"``) it returns a *failure
        marker* instead: an otherwise-empty result carrying the structured
        :class:`~repro.experiments.faults.JobFailure` here, so the batch
        completes and the caller can see exactly what was lost.  Failure
        markers are never persisted in the result store.
    """

    benchmark: str
    problem_class: str
    step: int
    method: str
    variables: dict[str, VariableCriticality]
    state: dict[str, Any] = field(default_factory=dict, repr=False)
    failure: Any = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True for a real analysis, False for a failure marker."""
        return self.failure is None

    # -- per-variable views -----------------------------------------------
    def masks(self) -> dict[str, np.ndarray]:
        """Criticality masks keyed by variable name (True = critical)."""
        return {name: crit.mask for name, crit in self.variables.items()}

    def regions(self) -> dict[str, list[Region]]:
        """Critical-region encodings keyed by variable name."""
        return {name: crit.regions() for name, crit in self.variables.items()}

    def summaries(self) -> list[MaskSummary]:
        """Count summaries of every variable."""
        return [crit.summary() for crit in self.variables.values()]

    # -- aggregate counts ---------------------------------------------------
    @property
    def n_elements(self) -> int:
        """Total number of checkpointed elements across all variables."""
        return sum(c.n_elements for c in self.variables.values())

    @property
    def n_uncritical(self) -> int:
        """Total number of uncritical elements across all variables."""
        return sum(c.n_uncritical for c in self.variables.values())

    @property
    def uncritical_rate(self) -> float:
        """Overall fraction of uncritical elements."""
        return self.n_uncritical / self.n_elements if self.n_elements else 0.0

    # -- storage model ------------------------------------------------------
    @property
    def full_nbytes(self) -> int:
        """Bytes of a conventional full checkpoint of all variables."""
        return sum(c.full_nbytes for c in self.variables.values())

    @property
    def pruned_nbytes(self) -> int:
        """Checkpoint-file bytes after pruning (critical element data only).

        The paper's Table III accounting: the auxiliary region file is stored
        separately and reported by :attr:`aux_nbytes`.
        """
        total = 0
        for crit in self.variables.values():
            if crit.n_uncritical == 0:
                total += crit.full_nbytes
            else:
                total += crit.critical_nbytes
        return total

    @property
    def aux_nbytes(self) -> int:
        """Bytes a pruned checkpoint stores beyond the critical elements:
        the region records of the pruned variables, plus the uncritical
        elements of variables stored whole because pruning would not pay."""
        total = 0
        for crit in self.variables.values():
            if crit.n_uncritical:
                total += pruned_variable_nbytes(crit) - crit.critical_nbytes
        return total

    @property
    def pruned_total_nbytes(self) -> int:
        """Element data plus region records a pruned checkpoint and its
        auxiliary file store (headers excluded)."""
        return self.pruned_nbytes + self.aux_nbytes

    @property
    def storage_saved_fraction(self) -> float:
        """Fraction of checkpoint-file storage the pruning saves (Table III)."""
        if self.full_nbytes == 0:
            return 0.0
        return 1.0 - self.pruned_nbytes / self.full_nbytes

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable summary (no bulk arrays)."""
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "step": self.step,
            "method": self.method,
            "variables": {
                name: {
                    "shape": list(crit.variable.shape),
                    "kind": crit.variable.kind.value,
                    "total": crit.n_elements,
                    "critical": crit.n_critical,
                    "uncritical": crit.n_uncritical,
                    "uncritical_rate": crit.uncritical_rate,
                    "regions": [[r.start, r.stop] for r in crit.regions()],
                }
                for name, crit in self.variables.items()
            },
            "full_nbytes": self.full_nbytes,
            "pruned_nbytes": self.pruned_nbytes,
            "storage_saved_fraction": self.storage_saved_fraction,
        }

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        if self.failure is not None:
            return (f"{self.benchmark} (class {self.problem_class}), "
                    f"method {self.method!r}: ANALYSIS FAILED -- "
                    f"{self.failure.describe()}")
        lines = [f"{self.benchmark} (class {self.problem_class}), checkpoint "
                 f"at step {self.step}, method {self.method!r}"]
        for crit in self.variables.values():
            lines.append(f"  {crit.variable}: {crit.n_uncritical}/"
                         f"{crit.n_elements} uncritical "
                         f"({100.0 * crit.uncritical_rate:.1f}%)")
        lines.append(f"  checkpoint storage: {self.full_nbytes} -> "
                     f"{self.pruned_nbytes} bytes "
                     f"({100.0 * self.storage_saved_fraction:.1f}% saved)")
        return "\n".join(lines)


def scrutinize(bench, step: int | None = None,
               state: Mapping[str, Any] | None = None,
               method: str = "ad", n_probes: int = 1,
               steps: int | None = None,
               sweep: str = "monolithic",
               probe_scale: float = DEFAULT_PROBE_SCALE) -> ScrutinyResult:
    """Run the full element-level analysis of one benchmark.

    Parameters
    ----------
    bench:
        A benchmark instance (anything implementing
        :class:`~repro.core.variables.RestartableApplication`); use
        :func:`repro.npb.registry.create` for the paper's workloads.
    step:
        Checkpoint step the analysis is based on.  Defaults to the middle of
        the main loop (the result is step-independent for the paper's
        benchmarks -- see the property tests).
    state:
        Explicit checkpoint state; overrides ``step`` when given.
    method, n_probes, steps, sweep, probe_scale:
        Forwarded to :class:`~repro.core.criticality.CriticalityAnalyzer`;
        both sweeps run one driver (:mod:`repro.ad.segmented`):
        ``"monolithic"`` traces the whole remaining run on one tape, and
        ``sweep="segmented"`` bounds the AD tape memory to one main-loop
        iteration and replays compiled step plans (bitwise-identical
        masks, for the ``"ad"`` *and* ``"activity"`` methods), and
        ``probe_scale`` sets the relative magnitude of the probe
        perturbations.
    """
    # built first: a bad argument fails before the forward run
    analyzer = CriticalityAnalyzer(method=method, n_probes=n_probes,
                                   steps=steps, sweep=sweep,
                                   probe_scale=probe_scale)
    # ``analysis_step`` feeds the analyzer's per-analysis probe-rng
    # derivation: for an explicit state with no explicit step it stays
    # ``None`` so the analyzer derives the rng from the state's own step
    # counter -- exactly what a direct ``analyze(bench, state=...)`` call
    # does.  ``step`` itself only labels the result then.
    analysis_step = step
    if step is None:
        step = bench.total_steps // 2
    if state is None:
        analyzer.check_span(bench, step)
        state = bench.checkpoint_state(step)
        analysis_step = step
    else:
        state = dict(state)

    variables = analyzer.analyze(bench, state=state, step=analysis_step)
    return ScrutinyResult(
        benchmark=bench.name,
        problem_class=str(getattr(bench.params, "problem_class", "S")),
        step=int(step),
        method=method,
        variables=variables,
        state=dict(state),
    )
