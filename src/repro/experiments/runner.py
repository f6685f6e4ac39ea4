"""Shared experiment infrastructure.

Every table and figure of the paper is regenerated from the same per-
benchmark :class:`~repro.core.analysis.ScrutinyResult`.  The runner now
routes all analysis requests through the parallel scrutiny engine
(:mod:`repro.experiments.parallel`): results are looked up in an optional
persistent :class:`~repro.core.store.ResultStore` first, missing ones are
fanned out across a worker pool (``workers > 1``) or computed in process
(``workers == 1``, the default), and everything is memoised in process so
the experiment drivers (and the pytest-benchmark harness, which calls
several of them in one session) never redo an AD sweep.

Typical accelerated use::

    runner = ExperimentRunner(workers=4, cache_dir="~/.cache/repro")
    runner.prefetch(["BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS"])
    table2.run(runner)          # no AD sweep happens here any more
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.analysis import ScrutinyResult
from repro.core.criticality import (DEFAULT_PROBE_SCALE, VariableCriticality,
                                    validate_analysis, validate_steps)
from repro.core.store import ResultStore
from repro.npb import registry
from repro.npb.params import check_problem_class, params_for

from .faults import BatchJournal, ChaosConfig, FaultPolicy, parse_chaos
from .parallel import ParallelRunner, ScrutinyJob

__all__ = ["ExperimentRunner", "ExperimentReport"]


@dataclass
class ExperimentReport:
    """Uniform return type of the experiment drivers.

    Attributes
    ----------
    name:
        Experiment identifier ("table2", "figure3", ...).
    text:
        The formatted, human-readable output (what the CLI prints).
    data:
        Structured results for programmatic checks (what the tests and the
        benchmark harness assert on).
    matches_paper:
        True when every comparison against the paper's reported values is
        within the experiment's tolerance.
    """

    name: str
    text: str
    data: dict = field(default_factory=dict)
    matches_paper: bool = True

    def __str__(self) -> str:
        return self.text


class ExperimentRunner:
    """Caches benchmark instances and their scrutiny results.

    Parameters
    ----------
    problem_class:
        Problem class of the analysed runs; "S" reproduces the paper.
    method:
        Criticality method forwarded to :func:`repro.core.scrutinize`.
    n_probes:
        Number of AD probes per variable (1 = the paper's single sweep).
    step:
        Checkpoint step; ``None`` uses each benchmark's mid-run default.
    workers:
        Worker processes for fanning out missing analyses (1 = in process).
    cache_dir:
        Directory of the persistent result store; ``None`` disables
        persistence (results are still memoised in process).
    use_cache:
        Set ``False`` to ignore ``cache_dir`` (the CLI's ``--no-cache``).
    sweep:
        Reverse-sweep strategy of the AD and activity analyses:
        ``"monolithic"`` (one tape for the whole remaining computation) or
        ``"segmented"`` (per-iteration tapes with compiled plan replay,
        peak memory bounded by one iteration; bitwise-identical masks).
        Not part of the cache key: a result computed by either sweep
        serves both.  The CLI's ``--sweep``.
    probe_scale:
        Relative magnitude of the probe perturbations; part of the cache
        key, so runs with different magnitudes never alias.  The CLI's
        ``--probe-scale``.
    fault_policy:
        Retry/timeout policy of the fault-tolerant engine
        (:class:`~repro.experiments.faults.FaultPolicy`); ``None`` uses
        the default (two retries, no watchdog).  Assembled by the CLI
        from ``--max-retries``/``--job-timeout``/``--retry-backoff``.
    on_failure:
        ``"raise"`` (default: a poisoned job re-raises, the legacy
        semantics) or ``"record"`` (the batch completes; the poisoned
        job's slot carries a failure-marker result).  The CLI's
        ``--on-failure``.
    journal:
        ``True`` (default) records per-job completion in a
        ``journal.jsonl`` next to the persistent store (when one is
        configured), making killed batch runs resumable; ``False``
        disables journalling.  The CLI's ``--no-journal``.
    chaos:
        Deterministic fault injection for tests/CI: a
        :class:`~repro.experiments.faults.ChaosConfig`, or a CLI-style
        mode string such as ``"worker-kill,corrupt-cache"``.  ``None``
        (default) injects nothing.  The CLI's ``--chaos``/
        ``--chaos-seed``.

    Method, probe count, sweep, problem class and the type of ``step`` are
    validated on construction, and benchmark names -- with ``step``
    against their loop length -- when they are requested; a bad value
    raises ``ValueError`` there instead of failing inside a job.
    """

    def __init__(self, problem_class: str = "S", method: str = "ad",
                 n_probes: int = 1, step: int | None = None,
                 workers: int = 1,
                 cache_dir: str | Path | None = None,
                 use_cache: bool = True,
                 sweep: str = "monolithic",
                 probe_scale: float = DEFAULT_PROBE_SCALE,
                 fault_policy: FaultPolicy | None = None,
                 on_failure: str = "raise",
                 journal: bool = True,
                 chaos: ChaosConfig | str | None = None) -> None:
        validate_analysis(method, n_probes, sweep)
        check_problem_class(problem_class)
        validate_steps(step)
        self.problem_class = problem_class
        self.method = method
        self.n_probes = int(n_probes)
        self.step = step
        self.sweep = sweep
        self.probe_scale = float(probe_scale)
        self.workers = max(1, int(workers))
        store = None
        if cache_dir is not None and use_cache:
            store = ResultStore(cache_dir)
        self.store = store
        if isinstance(chaos, str):
            chaos = parse_chaos(chaos)
        batch_journal = BatchJournal(Path(cache_dir) / "journal.jsonl") \
            if store is not None and journal else None
        self.engine = ParallelRunner(workers=self.workers, store=store,
                                     fault_policy=fault_policy,
                                     on_failure=on_failure,
                                     journal=batch_journal, chaos=chaos)
        self._benchmarks: dict[str, object] = {}
        self._results: dict[str, ScrutinyResult] = {}

    @property
    def fault_stats(self):
        """The engine's :class:`~repro.experiments.faults.FaultStats`."""
        return self.engine.stats

    # ------------------------------------------------------------------
    # caching accessors
    # ------------------------------------------------------------------
    def benchmark(self, name: str):
        """The (cached) benchmark instance for ``name``."""
        key = name.upper()
        if key not in self._benchmarks:
            self._benchmarks[key] = registry.create(key, self.problem_class)
        return self._benchmarks[key]

    def result(self, name: str) -> ScrutinyResult:
        """The (cached) scrutiny result for benchmark ``name``."""
        key = name.upper()
        if key not in self._results:
            self._results.update(self._compute([key]))
        return self._results[key]

    def results(self, names: Iterable[str]
                ) -> dict[str, ScrutinyResult]:
        """Scrutiny results for several benchmarks, keyed by name.

        Missing results are computed as one batch, so with ``workers > 1``
        this is where the per-benchmark analyses fan out across processes.
        """
        names = [name.upper() for name in names]
        missing = [name for name in dict.fromkeys(names)
                   if name not in self._results]
        if missing:
            self._results.update(self._compute(missing))
        return {name: self._results[name] for name in names}

    def prefetch(self, names: Iterable[str]) -> "ExperimentRunner":
        """Ensure results for ``names`` exist (parallel when configured).

        Returns the runner so drivers can chain ``runner.prefetch(...)``
        in front of their per-benchmark accesses.
        """
        self.results(names)
        return self

    def criticality(self, names: Iterable[str]
                    ) -> dict[str, Mapping[str, VariableCriticality]]:
        """Per-benchmark variable criticality maps (report-layer input)."""
        return {name: result.variables
                for name, result in self.results(names).items()}

    def clear(self) -> None:
        """Drop all in-process caches (the persistent store is untouched)."""
        self._benchmarks.clear()
        self._results.clear()

    # ------------------------------------------------------------------
    # computation backends
    # ------------------------------------------------------------------
    def _compute(self, names: Sequence[str]) -> dict[str, ScrutinyResult]:
        for name in names:
            self.check_benchmark(name)
        jobs = [ScrutinyJob(benchmark=name, problem_class=self.problem_class,
                            method=self.method, n_probes=self.n_probes,
                            step=self.step, sweep=self.sweep,
                            probe_scale=self.probe_scale)
                for name in names]
        return dict(zip(names, self.engine.run(jobs)))

    def check_benchmark(self, name: str) -> None:
        """``ValueError`` unless ``name`` is registered at this class and
        the runner's checkpoint ``step`` lies inside its main loop."""
        try:
            params_for(name, self.problem_class)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if self.step is not None:
            total = self.benchmark(name).total_steps
            if self.step > total:
                raise ValueError(f"checkpoint step {self.step} outside "
                                 f"[0, {total}] for {name.upper()} class "
                                 f"{self.problem_class}")
