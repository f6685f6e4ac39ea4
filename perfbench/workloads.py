"""The benchmark's workloads: class-S paper regeneration and the class-A
prune -> restart pipeline.

``regen-s-cold``
    What ``repro --cache-dir <empty dir> all`` does at class S, in process:
    analyse every port (monolithic AD sweep, results written to the store),
    then Tables I-III, Figures 3-8 and the Section IV-C restart verification
    with its negative control.
``regen-s-warm``
    The same over a store populated during set-up, so every analysis is a
    digest-verified store read and the restarts are what is left.
``pipeline-a``
    The paper's pipeline on the six class-A ports: analyse (segmented sweep
    with plan replay), write a full and a pruned checkpoint, read the pruned
    one back, restore it onto a base whose uncritical elements are garbage,
    replay to the end and verify.  Every iteration checkpoints each port at
    both ends of the middle half of its main loop (mid-run minus, then plus,
    a quarter); the seed picks the garbage.  Letting the seed pick the steps,
    or even their order, made the work and above all the peak memory depend
    on it: FT-A's analysis grows ~60 MB per remaining step, and running its
    late checkpoint first moved the process peak from ~985 to ~1300 MB.

Each iteration returns an :class:`Iteration` with its timings, its
correctness checks, the per-port mask digests and checkpoint byte counts,
and -- when traced -- the :class:`~spans.Tracer` holding its spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from spans import ROOT, Instrumentation, Rebindings, Tracer

#: the six ports registered at class A (BT and LU stop at class S)
PORTS_A = ("SP", "MG", "CG", "FT", "EP", "IS")

#: the paper artefacts of ``repro all``, in the order the CLI runs them
REPORTS = ("table1", "table2", "table3", "figures", "verify")

REFERENCE = Path(__file__).with_name("reference.json")


def mask_digest(variables) -> str:
    """Digest of every variable's criticality mask, in Table I order."""
    digest = hashlib.sha256()
    for name, crit in variables.items():
        digest.update(name.encode())
        digest.update(repr(crit.mask.shape).encode())
        digest.update(np.packbits(crit.mask).tobytes())
    return digest.hexdigest()[:16]


def load_reference(problem_class: str) -> dict[str, dict[str, Any]]:
    """Reference mask digests and uncritical counts per port, if recorded."""
    return json.loads(REFERENCE.read_text()).get(problem_class, {})


@dataclass
class Iteration:
    """What one workload iteration measured and checked."""

    wall_s: float
    masks_s: float
    restart_s: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: port -> "<mask digest>/<uncritical count>"
    masks: dict[str, str] = field(default_factory=dict)
    #: port -> [pruned data bytes, aux bytes, full checkpoint bytes]
    ckpt_bytes: dict[str, list[int]] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_masks(self, port: str, variables, reference: dict) -> None:
        uncritical = sum(c.n_uncritical for c in variables.values())
        observed = f"{mask_digest(variables)}/{uncritical}"
        expected = self.masks.setdefault(port, observed)
        self.check(observed == expected,
                   f"{port} masks differ within the iteration")
        if reference:
            ref = reference.get(port)
            self.check(ref is not None and observed
                       == f"{ref['digest']}/{ref['uncritical']}",
                       f"{port} masks {observed} differ from the reference")

    @property
    def ckpt_bytes_ratio(self) -> float:
        data = sum(d + a for d, a, _ in self.ckpt_bytes.values())
        return data / sum(full for _, _, full in self.ckpt_bytes.values())

    def to_json(self) -> dict[str, Any]:
        record = {k: v for k, v in asdict(self).items() if k != "tracer"}
        if self.tracer is not None:
            record["trace"] = self.tracer.to_json()
        return record


@contextmanager
def _traced(tracer: Tracer | None) -> Iterator[None]:
    """Install the span wrappers and open the root span, when tracing."""
    if tracer is None:
        yield
        return
    with Instrumentation(tracer), tracer.span(ROOT):
        yield


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# regen-s-cold / regen-s-warm
# ----------------------------------------------------------------------
class _ScenarioClock(Rebindings):
    """Times the restart half of every Section IV-C scenario.

    ``verify.run`` calls ``run_failure_scenario`` per port, which first runs
    the benchmark with periodic checkpoints up to the injected failure
    (``run_with_checkpoints``) and then reads, restores, replays and
    verifies.  The restart time is the scenario's time minus the first part.
    Two timers per scenario, on in traced and untraced iterations alike.
    """

    def __enter__(self) -> "_ScenarioClock":
        import repro.ckpt.failure as failure
        import repro.experiments.verify as verify

        self.scenario_s = self.forward_s = 0.0
        self.rebind(verify, "run_failure_scenario",
                    self._timed(verify.run_failure_scenario, "scenario_s"))
        self.rebind(failure, "run_with_checkpoints",
                    self._timed(failure.run_with_checkpoints, "forward_s"))
        return self

    def _timed(self, fn, slot: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, slot, getattr(self, slot)
                        + time.perf_counter() - start)
        return wrapper

    @property
    def restart_s(self) -> float:
        return self.scenario_s - self.forward_s


class Regen:
    """``repro all`` at one problem class, over an empty or a warm store."""

    def __init__(self, warm: bool, problem_class: str = "S",
                 reports: tuple[str, ...] = REPORTS) -> None:
        from repro.npb import registry

        self.warm = warm
        self.problem_class = problem_class
        self.reports = reports
        self.ports = registry.available_benchmarks()
        self.name = f"regen-{problem_class.lower()}-" \
            f"{'warm' if warm else 'cold'}"
        # Paper comparisons only hold at class S (class T mismatches by
        # design); the references are recorded for S only.
        self.paper = problem_class == "S"
        self.reference = load_reference(problem_class)

    def problem_sizes(self) -> dict[str, Any]:
        from repro.npb.params import params_for

        return {port: asdict(params_for(port, self.problem_class))
                for port in self.ports}

    def setup(self, store: Path) -> None:
        """Construct the runner; the warm workload also fills the store."""
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(problem_class=self.problem_class,
                                  cache_dir=_fresh(store))
        if self.warm:
            runner.prefetch(self.ports)

    def iterate(self, work: Path, store: Path,
                tracer: Tracer | None = None) -> Iteration:
        from repro.experiments import (ExperimentRunner, figures, table1,
                                       table2, table3, verify)

        _fresh(work)
        if not self.warm:
            store = work / "store"
        report_runs = {
            "table1": lambda runner: table1.run(runner),
            "table2": lambda runner: table2.run(runner),
            "table3": lambda runner: table3.run(runner),
            "figures": lambda runner: figures.run_all(runner),
            "verify": lambda runner: verify.run(runner,
                                                directory=work / "verify"),
        }
        with _ScenarioClock() as clock, _traced(tracer):
            start = time.perf_counter()
            runner = ExperimentRunner(problem_class=self.problem_class,
                                      cache_dir=store)
            runner.prefetch(self.ports)
            masks_done = time.perf_counter()
            reports = [report_runs[name](runner) for name in self.reports]
            end = time.perf_counter()

        it = Iteration(wall_s=end - start, masks_s=masks_done - start,
                       restart_s=clock.restart_s, tracer=tracer)
        self._check(it, runner, reports)
        self._count_bytes(it, runner, work / "bytes")
        return it

    def _check(self, it: Iteration, runner, reports) -> None:
        for report in reports:
            if self.paper:
                it.check(report.matches_paper,
                         f"{report.name} does not match the paper")
            if report.name == "verify":
                for scenario in report.data["scenarios"]:
                    it.check(scenario.verification_passed,
                             f"{scenario.benchmark} restart failed to verify")
                negative = report.data["negative_control"]
                it.check(negative is not None
                         and not negative.verification_passed,
                         "the verify negative control passed")
        it.check(runner.fault_stats.quarantined == 0,
                 "the engine quarantined a job")
        for port, result in runner.results(self.ports).items():
            it.check_masks(port, result.variables, self.reference)

    def _count_bytes(self, it: Iteration, runner, directory: Path) -> None:
        """Table III's on-disk measurement, aux file included, per port."""
        from repro.ckpt import measure_checkpoint_storage

        _fresh(directory)
        for port, result in runner.results(self.ports).items():
            sizes = measure_checkpoint_storage(runner.benchmark(port), result,
                                               directory)
            it.ckpt_bytes[port] = [sizes.pruned_nbytes, sizes.aux_nbytes,
                                   sizes.full_nbytes]


# ----------------------------------------------------------------------
# pipeline-a
# ----------------------------------------------------------------------
class Pipeline:
    """Analyse -> write -> read -> restore onto garbage -> replay -> verify."""

    def __init__(self, seed: int, problem_class: str = "A",
                 ports: tuple[str, ...] = PORTS_A) -> None:
        from repro.npb import registry

        self.name = f"pipeline-{problem_class.lower()}"
        self.problem_class = problem_class
        self.ports = ports
        self.reference = load_reference(problem_class)
        rng = np.random.default_rng(seed)
        #: port -> (checkpoint steps, garbage seed)
        self.plan: dict[str, tuple[tuple[int, ...], int]] = {}
        for port in ports:
            total = registry.create(port, problem_class).total_steps
            mid, quarter = total // 2, total // 4
            self.plan[port] = ((mid - quarter, mid + quarter),
                               int(rng.integers(2 ** 32)))

    def problem_sizes(self) -> dict[str, Any]:
        from repro.npb.params import params_for

        return {port: {**asdict(params_for(port, self.problem_class)),
                       "checkpoint_steps": list(self.plan[port][0])}
                for port in self.ports}

    def setup(self, store: Path) -> None:
        """Nothing beyond import and construction; no store is used."""
        from repro.npb import registry

        for port in self.ports:
            registry.create(port, self.problem_class)

    def iterate(self, work: Path, store: Path | None = None,
                tracer: Tracer | None = None) -> Iteration:
        from repro import ckpt
        from repro.core.analysis import scrutinize
        from repro.npb import registry

        _fresh(work)
        it = Iteration(wall_s=0.0, masks_s=0.0, restart_s=0.0, tracer=tracer)
        with _traced(tracer):
            start = time.perf_counter()
            for port in self.ports:
                steps, garbage = self.plan[port]
                for step in steps:
                    bench = registry.create(port, self.problem_class)
                    t0 = time.perf_counter()
                    result = scrutinize(bench, step=step, sweep="segmented")
                    t1 = time.perf_counter()
                    stem = work / f"{port.lower()}_{step}"
                    full = ckpt.write_full_checkpoint(
                        f"{stem}_full.ckpt", bench, result.state, step=step)
                    pruned = ckpt.write_pruned_checkpoint(
                        f"{stem}_pruned.ckpt", bench, result.state,
                        result.variables, step=step)
                    t2 = time.perf_counter()
                    base = ckpt.corrupt_state(
                        bench.initial_state(), result.variables,
                        where="uncritical",
                        rng=np.random.default_rng(garbage))
                    outcome = ckpt.restart_benchmark(bench, pruned.path,
                                                     base_state=base)
                    t3 = time.perf_counter()
                    it.masks_s += t1 - t0
                    it.restart_s += t3 - t2
                    it.check_masks(port, result.variables, self.reference)
                    it.check(outcome.passed and outcome.restart_step == step,
                             f"{port} restart from step {step} failed to "
                             f"verify")
                    sizes = it.ckpt_bytes.setdefault(port, [0, 0, 0])
                    sizes[0] += pruned.nbytes
                    sizes[1] += pruned.aux_nbytes
                    sizes[2] += full.nbytes
            it.wall_s = time.perf_counter() - start
        return it


def make(name: str, seed: int):
    """The workload called ``name`` (see BENCHMARK.json)."""
    if name == "regen-s-cold":
        return Regen(warm=False)
    if name == "regen-s-warm":
        return Regen(warm=True)
    if name == "pipeline-a":
        return Pipeline(seed)
    raise KeyError(f"unknown workload {name!r}; choose regen-s-cold, "
                   f"regen-s-warm or pipeline-a")
