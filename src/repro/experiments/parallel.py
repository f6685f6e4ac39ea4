"""Parallel scrutiny engine.

The per-benchmark (and per-method) analyses are embarrassingly parallel:
each job instantiates its own benchmark port, runs it to the checkpoint
step and performs the AD sweep with no shared mutable state.  This module
fans such jobs out across a process pool and merges the results back
deterministically:

* :class:`ScrutinyJob` -- a picklable, hashable description of one analysis
  (benchmark, problem class, method, n_probes, step, steps);
* :func:`run_job` -- the module-level (hence spawn-safe) worker function;
* :class:`ParallelRunner` -- schedules jobs over an optional
  :class:`~repro.core.store.ResultStore` (cache first, pool second),
  deduplicates identical jobs, preserves input order in the output, and
  falls back to in-process execution when ``workers == 1``, when only one
  job is left after cache hits, or when the platform cannot deliver a
  working pool.

Fault tolerance (:mod:`repro.experiments.faults`): each job attempt is
guarded by a wall-clock watchdog (``FaultPolicy.timeout``) and bounded
retries with deterministic exponential backoff; a dead worker
(:class:`~concurrent.futures.process.BrokenProcessPool`) respawns the pool
and re-queues only the unfinished jobs -- results harvested before the
collapse are kept and persisted -- and a job that keeps failing is
quarantined as *poisoned* after ``max_retries`` so the rest of the batch
completes.  Completions stream into the result store and an optional
:class:`~repro.experiments.faults.BatchJournal` as they arrive, which is
what makes a killed batch resumable: the re-invoked run serves finished
jobs from the store and re-executes none of them.

Determinism: every job builds its own fixed-seed probe generator inside
:func:`~repro.core.analysis.scrutinize`, so the masks are
bitwise-identical no matter how jobs are distributed over workers, how
often they were retried or which pool incarnation finally ran them -- the
parallel-equivalence and chaos tests pin this down.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.analysis import ScrutinyResult, scrutinize
from repro.core.criticality import (DEFAULT_PROBE_SCALE, validate_analysis,
                                    validate_steps)
from repro.core.store import ResultStore
from repro.experiments.faults import (DEFAULT_FAULT_POLICY, BatchJournal,
                                      ChaosConfig, ChaosHang, FaultPolicy,
                                      FaultStats, JobFailure,
                                      JobPoisonedError, chaos_preamble,
                                      corrupt_file, failure_from_exception,
                                      pickle_roundtrip_safe)
from repro.npb import registry
from repro.npb.params import check_problem_class

__all__ = ["ScrutinyJob", "ParallelRunner", "run_job", "job_token",
           "default_workers"]


@dataclass(frozen=True)
class ScrutinyJob:
    """One unit of analysis work; picklable and usable as a dict key.

    The job's identity -- equality, hash and :meth:`key_params` -- is the
    identity of its result.  ``sweep`` is how the result is computed, not
    what it is (both sweeps produce bitwise-identical masks and gradients),
    so jobs differing only in ``sweep`` deduplicate and share one store
    entry.

    Method, probe count, sweep, problem class, ``step`` (an integer >= 0)
    and ``steps`` (an integer >= 1) are validated on construction
    (``ValueError``).  The benchmark name is not: an unknown benchmark
    fails inside the job, which is how the engine's fault handling sees a
    deterministic failure.
    """

    benchmark: str
    problem_class: str = "S"
    method: str = "ad"
    n_probes: int = 1
    step: int | None = None
    steps: int | None = None
    sweep: str = field(default="monolithic", compare=False)
    probe_scale: float = DEFAULT_PROBE_SCALE

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark", self.benchmark.upper())
        validate_analysis(self.method, self.n_probes, self.sweep)
        check_problem_class(self.problem_class)
        validate_steps(self.step, self.steps)
        for name in ("step", "steps"):   # numpy integers key like ints
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int(value))

    def key_params(self) -> dict[str, Any]:
        """The job's identity as :class:`ResultStore` key parameters."""
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "method": self.method,
            "n_probes": self.n_probes,
            "step": self.step,
            "steps": self.steps,
            "probe_scale": self.probe_scale,
        }


def job_token(job: ScrutinyJob) -> str:
    """Stable 16-hex-digit digest of a job's identity.

    Keys the batch journal, the deterministic backoff jitter and the chaos
    harness's targeting.  Version-independent (unlike the result-store
    key): a journal written by one package version still identifies the
    same *jobs* under the next, even though their cached results are
    invalidated.
    """
    blob = json.dumps(job.key_params(), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def run_job(job: ScrutinyJob) -> ScrutinyResult:
    """Execute one job from scratch.

    Module-level so it pickles under every multiprocessing start method
    (``spawn`` included); builds its own benchmark instance and its own
    fixed-seed generator, so workers share nothing.
    """
    bench = registry.create(job.benchmark, job.problem_class)
    return scrutinize(bench, step=job.step, method=job.method,
                      n_probes=job.n_probes, steps=job.steps,
                      sweep=job.sweep, probe_scale=job.probe_scale)


def _guarded_run_job(job: ScrutinyJob, attempt: int,
                     chaos: ChaosConfig | None) -> tuple[str, Any]:
    """Pool-side wrapper around :func:`run_job`: never raises.

    Returns ``("ok", result)`` or ``("err", payload)`` where the payload
    carries everything the parent needs for the structured failure record
    (exception type/message, full traceback text, and -- when picklable --
    the original exception for ``on_failure="raise"`` re-raising).  Chaos
    injections run first, inside the worker, so a simulated worker kill
    really takes a process down.
    """
    import traceback as _traceback
    try:
        chaos_preamble(chaos, job_token(job), attempt, in_worker=True)
        return "ok", run_job(job)
    except BaseException as exc:  # noqa: BLE001 - converted to a record
        return "err", {
            "exception_type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
            "exception": pickle_roundtrip_safe(exc),
        }


def default_workers() -> int:
    """Worker count saturating the local machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _pick_context() -> multiprocessing.context.BaseContext:
    """``fork`` on Linux (no re-import cost), platform default elsewhere.

    macOS lists ``fork`` as available but defaults to ``spawn`` because
    forking a threaded/Accelerate-backed process is crash-prone there;
    respect that choice rather than forcing fork wherever it exists.
    """
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _failure_result(job: ScrutinyJob, failure: JobFailure) -> ScrutinyResult:
    """The failure-marker result a quarantined job contributes."""
    return ScrutinyResult(benchmark=job.benchmark,
                          problem_class=job.problem_class,
                          step=-1 if job.step is None else job.step,
                          method=job.method, variables={}, state={},
                          failure=failure)


class ParallelRunner:
    """Schedules scrutiny jobs over a result store and a worker pool.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` (the default) runs every job in
        the calling process.
    store:
        Optional :class:`~repro.core.store.ResultStore` consulted before
        computing and updated after; ``None`` disables persistence.
    mp_context:
        Multiprocessing start-method name to force (``"spawn"``,
        ``"fork"``, ...); ``None`` picks ``fork`` when available.
    fault_policy:
        Retry/timeout policy (:class:`~repro.experiments.faults.
        FaultPolicy`); the default allows two cheap retries and no
        watchdog.  The timeout is enforced on the pool path only -- an
        in-process job cannot be preempted.
    on_failure:
        ``"raise"`` (default): a job that exhausts its retries re-raises
        its original exception (or :class:`JobPoisonedError` when the
        exception could not be shipped across the process boundary) --
        the legacy semantics.  ``"record"``: the job is quarantined, the
        batch completes, and the job's slot in the output carries a
        failure-marker :class:`~repro.core.analysis.ScrutinyResult`
        (``result.ok`` is False, ``result.failure`` holds the record).
    journal:
        Optional :class:`~repro.experiments.faults.BatchJournal` recording
        per-job completion for resumable batch runs.
    chaos:
        Optional :class:`~repro.experiments.faults.ChaosConfig` -- the
        deterministic fault-injection harness (tests/CI only).

    Telemetry accumulates in :attr:`stats`
    (:class:`~repro.experiments.faults.FaultStats`) across ``run`` calls.
    """

    #: monitor-loop poll interval (seconds): running-state observation and
    #: watchdog granularity -- fine enough to catch sub-second hangs, coarse
    #: enough to stay invisible next to a multi-second AD sweep
    _POLL_SECONDS = 0.02

    def __init__(self, workers: int = 1, store: ResultStore | None = None,
                 mp_context: str | None = None,
                 fault_policy: FaultPolicy | None = None,
                 on_failure: str = "raise",
                 journal: BatchJournal | None = None,
                 chaos: ChaosConfig | None = None) -> None:
        self.workers = max(1, int(workers))
        self.store = store
        self.mp_context = mp_context
        self.policy = fault_policy if fault_policy is not None \
            else DEFAULT_FAULT_POLICY
        if on_failure not in ("raise", "record"):
            raise ValueError(f"unknown on_failure {on_failure!r}; "
                             f"choose 'raise' or 'record'")
        self.on_failure = on_failure
        self.journal = journal
        self.chaos = chaos
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[ScrutinyJob]) -> list[ScrutinyResult]:
        """Results of ``jobs``, in input order.

        Cache hits are served from the store; the remaining distinct jobs
        are computed (in parallel when configured) and persisted *as they
        complete*, so even an interrupted batch preserves every finished
        result.  The returned list always aligns index-for-index with
        ``jobs``, regardless of worker scheduling, retries or re-queues.
        """
        jobs = list(jobs)
        results: dict[ScrutinyJob, ScrutinyResult] = {}

        todo: list[ScrutinyJob] = []
        corrupt_before = self.store.corrupt_entries \
            if self.store is not None else 0
        for job in dict.fromkeys(jobs):
            self.stats.jobs += 1
            token = job_token(job)
            cached = self.store.fetch(**job.key_params()) \
                if self.store is not None else None
            if cached is not None:
                results[job] = cached
                self.stats.cache_hits += 1
                if self.journal is not None:
                    if self.journal.is_done(token):
                        self.stats.journal_skips += 1
                    else:
                        # stored but never journalled: a kill landed
                        # between ``store.put`` and the journal append
                        self.journal.mark_done(token, job.benchmark)
                continue
            if self.on_failure == "record" and self.journal is not None:
                known = self.journal.failure_for(token)
                if known is not None:
                    # resumed batch: don't burn retries on a job already
                    # journalled as poisoned -- surface the old record
                    results[job] = _failure_result(job, known)
                    self.stats.journal_poisoned_skips += 1
                    continue
            todo.append(job)
        if self.store is not None:
            self.stats.store_corrupt_entries += \
                self.store.corrupt_entries - corrupt_before

        if todo:
            self._execute(todo, lambda job, outcome:
                          results.__setitem__(job, outcome))

        return [results[job] for job in jobs]

    def run_one(self, job: ScrutinyJob) -> ScrutinyResult:
        """Convenience wrapper for a single job."""
        return self.run([job])[0]

    # ------------------------------------------------------------------
    # completion plumbing (streaming store/journal updates)
    # ------------------------------------------------------------------
    def _complete(self, job: ScrutinyJob, result: ScrutinyResult,
                  emit: Callable[[ScrutinyJob, ScrutinyResult], None]
                  ) -> None:
        """Record one successful job: store, journal, chaos, telemetry."""
        self.stats.completed += 1
        emit(job, result)
        token = job_token(job)
        stored = False
        if self.store is not None:
            try:
                self.store.put(result, n_probes=job.n_probes,
                               step=job.step, steps=job.steps,
                               probe_scale=job.probe_scale)
                stored = True
            except OSError:
                # an unwritable store degrades to no persistence;
                # it must never lose a computed result
                pass
        if self.journal is not None:
            self.journal.mark_done(token, job.benchmark)
        if stored and self.chaos is not None \
                and self.chaos.wants("corrupt-cache", token, 0):
            self._chaos_corrupt_entry(job, token)

    def _chaos_corrupt_entry(self, job: ScrutinyJob, token: str) -> None:
        """Damage the entry just written (chaos ``corrupt-cache`` mode)."""
        assert self.store is not None
        key = self.store.key(**job.key_params())
        meta_path, data_path = self.store._paths(job.benchmark, key)
        target = data_path if data_path.is_file() else meta_path
        try:
            corrupt_file(target, token, seed=self.chaos.seed)
            self.stats.chaos_corrupted_files += 1
        except OSError:  # pragma: no cover - chaos best-effort
            pass

    def _quarantine(self, job: ScrutinyJob, failure: JobFailure,
                    original: BaseException | None,
                    emit: Callable[[ScrutinyJob, ScrutinyResult], None]
                    ) -> None:
        """Give up on ``job``: journal, telemetry, record-or-raise."""
        self.stats.quarantined += 1
        self.stats.failures.append(failure)
        if self.journal is not None:
            self.journal.mark_poisoned(failure)
        if self.on_failure == "raise":
            if original is not None:
                raise original
            raise JobPoisonedError(failure)
        emit(job, _failure_result(job, failure))

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------
    def _execute(self, jobs: Sequence[ScrutinyJob],
                 emit: Callable[[ScrutinyJob, ScrutinyResult], None]
                 ) -> None:
        if self.workers > 1 and len(jobs) > 1:
            try:
                ctx = multiprocessing.get_context(self.mp_context) \
                    if self.mp_context else _pick_context()
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(jobs)),
                    mp_context=ctx)
            except (OSError, ValueError, ImportError, RuntimeError,
                    multiprocessing.ProcessError):
                # no /dev/shm, sandboxed fork, missing start method, ...:
                # degrade to the in-process path, which is always available
                pool = None
            if pool is not None:
                self._execute_pool(jobs, pool, ctx, emit)
                return
        self._execute_inprocess(jobs, emit)

    # -- in-process ----------------------------------------------------
    def _execute_inprocess(self, jobs: Sequence[ScrutinyJob],
                           emit: Callable[[ScrutinyJob, ScrutinyResult],
                                          None]) -> None:
        """Sequential backend with the same retry/quarantine semantics.

        No watchdog: a job hang cannot be preempted from inside the same
        process (the chaos harness degrades its ``hang`` injection to a
        raised :class:`ChaosHang` here, so the retry path is still
        exercised).
        """
        for job in jobs:
            token = job_token(job)
            attempt = 0
            while True:
                try:
                    chaos_preamble(self.chaos, token, attempt,
                                   in_worker=False)
                    result = run_job(job)
                except Exception as exc:  # noqa: BLE001 - retried
                    attempt += 1
                    kind = "timeout" if isinstance(exc, ChaosHang) \
                        else "exception"
                    if kind == "timeout":
                        self.stats.timeouts += 1
                    else:
                        self.stats.transient_failures += 1
                    if attempt > self.policy.max_retries:
                        failure = failure_from_exception(
                            benchmark=job.benchmark, job_token=token,
                            exc=exc, attempts=attempt, kind=kind)
                        self._quarantine(job, failure, exc, emit)
                        break
                    self.stats.retries += 1
                    time.sleep(self.policy.delay(token, attempt))
                else:
                    self._complete(job, result, emit)
                    break

    # -- process pool --------------------------------------------------
    def _execute_pool(self, jobs: Sequence[ScrutinyJob],
                      pool: ProcessPoolExecutor,
                      ctx: multiprocessing.context.BaseContext,
                      emit: Callable[[ScrutinyJob, ScrutinyResult], None]
                      ) -> None:
        """Pool backend: watchdog, collapse recovery, bounded retries.

        Attempt accounting across a pool collapse: the culprit cannot be
        identified from :class:`BrokenProcessPool` alone, so the collapse
        charges one attempt to every job the monitor last observed
        *running* (falling back to every in-flight job when none was
        observed); merely-queued jobs are re-queued free of charge.  A
        job's result never depends on which pool incarnation ran it, so
        re-queues preserve bitwise determinism.
        """
        attempts: dict[ScrutinyJob, int] = {job: 0 for job in jobs}
        unfinished: set[ScrutinyJob] = set(jobs)
        pending: dict[Future, ScrutinyJob] = {}
        waiting: dict[ScrutinyJob, float] = {}   # token -> resubmit time
        started: dict[ScrutinyJob, float] = {}   # first observed running

        def submit(job: ScrutinyJob) -> None:
            fut = pool.submit(_guarded_run_job, job, attempts[job],
                              self.chaos)
            pending[fut] = job

        def respawn() -> None:
            nonlocal pool
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(jobs)), mp_context=ctx)

        def kill_workers() -> None:
            # there is no public API to abort a running future; terminating
            # the worker processes is the documented-by-usage escape hatch
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass

        def register_failure(job: ScrutinyJob, kind: str,
                             exception_type: str, message: str,
                             traceback_text: str | None,
                             original: BaseException | None) -> None:
            attempts[job] += 1
            if kind == "timeout":
                self.stats.timeouts += 1
            elif kind == "exception":
                self.stats.transient_failures += 1
            if attempts[job] > self.policy.max_retries:
                token = job_token(job)
                failure = failure_from_exception(
                    benchmark=job.benchmark, job_token=token, exc=None,
                    attempts=attempts[job], kind=kind,
                    exception_type=exception_type, message=message,
                    traceback_text=traceback_text)
                unfinished.discard(job)
                started.pop(job, None)
                self._quarantine(job, failure, original, emit)
            else:
                self.stats.retries += 1
                delay = self.policy.delay(job_token(job), attempts[job])
                waiting[job] = time.monotonic() + delay
                started.pop(job, None)

        try:
            for job in jobs:
                submit(job)
            while unfinished:
                now = time.monotonic()
                for job, ready in list(waiting.items()):
                    if job not in unfinished:
                        waiting.pop(job)
                    elif now >= ready:
                        waiting.pop(job)
                        submit(job)
                if not pending:
                    if waiting:
                        time.sleep(self._POLL_SECONDS)
                        continue
                    break  # every unfinished job was quarantined
                done, _ = wait(list(pending), timeout=self._POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                collapsed: list[ScrutinyJob] = []
                for fut in done:
                    job = pending.pop(fut)
                    if job not in unfinished:
                        continue  # late echo of an abandoned attempt
                    try:
                        tag, payload = fut.result()
                    except BrokenProcessPool:
                        collapsed.append(job)
                        continue
                    except Exception as exc:  # noqa: BLE001 - submit layer
                        # the guarded worker never raises; anything here is
                        # pool plumbing (pickling, spawn import, ...)
                        register_failure(
                            job, "exception", type(exc).__name__, str(exc),
                            None, pickle_roundtrip_safe(exc))
                        continue
                    if tag == "ok":
                        unfinished.discard(job)
                        started.pop(job, None)
                        self._complete(job, payload, emit)
                    else:
                        register_failure(
                            job, "exception", payload["exception_type"],
                            payload["message"], payload["traceback"],
                            payload["exception"])
                if collapsed:
                    # every job still on the broken pool is a casualty too,
                    # whether its future already resolved or not
                    self.stats.worker_deaths += 1
                    casualties = list(dict.fromkeys(
                        collapsed + [job for job in pending.values()
                                     if job in unfinished]))
                    # charge the collapse to the jobs last observed
                    # running (the culprit is among them); merely-queued
                    # jobs are re-queued free of charge.  Fall back to
                    # charging every casualty when none was observed.
                    observed = [job for job in casualties if job in started]
                    for job in (observed if observed else casualties):
                        register_failure(job, "worker-death",
                                         "BrokenProcessPool",
                                         "worker process died mid-job",
                                         None, None)
                    pending.clear()
                    started.clear()
                    respawn()
                    requeue = [job for job in casualties
                               if job in unfinished and job not in waiting]
                    self.stats.requeued += sum(
                        1 for job in casualties if job in unfinished)
                    for job in requeue:
                        submit(job)
                    continue
                if self.policy.timeout is not None:
                    deadline = time.monotonic() - self.policy.timeout
                    timed_out = [job for job in pending.values()
                                 if started.get(job, float("inf"))
                                 < deadline]
                    if timed_out:
                        # a hung worker cannot be cancelled individually:
                        # charge the hung attempts, tear the pool down and
                        # re-queue every in-flight job (innocents without
                        # being charged an attempt)
                        for job in timed_out:
                            register_failure(
                                job, "timeout", "TimeoutError",
                                f"attempt exceeded "
                                f"{self.policy.timeout:g}s wall-clock "
                                f"timeout", None, None)
                        interrupted = [job for job in pending.values()
                                       if job not in timed_out
                                       and job in unfinished]
                        kill_workers()
                        respawn()
                        pending.clear()
                        started.clear()
                        self.stats.requeued += len(interrupted) + sum(
                            1 for job in timed_out if job in unfinished)
                        for job in interrupted:
                            submit(job)
                        continue
                # observe which in-flight jobs a worker has picked up (the
                # watchdog's clock and the collapse-charging evidence)
                now = time.monotonic()
                for fut, job in pending.items():
                    if fut.running() and job not in started:
                        started[job] = now
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ParallelRunner(workers={self.workers}, "
                f"store={self.store!r})")
