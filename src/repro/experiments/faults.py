"""Fault-tolerance layer of the parallel scrutiny engine.

The scrutiny jobs the engine fans out are pure functions of their
:class:`~repro.experiments.parallel.ScrutinyJob` description, which makes
every fault-handling strategy safe: a job can be retried, re-queued onto a
fresh pool or resumed in a later process without changing a single bit of
its result.  This module collects the policy objects the engine consumes:

* :class:`FaultPolicy` -- per-job wall-clock timeout, bounded retries with
  deterministic exponential backoff + jitter;
* :class:`JobFailure` -- the structured record a poisoned job leaves behind
  (exception class, traceback digest, attempt count) instead of an
  exception tearing down the batch;
* :class:`BatchJournal` -- an append-only JSONL journal next to the
  :class:`~repro.core.store.ResultStore` recording per-job completion, so
  a re-invoked batch run skips finished jobs and remembers poisoned ones;
* :class:`FaultStats` -- ``SweepStats``-style telemetry counters
  (retries, timeouts, worker deaths, quarantines, journal skips);
* :class:`ChaosConfig` -- the deterministic, seed-driven fault-injection
  ("chaos") harness: worker kill, job hang, transient exception and
  cache-file corruption, each keyed on a stable per-job token so the same
  seed injects the same faults into the same jobs every run.

Everything here is deliberately free of wall-clock randomness: backoff
jitter and chaos targeting both derive from SHA-256 of stable tokens, so a
chaos run is reproducible and -- because injections only fire on early
attempts -- converges to results bitwise identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "FaultPolicy", "JobFailure", "JobPoisonedError", "BatchJournal",
    "FaultStats", "ChaosConfig", "ChaosError", "ChaosHang", "CHAOS_MODES",
    "parse_chaos", "chaos_preamble", "corrupt_file", "failure_from_exception",
]

#: injection modes of the chaos harness (the CLI's ``--chaos`` vocabulary)
CHAOS_MODES = ("worker-kill", "hang", "transient", "corrupt-cache")

#: exit status of a chaos-killed worker (recognisable in ps/strace output)
CHAOS_KILL_STATUS = 87


def _unit_fraction(token: str) -> float:
    """Deterministic pseudo-uniform draw in ``[0, 1)`` from ``token``."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


# ----------------------------------------------------------------------
# retry / timeout policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """Per-job retry and timeout policy of the fault-tolerant engine.

    Attributes
    ----------
    max_retries:
        Failed attempts a job may accumulate before it is quarantined as
        poisoned (``0`` = fail on the first error, the pre-fault-layer
        behaviour modulo the structured failure record).
    timeout:
        Wall-clock seconds one attempt may run before the engine recycles
        the pool and re-queues the job; ``None`` disables the watchdog.
        Only enforceable on the pool path -- an in-process job cannot be
        preempted (documented degradation).
    backoff / backoff_factor / backoff_cap:
        Exponential backoff between retry attempts:
        ``min(backoff * backoff_factor**(attempt-1), backoff_cap)``
        seconds, before jitter.
    jitter:
        Deterministic jitter fraction: the delay is stretched by up to
        ``jitter * 100`` percent, with the stretch drawn from SHA-256 of
        the (job token, attempt) pair -- reproducible, yet decorrelated
        across jobs so re-queued work does not stampede the pool.
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, token: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``token``."""
        base = min(self.backoff * self.backoff_factor ** max(0, attempt - 1),
                   self.backoff_cap)
        return base * (1.0 + self.jitter * _unit_fraction(
            f"backoff:{token}:{attempt}"))


#: the engine's default policy: a couple of cheap retries, no watchdog
DEFAULT_FAULT_POLICY = FaultPolicy()


# ----------------------------------------------------------------------
# structured failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobFailure:
    """What remains of a job the engine had to give up on.

    Carried on the failure-marker :class:`~repro.core.analysis.
    ScrutinyResult` (``on_failure="record"``) or wrapped in
    :class:`JobPoisonedError` (``on_failure="raise"``) instead of an
    unstructured exception tearing down the batch.
    """

    benchmark: str
    #: stable digest of the job's key parameters (journal/backoff token)
    job_token: str
    #: failure category: ``"exception"``, ``"timeout"`` or ``"worker-death"``
    kind: str
    exception_type: str
    message: str
    #: first 12 hex digits of SHA-256 of the formatted traceback -- enough
    #: to correlate recurring failures without shipping the full text
    traceback_digest: str
    #: failed attempts accumulated before quarantine
    attempts: int

    def describe(self) -> str:
        return (f"{self.benchmark} job {self.job_token} poisoned after "
                f"{self.attempts} failed attempt(s): [{self.kind}] "
                f"{self.exception_type}: {self.message} "
                f"(traceback {self.traceback_digest or 'n/a'})")

    def to_record(self) -> dict[str, Any]:
        return {"benchmark": self.benchmark, "job_token": self.job_token,
                "kind": self.kind, "exception_type": self.exception_type,
                "message": self.message,
                "traceback_digest": self.traceback_digest,
                "attempts": self.attempts}

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "JobFailure":
        return cls(benchmark=str(record["benchmark"]),
                   job_token=str(record["job_token"]),
                   kind=str(record["kind"]),
                   exception_type=str(record["exception_type"]),
                   message=str(record["message"]),
                   traceback_digest=str(record["traceback_digest"]),
                   attempts=int(record["attempts"]))


def failure_from_exception(*, benchmark: str, job_token: str,
                           exc: BaseException | None, attempts: int,
                           kind: str = "exception",
                           exception_type: str | None = None,
                           message: str | None = None,
                           traceback_text: str | None = None) -> JobFailure:
    """Build a :class:`JobFailure` from a caught (or summarised) exception."""
    if exc is not None:
        exception_type = type(exc).__name__
        message = str(exc)
        if traceback_text is None:
            traceback_text = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
    digest = hashlib.sha256(traceback_text.encode("utf-8", "replace")
                            ).hexdigest()[:12] if traceback_text else ""
    return JobFailure(benchmark=benchmark, job_token=job_token, kind=kind,
                      exception_type=exception_type or "Unknown",
                      message=message or "", traceback_digest=digest,
                      attempts=attempts)


class JobPoisonedError(RuntimeError):
    """Raised (``on_failure="raise"``) when a job exhausts its retries."""

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def pickle_roundtrip_safe(exc: BaseException) -> BaseException | None:
    """``exc`` if it survives a pickle round-trip, else ``None``.

    Worker processes ship the original exception back to the parent so
    ``on_failure="raise"`` can re-raise it verbatim; exceptions holding
    unpicklable payloads degrade to the structured record only.
    """
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return None


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
@dataclass
class FaultStats:
    """Failure/retry/quarantine counters of one :class:`ParallelRunner`.

    Cumulative over the runner's lifetime (one CLI invocation runs several
    batches through the same runner); the CLI prints :meth:`summary` when
    anything noteworthy happened.
    """

    #: distinct jobs submitted across all ``run`` calls
    jobs: int = 0
    #: jobs served from the persistent result store
    cache_hits: int = 0
    #: cache hits whose completion the batch journal had recorded
    journal_skips: int = 0
    #: journal entries for poisoned jobs honoured without re-running them
    journal_poisoned_skips: int = 0
    #: jobs that finished with a usable result
    completed: int = 0
    #: retry attempts scheduled (any failure kind)
    retries: int = 0
    #: failed attempts due to an exception inside the job
    transient_failures: int = 0
    #: attempts abandoned by the wall-clock watchdog
    timeouts: int = 0
    #: pool collapses observed (a worker died mid-batch)
    worker_deaths: int = 0
    #: jobs re-queued onto a respawned pool after a collapse/timeout
    requeued: int = 0
    #: jobs quarantined as poisoned after exhausting their retries
    quarantined: int = 0
    #: corrupt result-store entries quarantined during this runner's fetches
    store_corrupt_entries: int = 0
    #: cache files deliberately corrupted by the chaos harness
    chaos_corrupted_files: int = 0
    #: structured records of every quarantined job
    failures: list[JobFailure] = field(default_factory=list)

    def eventful(self) -> bool:
        """True when something beyond plain completions happened."""
        return bool(self.retries or self.timeouts or self.worker_deaths
                    or self.quarantined or self.journal_skips
                    or self.journal_poisoned_skips
                    or self.store_corrupt_entries
                    or self.chaos_corrupted_files)

    def summary(self) -> str:
        """One-paragraph human-readable summary (the CLI's epilogue)."""
        lines = [
            f"fault-tolerance: {self.jobs} job(s), "
            f"{self.cache_hits} cache hit(s) "
            f"({self.journal_skips} journal-confirmed), "
            f"{self.completed} computed, {self.retries} retr(ies), "
            f"{self.timeouts} timeout(s), "
            f"{self.worker_deaths} worker death(s), "
            f"{self.requeued} requeued, {self.quarantined} quarantined"]
        if self.store_corrupt_entries or self.chaos_corrupted_files:
            lines.append(
                f"result store: {self.store_corrupt_entries} corrupt "
                f"entr(ies) quarantined"
                + (f", {self.chaos_corrupted_files} chaos-corrupted "
                   f"file(s)" if self.chaos_corrupted_files else ""))
        if self.journal_poisoned_skips:
            lines.append(f"journal: {self.journal_poisoned_skips} "
                         f"known-poisoned job(s) skipped")
        for failure in self.failures:
            lines.append(f"  poisoned: {failure.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# chaos (fault-injection) harness
# ----------------------------------------------------------------------
class ChaosError(RuntimeError):
    """Transient failure injected by the chaos harness."""


class ChaosHang(ChaosError):
    """In-process stand-in for a hang (cannot sleep forever in-process)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic, seed-driven fault injection.

    Whether a given (mode, job, attempt) triple injects is a pure function
    of ``seed`` and the job's stable token: the same configuration replays
    the same faults, which is what lets the chaos suite assert bitwise
    identity with a fault-free run.  Injections fire only while
    ``attempt < max_attempts`` (default: the first attempt only), so a
    retried job always recovers; raise ``max_attempts`` beyond the engine's
    ``max_retries`` to simulate a genuinely poisoned job.

    Attributes
    ----------
    modes:
        Enabled injection modes (subset of :data:`CHAOS_MODES`).
    seed:
        Decorrelates targeting across chaos runs.
    rate:
        Fraction of jobs targeted per mode (deterministic per-job draw).
    hang_seconds:
        Nap length of the ``"hang"`` mode inside a worker; pick it above
        the policy timeout so the watchdog fires.
    kill_delay:
        Grace period before ``"worker-kill"`` pulls the trigger, giving the
        parent's monitor a chance to observe the job running (mirrors real
        OOM kills, which strike mid-execution rather than at job pickup).
    max_attempts:
        Injections fire while the job's attempt index is below this.
    """

    modes: tuple[str, ...] = ()
    seed: int = 0
    rate: float = 1.0
    hang_seconds: float = 30.0
    kill_delay: float = 0.2
    max_attempts: int = 1

    def __post_init__(self) -> None:
        unknown = [mode for mode in self.modes if mode not in CHAOS_MODES]
        if unknown:
            raise ValueError(
                f"unknown chaos mode(s) {unknown}; choose from "
                f"{', '.join(CHAOS_MODES)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("chaos rate must be within [0, 1]")

    def wants(self, mode: str, token: str, attempt: int) -> bool:
        """True when ``mode`` should inject into attempt ``attempt``."""
        if mode not in self.modes or attempt >= self.max_attempts:
            return False
        return _unit_fraction(f"chaos:{self.seed}:{mode}:{token}") \
            < self.rate


def parse_chaos(spec: str, *, seed: int = 0,
                **overrides: Any) -> ChaosConfig:
    """Parse the CLI's ``--chaos worker-kill,corrupt-cache`` syntax."""
    modes = tuple(dict.fromkeys(
        part.strip() for part in spec.split(",") if part.strip()))
    if not modes:
        raise ValueError("--chaos needs at least one mode "
                         f"(choose from {', '.join(CHAOS_MODES)})")
    return ChaosConfig(modes=modes, seed=seed, **overrides)


def chaos_preamble(chaos: ChaosConfig | None, token: str, attempt: int,
                   *, in_worker: bool) -> None:
    """Run the start-of-job injections for (``token``, ``attempt``).

    Called by the worker function (``in_worker=True``: a kill really
    terminates the process, a hang really sleeps) and by the in-process
    fallback (``in_worker=False``: both degrade to raised
    :class:`ChaosError`/:class:`ChaosHang`, so the retry machinery still
    sees the fault without the main process dying or stalling).
    """
    if chaos is None:
        return
    if chaos.wants("worker-kill", token, attempt):
        if in_worker:
            time.sleep(chaos.kill_delay)
            os._exit(CHAOS_KILL_STATUS)
        raise ChaosError("chaos: simulated worker death (in-process)")
    if chaos.wants("hang", token, attempt):
        if in_worker:
            time.sleep(chaos.hang_seconds)
            return  # no watchdog configured: the hang was just a long nap
        raise ChaosHang("chaos: simulated hang (in-process)")
    if chaos.wants("transient", token, attempt):
        raise ChaosError("chaos: injected transient failure")


def corrupt_file(path: str | Path, token: str, seed: int = 0) -> str:
    """Deterministically damage ``path`` in place (chaos ``corrupt-cache``).

    Picks truncation or byte-garbling from the token draw, so repeated
    chaos runs exercise both corruption shapes across a batch.  Returns
    the damage kind for telemetry/tests.
    """
    path = Path(path)
    raw = path.read_bytes()
    if _unit_fraction(f"corrupt:{seed}:{token}") < 0.5 and len(raw) > 8:
        path.write_bytes(raw[:max(4, len(raw) // 3)])
        return "truncated"
    garbled = bytearray(raw if raw else b"\0" * 16)
    for offset in range(0, len(garbled), max(1, len(garbled) // 16)):
        garbled[offset] ^= 0xA5
    path.write_bytes(bytes(garbled))
    return "garbled"


# ----------------------------------------------------------------------
# batch journal (resumable runs)
# ----------------------------------------------------------------------
class BatchJournal:
    """Append-only JSONL journal of per-job batch completion.

    Lives next to the :class:`~repro.core.store.ResultStore` (the store
    holds the *results*, the journal holds the *progress*): every line is
    one ``{"token", "benchmark", "status"}`` record, appended and flushed
    as soon as a job completes, so a batch killed mid-run leaves a journal
    that lets the re-invoked run skip every finished job -- and, in
    ``record`` mode, skip re-running jobs already known to be poisoned.

    A torn final line (the writer died mid-append) is ignored on load, and
    an unreadable/unwritable journal degrades to "no journal": resumability
    is an optimisation and must never fail a run.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict[str, Any]] | None = None

    # -- loading --------------------------------------------------------
    def entries(self) -> dict[str, dict[str, Any]]:
        """Journal records keyed by job token (loaded lazily, cached)."""
        if self._entries is None:
            loaded: dict[str, dict[str, Any]] = {}
            try:
                text = self.path.read_text()
            except OSError:
                text = ""
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    loaded[str(record["token"])] = record
                except (ValueError, KeyError, TypeError):
                    continue  # torn/garbled line: ignore, keep the rest
            self._entries = loaded
        return self._entries

    def status(self, token: str) -> str | None:
        """``"done"``/``"poisoned"`` or ``None`` when unrecorded."""
        record = self.entries().get(token)
        return None if record is None else str(record.get("status"))

    def is_done(self, token: str) -> bool:
        return self.status(token) == "done"

    def failure_for(self, token: str) -> JobFailure | None:
        """The recorded failure of a poisoned job, when reconstructible."""
        record = self.entries().get(token)
        if record is None or record.get("status") != "poisoned":
            return None
        try:
            return JobFailure.from_record(record["failure"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- writing --------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            return  # journalling degrades silently; results are unaffected
        if self._entries is not None:
            self._entries[str(record["token"])] = record

    def mark_done(self, token: str, benchmark: str) -> None:
        self._append({"token": token, "benchmark": benchmark,
                      "status": "done"})

    def mark_poisoned(self, failure: JobFailure) -> None:
        self._append({"token": failure.job_token,
                      "benchmark": failure.benchmark, "status": "poisoned",
                      "failure": failure.to_record()})
