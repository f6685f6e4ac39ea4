"""Persistent, content-addressed store of scrutiny results.

Re-running the AD sweep for every table/figure regeneration is the dominant
cost of the experiment drivers, yet the result of a sweep is a pure function
of (benchmark, problem class, method, n_probes, checkpoint step, analysed
steps) and the package version.  :class:`ResultStore` caches
:class:`~repro.core.analysis.ScrutinyResult` objects on disk under a key
derived from exactly those parameters, so a warm cache regenerates every
artefact without a single AD sweep.

On-disk layout
--------------

Each cached result is a pair of files under the store root, grouped by
benchmark for human navigation::

    <root>/
        <BENCHMARK>/
            <key>.json    # metadata: key params, variable specs, state types
            <key>.npz     # bulk arrays: masks, gradients, checkpoint state

``<key>`` is the first 20 hex digits of the SHA-256 of the canonical JSON
encoding of the key parameters -- content-addressed, so two stores built
with the same package version agree on addresses and a parameter change
(method, n_probes, version bump, ...) can never alias an old entry.  The
key holds the result's identity only: the sweep strategy that computed it
is not keyed, because both sweeps produce bitwise-identical masks and
gradients (pinned for all eight ports), so a monolithic run and a
segmented run share one entry.  Entries written before repro 1.9.0, when
the execution knobs were keyed, are invalidated by the version field, as
are 1.9.0 entries, whose CG gradients differ from 1.10.0's in the last
bits (dense versus banded matvec), and 1.10.0 entries, whose FT and MG
gradients differ from 1.11.0's in the last bits (DFT matrices versus an
FFT; a copying versus a strided axis matmul), and 1.11.0 entries, whose EP
checkpoint states differ from 1.12.0's (EP now seeds from NPB's EP seed).

The ``.npz`` member names are namespaced:

=====================  ====================================================
member                 content
=====================  ====================================================
``mask::<var>``        boolean criticality mask of variable ``<var>``
``grad::<var>::<k>``   derivative array of state key ``<k>`` of ``<var>``
``state::<k>``         checkpoint-state entry ``<k>``
=====================  ====================================================

The JSON file is written *after* the ``.npz`` (both atomically via a
temporary file and ``os.replace``), so its presence marks a complete entry;
a torn write leaves at worst an orphaned ``.npz`` that is never read.
Corrupt or partially deleted entries load as cache misses, never as errors.

Corruption detection: the metadata records the SHA-256 of the ``.npz``
bytes (``digest``), verified on every load, so silent bit rot is caught
even when the zip container still parses.  A corrupt entry (digest
mismatch, torn zip, bad JSON, an orphaned half of the pair) is counted in
:attr:`ResultStore.corrupt_entries`, logged as one WARNING per entry on
the ``repro.core.store`` logger (benchmark, key and where its files went),
reported once per store instance via a single :class:`RuntimeWarning`, and
*quarantined*: both files are renamed aside to ``<name>.corrupt-<n>`` --
content preserved for post-mortem -- so the entry re-misses cleanly (and
is recomputed) instead of failing the same way forever.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.analysis import ScrutinyResult
from repro.core.criticality import DEFAULT_PROBE_SCALE, VariableCriticality
from repro.core.variables import CheckpointVariable, VariableKind

__all__ = ["ResultStore", "cache_key"]

#: bump when the serialisation layout changes incompatibly
_FORMAT = 1

logger = logging.getLogger(__name__)


class _CorruptEntryError(RuntimeError):
    """Internal marker: an entry's content failed digest verification."""


def _package_version() -> str:
    # imported lazily: repro/__init__ imports repro.core, which imports this
    # module, so a top-level ``from repro import __version__`` would cycle
    import repro

    return repro.__version__


def cache_key(*, benchmark: str, problem_class: str, method: str,
              n_probes: int, step: int | None = None,
              steps: int | None = None,
              probe_scale: float = DEFAULT_PROBE_SCALE,
              version: str | None = None) -> str:
    """Content address of one analysis result.

    ``step``/``steps`` of ``None`` mean the benchmark defaults (mid-run
    checkpoint, analyse to completion) and key as such; they are resolved
    deterministically from the other parameters, so the defaults never
    alias an explicit value.  ``probe_scale`` is keyed via its
    shortest-round-trip ``repr``, so two runs with different perturbation
    magnitudes can never alias the same entry (they probe genuinely
    different base states).  How the result was computed -- the sweep --
    is deliberately *not* keyed: it is not part of the result's identity.
    """
    payload = {
        "format": _FORMAT,
        "benchmark": str(benchmark).upper(),
        "problem_class": str(problem_class),
        "method": str(method),
        "n_probes": int(n_probes),
        "probe_scale": float(probe_scale),
        "step": None if step is None else int(step),
        "steps": None if steps is None else int(steps),
        "version": version if version is not None else _package_version(),
    }
    blob = json.dumps(payload, sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:20]


def _state_tag(value: Any) -> str:
    """Type tag restoring a state entry to its original Python type."""
    if isinstance(value, np.ndarray):
        return "array"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, np.generic):
        return "npscalar"
    return "array"


def _restore_state(value: np.ndarray, tag: str) -> Any:
    if tag == "array":
        return value
    if tag == "bool":
        return bool(value)
    if tag == "int":
        return int(value)
    if tag == "float":
        return float(value)
    if tag == "npscalar":
        return value[()]
    raise ValueError(f"unknown state tag {tag!r}")


class ResultStore:
    """On-disk cache of :class:`ScrutinyResult` objects (see module docs).

    Parameters
    ----------
    root:
        Directory holding the cache (created on first save).
    version:
        Package version baked into every key; defaults to the installed
        :data:`repro.__version__`, so upgrading the package invalidates the
        whole cache without deleting a byte.
    """

    def __init__(self, root: str | Path,
                 version: str | None = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else _package_version()
        #: cache-efficiency counters (observable by tests and the CLI)
        self.hits = 0
        self.misses = 0
        #: corrupt entries detected (and quarantined) by :meth:`load`
        self.corrupt_entries = 0
        #: rename-aside destinations of every quarantined file
        self.quarantined_paths: list[Path] = []
        self._warned_corrupt = False

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key(self, *, benchmark: str, problem_class: str, method: str,
            n_probes: int, step: int | None = None,
            steps: int | None = None,
            probe_scale: float = DEFAULT_PROBE_SCALE) -> str:
        """Cache key of one analysis result under this store."""
        return cache_key(benchmark=benchmark, problem_class=problem_class,
                         method=method, n_probes=n_probes, step=step,
                         steps=steps, probe_scale=probe_scale,
                         version=self.version)

    def _paths(self, benchmark: str, key: str) -> tuple[Path, Path]:
        directory = self.root / str(benchmark).upper()
        return directory / f"{key}.json", directory / f"{key}.npz"

    def contains(self, benchmark: str, key: str) -> bool:
        """True when a complete entry exists for ``key``."""
        meta_path, data_path = self._paths(benchmark, key)
        return meta_path.is_file() and data_path.is_file()

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(self, key: str, result: ScrutinyResult) -> Path:
        """Persist ``result`` under ``key``; returns the metadata path."""
        if getattr(result, "failure", None) is not None:
            raise ValueError(
                "refusing to cache a failure-marker result "
                f"({result.failure.describe()}); only genuine analyses "
                "belong in the store")
        meta_path, data_path = self._paths(result.benchmark, key)
        meta_path.parent.mkdir(parents=True, exist_ok=True)

        arrays: dict[str, np.ndarray] = {}
        variables_meta: list[dict[str, Any]] = []
        for name, crit in result.variables.items():
            arrays[f"mask::{name}"] = crit.mask
            for state_key, grad in crit.gradients.items():
                arrays[f"grad::{name}::{state_key}"] = np.asarray(grad)
            var = crit.variable
            variables_meta.append({
                "name": var.name,
                "shape": list(var.shape),
                "kind": var.kind.value,
                "dtype": var.dtype.str,
                "critical_by_rule": var.critical_by_rule,
                "description": var.description,
                "method": crit.method,
                "gradient_keys": list(crit.gradients),
            })

        state_meta: dict[str, str] = {}
        for state_key, value in result.state.items():
            state_meta[state_key] = _state_tag(value)
            arrays[f"state::{state_key}"] = np.asarray(value)

        self._write_atomic(data_path, lambda fh: np.savez(fh, **arrays))
        meta = {
            "format": _FORMAT,
            "key": key,
            "benchmark": result.benchmark,
            "problem_class": result.problem_class,
            "step": result.step,
            "method": result.method,
            # content digest of the array file, verified on every load --
            # catches silent bit rot the zip container would tolerate
            "digest": hashlib.sha256(data_path.read_bytes()).hexdigest(),
            "variables": variables_meta,
            "state": state_meta,
        }
        self._write_atomic(
            meta_path,
            lambda fh: fh.write(json.dumps(meta, indent=1).encode("ascii")))
        return meta_path

    @staticmethod
    def _write_atomic(path: Path, write) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, benchmark: str, key: str) -> ScrutinyResult | None:
        """The cached result under ``key``, or ``None`` on a miss.

        Corrupt entries (torn writes, digest mismatches, stray files)
        count as misses -- a cache must never be able to fail a run -- but
        not *silent* misses: each one bumps :attr:`corrupt_entries` and
        logs a WARNING, the first raises a single :class:`RuntimeWarning`,
        and the damaged files are renamed aside (content preserved for
        post-mortem) so the key re-misses cleanly and is recomputed.  An
        absent entry or a format/version bump stays a plain, uncounted
        miss.
        """
        meta_path, data_path = self._paths(benchmark, key)
        if not meta_path.exists():
            # never written (or only an orphaned .npz from a torn save,
            # which the write ordering makes unreadable by design)
            self.misses += 1
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("format") != _FORMAT:
                self.misses += 1
                return None
            raw = data_path.read_bytes()
            digest = meta.get("digest")
            if digest is not None \
                    and hashlib.sha256(raw).hexdigest() != digest:
                raise _CorruptEntryError(
                    f"array-file digest mismatch for {data_path}")
            with np.load(io.BytesIO(raw)) as data:
                result = self._reconstruct(meta, data)
        except Exception as exc:
            # torn zip members, bad JSON, missing arrays, shape drift,
            # digest mismatch, ... -- every corruption mode is a miss,
            # never an error; but it is counted, warned about once and
            # the wreckage quarantined for post-mortem
            self._quarantine_entry(benchmark, key, exc)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine_entry(self, benchmark: str, key: str,
                          exc: Exception) -> None:
        """Move a corrupt entry's files aside and account for it."""
        self.corrupt_entries += 1
        meta_path, data_path = self._paths(benchmark, key)
        moved: list[Path] = []
        for path in (meta_path, data_path):
            if not path.exists():
                continue
            for counter in range(10000):
                aside = path.with_name(f"{path.name}.corrupt-{counter}")
                if not aside.exists():
                    break
            try:
                os.replace(path, aside)
                moved.append(aside)
            except OSError:  # pragma: no cover - read-only store
                pass
        self.quarantined_paths.extend(moved)
        logger.warning("result store %s: corrupt entry %s/%s quarantined "
                       "(%s: %s), moved to %s", self.root, benchmark, key,
                       type(exc).__name__, exc, ", ".join(map(str, moved))
                       or "nowhere (read-only store)")
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"result store {self.root}: corrupt cache entry "
                f"{benchmark}/{key} quarantined ({type(exc).__name__}: "
                f"{exc}); it will be recomputed -- further corrupt "
                f"entries are counted in ResultStore.corrupt_entries "
                f"without repeating this warning", RuntimeWarning,
                stacklevel=3)

    @staticmethod
    def _reconstruct(meta: Mapping[str, Any], data) -> ScrutinyResult:
        variables: dict[str, VariableCriticality] = {}
        for spec in meta["variables"]:
            var = CheckpointVariable(
                name=spec["name"],
                shape=tuple(spec["shape"]),
                kind=VariableKind(spec["kind"]),
                dtype=np.dtype(spec["dtype"]),
                critical_by_rule=bool(spec["critical_by_rule"]),
                description=spec["description"],
            )
            gradients = {state_key: data[f"grad::{var.name}::{state_key}"]
                         for state_key in spec["gradient_keys"]}
            variables[var.name] = VariableCriticality(
                var, data[f"mask::{var.name}"], method=spec["method"],
                gradients=gradients)

        state = {state_key: _restore_state(data[f"state::{state_key}"], tag)
                 for state_key, tag in meta["state"].items()}

        return ScrutinyResult(
            benchmark=meta["benchmark"],
            problem_class=meta["problem_class"],
            step=int(meta["step"]),
            method=meta["method"],
            variables=variables,
            state=state,
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def fetch(self, *, benchmark: str, problem_class: str, method: str,
              n_probes: int, step: int | None = None,
              steps: int | None = None,
              probe_scale: float = DEFAULT_PROBE_SCALE
              ) -> ScrutinyResult | None:
        """``load`` keyed directly by the result's identity."""
        key = self.key(benchmark=benchmark, problem_class=problem_class,
                       method=method, n_probes=n_probes, step=step,
                       steps=steps, probe_scale=probe_scale)
        return self.load(benchmark, key)

    def put(self, result: ScrutinyResult, *, n_probes: int,
            step: int | None = None, steps: int | None = None,
            probe_scale: float = DEFAULT_PROBE_SCALE) -> Path:
        """``save`` keyed by the parameters that produced ``result``.

        ``step`` is the *requested* checkpoint step (``None`` for the
        mid-run default), not the resolved ``result.step``, so lookups with
        the default keep hitting.
        """
        key = self.key(benchmark=result.benchmark,
                       problem_class=result.problem_class,
                       method=result.method, n_probes=n_probes, step=step,
                       steps=steps, probe_scale=probe_scale)
        self.save(key, result)
        return self._paths(result.benchmark, key)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ResultStore({str(self.root)!r}, version={self.version!r}, "
                f"hits={self.hits}, misses={self.misses})")
