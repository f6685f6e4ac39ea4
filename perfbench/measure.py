"""Statistics, environment fingerprint and the exact-count record.

Everything here is independent of ``repro``: the helpers the benchmark
reports with (median, quartiles, spread, tail percentile), the record of the
machine and code a result came from, and the cross-run check that the
exact-count metrics never change between runs of the same code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable, Mapping

#: metrics that are counts of work or bytes, not timings: identical in every
#: iteration and every run of the same code, whatever the seed (the seed
#: only picks pipeline-a's garbage values)
EXACT_PREFIXES = (
    "ckpt_bytes_ratio", "npb.steps", "ad.tape_nodes", "ad.plan_hits",
    "ad.plan_misses", "ad.plan_compiles", "ad.plan_hit_ratio",
    "ad.snapshot_peak_bytes", "core.store_hits", "core.store_misses",
    "core.store_bytes_read", "core.store_bytes_written", "ckpt.data_bytes",
    "ckpt.aux_bytes", "ckpt.full_bytes", "ckpt.bytes_ratio",
    "experiments.journal_writes",
)


def is_exact(name: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in EXACT_PREFIXES)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Iterable[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten of ``n`` samples beyond it.

    ``None`` when even p90 has fewer than ten samples beyond it (n < 100),
    in which case only the median and quartiles are reported.
    """
    best = None
    for pct in (90.0, 99.0, 99.9):
        if round(n * (100.0 - pct) / 100.0, 6) >= 10:
            best = pct
    return best


def summarize(values: list[float]) -> dict[str, Any]:
    """Sample count, median, quartiles, spread and (when it exists) the tail
    percentile of :func:`tail_percentile`."""
    q1, med, q3 = quartiles(values)
    summary = {"n": len(values), "median": med, "q1": q1, "q3": q3,
               "spread": spread(values)}
    pct = tail_percentile(len(values))
    if pct is not None:
        ordered = sorted(values)
        summary[f"p{pct:g}"] = ordered[min(len(ordered) - 1,
                                           int(pct / 100 * len(ordered)))]
    return summary


# ----------------------------------------------------------------------
# environment fingerprint
# ----------------------------------------------------------------------
def code_digest(root: Path, dirs: Iterable[str] = ("src", "perfbench")
                ) -> str:
    """SHA-256 over the paths and bytes of every ``.py``/``.json`` file."""
    digest = hashlib.sha256()
    for name in dirs:
        for path in sorted((root / name).rglob("*")):
            if path.suffix in (".py", ".json") and path.is_file() \
                    and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _blas() -> dict[str, Any]:
    """BLAS vendor and the thread count the loaded library really uses."""
    import ctypes

    import numpy as np

    info: dict[str, Any] = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment(root: Path, problem_sizes: Mapping[str, Any]) -> dict:
    """Where a result came from: code, interpreter, BLAS, CPUs, sizes."""
    import numpy as np

    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "code_digest": code_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": sys.platform,
        "problem_sizes": dict(problem_sizes),
    }


# ----------------------------------------------------------------------
# exact counts: identical across iterations and across runs
# ----------------------------------------------------------------------
def exact_mismatches(first: Mapping[str, float], other: Mapping[str, float]
                     ) -> list[str]:
    """Exact metrics present in both mappings whose values differ."""
    return [f"{name}: {first[name]!r} != {other[name]!r}"
            for name in sorted(set(first) & set(other))
            if is_exact(name) and first[name] != other[name]]


def check_exact_record(path: Path, values: Mapping[str, float]) -> list[str]:
    """Compare ``values`` with earlier runs' exact metrics, then record them.

    The record is keyed by code digest in its file name, so only runs of the
    same code are compared; a missing or unreadable record starts afresh.
    """
    exact = {k: v for k, v in values.items() if is_exact(k)}
    try:
        recorded = json.loads(path.read_text())
    except (OSError, ValueError):
        recorded = {}
    problems = exact_mismatches(recorded, exact)
    if not problems:
        merged = {**recorded, **exact}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems
