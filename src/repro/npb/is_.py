"""IS -- Integer Sort (bucket sort) benchmark port.

Checkpoint variables (paper Table I, class S)::

    int passed_verification
    int iteration
    int key_array[65536]
    int bucket_ptrs[512]

IS ranks an array of small integer keys with a bucketised counting sort.
Every main-loop iteration perturbs two keys (a function of the iteration
number, as in the original), recomputes the bucket decomposition and the key
ranks, spot-checks a handful of (key, rank) pairs and increments
``passed_verification`` when the spot checks succeed.

All four checkpoint variables are integer data: loop counters, keys and
bucket offsets.  Reverse-mode AD does not apply to integers, so -- exactly
as the paper does -- they are classified critical *by rule*
(``critical_by_rule=True``): ``key_array`` and ``bucket_ptrs`` "store the
indexes for other arrays which makes them critical for checkpointing".
IS therefore contributes no rows to Table II/III, but it participates in the
Table I inventory and the Section IV-C restart-verification experiment.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.variables import CheckpointVariable, VariableKind

from .base import NPBBenchmark, concrete_state
from .common import VerificationResult

__all__ = ["IS"]


class IS(NPBBenchmark):
    """Integer Sort benchmark surrogate (see module docstring)."""

    name = "IS"
    step_name = "iteration"
    #: integer benchmark: verification is exact, no numerical tolerance
    epsilon = 0.0
    #: number of (key, rank) pairs spot-checked per iteration
    test_array_size = 5

    def __init__(self, params=None, problem_class: str = "S") -> None:
        from .params import params_for

        super().__init__(params or params_for("IS", problem_class))
        p = self.params
        self._shift = max(int(np.log2(p.max_key / p.num_buckets)), 0)
        self._initial_keys = self._make_keys()
        self._test_indices = self._make_test_indices()

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        p = self.params
        return (
            CheckpointVariable("passed_verification", (),
                               VariableKind.INTEGER, dtype=np.int64,
                               critical_by_rule=True,
                               description="partial-verification counter"),
            CheckpointVariable("key_array", (p.total_keys,),
                               VariableKind.INTEGER, dtype=np.int64,
                               critical_by_rule=True,
                               description="keys being ranked by the bucket "
                                           "sort"),
            CheckpointVariable("bucket_ptrs", (p.num_buckets,),
                               VariableKind.INTEGER, dtype=np.int64,
                               critical_by_rule=True,
                               description="bucket start offsets of the "
                                           "counting sort"),
            CheckpointVariable("iteration", (), VariableKind.INTEGER,
                               dtype=np.int64, critical_by_rule=True,
                               description="main-loop index"),
        )

    # ------------------------------------------------------------------
    # constant data
    # ------------------------------------------------------------------
    def _make_keys(self) -> np.ndarray:
        """Initial key sequence (fixed-seed surrogate of ``create_seq``)."""
        p = self.params
        rng = np.random.default_rng(314159265)
        return rng.integers(0, p.max_key, size=p.total_keys, dtype=np.int64)

    def _make_test_indices(self) -> np.ndarray:
        """Positions of the keys spot-checked by the partial verification."""
        p = self.params
        rng = np.random.default_rng(271828183)
        return rng.choice(p.total_keys, size=self.test_array_size,
                          replace=False)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self) -> dict[str, Any]:
        keys = np.array(self._initial_keys, copy=True)
        bucket_ptrs = self._bucket_pointers(keys)
        return {
            "passed_verification": 0,
            "key_array": keys,
            "bucket_ptrs": bucket_ptrs,
            "iteration": 0,
        }

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------
    def _bucket_pointers(self, keys: np.ndarray) -> np.ndarray:
        """Exclusive prefix sum of the per-bucket key counts."""
        p = self.params
        buckets = keys >> self._shift
        counts = np.bincount(buckets, minlength=p.num_buckets)[: p.num_buckets]
        ptrs = np.zeros(p.num_buckets, dtype=np.int64)
        np.cumsum(counts[:-1], out=ptrs[1:])
        return ptrs

    def _rank(self, keys: np.ndarray) -> np.ndarray:
        """Rank of every key: number of strictly smaller keys."""
        p = self.params
        counts = np.bincount(keys, minlength=p.max_key)
        cumulative = np.zeros(p.max_key, dtype=np.int64)
        np.cumsum(counts[:-1], out=cumulative[1:])
        return cumulative[keys]

    def _partial_verification(self, keys: np.ndarray,
                              ranks: np.ndarray) -> bool:
        """Spot-check the ranks of the fixed test keys.

        A key's rank must equal the count of strictly smaller keys; the
        spot check recomputes that count directly (an O(test_array_size * n)
        scan, as cheap "ground truth") and compares.
        """
        for idx in self._test_indices:
            expected = int(np.count_nonzero(keys < keys[idx]))
            if int(ranks[idx]) != expected:
                return False
        return True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        p = self.params
        iteration = int(state["iteration"]) + 1
        keys = np.array(state["key_array"], copy=True)
        # the original perturbs two keys per iteration before re-ranking
        keys[iteration] = iteration
        keys[iteration + p.niter] = p.max_key - iteration
        ranks = self._rank(keys)
        bucket_ptrs = self._bucket_pointers(keys)
        passed = int(state["passed_verification"])
        if self._partial_verification(keys, ranks):
            passed += 1
        return {
            "passed_verification": passed,
            "key_array": keys,
            "bucket_ptrs": bucket_ptrs,
            "iteration": iteration,
        }

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def output(self, state: Mapping[str, Any]):
        """Scalar output (IS has no floating-point checkpoint variables)."""
        return np.float64(int(state["passed_verification"])
                          + int(state["iteration"]))

    def verify(self, state: Mapping[str, Any]) -> VerificationResult:
        p = self.params
        final = concrete_state(state)
        keys = np.asarray(final["key_array"])
        ranks = self._rank(keys)
        # ordering keys by their computed rank (stable for ties) must give a
        # non-decreasing sequence -- the "full verification" of the original
        sorted_keys = keys[np.argsort(ranks, kind="stable")]
        full_sort_ok = bool(np.all(np.diff(sorted_keys) >= 0))
        partial_ok = int(final["passed_verification"]) == int(
            final["iteration"])
        ran_all = int(final["iteration"]) == p.niter
        passed = full_sort_ok and partial_ok and ran_all
        details = {
            "partial_verifications": float(final["passed_verification"]),
            "iterations": float(final["iteration"]),
        }
        return VerificationResult(self.name, passed, self.epsilon, details,
                                  notes="" if passed else
                                  "full or partial verification failed")
