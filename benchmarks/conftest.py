"""Shared fixtures for the benchmark harness.

Each ``benchmarks/test_*.py`` file regenerates one table or figure of the
paper: it times the characteristic computation with ``pytest-benchmark``,
prints the regenerated rows/series, and asserts that the result matches what
the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only

The expensive class-S criticality analyses are shared through a session
fixture so each experiment is analysed exactly once per benchmark session.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import pytest

from repro.experiments.runner import ExperimentRunner


def interleaved_seconds(thunks: Sequence[Callable[[], object]],
                        repeats: int) -> list[float]:
    """Best-of-``repeats`` wall-clock of every thunk, alternated back to back.

    Interleaving keeps transient machine load from landing on one mode
    only, and min-of-N discards the loaded repetitions entirely.  Shared by
    the standalone baseline scripts, which import it from here.
    """
    best: list[float | None] = [None] * len(thunks)
    for _ in range(repeats):
        for i, thunk in enumerate(thunks):
            t0 = time.perf_counter()
            thunk()
            dt = time.perf_counter() - t0
            best[i] = dt if best[i] is None else min(best[i], dt)
    return best


def paired_samples(thunks: Sequence[Callable[[], object]],
                   rounds: int) -> list[list[float]]:
    """Wall-clock of every thunk in each of ``rounds`` back-to-back rounds.

    ``samples[r][i]`` is thunk ``i``'s time in round ``r``; the order
    within a round reverses every other round, so neither thunk always
    runs first.  A ratio of two thunks taken *within* each round, and its
    median over the rounds, cancels load that lasts longer than one
    round, which two separate best-of minima taken in different rounds
    do not.
    """
    samples = []
    for r in range(rounds):
        order = range(len(thunks)) if r % 2 == 0 \
            else reversed(range(len(thunks)))
        times = [0.0] * len(thunks)
        for i in order:
            t0 = time.perf_counter()
            thunks[i]()
            times[i] = time.perf_counter() - t0
        samples.append(times)
    return samples


def pytest_configure(config):
    # The harness prints every regenerated table/figure so the run log reads
    # like the paper's evaluation section; -s is not required because the
    # reports are also attached to the benchmark's extra_info.
    config.addinivalue_line("markers",
                            "paper: marks benchmarks that regenerate a "
                            "specific table or figure of the paper")


@pytest.fixture(scope="session")
def runner_s() -> ExperimentRunner:
    """Class-S experiment runner shared by every benchmark in the session."""
    return ExperimentRunner(problem_class="S")


@pytest.fixture(scope="session")
def runner_t() -> ExperimentRunner:
    """Reduced-size runner for benchmarks that only need the code path."""
    return ExperimentRunner(problem_class="T")
