"""Shared fixtures for the test suite.

Class-S analyses reproduce the paper but cost O(seconds) each, so they are
computed once per session and shared; most unit tests use the reduced "T"
problem class, which exercises identical code paths at a fraction of the
size.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.analysis import scrutinize
from repro.experiments.runner import ExperimentRunner
from repro.npb import registry


@pytest.fixture(scope="session")
def runner_s() -> ExperimentRunner:
    """Session-wide class-S experiment runner (results cached across tests)."""
    return ExperimentRunner(problem_class="S")


@pytest.fixture(scope="session")
def runner_t() -> ExperimentRunner:
    """Session-wide class-T (reduced size) experiment runner."""
    return ExperimentRunner(problem_class="T")


@pytest.fixture(scope="session")
def bt_t():
    """A class-T BT benchmark instance."""
    return registry.create("BT", "T")


@pytest.fixture(scope="session")
def bt_t_result(bt_t):
    """Scrutiny result of the class-T BT benchmark."""
    return scrutinize(bt_t)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh fixed-seed generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def probe_gradients():
    """Per-probe gradients of a scalar objective from one batched sweep.

    The returned function stacks the inputs ``xs`` along a probe axis
    (:func:`repro.ad.probes.probe_axis`), traces ``objective`` once and
    runs one reverse sweep; row ``p`` of its result is the gradient at
    ``xs[p]``.
    """
    from repro import ad
    from repro.ad.probes import probe_axis

    def gradients(objective, xs):
        with ad.Tape() as tape, probe_axis(len(xs)):
            v = tape.watch(np.stack(xs), name="x")
            out = objective(v)
        (g,) = ad.backward(tape, out, [v])
        assert np.shape(g) == (len(xs),) + np.shape(xs[0])
        return g

    return gradients


@pytest.fixture()
def force_per_probe(monkeypatch):
    """Route later analyses to the analyzer's per-probe fallback loop.

    Multi-probe analyses always try the batched probe sweep first; calling
    the returned function disables it for the rest of the test, so the
    per-probe loop can serve as the oracle the batched sweep is compared
    against.
    """
    from repro.core.criticality import CriticalityAnalyzer

    def install():
        monkeypatch.setattr(CriticalityAnalyzer, "_batched_probe_gradients",
                            lambda *args, **kwargs: None)

    return install


@pytest.fixture()
def sweep_options(monkeypatch):
    """Install extra :mod:`repro.ad` gradient-sweep options under the
    analyzer.

    The analyzer fixes how the segmented gradient sweeps run (plan replay,
    fused plans); the alternatives live on the ``repro.ad`` gradient sweep
    functions as test oracles.  Calling the returned function -- e.g.
    ``sweep_options(trace_cache="off", plan_cache=None)`` -- makes every
    later analysis in the test call those functions with the given options
    overriding the analyzer's own (until the next call), so mask-level
    equivalences can still be pinned end to end.  The activity sweep takes
    no plan options and is left alone.
    """
    import repro.core.criticality as criticality

    drivers = [(owner, attr, getattr(owner, attr)) for owner, attr in (
        (criticality, "segmented_gradients"),
        (criticality.probes_mod, "segmented_batched_gradients"))]

    def install(**options):
        # each call replaces the previous options instead of stacking
        for owner, attr, real in drivers:
            @functools.wraps(real)
            def with_options(*args, _real=real, **kwargs):
                return _real(*args, **{**kwargs, **options})

            monkeypatch.setattr(owner, attr, with_options)

    return install
