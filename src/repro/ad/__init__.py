"""Reverse-mode automatic differentiation engine (the "mini-Enzyme" substrate).

The paper uses Enzyme (LLVM-level reverse-mode AD) to compute the derivative
of an application's output with respect to every element of its checkpoint
variables.  This package provides the equivalent capability for the Python
ports of the NPB benchmarks:

* :class:`~repro.ad.tape.Tape` / :class:`~repro.ad.tensor.ADArray` -- record
  array-level primitives during a forward run.
* :mod:`repro.ad.ops` -- the primitive library and numpy-like facade the
  kernels are written against.
* :mod:`repro.ad.reverse` -- the reverse sweep (``grad``, ``value_and_grad``).
* :mod:`repro.ad.segmented` -- iteration-granular (checkpointed) reverse
  sweep: one main-loop iteration's tape at a time, peak memory O(1
  iteration) instead of O(remaining steps).
* :mod:`repro.ad.schedule` -- the segmented sweeps' boundary-snapshot
  store, which keeps a copy of every iteration boundary in memory.
* :mod:`repro.ad.probes` -- batched multi-probe sweeps: the base state and
  all perturbed probe states stacked along a leading probe axis, one traced
  forward and one reverse sweep yielding every probe's gradients at once
  (in both monolithic and segmented modes).
* :mod:`repro.ad.forward` -- an independent dual-number forward mode used for
  cross-validation: it shares no rule tables with the reverse engine, so
  :func:`repro.ad.checks.check_against_forward` is an independent oracle.
* :mod:`repro.ad.activity` -- read-set (liveness) analysis over a recorded
  tape, the conservative baseline and the handler for integer variables.
* :mod:`repro.ad.checks` -- finite-difference and forward/reverse agreement
  checks.

Quick example::

    import numpy as np
    from repro import ad

    def f(x):
        return ad.ops.sum(x[:3] * x[:3])      # only the first 3 elements used

    g = ad.grad(f)(np.arange(5.0))
    # g == [0, 2, 4, 0, 0]: elements 3 and 4 are "uncritical"
"""

from . import activity, checks, forward, ops, probes, reverse, schedule, \
    segmented
from .ops import *  # noqa: F401,F403 - re-export the numpy-like facade
from .probes import (ProbeBatchingError, batched_gradients, probe_axis,
                     segmented_batched_gradients)
from .reverse import (backward, backward_from_seeds, grad, gradient,
                      value_and_grad)
from .schedule import SnapshotSchedule, make_schedule
from .segmented import SweepStats, segmented_gradients
from .tape import Tape, no_tape
from .tensor import ADArray, is_traced, value_of

__all__ = [
    "Tape",
    "ADArray",
    "no_tape",
    "is_traced",
    "value_of",
    "backward",
    "backward_from_seeds",
    "grad",
    "gradient",
    "value_and_grad",
    "segmented_gradients",
    "SweepStats",
    "SnapshotSchedule",
    "make_schedule",
    "schedule",
    "batched_gradients",
    "segmented_batched_gradients",
    "probe_axis",
    "ProbeBatchingError",
    "ops",
    "probes",
    "reverse",
    "forward",
    "activity",
    "checks",
    "segmented",
]
