"""Common base class for the NPB mini-app ports.

Every benchmark port derives from :class:`NPBBenchmark` and implements four
hooks (:meth:`NPBBenchmark.checkpoint_variables`,
:meth:`NPBBenchmark.initial_state`, :meth:`NPBBenchmark._advance`,
:meth:`NPBBenchmark.output`).  The base class provides the capabilities the
rest of the reproduction consumes:

* running the main loop either on plain NumPy arrays (fast path) or on
  traced :class:`~repro.ad.tensor.ADArray` state (AD path) -- the kernels
  are written once against :mod:`repro.ad.ops`, which dispatches on the
  argument types;
* producing the state at a checkpoint step (:meth:`checkpoint_state`);
* running the *remaining* computation from an arbitrary state and reducing
  it to the scalar verification output (:meth:`restart_output`) -- this is
  the function whose derivative with respect to every checkpoint-variable
  element the paper computes;
* the benchmark's own verification phase (:meth:`verify`), which the
  restart-correctness experiments of Section IV-C rely on: like NPB, it
  compares the quantities a port derives from its final state
  (:meth:`verification_quantities`) against values recorded per problem
  class (:mod:`repro.npb.reference`), so verifying never reruns the
  benchmark.

State is always carried in a plain ``dict`` mapping variable component names
to arrays/scalars, so checkpoint files, failure injection and AD tracing all
operate on the same representation.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.ad.schedule import snapshot_state
from repro.ad.tape import Tape
from repro.ad.tensor import ADArray, value_of
from repro.core.variables import (CheckpointVariable, VariableKind,
                                  validate_state)

from .common import VerificationResult, relative_error

__all__ = ["NPBBenchmark", "concrete_state", "copy_state"]


def concrete_state(state: Mapping[str, Any]) -> dict[str, Any]:
    """Strip any AD wrappers from a state dict, returning plain numpy data.

    Delegates to :func:`repro.ad.schedule.snapshot_state`, the single
    implementation of "deep-copied, wrapper-free state dict".
    """
    return snapshot_state(state)


def copy_state(state: Mapping[str, Any]) -> dict[str, Any]:
    """Deep copy of a concrete state dict (arrays copied, scalars passed)."""
    return concrete_state(state)


class NPBBenchmark:
    """Base class of all NPB ports.

    Parameters
    ----------
    params:
        The parameter dataclass from :mod:`repro.npb.params` describing the
        problem class to run.
    """

    #: short benchmark name, overridden by subclasses ("BT", "MG", ...)
    name: str = "base"
    #: the scalar integer checkpoint variable counting completed main-loop
    #: iterations, named by each port (IS also checkpoints a scalar
    #: partial-verification counter, so it cannot be inferred); ``None``
    #: when the state carries no counter
    step_name: str | None = None
    #: ``details`` label of a verification quantity, where it differs from
    #: the quantity's name
    detail_labels: Mapping[str, str] = {}

    def __init__(self, params) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # hooks implemented by subclasses
    # ------------------------------------------------------------------
    def checkpoint_variables(self) -> Sequence[CheckpointVariable]:
        """Variables necessary for checkpointing (the paper's Table I)."""
        raise NotImplementedError

    def initial_state(self) -> dict[str, Any]:
        """State dict at step 0, before the first main-loop iteration."""
        raise NotImplementedError

    def _advance(self, state: dict[str, Any]) -> dict[str, Any]:
        """Advance the state by exactly one main-loop iteration.

        Implementations must be written against :mod:`repro.ad.ops` (or plain
        operators on the state values) so they work identically for numpy and
        traced states, and must treat ``state`` as read-only, returning a new
        dict.
        """
        raise NotImplementedError

    def output(self, state: Mapping[str, Any]):
        """Scalar verification output (differentiable for traced states)."""
        raise NotImplementedError

    def verification_quantities(self, final: Mapping[str, Any]
                                ) -> dict[str, Any]:
        """The quantities :meth:`verify` checks, from a concrete final state.

        Each is a float or an array (complex where the benchmark compares
        complex values); :mod:`repro.npb.reference` records them per
        problem class.
        """
        raise NotImplementedError

    def verify(self, state: Mapping[str, Any]) -> VerificationResult:
        """Benchmark verification phase on a final state.

        Every element of every quantity must lie within :attr:`epsilon`
        relative error of its recorded value (for a complex element,
        relative to the magnitude of the complex value).  Raises
        ``ValueError`` when no values are recorded for this port's
        parameters.
        """
        from .reference import recorded_values

        reference, notes = recorded_values(self)
        got = self.verification_quantities(concrete_state(state))
        details: dict[str, float] = {}
        for key, ref in reference.items():
            label = self.detail_labels.get(key, key)
            rel = relative_error(got[key], ref)
            if rel.ndim == 0:
                details[label] = float(rel)
            else:
                details.update((f"{label}[{m}]", float(r))
                               for m, r in enumerate(rel))
        passed = all(np.isfinite(rel) and rel <= self.epsilon
                     for rel in details.values())
        return VerificationResult(self.name, passed, self.epsilon, details,
                                  notes=notes)

    # ------------------------------------------------------------------
    # main-loop drivers provided by the base class
    # ------------------------------------------------------------------
    @property
    def total_steps(self) -> int:
        """Number of main-loop iterations of the configured problem class."""
        return int(self.params.niter)

    def step_variable(self) -> str | None:
        """Name of the integer main-loop index variable, if any."""
        return self.step_name

    def run(self, state: Mapping[str, Any], steps: int) -> dict[str, Any]:
        """Advance ``state`` by ``steps`` iterations (new dict returned)."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        current = dict(state)
        for _ in range(steps):
            current = self._advance(current)
        return current

    def run_full(self) -> dict[str, Any]:
        """Run the benchmark start to finish on plain numpy state."""
        return self.run(self.initial_state(), self.total_steps)

    def checkpoint_state(self, step: int) -> dict[str, Any]:
        """Concrete state after ``step`` main-loop iterations.

        This is the state a checkpoint taken at that point would capture; it
        is also the base point of the AD analysis.
        """
        if not 0 <= step <= self.total_steps:
            raise ValueError(
                f"checkpoint step {step} outside [0, {self.total_steps}]")
        state = self.run(self.initial_state(), step)
        concrete = concrete_state(state)
        validate_state(self.checkpoint_variables(), concrete)
        return concrete

    def remaining_steps(self, step: int) -> int:
        """Iterations left after a checkpoint at ``step``."""
        return self.total_steps - step

    def restart_output(self, state: Mapping[str, Any],
                       steps: int | None = None):
        """Run the remaining computation from ``state`` and return the output.

        ``steps`` defaults to all remaining iterations implied by the state's
        step counter when present, falling back to one iteration.  This is
        the function ``f`` of the paper: criticality of an element ``e`` of a
        checkpoint variable is ``d f / d e != 0``.
        """
        current = dict(state)
        if steps is None:
            steps = self._default_remaining_steps(current)
        current = self.run(current, steps)
        return self.output(current)

    def _default_remaining_steps(self, state: Mapping[str, Any]) -> int:
        step_name = self.step_variable()
        if step_name is not None and step_name in state:
            done = int(value_of(state[step_name]))
            return max(self.total_steps - done, 0)
        return 1

    def run_and_verify(self) -> VerificationResult:
        """Full run followed by the verification phase."""
        return self.verify(self.run_full())

    # ------------------------------------------------------------------
    # AD entry point
    # ------------------------------------------------------------------
    def traced_restart(self, state: Mapping[str, Any],
                       watch: Sequence[str] | None = None,
                       steps: int | None = None):
        """Trace the restart computation and return ``(tape, leaves, output)``.

        Parameters
        ----------
        state:
            Concrete checkpoint state (plain numpy arrays / scalars).
        watch:
            State-dict keys to watch (defaults to every floating point
            component of every checkpoint variable).  Integer variables are
            never watched -- the criticality rules handle them.
        steps:
            Number of remaining iterations to trace; ``None`` means all
            remaining iterations per the state's step counter.

        Returns
        -------
        tape:
            The recorded :class:`~repro.ad.tape.Tape`.
        leaves:
            Mapping from watched state key to its traced leaf ``ADArray``.
        output:
            The traced scalar output.
        """
        state = concrete_state(state)
        traced_state, leaves, tape = self._watched_trace_state(state, watch)
        with tape:
            out = self.restart_output(traced_state, steps=steps)
        return tape, leaves, out

    def default_watch_keys(self) -> list[str]:
        """State keys watched by default: every floating point component."""
        watch: list[str] = []
        for var in self.checkpoint_variables():
            if var.kind is VariableKind.INTEGER:
                continue
            watch.extend(var.state_keys())
        return watch

    def _watched_trace_state(self, state: Mapping[str, Any],
                             watch: Sequence[str] | None
                             ) -> tuple[dict[str, Any], dict[str, ADArray],
                                        Tape]:
        """Fresh tape plus a state dict whose ``watch`` entries are leaves."""
        if watch is None:
            watch = self.default_watch_keys()
        traced_state: dict[str, Any] = dict(state)
        leaves: dict[str, ADArray] = {}
        tape = Tape()
        with tape:
            for key in watch:
                if key not in state:
                    raise KeyError(f"cannot watch unknown state entry {key!r}")
                leaves[key] = tape.watch(state[key], name=key)
                traced_state[key] = leaves[key]
        return traced_state, leaves, tape

    def traced_step(self, state: Mapping[str, Any],
                    watch: Sequence[str] | None = None):
        """Trace exactly **one** main-loop iteration from ``state``.

        This is the per-segment building block of the segmented reverse
        sweep (:mod:`repro.ad.segmented`): the returned tape records only a
        single iteration's primitives, so its memory footprint is O(1
        iteration) regardless of how many iterations remain.

        Returns
        -------
        tape:
            The recorded :class:`~repro.ad.tape.Tape` of the one iteration.
        leaves:
            Mapping from watched state key to its traced leaf ``ADArray``.
        next_state:
            The state dict after the iteration; watched entries that depend
            on the inputs are traced ``ADArray`` values on ``tape``.
        """
        state = concrete_state(state)
        traced_state, leaves, tape = self._watched_trace_state(state, watch)
        with tape:
            next_state = self._advance(traced_state)
        return tape, leaves, next_state

    def traced_output(self, state: Mapping[str, Any],
                      watch: Sequence[str] | None = None):
        """Trace only the output (verification) reduction from ``state``.

        The final segment of the segmented reverse sweep: no main-loop
        iteration is traced, just the reduction of ``state`` to the scalar
        verification output.  Returns ``(tape, leaves, output)``.
        """
        state = concrete_state(state)
        traced_state, leaves, tape = self._watched_trace_state(state, watch)
        with tape:
            out = self.output(traced_state)
        return tape, leaves, out

    def plan_structure_token(self, state: Mapping[str, Any]):
        """Discriminator for state-dependent traced structure (plan cache).

        The replay-plan cache (:mod:`repro.ad.plan`) keys compiled step
        plans by state *shape* and compiles one only when two steps at
        different non-float state values trace identically; a benchmark
        whose traced op sequence depends on something neither check can
        see -- a branch on a traced float's value, a mode flag stored
        outside the state dict -- must
        return the discriminating value here so structurally different
        steps never share a plan.  ``None`` (the default, correct for all
        NPB ports) adds nothing to the key.
        """
        return None

    # ------------------------------------------------------------------
    # batched multi-probe AD entry points (see repro.ad.probes)
    # ------------------------------------------------------------------
    def traced_restart_probes(self, states: Sequence[Mapping[str, Any]],
                              watch: Sequence[str] | None = None,
                              steps: int | None = None):
        """Trace the restart computation of several probe states at once.

        The watched entries of every state in ``states`` are stacked along a
        leading probe axis and traced in **one** forward run under the
        probe-batched semantics of :mod:`repro.ad.ops`; unwatched entries
        are shared from ``states[0]`` (exactly what the per-probe path
        does, since probing only perturbs watched keys).  Returns ``(tape,
        leaves, output)`` where every leaf and the output carry the probe
        axis.
        """
        from repro.ad.probes import probe_axis, stack_states

        states = [concrete_state(s) for s in states]
        if watch is None:
            watch = self.default_watch_keys()
        stacked = stack_states(states, list(watch))
        traced_state, leaves, tape = self._watched_trace_state(stacked, watch)
        with tape, probe_axis(len(states)):
            out = self.restart_output(traced_state, steps=steps)
        return tape, leaves, out

    def traced_step_probes(self, stacked_state: Mapping[str, Any],
                           n_probes: int,
                           watch: Sequence[str] | None = None):
        """Trace one iteration of an already-stacked probe state.

        ``stacked_state`` carries ``(n_probes,) + shape`` arrays for every
        watched entry (see :func:`repro.ad.probes.stack_states`); this is
        the per-segment building block of the batched segmented sweep.
        Returns ``(tape, leaves, next_state)`` exactly like
        :meth:`traced_step`, with the probe axis threaded through.
        """
        from repro.ad.probes import probe_axis

        state = concrete_state(stacked_state)
        traced_state, leaves, tape = self._watched_trace_state(state, watch)
        with tape, probe_axis(n_probes):
            next_state = self._advance(traced_state)
        return tape, leaves, next_state

    def traced_output_probes(self, stacked_state: Mapping[str, Any],
                             n_probes: int,
                             watch: Sequence[str] | None = None):
        """Trace only the output reduction of an already-stacked probe state.

        Batched counterpart of :meth:`traced_output`; the traced output is a
        ``(n_probes,)`` array holding every probe's scalar verification
        value.
        """
        from repro.ad.probes import probe_axis

        state = concrete_state(stacked_state)
        traced_state, leaves, tape = self._watched_trace_state(state, watch)
        with tape, probe_axis(n_probes):
            out = self.output(traced_state)
        return tape, leaves, out

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable description of the benchmark and its variables."""
        lines = [f"{self.name} (class {self.params.problem_class}), "
                 f"{self.total_steps} main-loop iterations"]
        for var in self.checkpoint_variables():
            lines.append(f"  {var}  -- {var.description}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(class={self.params.problem_class!r})"
