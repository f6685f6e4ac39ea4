"""Element-level criticality analysis (the paper's core method).

Given a restartable application and the state captured at a checkpoint, the
analysis decides for every element of every checkpoint variable whether it
is *critical* (it influences the application output, so it must be saved) or
*uncritical* (zero influence, it can be dropped).  Three methods are
provided:

``"ad"`` (default, the paper's method)
    Trace the remaining computation from the checkpoint state with the
    reverse-mode AD engine and mark an element critical when the derivative
    of the scalar verification output with respect to it is nonzero.
    Optionally the derivative is probed at several perturbed base states and
    the nonzero masks are OR-ed (guards against coincidental zeros, see
    the README's "Batched multi-probe sweep" section).

``"activity"``
    A read-dependency analysis over the same tape: an element is classified
    critical when it is read directly from the checkpointed variable by any
    primitive.  Cheaper and derivative-free, but only an approximation of
    criticality (see :mod:`repro.ad.activity`); provided as the baseline the
    ablation experiments compare the AD method against.  Runs through the
    same sweep driver as ``"ad"``: ``sweep="segmented"`` chains
    per-iteration read masks across boundaries (O(1-iteration) tape
    memory), tracing every step segment -- bitwise-identical to the
    one-tape walk of ``sweep="monolithic"``.  Value-independent, so
    ``n_probes`` must stay 1 (probing cannot change a read set).

``"rule"``
    Classify every element of every variable critical.  This is the
    conservative baseline -- a conventional full checkpoint.

Integer variables and variables flagged ``critical_by_rule`` are always
fully critical, regardless of the method, mirroring the paper's manual
treatment of loop counters, keys and bucket pointers.
"""

from __future__ import annotations

import hashlib
import logging
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.ad import activity as activity_mod
from repro.ad import probes as probes_mod
from repro.ad.plan import PlanCache
# not called here since every sweep runs through the segmented driver; kept
# at this name because perfbench/spans.py instruments it
from repro.ad.reverse import backward  # noqa: F401
from repro.ad.segmented import segmented_gradients
from repro.ad.tensor import value_of
from repro.core.masks import MaskSummary, combine_or, summarize_mask
from repro.core.regions import Region, encode_mask
from repro.core.variables import CheckpointVariable, VariableKind

__all__ = [
    "METHODS",
    "SWEEPS",
    "DEFAULT_PROBE_SCALE",
    "VariableCriticality",
    "CriticalityAnalyzer",
    "criticality_from_gradient",
    "element_criticality",
    "validate_analysis",
    "validate_steps",
]


logger = logging.getLogger(__name__)

#: recognised analysis methods
METHODS = ("ad", "activity", "rule")

#: recognised reverse-sweep strategies for the AD method
SWEEPS = ("monolithic", "segmented")

#: default relative magnitude of the probe perturbations -- the single
#: source of truth for every layer (analyzer, scrutinize, runners, store
#: key, CLI); keyed into the result store, so changing it here invalidates
#: exactly the entries it should
DEFAULT_PROBE_SCALE = 1.0e-3

#: base seed of the per-analysis probe generators
_PROBE_SEED = 20241117


def validate_analysis(method: str, n_probes: int, sweep: str) -> None:
    """Raise ``ValueError`` for an analysis configuration that cannot run.

    The one check every entry point (analyzer, job, runner) shares, so a
    bad argument fails where it enters instead of deep inside a sweep.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if int(n_probes) != n_probes or n_probes < 1:
        raise ValueError(f"n_probes must be an integer of at least 1, "
                         f"got {n_probes!r}")
    if method == "activity" and n_probes != 1:
        # the read set depends only on the traced structure, never on the
        # state values, so probing cannot change the masks; raising beats
        # silently charging for sweeps that prove nothing
        raise ValueError("method='activity' is value-independent; "
                         "n_probes must be 1")
    if sweep not in SWEEPS:
        raise ValueError(f"unknown sweep {sweep!r}; choose from {SWEEPS}")


def validate_steps(step: Any, steps: Any = None) -> None:
    """Raise ``ValueError`` unless ``step``/``steps`` can address a run.

    ``step`` (the checkpoint step) must be ``None`` or an integer >= 0 and
    ``steps`` (the iterations analysed) ``None`` or an integer >= 1.  Whether
    ``step`` fits a benchmark's loop is checked where the benchmark is known.
    """
    for name, value, low in (("step", step, 0), ("steps", steps, 1)):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < low:
            raise ValueError(f"{name} must be an integer of at least {low}, "
                             f"got {value!r}")


def criticality_from_gradient(gradient: np.ndarray) -> np.ndarray:
    """Boolean criticality mask from a derivative array.

    The paper's criterion verbatim: "if the derivative is 0, the impact of
    x on the output is 0; otherwise, there is impact on the output".
    Non-finite derivatives (the output blew up along that path) are treated
    as critical, the conservative choice.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    return (gradient != 0.0) | ~np.isfinite(gradient)


def element_criticality(fun: Callable[[np.ndarray], Any],
                        x: np.ndarray) -> np.ndarray:
    """Criticality mask of ``x`` for a free function ``fun(x) -> scalar``.

    Convenience entry point for user code that is not organised as an
    :class:`~repro.npb.base.NPBBenchmark`; used by the quickstart example.
    """
    from repro.ad.reverse import grad

    gradient = grad(fun)(np.asarray(x, dtype=np.float64))
    return criticality_from_gradient(gradient)


@dataclass
class VariableCriticality:
    """Per-element criticality of one checkpoint variable.

    Attributes
    ----------
    variable:
        The static :class:`~repro.core.variables.CheckpointVariable`.
    mask:
        Boolean array of the variable's logical shape; ``True`` = critical.
    method:
        The analysis method that produced the mask.
    gradients:
        Per-state-key derivative arrays (empty for rule-based variables);
        kept so visualisation and debugging can inspect magnitudes, not just
        the zero pattern.
    """

    variable: CheckpointVariable
    mask: np.ndarray
    method: str = "ad"
    gradients: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.variable.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match variable "
                f"{self.variable.name!r} shape {self.variable.shape}")

    # -- counts ----------------------------------------------------------
    @property
    def name(self) -> str:
        """The variable's name."""
        return self.variable.name

    @property
    def n_elements(self) -> int:
        """Total number of logical elements."""
        return self.variable.n_elements

    @property
    def n_critical(self) -> int:
        """Number of critical elements."""
        return int(np.count_nonzero(self.mask))

    @property
    def n_uncritical(self) -> int:
        """Number of uncritical elements."""
        return self.n_elements - self.n_critical

    @property
    def uncritical_rate(self) -> float:
        """Fraction of uncritical elements (a Table II cell)."""
        return self.n_uncritical / self.n_elements if self.n_elements else 0.0

    def summary(self) -> MaskSummary:
        """Count summary of the mask."""
        return summarize_mask(self.variable.name, self.mask)

    # -- storage views ---------------------------------------------------
    def regions(self) -> list[Region]:
        """Contiguous critical runs over the flattened element index."""
        return encode_mask(self.mask)

    @property
    def critical_nbytes(self) -> int:
        """Bytes of element data a pruned checkpoint stores."""
        return self.n_critical * self.variable.element_nbytes

    @property
    def full_nbytes(self) -> int:
        """Bytes of element data a full checkpoint stores."""
        return self.variable.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"VariableCriticality({self.variable.name!r}, "
                f"critical={self.n_critical}/{self.n_elements}, "
                f"method={self.method!r})")


class CriticalityAnalyzer:
    """Runs the element-level analysis for one or more benchmarks.

    Parameters
    ----------
    method:
        ``"ad"``, ``"activity"`` or ``"rule"`` (see module docstring).
    n_probes:
        Number of AD evaluations per variable; probe 0 uses the checkpoint
        state itself (the paper's method), further probes perturb the
        floating-point state to separate structural zeros from coincidental
        ones.  Ignored by the other methods.
    probe_scale:
        Relative magnitude of the probe perturbations.  The perturbations
        come from a fresh, deterministic generator per :meth:`analyze` call,
        seeded from the benchmark name, problem class and checkpoint step,
        so a reused sequential analyzer produces exactly what a fresh
        analyzer (the parallel engine's fresh-per-job path) produces.
    steps:
        Number of remaining main-loop iterations to analyse; ``None`` means
        every iteration left until the benchmark completes (the paper's
        setting: criticality with respect to the final output).
    sweep:
        Reverse-sweep strategy of the AD and activity methods, both run by
        the driver of :mod:`repro.ad.segmented`: ``"monolithic"`` (the
        default) is its one-segment walk, one tape for the whole remaining
        computation (``tail=None``); ``"segmented"`` traces only the
        output reduction there (``tail=0``) and walks back one iteration's
        tape at a time, peak memory bounded by a single iteration,
        bitwise-identical masks.  Ignored by the "rule" method.  The only
        execution choice: the segmented sweep always keeps every boundary
        snapshot; the gradient sweeps replay compiled plans from one
        :class:`~repro.ad.plan.PlanCache` per :meth:`analyze` call, lowered
        with the full ``"fuse"`` pass pipeline, and the activity sweep
        traces every segment.

    Multi-probe AD analyses always stack the probe states along a leading
    probe axis and run one traced forward plus one reverse sweep
    (:mod:`repro.ad.probes`), falling back automatically -- with a
    :class:`RuntimeWarning` -- to one sweep per probe for benchmarks whose
    kernels cannot broadcast over the probe axis.  Both paths produce
    identical masks (pinned in ``tests/ad/test_probes.py``).
    """

    def __init__(self, method: str = "ad", n_probes: int = 1,
                 probe_scale: float = DEFAULT_PROBE_SCALE,
                 steps: int | None = None,
                 sweep: str = "monolithic") -> None:
        validate_analysis(method, n_probes, sweep)
        validate_steps(None, steps)
        self.method = method
        self.n_probes = int(n_probes)
        self.probe_scale = float(probe_scale)
        self.steps = steps
        self.sweep = sweep
        # trailing iterations the sweep driver's output segment traces:
        # every one (one tape) or none (one iteration's tape at a time)
        self._tail = None if sweep == "monolithic" else 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def analyze(self, bench, state: Mapping[str, Any] | None = None,
                step: int | None = None) -> dict[str, VariableCriticality]:
        """Analyse every checkpoint variable of ``bench``.

        Either an explicit checkpoint ``state`` or a checkpoint ``step`` (the
        state is then produced by running the benchmark that far) must be
        provided; ``step`` defaults to the middle of the main loop.

        Returns a dict keyed by variable name, in Table I order.  Raises
        ``ValueError``, before any forward run, when the checkpoint step plus
        ``steps`` overruns the benchmark's main loop.
        """
        if state is None and step is None:
            step = bench.total_steps // 2
        self.check_span(bench, step if step is not None
                        else self._state_step(bench, state))
        if state is None:
            state = bench.checkpoint_state(step)
        variables = list(bench.checkpoint_variables())

        results: dict[str, VariableCriticality] = {}
        rule_vars = [v for v in variables
                     if v.critical_by_rule or v.kind is VariableKind.INTEGER]
        ad_vars = [v for v in variables if v not in rule_vars]

        for var in rule_vars:
            results[var.name] = VariableCriticality(
                var, np.ones(var.shape, dtype=bool), method="rule")

        if ad_vars:
            if self.method == "rule":
                for var in ad_vars:
                    results[var.name] = VariableCriticality(
                        var, np.ones(var.shape, dtype=bool), method="rule")
            elif self.method == "activity":
                results.update(self._activity_masks(bench, state, ad_vars))
            else:
                rng = self._analysis_rng(bench, state, step)
                results.update(self._ad_masks(bench, state, ad_vars, rng))

        # preserve Table I ordering
        return {v.name: results[v.name] for v in variables}

    def check_span(self, bench, step: int) -> None:
        """Raise ``ValueError`` if ``steps`` from ``step`` overrun the loop.

        A negative ``step`` (unknown, see :meth:`_state_step`) is not
        checked.
        """
        if self.steps is not None and step >= 0 \
                and step + self.steps > bench.total_steps:
            raise ValueError(
                f"steps={self.steps} from step {step} overruns "
                f"{getattr(bench, 'name', type(bench).__name__)}'s "
                f"{bench.total_steps} main-loop iterations")

    def _analysis_rng(self, bench, state: Mapping[str, Any],
                      step: int | None) -> np.random.Generator:
        """Deterministic per-analysis probe generator.

        Seeded from the benchmark identity (name, problem class) and the
        checkpoint step, so the draws depend only on *what* is analysed --
        never on what the same analyzer instance analysed before.  A reused
        sequential analyzer therefore matches the parallel engine's
        fresh-analyzer-per-job path bit for bit.
        """
        if step is None:
            step = self._state_step(bench, state)
        tag = "|".join([
            str(getattr(bench, "name", type(bench).__name__)),
            str(getattr(getattr(bench, "params", None), "problem_class", "")),
            str(step),
        ]).encode("utf-8")
        digest = hashlib.sha256(tag).digest()
        words = [int.from_bytes(digest[i:i + 4], "little")
                 for i in range(0, 16, 4)]
        return np.random.default_rng(
            np.random.SeedSequence([_PROBE_SEED, *words]))

    @staticmethod
    def _state_step(bench, state: Mapping[str, Any]) -> int:
        """Step counter carried by ``state``, or ``-1`` when undiscoverable."""
        step_variable = getattr(bench, "step_variable", None)
        if callable(step_variable):
            try:
                name = step_variable()
                if name is not None and name in state:
                    return int(value_of(state[name]))
            except Exception:
                pass
        return -1

    # ------------------------------------------------------------------
    # AD method
    # ------------------------------------------------------------------
    def _watched_keys(self, variables: Sequence[CheckpointVariable]) -> list[str]:
        keys: list[str] = []
        for var in variables:
            keys.extend(var.state_keys())
        return keys

    def _ad_masks(self, bench, state: Mapping[str, Any],
                  variables: Sequence[CheckpointVariable],
                  rng: np.random.Generator
                  ) -> dict[str, VariableCriticality]:
        watch = self._watched_keys(variables)
        # all probe states are drawn up front (base state first); the draw
        # order over (probe, key) is identical to the legacy interleaved
        # loop, so the batched sweep and its per-probe fallback agree
        states = [dict(state)]
        for probe in range(1, self.n_probes):
            states.append(self._perturb_state(state, watch, probe, rng))

        # one replay-plan cache per analysis: every segmented sweep of this
        # analysis (all probes, batched or per-probe) shares the compiled
        # plans, which is where trace-once/replay-many pays off
        plan_cache = PlanCache()

        stacked = None
        if len(states) > 1:
            stacked = self._batched_probe_gradients(bench, states, watch,
                                                    plan_cache)

        if stacked is not None:
            base_grads = {key: np.asarray(stacked[key][0]) for key in watch}
            key_masks = {key: criticality_from_gradient(stacked[key])
                         .any(axis=0) for key in watch}
        else:
            base_grads = self._gradients(bench, states[0], watch, plan_cache)
            key_masks = {key: criticality_from_gradient(g)
                         for key, g in base_grads.items()}
            for probed_state in states[1:]:
                probe_grads = self._gradients(bench, probed_state, watch,
                                              plan_cache)
                for key, g in probe_grads.items():
                    key_masks[key] |= criticality_from_gradient(g)

        results: dict[str, VariableCriticality] = {}
        for var in variables:
            parts = [key_masks[key] for key in var.state_keys()]
            mask = combine_or(parts) if len(parts) > 1 else parts[0]
            gradients = {key: base_grads[key] for key in var.state_keys()}
            results[var.name] = VariableCriticality(
                var, mask.reshape(var.shape), method="ad",
                gradients=gradients)
        return results

    def _batched_probe_gradients(self, bench, states: Sequence[Mapping[str, Any]],
                                 watch: Sequence[str],
                                 plan_cache: PlanCache | None = None
                                 ) -> dict[str, np.ndarray] | None:
        """Stacked ``(n_probes,) + shape`` gradients, or ``None`` to fall
        back to the per-probe loop when the benchmark cannot broadcast.

        A benchmark that simply does not expose the probe-tracing API (a
        custom :class:`RestartableApplication`) falls back with an INFO
        log event, not a warning; a kernel that *fails* mid-trace falls
        back with a :class:`RuntimeWarning` so the slowdown is explainable.
        """
        hooks = ("traced_restart_probes",) \
            + (("traced_step_probes",) if self._tail == 0 else ())
        if not all(callable(getattr(bench, hook, None)) for hook in hooks):
            logger.info("benchmark %r has no probe-tracing API; running one "
                        "sweep per probe", getattr(bench, "name", bench))
            return None
        try:
            return probes_mod.segmented_batched_gradients(
                bench, states, watch=list(watch), steps=self.steps,
                plan_cache=plan_cache, tail=self._tail)
        except Exception as exc:  # noqa: BLE001 - any kernel may refuse to
            # broadcast over the probe axis; the per-probe path is always
            # available and produces identical masks.  Any error --
            # including an OSError/ENOMEM only at the stacked batch size --
            # falls back to the per-probe loop.
            warnings.warn(
                f"batched probe sweep unavailable for "
                f"{getattr(bench, 'name', bench)!r} "
                f"({type(exc).__name__}: {exc}); falling back to the "
                f"per-probe path", RuntimeWarning, stacklevel=3)
            return None

    def _gradients(self, bench, state: Mapping[str, Any],
                   watch: Sequence[str],
                   plan_cache: PlanCache | None = None
                   ) -> dict[str, np.ndarray]:
        """One reverse sweep: derivative of the output w.r.t. every key.

        ``sweep="monolithic"`` traces the whole remaining computation on one
        tape; ``sweep="segmented"`` chains per-iteration tapes instead
        (bitwise-identical result, peak memory bounded by one iteration).
        """
        return segmented_gradients(bench, state, watch=list(watch),
                                   steps=self.steps, plan_cache=plan_cache,
                                   tail=self._tail)

    def _perturb_state(self, state: Mapping[str, Any],
                       watch: Sequence[str], probe: int,
                       rng: np.random.Generator) -> dict[str, Any]:
        """Perturbed copy of the floating-point checkpoint state.

        Every perturbed entry keeps the original entry's dtype: a float32
        variable must be probed *as* float32, or the probe sweeps would
        trace at a different precision than probe 0 (the base state).
        The noise itself is drawn and scaled in float64 (identical draws to
        earlier versions) and cast once at the end.
        """
        del probe  # each call draws fresh noise from the generator
        perturbed = dict(state)
        for key in watch:
            original = np.asarray(value_of(state[key]))
            base = np.asarray(original, dtype=np.float64)
            rms = float(np.sqrt(np.mean(base ** 2)))
            scale = self.probe_scale * (rms if rms > 0 else 1.0)
            probed = base + scale * rng.standard_normal(base.shape)
            dtype = original.dtype \
                if np.issubdtype(original.dtype, np.floating) else np.float64
            perturbed[key] = probed.astype(dtype, copy=False)
        return perturbed

    # ------------------------------------------------------------------
    # activity method
    # ------------------------------------------------------------------
    def _activity_masks(self, bench, state: Mapping[str, Any],
                        variables: Sequence[CheckpointVariable]
                        ) -> dict[str, VariableCriticality]:
        watch = self._watched_keys(variables)
        # the same sweep driver as _ad_masks, tracing every segment
        activity = activity_mod.segmented_read_masks(
            bench, state, watch=list(watch), steps=self.steps,
            tail=self._tail)
        key_masks = {key: activity[key].read for key in watch}

        results: dict[str, VariableCriticality] = {}
        for var in variables:
            parts = [key_masks[key] for key in var.state_keys()]
            mask = combine_or(parts) if len(parts) > 1 else parts[0]
            results[var.name] = VariableCriticality(
                var, mask.reshape(var.shape), method="activity")
        return results
