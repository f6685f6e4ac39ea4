"""Trace-once / replay-many: compiled step plans for the segmented sweep.

Profiling of the segmented reverse sweep showed the analysis is *recording-
bound* on small and medium problem classes: every segment and every probe
re-runs the Python tracer over an identical operation structure, rebuilding
:class:`~repro.ad.tape.Node` objects, re-creating every VJP closure and
re-walking the benchmark's Python kernel code.  This module removes that
redundancy with the classic trace-specialisation idea: record one
main-loop step **once**, lower it to a *compiled replay plan*, and execute
that plan -- a flat program of kernel calls with preassigned buffer slots
backed by a reusable arena -- for the sweep's other segments instead of
tracing them.

A sweep visits every boundary exactly once, so the only plan it can replay
is one shared by all of its steps.  The output segment (traced once per
sweep) and the concrete forward pass (``bench.run``) are never planned.

How a plan is built
-------------------

1. **Capture.**  Every node a primitive of :mod:`repro.ad.ops` records
   carries the *spec* its rule ran on -- the rule kind, its constant
   operands, and every shape/axis/index decision (all post probe-axis
   adjustment, so batched probe traces carry their final geometry).  A
   capture reads the wiring, geometry and spec of every node off the tape
   of a normal ``traced_step``; it is taken only while a plan is being
   learned.

2. **Validation.**  A captured program alone proves nothing: constants may
   depend on untraced state (EP's per-batch seed, FT's per-``kt``
   evolution factor), the op sequence may diverge between iterations, or a
   primitive may have no replay kernel at all.  The cache therefore takes
   the first two captures at boundaries whose non-float state differs
   (:func:`fine_signature`) and compares them op for op, slot for slot,
   constant for constant (bitwise).  If they agree, the step structure is
   counter-independent and one compiled plan serves every later boundary
   of the sweep (CG, LU, MG, BT, SP).  If they disagree, no plan could
   ever replay, so the entry stops capturing and keeps no capture; every
   segment is traced as with ``trace_cache="off"``.

3. **Lowering.**  The agreed capture is lowered to the typed IR
   (:mod:`repro.ad.ir`), optimised (:mod:`repro.ad.passes`) and turned into
   kernels (:mod:`repro.ad.exec`) that map parent slot values to the
   node's value and a fresh VJP.  An unfused kernel *is* the primitive's
   rule (:data:`repro.ad.ops.RULES`) bound to the recorded spec, so
   replayed gradients are bitwise-identical to traced ones -- pinned for
   all eight NPB ports by ``tests/ad/test_plan.py``.

Replaying a plan
----------------

A replay feeds the watched state entries into preallocated float64 leaf
buffers (the same cast :meth:`~repro.ad.tape.Tape.watch` performs), runs
the kernel program over the slot arena, then runs the plan's own reverse
sweep -- an exact mirror of :func:`repro.ad.reverse.backward_from_seeds`
including cotangent accumulation order and buffer ownership, so a replayed
segment chains bit for bit like a traced one.  Plans serve the gradient
sweeps only; the activity sweep (:mod:`repro.ad.activity`) traces every
segment and reads its masks off the tape.

Safety
------

Structure changes fall back to fresh tracing automatically: a shape/dtype
change misses the structural signature, an op-sequence or constant change
fails the two-capture agreement, a node recorded without a rule spec
rejects the plan, and any replay-time error poisons the cache entry with a
:class:`RuntimeWarning` and re-traces.  An entry that stops learning logs
one INFO event, with its reason, on the ``repro.ad.plan`` logger.  Two
residual caveats are inherited from every trace-specialising system: a
kernel whose *structure* depends on traced float values, or one that
diverges only at an iteration the two captures did not see, replays its
captured structure.  None of the NPB ports does either; a custom benchmark
that does must override ``plan_structure_token`` (see
:class:`repro.npb.base.NPBBenchmark`) to key plans by the discriminating
value.
"""

from __future__ import annotations

import hashlib
import logging
import warnings
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .exec import build_ops
from .ir import lower_program
from .passes import DEFAULT_PLAN_OPTIMIZE, PLAN_OPTIMIZES, optimize_ir
from .tensor import ADArray, value_of

__all__ = [
    "TRACE_CACHES",
    "DEFAULT_TRACE_CACHE",
    "PLAN_OPTIMIZES",
    "DEFAULT_PLAN_OPTIMIZE",
    "PlanCache",
    "CompiledPlan",
    "coarse_signature",
    "fine_signature",
]

#: recognised trace-cache policies of the segmented sweep
TRACE_CACHES = ("plan", "off")

#: the policy used when none is requested
DEFAULT_TRACE_CACHE = "plan"


#: the logger of the plan cache's fallback events
_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# structural signatures
# ---------------------------------------------------------------------------

def coarse_signature(state: Mapping[str, Any], token: Any = None) -> tuple:
    """Shape/dtype fingerprint of a state dict (value-independent).

    Two states with the same coarse signature promise the same *leaf
    geometry*; whether the traced structure really is identical is decided
    by the two-capture agreement, never by this signature alone.  ``token``
    folds in a benchmark-provided discriminator for kernels whose structure
    depends on state values (``plan_structure_token``).
    """
    parts: list[tuple] = []
    for key in sorted(state):
        arr = np.asarray(value_of(state[key]))
        kind = "f" if np.issubdtype(arr.dtype, np.floating) else "o"
        parts.append((key, kind, arr.shape, arr.dtype.str))
    return (tuple(parts), None if token is None else repr(token))


def fine_signature(state: Mapping[str, Any]) -> tuple:
    """Value fingerprint of every *non-float* state entry.

    Non-float entries are the only state a traced step can bake into its
    captured constants (float entries are always traced leaves), so two
    captures only prove a structure counter-independent when their fine
    signatures differ: FT's ``kt`` selects the evolution factor, IS's key
    array steers its integer pipeline.  Scalars key by value, arrays by
    content digest.
    """
    parts: list[tuple] = []
    for key in sorted(state):
        arr = np.asarray(value_of(state[key]))
        if np.issubdtype(arr.dtype, np.floating):
            continue
        if arr.ndim == 0:
            parts.append(("s", key, int(arr)))
        else:
            digest = hashlib.sha1(
                np.ascontiguousarray(arr).tobytes()).digest()
            parts.append(("a", key, arr.shape, arr.dtype.str, digest))
    return tuple(parts)


def _structure_token(bench, state: Mapping[str, Any]) -> Any:
    hook = getattr(bench, "plan_structure_token", None)
    if callable(hook):
        return hook(state)
    return None


# ---------------------------------------------------------------------------
# captured programs
# ---------------------------------------------------------------------------

class _NodeRec:
    """One captured tape node: wiring, geometry and its replay spec."""

    __slots__ = ("op", "parents", "shape", "dtype", "spec")

    def __init__(self, op: str, parents: tuple[int, ...], shape: tuple,
                 dtype: str, spec: tuple | None) -> None:
        self.op = op
        self.parents = parents
        self.shape = shape
        self.dtype = dtype
        self.spec = spec


class CaptureProgram:
    """The raw harvest of one step's tape (pre-compilation)."""

    __slots__ = ("n_probes", "watch", "leaf_slots", "nodes", "out_entries",
                 "supported", "reason")

    def __init__(self) -> None:
        self.n_probes: int | None = None
        self.watch: tuple[str, ...] = ()
        self.leaf_slots: tuple[int, ...] = ()
        self.nodes: list[_NodeRec] = []
        #: next-state entry -> ("slot", i) | ("const", value)
        self.out_entries: dict[str, tuple] = {}
        self.supported = True
        self.reason = ""


def _build_program(tape, leaves, watch: Sequence[str],
                   next_state: Mapping[str, Any],
                   n_probes: int | None) -> CaptureProgram:
    """Assemble a :class:`CaptureProgram` from one step's tape."""
    prog = CaptureProgram()
    prog.n_probes = n_probes
    prog.watch = tuple(watch)
    prog.leaf_slots = tuple(leaves[key].node.index for key in prog.watch)
    for node in tape.nodes:
        if node.spec is None and prog.supported:
            prog.supported = False
            prog.reason = f"primitive {node.op!r} has no replay rule"
        prog.nodes.append(_NodeRec(node.op,
                                   tuple(p.index for p in node.parents),
                                   tuple(node.shape), np.dtype(node.dtype).str,
                                   node.spec))

    for key, val in next_state.items():
        if isinstance(val, ADArray) and val.node is not None:
            prog.out_entries[key] = ("slot", val.node.index)
        else:
            prog.out_entries[key] = ("const", value_of(val)
                                     if isinstance(val, ADArray) else val)
    return prog


def _const_equal(a: Any, b: Any) -> bool:
    """Structural + bitwise equality of captured spec payloads."""
    if a is b:
        return True
    if type(a) is not type(b):
        # allow int/np.integer style mismatches to compare by value below
        if not (np.isscalar(a) and np.isscalar(b)):
            if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
                return False
    if isinstance(a, np.ndarray):
        if not isinstance(b, np.ndarray):
            return False
        # raw-byte comparison: value equality would conflate -0.0 with 0.0
        # (and NaN payloads), which a downstream 1/x would tell apart
        return (a.shape == b.shape and a.dtype == b.dtype
                and np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())
    if isinstance(a, (tuple, list)):
        return (len(a) == len(b)
                and all(_const_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (a.keys() == b.keys()
                and all(_const_equal(a[k], b[k]) for k in a))
    if isinstance(a, slice):
        return (_const_equal(a.start, b.start)
                and _const_equal(a.stop, b.stop)
                and _const_equal(a.step, b.step))
    if isinstance(a, np.generic) or isinstance(b, np.generic):
        # numpy scalars (incl. non-float64 floats): raw-byte equality, for
        # the same -0.0 / NaN-payload reasons as the array branch
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        return (a_arr.dtype == b_arr.dtype
                and a_arr.tobytes() == b_arr.tobytes())
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
        # sign-aware: -0.0 and 0.0 compare equal but behave differently
        return a == b and np.copysign(1.0, a) == np.copysign(1.0, b)
    try:
        return bool(a == b)
    except Exception:  # pragma: no cover - incomparable payloads
        return False


def programs_equal(p1: CaptureProgram, p2: CaptureProgram) -> bool:
    """Structural agreement of two captures (the compile precondition).

    Constants must agree *bitwise* -- a constant that drifted between two
    boundaries is untraced state leaking into the program, exactly what a
    replay would get wrong.  Untraced next-state constants are exempt: they
    never feed a chained cotangent.
    """
    if (p1.n_probes != p2.n_probes
            or p1.watch != p2.watch or p1.leaf_slots != p2.leaf_slots
            or len(p1.nodes) != len(p2.nodes)
            or not p1.supported or not p2.supported):
        return False
    for n1, n2 in zip(p1.nodes, p2.nodes):
        if (n1.op != n2.op or n1.parents != n2.parents
                or n1.shape != n2.shape or n1.dtype != n2.dtype):
            return False
        if not _const_equal(n1.spec, n2.spec):
            return False
    if p1.out_entries.keys() != p2.out_entries.keys():
        return False
    for key, (tag1, payload1) in p1.out_entries.items():
        tag2, payload2 = p2.out_entries[key]
        if tag1 != tag2:
            return False
        if tag1 == "slot" and payload1 != payload2:
            return False
    return True


# ---------------------------------------------------------------------------
# compiled plans
# ---------------------------------------------------------------------------

class CompiledPlan:
    """A lowered capture: flat kernel program over a reusable slot arena.

    The arena -- the slot value/VJP tables and the float64 leaf buffers --
    is allocated once at compile time and overwritten on every replay, so a
    replayed segment performs no tape bookkeeping and no leaf reallocation.
    Gradient buffers follow the tracer's ownership discipline exactly
    (shared buffers are defensively copied before they are handed out), so
    nothing the caller receives ever aliases the arena.

    A plan is not thread-safe: it belongs to one sweep/cache at a time,
    like the tapes it replaces.
    """

    def __init__(self, program: CaptureProgram,
                 optimize: str = DEFAULT_PLAN_OPTIMIZE) -> None:
        self.watch = program.watch
        #: the typed, validated lowering of the captured program
        self.ir = lower_program(program)
        self.n_slots = self.ir.n_slots
        self._shapes = [instr.shape for instr in self.ir.instrs]
        self._parents = [instr.parents for instr in self.ir.instrs]
        self._leaf_slots = self.ir.leaf_slots
        #: chain key -> producing slot (``None`` = untraced next-state entry)
        self._seed_slots = dict(self.ir.seed_slots)
        #: gradient-buffer footprint estimate, same meter as ``Tape.nbytes``
        self.nbytes_estimate = sum(
            int(np.prod(shape, dtype=np.int64)) * 8 for shape in self._shapes)

        layout = optimize_ir(self.ir, optimize)
        self._ops = build_ops(self.ir, layout)
        #: pass telemetry (folded into PlanCache / SweepStats maxima)
        self.fused_ops = layout.fused_ops
        self.eliminated_slots = layout.eliminated_slots
        self.nbytes_estimate_packed = layout.nbytes_packed
        #: per-slot parent tuples as the reverse sweep sees them: a fused
        #: group's last slot owns the group's external parents (duplicates
        #: included, in the fused VJP's emission order)
        self._sweep_parents = list(self._parents)
        for slot, parents, _kernel in self._ops:
            self._sweep_parents[slot] = parents
        #: executable slots, descending: the only slots the reverse sweep
        #: must visit (leaves keep their cotangents stashed for collection;
        #: dead slots and fused interiors never receive one)
        self._sweep_order = [slot for slot, _parents, _kernel
                             in reversed(self._ops)]

        # the reusable arena: slot tables + preallocated leaf buffers
        self._values: list = [None] * self.n_slots
        self._vjps: list = [None] * self.n_slots
        self._leaf_bufs = {slot: np.empty(self._shapes[slot],
                                          dtype=np.float64)
                           for slot in self._leaf_slots}
        #: optimised plans also seed chained cotangents through retained
        #: buffers.  A seed buffer may flow down the sweep unowned (every
        #: accumulation onto it allocates; ``_collect`` copies), so reuse
        #: across replays is safe -- except when the seed slot *is* a leaf
        #: slot (identity chain entry): its owned seed would be handed to
        #: the caller, so those keep the per-replay copy.
        leaf_set = set(self._leaf_slots)
        self._seed_bufs = {} if not layout.optimized else {
            slot: np.empty(self._shapes[slot], dtype=np.float64)
            for slot in set(self._seed_slots.values())
            if slot is not None and slot not in leaf_set}

    # -- forward execution ----------------------------------------------
    def _forward(self, state: Mapping[str, Any]) -> None:
        values, vjps = self._values, self._vjps
        for key, slot in zip(self.watch, self._leaf_slots):
            buf = self._leaf_bufs[slot]
            np.copyto(buf, np.asarray(value_of(state[key])))
            values[slot] = buf
        for slot, parents, kernel in self._ops:
            values[slot], vjps[slot] = kernel([values[p] for p in parents])

    # -- reverse execution (mirrors repro.ad.reverse bit for bit) --------
    def _sweep(self, grads: list, owned: bytearray, start: int) -> None:
        parents_of, vjps = self._sweep_parents, self._vjps
        for idx in self._sweep_order:
            if idx > start:
                continue
            g = grads[idx]
            if g is None:
                continue
            parents = parents_of[idx]
            if not parents:
                continue
            grads[idx] = None
            owned[idx] = 0
            for p, pg in zip(parents, vjps[idx](g)):
                if grads[p] is not None:
                    if owned[p]:
                        grads[p] += pg
                    else:
                        grads[p] = grads[p] + pg
                        owned[p] = 1
                else:
                    grads[p] = pg
                    owned[p] = 0

    def _collect(self, grads: list, owned: bytearray) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for key, slot in zip(self.watch, self._leaf_slots):
            g = grads[slot]
            if g is None:
                g = np.zeros(self._shapes[slot], dtype=np.float64)
            elif not owned[slot]:
                # shared with a VJP-captured operand (or a caller's seed):
                # copy once, exactly as the tracer's reverse sweep does
                g = np.array(g, dtype=np.float64, copy=True)
                grads[slot] = g
                owned[slot] = 1
            out[key] = np.asarray(g, dtype=np.float64).reshape(
                self._shapes[slot])
        return out

    # -- public replay entry point ----------------------------------------
    def replay_step(self, state: Mapping[str, Any],
                    cotangents: Mapping[str, np.ndarray]
                    ) -> dict[str, np.ndarray]:
        """One segment's chained cotangents, without tracing."""
        self._forward(state)
        grads: list = [None] * self.n_slots
        owned = bytearray(self.n_slots)
        start = -1
        seed_bufs = self._seed_bufs
        for key in self.watch:
            slot = self._seed_slots[key]
            if slot is None:
                continue  # untraced next-state entry: its cotangent dies
            seed = np.asarray(cotangents[key], dtype=np.float64)
            if grads[slot] is not None:
                # a second chained key feeding the same slot: the first
                # contribution is owned by now, so accumulate in place
                # (ufunc broadcasting matches the broadcast_to the
                # out-of-place path applied)
                grads[slot] += seed
            else:
                buf = seed_bufs.get(slot)
                if buf is not None:
                    np.copyto(buf, seed)   # broadcast-copy, exact bits
                    grads[slot] = buf
                else:
                    if seed.shape != self._shapes[slot]:
                        seed = np.broadcast_to(seed, self._shapes[slot])
                    grads[slot] = np.array(seed, dtype=np.float64,
                                           copy=True)
                owned[slot] = 1
            if slot > start:
                start = slot
        self._sweep(grads, owned, start)
        return self._collect(grads, owned)



# ---------------------------------------------------------------------------
# the plan cache
# ---------------------------------------------------------------------------

class _Entry:
    """Learning state of one (probes, watch, coarse-signature) key."""

    __slots__ = ("plan", "pending", "learning", "reason", "label")

    def __init__(self, label: str) -> None:
        #: the benchmark the entry learns a step of, for the fallback log
        self.label = label
        self.plan: CompiledPlan | None = None
        #: the first capture and its fine signature, held until a capture
        #: at a different boundary decides the entry
        self.pending: tuple[tuple, CaptureProgram] | None = None
        #: False once the entry has a plan or has given up on one
        self.learning = True
        self.reason = ""


class PlanCache:
    """Compiled step plans of one analysis, with hit/miss telemetry.

    One cache serves one benchmark instance (the analyzer builds a fresh
    cache per :meth:`~repro.core.criticality.CriticalityAnalyzer.analyze`
    call and shares it across that analysis' sweeps and probes); keys are
    (probe count, watch list, structural signature), so plain and
    probe-batched plans never collide.
    """

    def __init__(self, plan_optimize: str = DEFAULT_PLAN_OPTIMIZE) -> None:
        if plan_optimize not in PLAN_OPTIMIZES:
            raise ValueError(f"unknown plan_optimize {plan_optimize!r}; "
                             f"choose from {PLAN_OPTIMIZES}")
        self._plan_optimize = plan_optimize
        self._entries: dict[tuple, _Entry] = {}
        #: replayed step segments
        self.hits = 0
        #: step segments that had to run the tracer (capture or fallback)
        self.misses = 0
        #: plans compiled
        self.compiles = 0
        #: entries poisoned (unsupported op, compile or replay error)
        self.rejects = 0
        #: largest slot count of any compiled plan's arena
        self.arena_slots = 0
        #: largest gradient-buffer footprint estimate of any compiled plan
        self.arena_nbytes = 0
        #: largest liveness-packed footprint estimate of any compiled plan
        self.arena_nbytes_packed = 0
        #: most primitives any compiled plan runs inside fused kernels
        self.fused_ops = 0
        #: most dead instructions eliminated from any compiled plan
        self.eliminated_slots = 0

    def planner(self, bench, watch: Sequence[str], n_probes: int | None,
                trace: Callable[..., Any]) -> "Planner":
        """A :class:`Planner` bound to this cache for one sweep flavour.

        ``trace(state, watch=...)`` is the sweep's step tracer (the plain or
        the probe-batched hook, as ``n_probes`` says).
        """
        return Planner(self, bench, tuple(watch), n_probes, trace)

    def counters(self) -> dict[str, int]:
        """Snapshot of the additive telemetry counters (for delta folds)."""
        return {"hits": self.hits, "misses": self.misses,
                "compiles": self.compiles, "rejects": self.rejects}

    def _entry(self, key: tuple, label: str) -> _Entry:
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(label)
            self._entries[key] = entry
        return entry

    def _reject(self, entry: _Entry, reason: str) -> None:
        entry.plan = None
        entry.pending = None
        entry.learning = False
        entry.reason = reason
        self.rejects += 1
        _LOG.info("replay plan of %s rejected: %s; tracing every segment",
                  entry.label, reason)

    def _compiled(self, entry: _Entry,
                  program: CaptureProgram) -> CompiledPlan | None:
        try:
            plan = CompiledPlan(program, optimize=self._plan_optimize)
        except Exception as exc:  # noqa: BLE001 - compile must never fail a run
            self._reject(entry,
                         f"compile failed: {type(exc).__name__}: {exc}")
            return None
        self.compiles += 1
        self.arena_slots = max(self.arena_slots, plan.n_slots)
        self.arena_nbytes = max(self.arena_nbytes, plan.nbytes_estimate)
        self.arena_nbytes_packed = max(self.arena_nbytes_packed,
                                       plan.nbytes_estimate_packed)
        self.fused_ops = max(self.fused_ops, plan.fused_ops)
        self.eliminated_slots = max(self.eliminated_slots,
                                    plan.eliminated_slots)
        return plan

    def learn(self, entry: _Entry, fine: tuple,
              program: CaptureProgram) -> None:
        """Fold one fresh capture into the entry's learning state."""
        if not program.supported:
            self._reject(entry, program.reason)
            return
        if entry.pending is None:
            entry.pending = (fine, program)
            return
        first_fine, first = entry.pending
        if first_fine == fine:
            return   # the same boundary again: wait for a different one
        entry.pending = None
        entry.learning = False
        if programs_equal(first, program):
            entry.plan = self._compiled(entry, program)
        else:
            # counter-dependent structure: a sweep sees each boundary once,
            # so no plan could replay -- trace every segment (not a reject)
            entry.reason = "step structure depends on the non-float state"
            _LOG.info("replay plan of %s not compiled: %s; tracing every "
                      "segment", entry.label, entry.reason)


class Planner:
    """Capture-or-replay driver for one sweep flavour of one benchmark."""

    def __init__(self, cache: PlanCache, bench, watch: tuple[str, ...],
                 n_probes: int | None, trace: Callable[..., Any]) -> None:
        self.cache = cache
        self.bench = bench
        self.watch = watch
        self.n_probes = n_probes
        self.trace = trace

    def _entry(self, state: Mapping[str, Any]) -> _Entry:
        return self.cache._entry(
            (self.n_probes, self.watch,
             coarse_signature(state, _structure_token(self.bench, state))),
            repr(getattr(self.bench, "name", self.bench)))

    def step(self, state: Mapping[str, Any],
             cotangents: Mapping[str, np.ndarray],
             chain: Callable[..., Any], stats=None
             ) -> dict[str, np.ndarray]:
        """Chain a gradient sweep's cotangents back through the step at
        ``state``.

        A compiled plan replays it (:meth:`CompiledPlan.replay_step`); a
        miss traces the step and chains over the tape with
        ``chain(tape, leaves, next_state, watch, cotangents)``, feeding the
        capture.
        """
        entry = self._entry(state)
        plan = entry.plan
        if plan is not None:
            try:
                result = plan.replay_step(state, cotangents)
            except Exception as exc:  # noqa: BLE001 - fall back, never fail
                self.cache._reject(
                    entry, f"replay failed: {type(exc).__name__}: {exc}")
                warnings.warn(
                    f"replay plan for {entry.label} failed "
                    f"({entry.reason}); falling back to fresh tracing",
                    RuntimeWarning, stacklevel=3)
            else:
                self.cache.hits += 1
                if stats is not None:
                    stats.observe_plan_segment(plan.n_slots,
                                               plan.nbytes_estimate)
                return result
        # a miss traces the step, capturing it while the entry still learns
        self.cache.misses += 1
        tape, leaves, next_state = self.trace(state, watch=list(self.watch))
        if entry.learning:
            self.cache.learn(entry, fine_signature(state), _build_program(
                tape, leaves, self.watch, next_state, self.n_probes))
        if stats is not None:
            stats.observe(tape)
        return chain(tape, leaves, next_state, self.watch, cotangents)
