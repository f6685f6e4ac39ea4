"""Activity (read-set) analysis over a recorded AD tape.

The paper determines criticality with derivatives: an element with
``d(output)/d(element) == 0`` is uncritical.  A cheaper, derivative-free
criterion is *activity*: an element is live if its value is **read directly
from the watched leaf** by a computational or indexing primitive between the
restart point and the end of the run.

This first-touch read set is an approximation of criticality in both
directions.  It over-approximates when a whole extracted block is marked
read even though only a sub-slice of it later feeds the output (MG's
residual), and it under-approximates when a value is only consumed *after*
travelling through a data-movement primitive (an element copied into the
next iteration's state and read there), because movement chains are not
followed.  The AD analysis of :mod:`repro.core.criticality` has neither
problem, which is exactly the paper's argument for using derivatives; this
module exists as the cheap baseline the ablation experiments compare
against.

Because the tape already records every primitive together with its traced
parents (and, for indexing primitives, the index expression -- see
``Node.meta``), the activity analysis is a cheap post-processing pass over a
trace that was recorded anyway.  It also covers the variables reverse-mode AD
cannot handle, namely integer data (loop counters, permutation arrays in IS):
those are classified by :mod:`repro.core.criticality` rules, with this module
supplying the read information when the integer array is traced as float.

Two op categories are distinguished:

``CONSUMING``
    primitives whose use of a parent's elements constitutes a real read of
    the *values* (arithmetic, reductions, matmul, comparisons via ``where``,
    gathers feeding computation).

``MOVEMENT``
    primitives that merely relocate or duplicate data (``copy``,
    ``index_update`` of the untouched complement, ``reshape`` ...).  A pure
    data movement does not, by itself, make an element live; whether the
    moved value is live depends on what later consumes it, which the
    element-level analysis intentionally over-approximates by following
    movements transitively.

The two indexed-write primitives are role-sensitive: which category applies
depends on *which operand* the leaf is.  ``index_update(a, idx, b)`` moves
the complement of ``idx`` out of ``a`` (the updated region of ``a`` is
destroyed) and moves all of ``b`` into the copy.  ``index_add(a, idx, b)``
moves all of ``a`` (every old value survives, summed or not) but **reads**
all of ``b`` -- the addend's values are consumed by the addition, not
relocated, so a leaf appearing as the addend is live.  The primitives record
their traced-operand roles in ``Node.meta["roles"]`` for exactly this
distinction.

Sweep modes
-----------
:func:`segmented_read_masks` runs the gradient sweeps' driver
(:mod:`repro.ad.segmented`) with masks as its carry; every mode gives
**bitwise-identical** masks:

* **monolithic** -- the driver's one-segment walk (``tail=None``):
  :func:`read_masks` over one ``traced_restart`` tape of the whole
  remaining run (O(steps) tape memory, re-traced every run);
* **segmented** -- the output segment traces only the reduction
  (``tail=0``) and per-iteration masks are composed across boundaries by
  :func:`chain_step_masks`: on one tape, reads accumulate on a boundary
  value across iterations *only* when the very same node object passes
  through a step untouched (an identity pass-through in the next-state
  dict), so folding the next boundary's masks into the pass-through
  entries of the current segment reproduces the one-tape result exactly,
  with O(1-iteration) tape memory;
* **plan-replayed** -- a :class:`repro.ad.plan.CompiledPlan` records op
  identity, operand roles and index expressions as plain data, so a step's
  read/movement transfer is derived **once** from the plan structure
  (:func:`plan_transfer`) and replayed for the sweep's other segments with
  no tracing at all, falling back to fresh tracing exactly like the
  gradient path (the output segment is always traced).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .plan import DEFAULT_TRACE_CACHE
from .segmented import SweepStats, _segmented_sweep, _Walk
from .tape import Node, Tape
from .tensor import ADArray

__all__ = [
    "CONSUMING_OPS",
    "MOVEMENT_OPS",
    "SPEC_CONSUMING",
    "SPEC_MOVEMENT",
    "read_mask",
    "read_masks",
    "ActivityResult",
    "masks_from_tape",
    "chain_step_masks",
    "plan_transfer",
    "replay_step_masks",
    "segmented_read_masks",
]


#: primitives that consume the values of their traced parents
CONSUMING_OPS = frozenset({
    "add", "subtract", "multiply", "divide", "power", "maximum", "minimum",
    "mod", "negative", "absolute", "sqrt", "exp", "expm1", "log", "log1p",
    "sin", "cos", "tan", "tanh", "sign", "square", "reciprocal", "clip",
    "sum", "mean", "max", "min", "prod", "where",
    "matmul", "banded_matvec", "ifftn_sampled", "stack", "concatenate",
})

#: primitives that only move data around
MOVEMENT_OPS = frozenset({
    "copy", "reshape", "transpose", "swapaxes", "moveaxis", "broadcast_to",
    "squeeze", "expand_dims", "flip", "roll", "pad_zero", "astype",
    "index_update", "index_add", "leaf",
})

#: indexing primitives: they read only the selected subset of the parent
INDEXING_OPS = frozenset({"getitem", "take"})

# -- capture-spec categories (the plan-side mirror of the op sets) ---------
#
# A compiled plan stores each slot's capture spec, whose first field is the
# *spec kind* -- a slightly different vocabulary from tape op names (every
# unary math op shares kind "unary", reductions "max"/"min" share
# "redminmax", "roll" may lower to "roll_flat", ...).  These two sets
# partition the spec kinds of ``repro.ad.exec._EMITTERS`` exactly as
# CONSUMING_OPS/MOVEMENT_OPS partition op names, so a transfer derived from
# a plan categorises every primitive identically to the tape walk.  Ops
# without a capture spec (``mod``, ``take``) can never appear in a compiled
# plan -- their presence rejects the capture and the sweep falls back to
# tracing, where the tape categories apply.

#: spec kinds whose use of a parent's elements is a real read of the values
SPEC_CONSUMING = frozenset({
    "ewbinary", "minmax", "unary", "negative",
    "sum", "mean", "redminmax", "prod", "where",
    "matmul", "matmul_probe", "banded", "ifftn_sampled", "concat",
    "stack",
})

#: spec kinds that only move data around
SPEC_MOVEMENT = frozenset({
    "copy", "astype", "reshape", "transpose", "swapaxes", "moveaxis",
    "broadcast_to", "squeeze", "expand_dims", "flip", "roll", "roll_flat",
    "pad_zero", "leaf",
})


class ActivityResult:
    """Outcome of the activity analysis for one watched leaf.

    Attributes
    ----------
    name:
        The leaf's watch name (may be ``None``).
    read:
        Boolean mask, ``True`` where the element was directly read by a
        consuming or indexing primitive.
    moved:
        Boolean mask, ``True`` where the element was touched only by data
        movement primitives; informational.
    """

    __slots__ = ("name", "read", "moved")

    def __init__(self, name: str | None, read: np.ndarray, moved: np.ndarray):
        self.name = name
        self.read = read
        self.moved = moved

    @property
    def n_read(self) -> int:
        """Number of elements read at least once."""
        return int(self.read.sum())

    @property
    def n_unread(self) -> int:
        """Number of elements never read (candidate uncritical elements)."""
        return int(self.read.size - self.read.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ActivityResult(name={self.name!r}, read={self.n_read}, "
                f"unread={self.n_unread})")


def _children_by_parent(tape: Tape) -> dict[int, list[Node]]:
    """Map each node index to the list of nodes that consume it."""
    children: dict[int, list[Node]] = {}
    for node in tape.nodes:
        for parent in node.parents:
            children.setdefault(parent.index, []).append(node)
    return children


def read_mask(tape: Tape, leaf: ADArray) -> ActivityResult:
    """Compute the read mask of one watched leaf.

    Parameters
    ----------
    tape:
        The tape on which the program was traced.
    leaf:
        A traced array created by :meth:`Tape.watch`.

    Notes
    -----
    The analysis is a first-touch read set: any direct appearance of the
    leaf in a consuming primitive marks the whole accessed region as read,
    and a ``getitem`` of the leaf marks the selected region as read whether
    or not the extracted slice later reaches the output.  This matches how a
    programmer would reason about "participates in computation" in the
    paper's Section V.  Reads of *copies* of the leaf (values surviving a
    ``copy`` or the untouched complement of an ``index_update``) are not
    chased -- see the module docstring for the consequences.  The only
    movement primitive handled specially is ``index_update`` (the
    copy-on-write behind ``__setitem__``): the overwritten region is neither
    read nor moved, because the old values there are destroyed.
    """
    return _read_mask_with_children(tape, leaf, _children_by_parent(tape))


def _read_mask_with_children(tape: Tape, leaf: ADArray,
                             children: dict[int, list[Node]]) -> ActivityResult:
    """Implementation of :func:`read_mask` with a precomputed children map."""
    if leaf.node is None:
        raise ValueError("leaf is not traced; use Tape.watch")
    shape = leaf.node.shape
    read = np.zeros(shape, dtype=bool)
    moved = np.zeros(shape, dtype=bool)

    leaf_children = children.get(leaf.node.index, [])

    for child in leaf_children:
        if child.op in INDEXING_OPS:
            region = _indexed_region(shape, child)
            read |= region
        elif child.op in CONSUMING_OPS:
            read[...] = True
        elif child.op in ("index_update", "index_add"):
            for role in _leaf_roles(child, leaf):
                if child.op == "index_update":
                    if role == "target":
                        # the leaf is the "old value"; only the complement
                        # of the updated region survives into the copy
                        moved |= ~_indexed_region(shape, child)
                    else:
                        # the update values are relocated verbatim
                        moved[...] = True
                else:  # index_add
                    if role == "target":
                        # every old value survives (summed at the updated
                        # region, untouched elsewhere): pure movement
                        moved[...] = True
                    else:
                        # the addend's *values* are consumed by the
                        # addition -- a real read, not data movement
                        read[...] = True
        elif child.op in MOVEMENT_OPS:
            moved[...] = True
        else:  # unknown primitive: be conservative
            read[...] = True

    return ActivityResult(tape.watched.get(leaf.node.index), read, moved)


def _leaf_roles(child: Node, leaf: ADArray) -> list[str]:
    """Roles (``"target"``/``"value"``) the leaf plays in an indexed write.

    The roles tuple recorded by :func:`repro.ad.ops.index_update` /
    :func:`~repro.ad.ops.index_add` is aligned with the node's traced
    parents; a leaf may appear in several slots (e.g. ``a[idx] += a``
    spelled functionally).  Tapes recorded before roles existed fall back
    to the historical assumption that the leaf is the target.
    """
    meta = child.meta or {}
    roles = meta.get("roles")
    if roles is None:
        return ["target"]
    return [role for role, parent in zip(roles, child.parents)
            if parent is leaf.node]


def read_masks(tape: Tape, leaves: Iterable[ADArray]) -> list[ActivityResult]:
    """Vector form of :func:`read_mask` for several watched leaves.

    The children map is built once and shared, so analysing many checkpoint
    variables over the same (potentially long) tape stays linear in the tape
    length.
    """
    leaves = list(leaves)
    children = _children_by_parent(tape)
    return [_read_mask_with_children(tape, leaf, children) for leaf in leaves]


def _indexed_region(shape: tuple, node: Node) -> np.ndarray:
    """Boolean mask of the elements selected by an indexing node."""
    mask = np.zeros(shape, dtype=bool)
    meta = node.meta or {}
    if node.op == "take":
        idx = meta.get("indices")
        axis = meta.get("axis")
        if idx is None:
            mask[...] = True
            return mask
        if axis is None:
            mask.reshape(-1)[np.asarray(idx).reshape(-1)] = True
        else:
            sl = [slice(None)] * len(shape)
            sl[axis] = np.asarray(idx).reshape(-1)
            mask[tuple(sl)] = True
        return mask
    return _region_from_index(shape, meta.get("index"))


def _region_from_index(shape: tuple, index: Any) -> np.ndarray:
    """Boolean mask of the elements a plain index expression selects.

    Shared by the tape walk (``Node.meta["index"]``) and the plan transfer
    (the capture spec's index field); with an unbatched sweep the two store
    the *same* expression, so both paths select identical regions.
    """
    mask = np.zeros(shape, dtype=bool)
    if index is None:
        mask[...] = True
        return mask
    try:
        mask[index] = True
    except (IndexError, TypeError):  # exotic index expression: be conservative
        mask[...] = True
    return mask


# -- segment chaining (the tape-traced path) --------------------------------

def masks_from_tape(tape: Tape, leaves: Mapping[str, ADArray],
                    chain: Sequence[str]) -> dict[str, "ActivityResult"]:
    """Per-key read/moved masks of one traced segment, keyed by chain key."""
    results = read_masks(tape, [leaves[key] for key in chain])
    return {key: ActivityResult(key, res.read, res.moved)
            for key, res in zip(chain, results)}


def chain_step_masks(tape: Tape, leaves: Mapping[str, ADArray],
                     next_state: Mapping[str, Any], chain: Sequence[str],
                     prev: Mapping[str, "ActivityResult"]
                     ) -> dict[str, "ActivityResult"]:
    """Fold the next boundary's masks through one traced iteration.

    In the monolithic tape a boundary value keeps collecting reads across
    later iterations only when it reaches the next boundary as the *same*
    node object -- an identity pass-through in the next-state dict.  Any
    primitive in between (even a pure ``copy``) produces a new node, and the
    monolithic walk does not chase reads of that derived node back to the
    leaf (the documented movement under-approximation).  So the exact
    cross-boundary composition is: take this segment's own masks, then, for
    every next-state entry that *is* one of this segment's leaves, also
    inherit that entry's masks from the next boundary.
    """
    masks = masks_from_tape(tape, leaves, chain)
    owner = {id(leaves[key].node): key for key in chain
             if leaves[key].node is not None}
    for out_key in chain:
        produced = next_state.get(out_key)
        if isinstance(produced, ADArray) and produced.node is not None:
            in_key = owner.get(id(produced.node))
            if in_key is not None:
                inherited = prev[out_key]
                masks[in_key].read |= inherited.read
                masks[in_key].moved |= inherited.moved
        # a derived or constant next-state entry severs the chain: reads of
        # it in later iterations never reach this boundary's leaf, exactly
        # as on the monolithic tape
    return masks


# -- plan-derived transfer (the replay path) --------------------------------

class PlanActivityTransfer:
    """Static activity transfer of one compiled plan's segment.

    ``read``/``moved`` hold, per chain key, the mask this segment
    contributes on its own; ``passes`` maps each next-state chain key that
    is an identity pass-through of a leaf back to that leaf's key.  Derived
    once per plan (cached on the plan) and applied per replay by two mask
    copies plus the pass-through ORs -- no tracing, no graph walk.
    """

    __slots__ = ("read", "moved", "passes")

    def __init__(self, read: dict[str, np.ndarray],
                 moved: dict[str, np.ndarray],
                 passes: dict[str, str]) -> None:
        self.read = read
        self.moved = moved
        self.passes = passes


def plan_transfer(plan) -> PlanActivityTransfer:
    """Derive (and cache) a plan's activity transfer from its structure.

    Walks the plan's typed IR (:class:`repro.ad.ir.PlanIR`) exactly as
    :func:`read_mask` walks a tape: every instruction whose parents include
    a watched leaf slot dispatches on its spec kind through the same
    category rules the tape walk applies to op names.  The index
    expressions and traced-operand roles needed for
    ``getitem``/``index_update``/``index_add`` are all present in the specs
    as plain data.  The walk covers the **full** instruction list -- dead
    instructions the optimisation passes skip at execution time still
    touched their operands in the traced program, so they contribute to
    the masks identically in ``plan_optimize="fuse"`` and ``"off"``.
    """
    cached = getattr(plan, "_activity_transfer", None)
    if cached is not None:
        return cached

    ir = plan.ir
    owner = {slot: key for key, slot in zip(ir.watch, ir.leaf_slots)}
    read = {key: np.zeros(ir.instrs[slot].shape, dtype=bool)
            for key, slot in zip(ir.watch, ir.leaf_slots)}
    moved = {key: np.zeros(ir.instrs[slot].shape, dtype=bool)
             for key, slot in zip(ir.watch, ir.leaf_slots)}

    for instr in ir.instrs:
        spec, parents = instr.spec, instr.parents
        kind = instr.kind
        if kind == "leaf":
            continue
        for pos, parent in enumerate(parents):
            key = owner.get(parent)
            if key is None:
                continue
            shape = ir.instrs[parent].shape
            if kind == "getitem":
                read[key] |= _region_from_index(shape, spec[1])
            elif kind in ("index_update", "index_add"):
                # spec fields: (kind, idx, a_traced, b_traced, ...); the
                # parents tuple lists the traced operands in (target, value)
                # order, so the role follows from the position -- the same
                # alignment Node.meta["roles"] records for the tape walk
                roles = (("target",) if spec[2] else ()) \
                    + (("value",) if spec[3] else ())
                role = roles[pos]
                if kind == "index_update":
                    if role == "target":
                        moved[key] |= ~_region_from_index(shape, spec[1])
                    else:
                        moved[key][...] = True
                else:  # index_add
                    if role == "target":
                        moved[key][...] = True
                    else:
                        read[key][...] = True
            elif kind in SPEC_CONSUMING:
                read[key][...] = True
            elif kind in SPEC_MOVEMENT:
                moved[key][...] = True
            else:  # unknown spec kind: be conservative, like the tape walk
                read[key][...] = True

    passes: dict[str, str] = {}
    for out_key in ir.watch:
        slot = ir.seed_slots.get(out_key)
        if slot is not None:
            in_key = owner.get(slot)
            if in_key is not None:
                passes[out_key] = in_key

    transfer = PlanActivityTransfer(read, moved, passes)
    plan._activity_transfer = transfer
    return transfer


def replay_step_masks(plan, prev: Mapping[str, "ActivityResult"]
                      ) -> dict[str, "ActivityResult"]:
    """Apply a step plan's transfer: segment masks + pass-through folds."""
    transfer = plan_transfer(plan)
    masks = {key: ActivityResult(key, transfer.read[key].copy(),
                                 transfer.moved[key].copy())
             for key in plan.watch}
    for out_key, in_key in transfer.passes.items():
        inherited = prev[out_key]
        masks[in_key].read |= inherited.read
        masks[in_key].moved |= inherited.moved
    return masks


# -- the segmented sweep ----------------------------------------------------

#: the sweep kind of :func:`segmented_read_masks`: read/moved masks carried
#: back from the output segment's own reads
_ACTIVITY = _Walk(
    lambda tape, leaves, out, chain: masks_from_tape(tape, leaves, chain),
    chain_step_masks,
    lambda plan, state, masks: replay_step_masks(plan, masks),
    SweepStats.observe_activity)


def segmented_read_masks(bench, state: Mapping[str, Any],
                         watch: Sequence[str] | None = None,
                         steps: int | None = None,
                         stats=None,
                         trace_cache: str | None = None,
                         plan_cache=None,
                         plan_optimize: str | None = None,
                         tail: int | None = 0
                         ) -> dict[str, "ActivityResult"]:
    """Activity masks of the restart, one iteration's tape at a time.

    Bitwise what :func:`read_masks` over one ``traced_restart`` tape gives:
    the driver of :func:`repro.ad.segmented.segmented_gradients`, carrying
    masks composed across boundaries by :func:`chain_step_masks` (or a
    compiled step's transfer) instead of cotangents.  Parameters mirror
    ``segmented_gradients`` (``tail=None`` is that one tape); ``stats``
    also collects the ``activity_*`` fields of
    :class:`~repro.ad.segmented.SweepStats`.

    Returns a dict mapping each watched key to its :class:`ActivityResult`.
    Across a boundary only floating-point entries are chained; there a
    watched non-float entry comes back with all-False masks (the analyzer
    routes integer variables to rules, never here).
    """
    watch, base, masks = _segmented_sweep(
        bench, [state], watch, steps, tail, stats,
        DEFAULT_TRACE_CACHE if trace_cache is None else trace_cache,
        plan_cache, plan_optimize, _ACTIVITY)

    def _empty(key: str) -> ActivityResult:
        shape = np.shape(base[key])
        return ActivityResult(key, np.zeros(shape, dtype=bool),
                              np.zeros(shape, dtype=bool))

    return {key: masks[key] if key in masks else _empty(key)
            for key in watch}
