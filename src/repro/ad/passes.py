"""Deterministic optimisation passes over the plan IR.

The middle stage of the capture -> IR -> passes -> executor pipeline.
Given a validated :class:`~repro.ad.ir.PlanIR`, :func:`optimize_ir` derives
a :class:`PlanLayout` -- which instructions actually execute, which runs of
elementwise/unary instructions fuse into single kernels, and how slot
lifetimes pack into a smaller arena.  The passes are pure analyses: they
never reorder or rewrite instructions (slot numbering is sacred, see
:mod:`repro.ad.ir`), so the executor's program remains bit-for-bit the
captured program.

Passes (``plan_optimize="fuse"``, the default):

**Dead-slot elimination.**  An instruction is live when it is an ancestor
of a gradient root (a chained seed slot) or of a watched leaf.  Dead
instructions are simply not executed; they receive and contribute no
gradients in the reverse sweep (they are not ancestors of any seed), so
dropping them cannot change a single bit of any gradient or mask.

**Elementwise/unary chain fusion.**  A maximal run of consecutive *live*
fusable instructions (``ewbinary`` / ``minmax`` / ``unary`` /
``negative``) where each interior member is consumed exactly once -- by
the next member -- and is not protected (not a leaf or seed slot)
collapses into one generated kernel.  Bitwise safety is
positional: because the members occupy consecutive live slots, the unfused
reverse sweep evaluates exactly the group's VJPs between the last and
first member with no interloper, so the fused VJP can replicate its
evaluation and accumulation order literally (see
:mod:`repro.ad.exec`).

**Liveness-driven arena packing.**  Slot lifetimes -- definition to last
use, extended through views and pinned open by VJP-retained operands --
are coalesced with a linear-scan over non-overlapping intervals of equal
geometry.  The packed footprint is reported as
``nbytes_estimate_packed`` (same 8-bytes-per-element meter as the
existing ``nbytes_estimate``, so the two are directly comparable) and the
executor maps provably-disjoint fused outputs onto shared preallocated
buffers.

``plan_optimize="off"`` disables all three (the pre-refactor behaviour):
every instruction runs unfused, nothing is packed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .ir import PlanIR

__all__ = ["PLAN_OPTIMIZES", "DEFAULT_PLAN_OPTIMIZE", "PlanLayout",
           "optimize_ir"]

#: recognised plan-optimisation policies
PLAN_OPTIMIZES = ("fuse", "off")

#: the policy used when none is requested
DEFAULT_PLAN_OPTIMIZE = "fuse"

#: instruction kinds the chain-fusion pass may place in a group
FUSABLE_KINDS = frozenset({"ewbinary", "minmax", "unary", "negative"})

#: kinds whose VJP closure retains the forward *operand* values (so the
#: operand's storage stays live until the reverse sweep)
RETAINS_INPUT_KINDS = frozenset({"ewbinary", "unary", "prod", "redminmax",
                                 "matmul", "matmul_probe"})

#: kinds whose VJP retains their *own output* value
RETAINS_OWN_OUTPUT = frozenset({"unary", "redminmax", "prod"})

#: kinds whose interpreter kernel returns a numpy view of the parent's
#: storage (their output owns no bytes; their uses extend the parent's
#: lifetime); ``getitem`` joins conditionally (basic indexing)
_VIEW_KINDS = frozenset({"reshape", "transpose", "swapaxes", "moveaxis",
                         "squeeze", "expand_dims", "flip"})


def _is_view(instr) -> bool:
    """May the instruction's output alias its parent's storage?"""
    if instr.kind in _VIEW_KINDS:
        return True
    if instr.kind == "getitem":
        # basic indexing yields a view; ascontiguousarray may return the
        # input unchanged, so even contig getitem can alias -- treat both
        # as views for lifetime purposes (the conservative direction)
        _, _idx, advanced, _contig, _in_shape = instr.spec
        return not advanced
    return False


def _owns_storage(instr) -> bool:
    """Does the instruction's output own fresh bytes (packed-metric view)?"""
    if instr.kind in _VIEW_KINDS:
        return False
    if instr.kind == "getitem":
        _, _idx, advanced, contig, _in_shape = instr.spec
        return bool(advanced or contig)
    return True


class PlanLayout:
    """The passes' verdict on one plan IR.

    Attributes
    ----------
    live:
        Per-slot execution flag (dead instructions are skipped).
    groups:
        Fusion groups as ascending slot lists; all but the last member of
        each group are *interior* (their values exist only inside the
        fused kernel).
    fused_ops:
        Total primitive instructions executing inside fused kernels.
    eliminated_slots:
        Non-leaf instructions removed by dead-slot elimination.
    nbytes_packed:
        Liveness-packed arena footprint estimate (8 bytes/element, the
        same meter as the unpacked ``nbytes_estimate``).
    buffer_of:
        Fused-output slot -> shared-pool id, for outputs whose lifetimes
        the packing pass proved disjoint (same shape and dtype); the
        executor allocates one buffer per pool.
    optimized:
        True when the pass pipeline ran (``plan_optimize="fuse"``); the
        executor may then swap singleton kernels for statically
        shape-specialised ones (see ``repro.ad.exec._SPECIALIZED``).
    """

    __slots__ = ("live", "groups", "fused_ops", "eliminated_slots",
                 "nbytes_packed", "buffer_of", "optimized")

    def __init__(self, live: list[bool], groups: list[list[int]],
                 fused_ops: int, eliminated_slots: int, nbytes_packed: int,
                 buffer_of: dict[int, Any], optimized: bool = False) -> None:
        self.live = live
        self.groups = groups
        self.fused_ops = fused_ops
        self.eliminated_slots = eliminated_slots
        self.nbytes_packed = nbytes_packed
        self.buffer_of = buffer_of
        self.optimized = optimized


def _size8(instr) -> int:
    """Slot footprint under the plan meter (8 bytes per element)."""
    return int(np.prod(instr.shape, dtype=np.int64)) * 8


def _protected_slots(ir: PlanIR) -> set[int]:
    """Gradient roots and escape points of ``ir``: leaves and seed slots.

    They must stay materialised in the arena and may never be fused away
    as interiors.
    """
    protected = set(ir.leaf_slots)
    for slot in ir.seed_slots.values():
        if slot is not None:
            protected.add(slot)
    return protected


def _liveness(ir: PlanIR, roots: set[int]) -> list[bool]:
    """Ancestor closure of ``roots`` over the instruction DAG."""
    live = [False] * ir.n_slots
    for slot in roots:
        live[slot] = True
    for instr in reversed(ir.instrs):
        if live[instr.slot]:
            for p in instr.parents:
                live[p] = True
    return live


def _fusion_groups(ir: PlanIR, live: list[bool],
                   protected: set[int]) -> list[list[int]]:
    """Maximal fusable runs of consecutive live instructions."""
    consumers: list[set[int]] = [set() for _ in range(ir.n_slots)]
    for instr in ir.instrs:
        if live[instr.slot] and instr.kind != "leaf":
            for p in instr.parents:
                consumers[p].add(instr.slot)

    groups: list[list[int]] = []
    chain: list[int] = []

    def flush() -> None:
        if len(chain) >= 2:
            groups.append(list(chain))
        chain.clear()

    for instr in ir.instrs:
        slot = instr.slot
        if not live[slot] or instr.kind == "leaf":
            continue
        fusable = instr.kind in FUSABLE_KINDS
        if chain:
            prev = chain[-1]
            if (fusable and prev in instr.parents
                    and consumers[prev] == {slot}
                    and prev not in protected):
                chain.append(slot)
                continue
            flush()
        if fusable:
            chain.append(slot)
    flush()
    return groups


def _lifetimes(ir: PlanIR, live: list[bool], protected: set[int]
               ) -> tuple[list[int], list[bool]]:
    """Per-slot (last forward use, reverse-retained) with view extension.

    ``last_use[s]`` is the highest slot whose forward execution may read
    ``s``'s storage (through any chain of views); ``retained[s]`` means a
    VJP closure keeps the storage alive until the reverse sweep finishes,
    so its lifetime is effectively unbounded.
    """
    n = ir.n_slots
    last_use = list(range(n))
    retained = [False] * n
    for instr in ir.instrs:
        slot = instr.slot
        if not live[slot] or instr.kind == "leaf":
            continue
        if instr.kind in RETAINS_OWN_OUTPUT:
            retained[slot] = True
        input_retained = instr.kind in RETAINS_INPUT_KINDS
        for p in instr.parents:
            last_use[p] = max(last_use[p], slot)
            if input_retained:
                retained[p] = True
    # views share their parent's storage: a use (or retention) of the view
    # is a use of the parent; descending order resolves view chains
    for instr in reversed(ir.instrs):
        slot = instr.slot
        if not live[slot] or instr.kind == "leaf" or not _is_view(instr):
            continue
        root = instr.parents[0]
        last_use[root] = max(last_use[root], last_use[slot])
        if retained[slot]:
            retained[root] = True
    for slot in protected:
        retained[slot] = True
    return last_use, retained


def _packed_nbytes(ir: PlanIR, live: list[bool], protected: set[int],
                   last_use: list[int], retained: list[bool]) -> int:
    """Linear-scan packed footprint (the ``plan_arena_nbytes_packed`` meter).

    Dead slots cost nothing; views share their parent's storage; pinned
    slots (leaves, protected, VJP-retained) keep a dedicated buffer; the
    remaining materialised slots coalesce by equal element count over
    non-overlapping [def, last-use] intervals.
    """
    pinned_bytes = 0
    transient: list[tuple[int, int, int]] = []  # (def, last_use, nelems)
    for instr in ir.instrs:
        slot = instr.slot
        if not live[slot]:
            continue
        if instr.kind == "leaf":
            pinned_bytes += _size8(instr)
            continue
        if not _owns_storage(instr):
            continue
        if retained[slot] or slot in protected:
            pinned_bytes += _size8(instr)
            continue
        transient.append((slot, last_use[slot],
                          int(np.prod(instr.shape, dtype=np.int64))))

    packed = 0
    free: dict[int, list[int]] = {}   # nelems -> expiry slots of free bufs
    for start, stop, nelems in transient:  # already in def order
        expiries = free.setdefault(nelems, [])
        reused = False
        for i, expiry in enumerate(expiries):
            if expiry < start:
                expiries[i] = stop
                reused = True
                break
        if not reused:
            expiries.append(stop)
            packed += nelems * 8
    return pinned_bytes + packed


def _shared_buffers(ir: PlanIR, groups: list[list[int]],
                    protected: set[int], last_use: list[int],
                    retained: list[bool]) -> dict[int, Any]:
    """Shared-pool assignment for fused outputs with disjoint lifetimes."""
    candidates = [g[-1] for g in groups
                  if not retained[g[-1]] and g[-1] not in protected]
    candidates.sort()
    buffer_of: dict[int, Any] = {}
    pools: dict[tuple, list[list[Any]]] = {}  # key -> [[pool_id, expiry]]
    serial = 0
    for slot in candidates:
        instr = ir.instrs[slot]
        key = (tuple(instr.shape), instr.dtype)
        entries = pools.setdefault(key, [])
        for entry in entries:
            if entry[1] < slot:
                entry[1] = last_use[slot]
                buffer_of[slot] = entry[0]
                break
        else:
            pool_id = (key, serial)
            serial += 1
            entries.append([pool_id, last_use[slot]])
            buffer_of[slot] = pool_id
    return buffer_of


def optimize_ir(ir: PlanIR, optimize: str = DEFAULT_PLAN_OPTIMIZE
                ) -> PlanLayout:
    """Run the deterministic pass pipeline over ``ir``."""
    if optimize not in PLAN_OPTIMIZES:
        raise ValueError(f"unknown plan_optimize {optimize!r}; "
                         f"choose from {PLAN_OPTIMIZES}")
    n = ir.n_slots
    unpacked = sum(_size8(instr) for instr in ir.instrs)
    if optimize == "off":
        return PlanLayout(live=[True] * n, groups=[], fused_ops=0,
                          eliminated_slots=0, nbytes_packed=unpacked,
                          buffer_of={}, optimized=False)

    protected = _protected_slots(ir)
    live = _liveness(ir, protected)
    eliminated = sum(1 for instr in ir.instrs
                     if not live[instr.slot] and instr.kind != "leaf")
    groups = _fusion_groups(ir, live, protected)
    last_use, retained = _lifetimes(ir, live, protected)
    nbytes_packed = _packed_nbytes(ir, live, protected, last_use, retained)
    buffer_of = _shared_buffers(ir, groups, protected, last_use, retained)
    return PlanLayout(live=live, groups=groups,
                      fused_ops=sum(len(g) for g in groups),
                      eliminated_slots=eliminated,
                      nbytes_packed=min(nbytes_packed, unpacked),
                      buffer_of=buffer_of, optimized=True)
