"""Typed instruction IR for compiled replay plans.

The middle layer of the capture -> IR -> passes -> executor pipeline
(:mod:`repro.ad.plan` captures, :mod:`repro.ad.passes` optimises,
:mod:`repro.ad.exec` runs).  A :class:`PlanIR` is a *typed, validated*
description of one captured step: a flat list of
:class:`Instr` in topological (slot) order plus the program-level wiring
(leaf slots and the slots that seed the chained cotangents).

Keeping the IR as plain data -- no closures, no numpy scalars hidden in
tuples -- is what allows the downstream layers to stay honest:

* the optimisation passes can reason about producers/consumers without
  executing anything;
* the executor builds its kernels from the same validated instructions
  the passes analysed.

Slot numbering is **identical** to the captured tape's node numbering and
is never renumbered by any pass: the dead-slot analysis keys off original
slot indices, so eliminating an instruction removes it from the
executable list while every surviving reference stays stable.
"""

from __future__ import annotations

__all__ = ["Instr", "PlanIR", "lower_program", "validate_ir",
           "IRValidationError"]


class IRValidationError(ValueError):
    """A structurally inconsistent :class:`PlanIR`."""


class Instr:
    """One typed instruction: ``slot <- kind(parents...; spec)``.

    Attributes
    ----------
    slot:
        Output slot (== the captured tape node index).
    kind:
        Spec kind (``"ewbinary"``, ``"leaf"``, ``"reshape"``, ...); the key
        into the rule table :data:`repro.ad.ops.RULES`.
    parents:
        Input slots, in the operand order the rule expects.
    spec:
        The full captured spec tuple (kind first), carrying constants and
        geometry decisions.  Opaque to the IR, typed by ``kind``.
    shape, dtype:
        Output geometry (dtype as a numpy dtype str, e.g. ``"<f8"``).
    """

    __slots__ = ("slot", "kind", "parents", "spec", "shape", "dtype")

    def __init__(self, slot: int, kind: str, parents: tuple[int, ...],
                 spec: tuple, shape: tuple[int, ...], dtype: str) -> None:
        self.slot = slot
        self.kind = kind
        self.parents = parents
        self.spec = spec
        self.shape = shape
        self.dtype = dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Instr({self.slot}, {self.kind!r}, parents={self.parents}, "
                f"shape={self.shape})")


class PlanIR:
    """One lowered step program: typed instructions plus program wiring.

    Attributes
    ----------
    n_probes:
        Probe-batch count of the captured trace (``None`` = unbatched).
    watch:
        The chained state keys, in sweep order.
    leaf_slots:
        ``watch[i]`` feeds ``leaf_slots[i]``.
    instrs:
        All instructions in slot order, **including** leaves and dead
        slots; ``instrs[i].slot == i`` always holds.
    seed_slots:
        Chain key -> producing slot (``None`` = untraced next-state entry).
    """

    __slots__ = ("n_probes", "watch", "leaf_slots", "instrs", "seed_slots")

    def __init__(self, n_probes: int | None, watch: tuple[str, ...],
                 leaf_slots: tuple[int, ...], instrs: list[Instr],
                 seed_slots: dict[str, int | None]) -> None:
        self.n_probes = n_probes
        self.watch = watch
        self.leaf_slots = leaf_slots
        self.instrs = instrs
        self.seed_slots = seed_slots

    @property
    def n_slots(self) -> int:
        """Total slot count (== captured tape length)."""
        return len(self.instrs)

    def consumers(self) -> list[list[int]]:
        """Per-slot list of consuming instruction slots (in slot order)."""
        uses: list[list[int]] = [[] for _ in range(self.n_slots)]
        for instr in self.instrs:
            for p in instr.parents:
                uses[p].append(instr.slot)
        return uses


def lower_program(program) -> PlanIR:
    """Lower one agreed :class:`~repro.ad.plan.CaptureProgram` to IR."""
    instrs = [Instr(slot, node.spec[0], node.parents, node.spec,
                    node.shape, node.dtype)
              for slot, node in enumerate(program.nodes)]
    seed_slots: dict[str, int | None] = {}
    for key in program.watch:
        tag, payload = program.out_entries.get(key, ("const", None))
        seed_slots[key] = payload if tag == "slot" else None
    ir = PlanIR(program.n_probes, tuple(program.watch),
                tuple(program.leaf_slots), instrs, seed_slots)
    validate_ir(ir)
    return ir


def validate_ir(ir: PlanIR) -> None:
    """Raise :class:`IRValidationError` on structural inconsistencies.

    Checks exactly the invariants the passes and executors rely on: dense
    slot numbering, topological parent order (single assignment comes for
    free from density), leaf integrity, and in-range program wiring.
    """
    n = ir.n_slots
    if len(ir.watch) != len(ir.leaf_slots):
        raise IRValidationError(
            f"{len(ir.watch)} watch keys but {len(ir.leaf_slots)} leaf slots")
    leaf_set = set(ir.leaf_slots)
    for i, instr in enumerate(ir.instrs):
        if instr.slot != i:
            raise IRValidationError(
                f"instruction {i} declares slot {instr.slot} "
                f"(slots must be dense and ordered)")
        if instr.spec[0] != instr.kind:
            raise IRValidationError(
                f"slot {i}: kind {instr.kind!r} disagrees with spec tag "
                f"{instr.spec[0]!r}")
        if instr.kind == "leaf":
            if instr.parents:
                raise IRValidationError(f"leaf slot {i} has parents")
        elif i in leaf_set:
            raise IRValidationError(
                f"slot {i} is a watched leaf but has kind {instr.kind!r}")
        for p in instr.parents:
            if not 0 <= p < i:
                raise IRValidationError(
                    f"slot {i} consumes slot {p}, violating topological "
                    f"order")
    for slot in ir.leaf_slots:
        if not 0 <= slot < n:
            raise IRValidationError(f"leaf slot {slot} out of range")
    for key, slot in ir.seed_slots.items():
        if slot is not None and not 0 <= slot < n:
            raise IRValidationError(
                f"seed slot {slot} of chain key {key!r} out of range")

