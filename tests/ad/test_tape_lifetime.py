"""Sweeps free their tapes by reference counting alone.

A tape node holds its parent nodes, a VJP and the spec of the rule that
recorded it, and the rules close over plain arrays only, never over a
traced array (which would hold the tape back).  So no recorded tape sits
in a reference cycle: each one is freed the moment the sweep drops it,
with the cyclic garbage collector switched off.  These tests hold a weak
reference to every tape one call records -- from step 0, so the gradient
walks also compile and replay a plan -- and require all of them to be
dead when the call returns.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.ad.activity import segmented_read_masks
from repro.ad.probes import segmented_batched_gradients
from repro.ad.reverse import grad
from repro.ad.segmented import float_state_keys, segmented_gradients
from repro.ad.tape import Tape
from repro.npb import registry

ALL_PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")


@pytest.fixture
def tape_refs(monkeypatch):
    """Weak references to every tape created while the test runs, with the
    cyclic collector off."""
    refs: list[weakref.ref] = []
    init = Tape.__init__

    def tracked(self) -> None:
        init(self)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Tape, "__init__", tracked)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _perturbed(state, keys):
    return {key: np.asarray(val) * 1.001 if key in keys else val
            for key, val in state.items()}


def _calls(bench, state):
    """The sweep entry points, each as a call that drops its result."""
    keys = float_state_keys(state)
    calls = {
        "segmented_gradients(tail=0)":
            lambda: segmented_gradients(bench, state, tail=0),
        "segmented_gradients(tail=None)":
            lambda: segmented_gradients(bench, state, tail=None),
        "segmented_batched_gradients":
            lambda: segmented_batched_gradients(
                bench, [state, _perturbed(state, keys)]),
        "segmented_read_masks":
            lambda: segmented_read_masks(bench, state),
    }
    if keys:
        key = keys[0]
        calls["reverse.grad"] = lambda: grad(
            lambda x: bench.restart_output({**state, key: x}, 1))(state[key])
    return calls


@pytest.mark.parametrize("name", ALL_PORTS)
def test_every_tape_of_a_sweep_is_freed_by_refcount(name, tape_refs):
    bench = registry.create(name, "T")
    state = bench.checkpoint_state(0)
    for label, call in _calls(bench, state).items():
        tape_refs.clear()
        call()
        assert tape_refs, f"{name} {label}: recorded no tape"
        alive = sum(ref() is not None for ref in tape_refs)
        assert not alive, (f"{name} {label}: {alive} of {len(tape_refs)} "
                           f"tapes outlived the call")
