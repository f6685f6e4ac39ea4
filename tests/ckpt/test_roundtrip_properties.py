"""Property-based tests of the strided region records and of bitwise
round trips through pruned, incremental and mixed-precision checkpoints."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.ckpt.incremental import (apply_incremental,
                                    read_incremental_checkpoint,
                                    write_incremental_checkpoint)
from repro.ckpt.precision import (read_mixed_precision_checkpoint,
                                  write_mixed_precision_checkpoint)
from repro.ckpt.reader import read_checkpoint
from repro.ckpt.writer import write_full_checkpoint, write_pruned_checkpoint
from repro.core.criticality import VariableCriticality
from repro.core.impact import (TIER_DOUBLE, TIER_DROP, TIER_DTYPES,
                               TIER_HALF, TIER_SINGLE, PrecisionPlan)
from repro.core.regions import (decode_records, encode_mask, encode_records,
                                prune_records)
from repro.core.variables import CheckpointVariable, VariableKind


class DummyBench:
    """Minimal stand-in implementing only what the writers consume."""

    name = "DUMMY"

    class params:  # noqa: D106 - minimal stand-in
        problem_class = "T"

    def step_variable(self):
        return "it"


@st.composite
def progression_masks(draw):
    """Masks made of a few random arithmetic progressions of equal runs."""
    size = draw(st.integers(1, 300))
    mask = np.zeros(size, dtype=bool)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, size - 1))
        length = draw(st.integers(1, 8))
        stride = draw(st.integers(length, length + 12))
        count = draw(st.integers(1, 30))
        for k in range(count):
            mask[start + k * stride:start + k * stride + length] = True
    return mask


masks = st.one_of(npst.arrays(np.bool_, st.integers(0, 300)),
                  progression_masks())
float_values = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def state_and_mask(draw):
    mask = draw(masks.filter(lambda m: m.size > 0))
    values = draw(npst.arrays(np.float64, mask.shape, elements=float_values))
    imag = draw(npst.arrays(np.float64, mask.shape, elements=float_values))
    state = {"v": values, "y_re": values[::-1].copy(), "y_im": imag,
             "it": 3}
    return state, mask


def _criticality(mask):
    return {
        "v": VariableCriticality(CheckpointVariable("v", mask.shape), mask),
        "y": VariableCriticality(
            CheckpointVariable("y", mask.shape, VariableKind.COMPLEX_PAIR),
            mask[::-1].copy()),
    }


@given(mask=masks)
@settings(max_examples=300, deadline=None)
def test_records_decode_to_the_mask(mask):
    records = encode_records(mask)
    np.testing.assert_array_equal(decode_records(records, mask.size), mask)
    assert len(records) <= len(encode_mask(mask))
    assert int((records[:, 1] * records[:, 3]).sum()) == int(mask.sum())


@given(mask=progression_masks())
@settings(max_examples=200, deadline=None)
def test_a_single_progression_is_one_record(mask):
    runs = encode_mask(mask)
    lengths = {len(run) for run in runs}
    gaps = {b.start - a.start for a, b in zip(runs, runs[1:])}
    if len(lengths) == 1 and len(gaps) <= 1:
        assert len(encode_records(mask)) == 1


@given(data=state_and_mask(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_pruned_checkpoint_round_trips_bitwise(data, seed):
    state, mask = data
    criticality = _criticality(mask)
    rng = np.random.default_rng(seed)
    base = {key: rng.random(mask.shape) for key in ("v", "y_re", "y_im")}
    with tempfile.TemporaryDirectory() as tmp:
        written = write_pruned_checkpoint(Path(tmp) / "p.ckpt", DummyBench(),
                                          state, criticality)
        full = write_full_checkpoint(Path(tmp) / "f.ckpt", DummyBench(),
                                     state)
        assert written.total_nbytes <= full.nbytes
        restored = read_checkpoint(written.path).materialize(base)
    for key, var in (("v", "v"), ("y_re", "y"), ("y_im", "y")):
        crit_mask = criticality[var].mask
        kept = restored[key][crit_mask]
        assert kept.tobytes() == state[key][crit_mask].tobytes()
        element_nbytes = 8 if var == "v" else 16
        if written.mode == "full" \
                or prune_records(crit_mask, element_nbytes) is None:
            assert restored[key].tobytes() == state[key].tobytes()
        else:
            assert restored[key][~crit_mask].tobytes() \
                == base[key][~crit_mask].tobytes()
    assert restored["it"] == 3


@given(data=state_and_mask(), use_criticality=st.booleans())
@settings(max_examples=100, deadline=None)
def test_incremental_checkpoint_round_trips_bitwise(data, use_criticality):
    current, mask = data
    previous = {key: np.where(mask, 0.5, value) if key != "it" else 2
                for key, value in current.items()}
    criticality = _criticality(np.ones_like(mask)) if use_criticality \
        else None
    with tempfile.TemporaryDirectory() as tmp:
        write_incremental_checkpoint(Path(tmp) / "d.ckpt", DummyBench(),
                                     current, previous, criticality,
                                     step=3, base_step=2)
        delta = read_incremental_checkpoint(Path(tmp) / "d.ckpt")
    restored = apply_incremental(previous, delta)
    for key in ("v", "y_re", "y_im"):
        assert restored[key].tobytes() == current[key].tobytes()
    assert restored["it"] == 3


@given(data=state_and_mask(),
       tiers=st.lists(st.sampled_from([TIER_DROP, TIER_HALF, TIER_SINGLE,
                                       TIER_DOUBLE]), min_size=1,
                      max_size=4))
@settings(max_examples=100, deadline=None)
def test_mixed_precision_checkpoint_round_trips_per_tier(data, tiers):
    state, mask = data
    tier_map = np.asarray(tiers, dtype=np.int8)[
        np.arange(mask.size) % len(tiers)]
    tier_map[~mask] = TIER_DROP
    plans = {"y": PrecisionPlan(
        CheckpointVariable("y", mask.shape, VariableKind.COMPLEX_PAIR),
        tier_map)}
    base = {key: np.full(mask.shape, -7.0) for key in ("y_re", "y_im")}
    with tempfile.TemporaryDirectory() as tmp:
        written = write_mixed_precision_checkpoint(
            Path(tmp) / "m.ckpt", DummyBench(), state, plans)
        full = write_full_checkpoint(Path(tmp) / "f.ckpt", DummyBench(),
                                     state)
        assert written.total_nbytes <= full.nbytes
        loaded = read_mixed_precision_checkpoint(Path(tmp) / "m.ckpt")
    restored = loaded.materialize(base)
    for key in ("y_re", "y_im"):
        if written.mode == "full":
            # too small to pay for the tier records: stored verbatim
            assert restored[key].tobytes() == state[key].tobytes()
            continue
        assert restored[key][tier_map == TIER_DROP].tobytes() \
            == base[key][tier_map == TIER_DROP].tobytes()
        for tier in (TIER_HALF, TIER_SINGLE, TIER_DOUBLE):
            sel = tier_map == tier
            with np.errstate(over="ignore"):
                expected = state[key][sel].astype(TIER_DTYPES[tier]) \
                    .astype(np.float64)
            assert restored[key][sel].tobytes() == expected.tobytes()
    assert restored["v"].tobytes() == state["v"].tobytes()
