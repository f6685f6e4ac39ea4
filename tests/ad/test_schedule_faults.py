"""Injected spill-file faults mid-sweep.

The cold-path robustness of the "spill" snapshot schedule (truncated /
missing / mislabelled files probed directly on :class:`SpillSnapshots`) is
covered in ``test_schedule.py``.  Here the faults strike *mid-sweep*: the
reverse pass has already consumed several boundaries cleanly when a spill
file is truncated, garbled or deleted under it.  The sweep must surface
:class:`~repro.ckpt.format.CheckpointFormatError` -- never deserialise
garbage into state -- and still tear its scratch directory down.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.ad.schedule import SpillSnapshots
from repro.ad.segmented import segmented_gradients
from repro.ckpt.format import CheckpointFormatError
from repro.core.analysis import scrutinize
from repro.experiments.faults import corrupt_file
from repro.npb import registry
from tests.ad.test_schedule import SquareMapBench

STEPS = 6


def _truncate(path: Path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:max(4, len(raw) // 3)])


def _garble(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF  # first magic byte: the container is no longer one
    path.write_bytes(bytes(raw))


def _delete(path: Path) -> None:
    path.unlink()


class _Saboteur:
    """Damages the spill file of one boundary just before its fetch."""

    def __init__(self, monkeypatch, damage, *, boundary=None, nth=None):
        assert (boundary is None) != (nth is None)
        self.damage = damage
        self.boundary = boundary
        self.nth = nth
        self.clean_fetches = 0
        self.struck = False
        original = SpillSnapshots.fetch
        saboteur = self

        def fetch(self, k):
            strike = not saboteur.struck and (
                k == saboteur.boundary if saboteur.nth is None
                else saboteur.clean_fetches + 1 == saboteur.nth)
            if strike:
                saboteur.struck = True
                self.flush()  # join the async writer before touching disk
                saboteur.damage(Path(self._files.get(k) or self._path(k)))
            else:
                saboteur.clean_fetches += 1
            return original(self, k)

        monkeypatch.setattr(SpillSnapshots, "fetch", fetch)


@pytest.mark.parametrize("damage,match", [
    (_truncate, "truncat|byte|header"),
    (_garble, "bad magic"),
    (_delete, "missing"),
], ids=["truncated", "garbled", "deleted"])
class TestMidSweepSpillFaults:
    def _run(self, tmp_path):
        bench = SquareMapBench(steps=STEPS)
        return segmented_gradients(bench, bench.initial_state(),
                                   watch=["x"], snapshot_schedule="spill",
                                   spill_dir=tmp_path)

    def test_fault_surfaces_as_format_error(self, tmp_path, monkeypatch,
                                            damage, match):
        saboteur = _Saboteur(monkeypatch, damage, boundary=2)
        with pytest.raises(CheckpointFormatError, match=match):
            self._run(tmp_path)
        assert saboteur.struck
        # the fault struck mid-sweep: boundaries steps..3 were consumed
        # cleanly before boundary 2 blew up
        assert saboteur.clean_fetches == STEPS - 2

    def test_scratch_directory_removed_on_fault(self, tmp_path, monkeypatch,
                                                damage, match):
        _Saboteur(monkeypatch, damage, boundary=2)
        with pytest.raises(CheckpointFormatError):
            self._run(tmp_path)
        assert not any(tmp_path.glob("repro-spill-*")), \
            "spill scratch directory leaked past the failed sweep"

    def test_clean_rerun_recovers(self, tmp_path, monkeypatch, damage,
                                  match):
        # a failed sweep must leave nothing behind that poisons the next one
        saboteur = _Saboteur(monkeypatch, damage, boundary=2)
        with pytest.raises(CheckpointFormatError):
            self._run(tmp_path)
        assert saboteur.struck  # the strike is one-shot; rerun is clean
        bench = SquareMapBench(steps=STEPS)
        ref = segmented_gradients(bench, bench.initial_state(), watch=["x"])
        got = self._run(tmp_path)
        np.testing.assert_array_equal(ref["x"], got["x"])


class TestChaosCorruptionOnSpill:
    """The chaos harness's file corrupter vs the container format."""

    def test_both_damage_kinds_surface_as_format_error(self, tmp_path,
                                                       monkeypatch):
        # corrupt_file picks truncation or garbling per token; walk tokens
        # until the sweep has been killed by both shapes
        kinds: set[str] = set()
        token = 0
        while kinds != {"truncated", "garbled"}:
            assert token < 32, "token walk failed to hit both damage kinds"
            record: list[str] = []
            with pytest.MonkeyPatch.context() as patcher:
                _Saboteur(
                    patcher,
                    lambda path, t=token: record.append(
                        corrupt_file(path, f"tok{t}", seed=0)),
                    boundary=2)
                with pytest.raises(CheckpointFormatError):
                    bench = SquareMapBench(steps=STEPS)
                    segmented_gradients(bench, bench.initial_state(),
                                        watch=["x"],
                                        snapshot_schedule="spill",
                                        spill_dir=tmp_path)
            kinds.update(record)
            token += 1


class TestMidSweepFaultThroughScrutinize:
    """The format error propagates through the full analysis stack."""

    def test_scrutinize_surfaces_spill_fault(self, tmp_path, monkeypatch,
                                             sweep_options):
        bench = registry.create("CG", "T")
        saboteur = _Saboteur(monkeypatch, _truncate, nth=2)
        sweep_options(snapshot_schedule="spill", spill_dir=tmp_path)
        with pytest.raises(CheckpointFormatError):
            scrutinize(bench, step=1, sweep="segmented")
        assert saboteur.struck and saboteur.clean_fetches >= 1
