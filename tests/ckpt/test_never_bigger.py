"""A pruned checkpoint is never bigger than the full one.

Pruning stores a variable's critical elements plus strided region records
only when that is smaller than the variable itself, and a checkpoint that
prunes nothing is written as the full checkpoint, without an auxiliary
file.
"""

from __future__ import annotations

import pytest

from repro.ckpt.writer import write_full_checkpoint, write_pruned_checkpoint
from repro.core.regions import encode_records

PORTS = ("BT", "SP", "MG", "CG", "LU", "FT", "EP", "IS")


def _write_both(runner, port, directory):
    bench = runner.benchmark(port)
    result = runner.result(port)
    full = write_full_checkpoint(directory / "full.ckpt", bench,
                                 result.state, step=result.step)
    pruned = write_pruned_checkpoint(directory / "pruned.ckpt", bench,
                                     result.state, result.variables,
                                     step=result.step)
    return full, pruned


@pytest.mark.parametrize("port", PORTS)
def test_pruned_plus_aux_never_exceeds_full(runner_t, tmp_path, port):
    full, pruned = _write_both(runner_t, port, tmp_path)
    assert pruned.nbytes + pruned.aux_nbytes <= full.nbytes


@pytest.mark.parametrize("port", PORTS)
def test_model_matches_what_the_writer_prunes(runner_t, tmp_path, port):
    """The storage model's break-even agrees with the file: a port the model
    prunes nothing of is written whole, the others save bytes."""
    full, pruned = _write_both(runner_t, port, tmp_path)
    result = runner_t.result(port)
    if result.aux_nbytes == result.full_nbytes - result.pruned_nbytes:
        assert pruned.mode == "full"
    else:
        assert pruned.nbytes + pruned.aux_nbytes < full.nbytes


@pytest.mark.parametrize("port", ("EP", "IS", "CG"))
def test_nothing_worth_pruning_writes_the_full_checkpoint(runner_t, tmp_path,
                                                          port):
    # a stale auxiliary file from an earlier write at the same path goes too
    (tmp_path / "pruned.ckpt.aux").write_bytes(b"stale")
    full, pruned = _write_both(runner_t, port, tmp_path)
    assert pruned.path.read_bytes() == full.path.read_bytes()
    assert pruned.mode == "full"
    assert pruned.aux_path is None and pruned.aux_nbytes == 0
    assert list(tmp_path.glob("*.aux")) == []


@pytest.mark.parametrize("port, variable, n_records", [
    ("FT", "y", 1), ("MG", "r", 33), ("BT", "u", 12), ("SP", "u", 12),
    ("LU", "u", 94)])
def test_class_s_record_counts(runner_s, port, variable, n_records):
    mask = runner_s.result(port).variables[variable].mask
    assert len(encode_records(mask)) == n_records
