"""No checkpoint writer stores more than its alternatives.

The codec stores a variable's kept elements plus strided region records
only when that is smaller than the variable itself, and a tier map only
when it beats both; each writer then writes the smallest of its candidate
checkpoints.  So, file plus auxiliary file, a pruned checkpoint is never
bigger than the full one, a mixed-precision one never bigger than the
pruned one, and an incremental delta never bigger than the same delta
with every entry stored verbatim.  A checkpoint that prunes nothing is
written as the full checkpoint, without an auxiliary file.
"""

from __future__ import annotations

import pytest

from repro.ckpt.codec import as_arrays, encode_checkpoint
from repro.ckpt.incremental import write_incremental_checkpoint
from repro.ckpt.writer import (header_meta, write_full_checkpoint,
                               write_pruned_checkpoint)
from repro.core.regions import encode_records
from repro.experiments import precision

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


@pytest.fixture(scope="module")
def precision_report(runner_t, tmp_path_factory):
    """The class-T ``repro precision`` report (tuned and aggressive plans)."""
    return precision.run(runner_t,
                         directory=tmp_path_factory.mktemp("precision"))


@pytest.mark.parametrize("port", precision.DEFAULT_BENCHMARKS)
def test_mixed_never_exceeds_pruned(precision_report, port):
    row = precision_report.data[port]
    assert row["verified"]
    assert row["mixed_nbytes"] <= row["pruned_nbytes"] <= row["full_nbytes"]
    assert row["aggressive_nbytes"] <= row["full_nbytes"]


@pytest.mark.parametrize("criticality", [False, True],
                         ids=["changed", "changed-and-critical"])
@pytest.mark.parametrize("port", PORTS)
def test_delta_never_exceeds_the_verbatim_delta(runner_t, tmp_path, port,
                                                criticality):
    bench = runner_t.benchmark(port)
    result = runner_t.result(port)
    step = result.step
    previous = bench.checkpoint_state(step - 1)
    delta = write_incremental_checkpoint(
        tmp_path / "delta.ckpt", bench, result.state, previous,
        criticality=result.variables if criticality else None, step=step,
        base_step=step - 1)
    verbatim = encode_checkpoint(
        header_meta(bench, result.state, step), "incremental",
        as_arrays(result.state), extra={"base_step": step - 1})
    assert delta.mode == "incremental"
    assert delta.total_nbytes <= verbatim.nbytes()
