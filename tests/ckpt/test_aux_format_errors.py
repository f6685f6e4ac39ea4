"""Bad auxiliary input fails loudly: ``read_checkpoint`` raises
:class:`CheckpointFormatError` naming the file and the variable."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.ckpt.auxfile import AUX_MAGIC, write_aux_file
from repro.ckpt.format import CheckpointFormatError
from repro.ckpt.reader import read_checkpoint
from repro.ckpt.writer import write_full_checkpoint, write_pruned_checkpoint
from repro.core.criticality import VariableCriticality
from repro.core.variables import CheckpointVariable


class DummyBench:
    """Minimal stand-in implementing only what the writer consumes."""

    name = "DUMMY"

    class params:  # noqa: D106 - minimal stand-in
        problem_class = "T"

    def step_variable(self):
        return "it"


@pytest.fixture()
def written(tmp_path, rng):
    """A pruned checkpoint whose variable ``v`` stores 100 of 160 elements."""
    mask = np.ones((10, 16), dtype=bool)
    mask[:, 10:] = False
    state = {"v": rng.random((10, 16)), "it": 3}
    crit = {"v": VariableCriticality(CheckpointVariable("v", (10, 16)),
                                     mask)}
    out = write_pruned_checkpoint(tmp_path / "p.ckpt", DummyBench(), state,
                                  crit)
    assert out.mode == "pruned" and out.aux_path is not None
    return out


def _rejects(written, records, reason):
    write_aux_file(written.aux_path, {"v": np.array(records)})
    pattern = f"{re.escape(str(written.aux_path))}.*'v'.*{reason}"
    with pytest.raises(CheckpointFormatError, match=pattern):
        read_checkpoint(written.path)


def test_the_untouched_file_reads(written):
    assert read_checkpoint(written.path).masks["v"].sum() == 100


def test_unsorted_records_rejected(written):
    _rejects(written, [[50, 50, 50, 1], [0, 50, 50, 1]], "unsorted")


def test_overlapping_records_rejected(written):
    _rejects(written, [[0, 60, 60, 1], [40, 40, 40, 1]], "overlap")


def test_records_past_the_array_rejected(written):
    _rejects(written, [[100, 100, 100, 1]], "past the array")


def test_negative_field_rejected(written):
    _rejects(written, [[-1, 100, 100, 1]], "negative")


def test_stride_shorter_than_length_rejected(written):
    _rejects(written, [[0, 10, 5, 10]], "stride")


def test_element_count_mismatch_rejected(written):
    _rejects(written, [[0, 99, 99, 1]], "cover 99 of 160.*stores 100")


def test_old_aux_magic_rejected(written):
    data = written.aux_path.read_bytes()
    written.aux_path.write_bytes(b"RPAUX001" + data[len(AUX_MAGIC):])
    pattern = f"{re.escape(str(written.aux_path))}.*magic"
    with pytest.raises(CheckpointFormatError, match=pattern):
        read_checkpoint(written.path)


def test_old_format_version_rejected(tmp_path):
    path = tmp_path / "old.ckpt"
    write_full_checkpoint(path, DummyBench(), {"v": np.zeros(3), "it": 1})
    data = path.read_bytes()
    assert data.count(b'"version": 2') == 1
    path.write_bytes(data.replace(b'"version": 2', b'"version": 1'))
    pattern = f"{re.escape(str(path))}.*version 1"
    with pytest.raises(CheckpointFormatError, match=pattern):
        read_checkpoint(path)
