"""Tests of the checkpoint container and auxiliary-file formats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import auxfile, format as fmt


def _sample_header() -> fmt.CheckpointHeader:
    records = [
        fmt.RecordSpec("u", "<f8", (2, 3), False, 0, 48, 6),
        fmt.RecordSpec("step", "<i8", (), False, 0, 8, 1),
    ]
    return fmt.CheckpointHeader("BT", "T", 4, "full", records)


class TestRecordSpec:
    def test_json_roundtrip(self):
        rec = fmt.RecordSpec("u", "<f8", (2, 3), True, 16, 24, 3)
        assert fmt.RecordSpec.from_json(rec.to_json()) == rec

    def test_numpy_dtype_and_element_count(self):
        rec = fmt.RecordSpec("u", "<f8", (2, 3), False, 0, 48, 6)
        assert rec.numpy_dtype == np.dtype("<f8")
        assert rec.n_elements == 6
        assert fmt.RecordSpec("s", "<i8", (), False, 0, 8, 1).n_elements == 1


class TestHeader:
    def test_json_roundtrip(self):
        header = _sample_header()
        clone = fmt.CheckpointHeader.from_json(header.to_json())
        assert clone.benchmark == "BT"
        assert clone.records == header.records

    def test_version_mismatch_rejected(self):
        payload = _sample_header().to_json()
        payload["version"] = 99
        with pytest.raises(fmt.CheckpointFormatError, match="version"):
            fmt.CheckpointHeader.from_json(payload)

    def test_record_lookup(self):
        header = _sample_header()
        assert header.record("step").dtype == "<i8"
        assert header.keys == ["u", "step"]
        with pytest.raises(KeyError):
            header.record("nope")


class TestContainerRoundtrip:
    def test_write_and_read_back(self, tmp_path):
        header = _sample_header()
        u = np.arange(6.0).reshape(2, 3)
        step = np.array(4, dtype=np.int64)
        path = tmp_path / "test.ckpt"
        nbytes = fmt.write_container(path, header,
                                     {"u": u.tobytes(), "step": step.tobytes()})
        assert nbytes == path.stat().st_size
        read_header, arrays = fmt.read_container(path)
        assert read_header.benchmark == "BT"
        np.testing.assert_array_equal(arrays["u"], u)
        assert arrays["step"].reshape(()) == 4

    def test_offsets_are_recomputed(self, tmp_path):
        header = _sample_header()
        path = tmp_path / "test.ckpt"
        fmt.write_container(path, header, {"u": b"x" * 48, "step": b"y" * 8})
        read_header, _ = fmt.read_header(path)
        assert read_header.record("u").offset == 0
        assert read_header.record("step").offset == 48

    def test_missing_payload_rejected(self, tmp_path):
        header = _sample_header()
        with pytest.raises(ValueError, match="missing"):
            fmt.write_container(tmp_path / "x.ckpt", header, {"u": b""})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(fmt.CheckpointFormatError, match="magic"):
            fmt.read_header(path)

    def test_truncated_payload_rejected(self, tmp_path):
        header = _sample_header()
        path = tmp_path / "trunc.ckpt"
        fmt.write_container(path, header, {"u": b"x" * 48, "step": b"y" * 8})
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(fmt.CheckpointFormatError, match="truncated"):
            fmt.read_container(path)


class TestAuxFile:
    def test_roundtrip(self, tmp_path):
        lists = {"u": np.array([[0, 10, 10, 1], [20, 5, 8, 3]]),
                 "r": np.array([[5, 1, 1, 1]])}
        path = tmp_path / "a.aux"
        nbytes = auxfile.write_aux_file(path, lists)
        assert nbytes == path.stat().st_size
        read = auxfile.read_aux_file(path)
        assert list(read) == ["u", "r"]
        for name, records in lists.items():
            np.testing.assert_array_equal(read[name], records)

    def test_empty_region_lists(self, tmp_path):
        path = tmp_path / "empty.aux"
        auxfile.write_aux_file(path, {"u": np.zeros((0, 4), dtype=np.int64)})
        assert auxfile.read_aux_file(path)["u"].shape == (0, 4)

    def test_records_cost_32_bytes_each(self, tmp_path):
        one = auxfile.encode_aux({"u": np.array([[0, 1, 1, 1]])})
        three = auxfile.encode_aux({"u": np.array([[0, 1, 2, 1],
                                                   [4, 1, 2, 1],
                                                   [9, 1, 1, 1]])})
        assert len(three) - len(one) == 2 * 32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.aux"
        path.write_bytes(b"NOTANAUX" + b"\0" * 16)
        with pytest.raises(fmt.CheckpointFormatError, match="magic"):
            auxfile.read_aux_file(path)

    def test_truncated_records_rejected(self, tmp_path):
        path = tmp_path / "t.aux"
        auxfile.write_aux_file(path, {"u": np.array([[0, 10, 10, 1]])})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(fmt.CheckpointFormatError, match="truncated"):
            auxfile.read_aux_file(path)
