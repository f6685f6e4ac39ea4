"""The auxiliary region file of checkpoints that store region records.

The paper (Section III-B): *"We save the location of critical elements in an
auxiliary file ... The auxiliary file only records the start and end
locations of the region of continuous critical elements."*

This module stores a strict generalisation of those start/end records: every
record is ``(start, length, stride, count)`` -- ``count`` runs of ``length``
critical elements whose starts are ``stride`` apart over the flattened
array -- so a regular pattern such as a padding plane in every row is one
record, and a plain start/end run is a record with ``count == 1`` (see
:func:`repro.core.regions.encode_records`).  Records are kept per *region
list*, one per variable the codec (:mod:`repro.ckpt.codec`) stores as
region records; the ``_re``/``_im`` keys of a dcomplex pair share their
variable's list.  A checkpoint that stores no region records has no
auxiliary file.  Layout::

    +-----------------+---------------------+-------------+---------------+
    | magic (8 bytes) | header length (u64) | JSON header | int64 records |
    +-----------------+---------------------+-------------+---------------+

The header gives each list's name and record count; the payload is the
concatenation of all lists' records as little-endian ``int64`` quadruples
in header order.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .format import CheckpointFormatError

__all__ = [
    "AUX_MAGIC",
    "encode_aux",
    "write_aux_file",
    "read_aux_file",
]


#: file magic of auxiliary region files (002: strided records per variable)
AUX_MAGIC = b"RPAUX002"

_LENGTH_STRUCT = struct.Struct("<Q")


def encode_aux(records_by_name: Mapping[str, np.ndarray]) -> bytes:
    """The bytes of the auxiliary file holding ``records_by_name``."""
    arrays = {name: np.asarray(records, dtype="<i8").reshape(-1, 4)
              for name, records in records_by_name.items()}
    header = {"lists": [{"name": name, "n_records": len(records)}
                        for name, records in arrays.items()]}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join([AUX_MAGIC, _LENGTH_STRUCT.pack(len(header_bytes)),
                     header_bytes,
                     *(records.tobytes() for records in arrays.values())])


def write_aux_file(path: str | Path,
                   records_by_name: Mapping[str, np.ndarray]) -> int:
    """Write the auxiliary file and return its total byte size."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_aux(records_by_name))
    return path.stat().st_size


def read_aux_file(path: str | Path) -> dict[str, np.ndarray]:
    """Read an auxiliary file back into ``(n, 4)`` record arrays per list.

    The records are not checked against any array here; see
    :func:`repro.ckpt.codec.record_masks`.
    """
    path = Path(path)
    data = path.read_bytes()
    magic = data[:len(AUX_MAGIC)]
    if magic != AUX_MAGIC:
        raise CheckpointFormatError(
            f"{path} is not an auxiliary region file of this format (magic "
            f"{magic!r}, expected {AUX_MAGIC!r})")
    cursor = len(AUX_MAGIC) + _LENGTH_STRUCT.size
    if len(data) < cursor:
        raise CheckpointFormatError(f"{path} is truncated in the header")
    (header_len,) = _LENGTH_STRUCT.unpack(data[len(AUX_MAGIC):cursor])
    header_bytes = data[cursor:cursor + header_len]
    if len(header_bytes) != header_len:
        raise CheckpointFormatError(f"{path} is truncated in the header")
    try:
        lists = json.loads(header_bytes)["lists"]
        counts = [int(entry["n_records"]) for entry in lists]
        if min(counts, default=0) < 0:
            raise ValueError("negative record count")
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(
            f"{path} has a malformed header: {exc}") from None
    payload = data[cursor + header_len:]
    if len(payload) < 32 * sum(counts):
        raise CheckpointFormatError(f"{path} is truncated in the records")
    flat = np.frombuffer(payload, dtype="<i8", count=4 * sum(counts))
    pieces = np.split(flat.reshape(-1, 4), np.cumsum(counts)[:-1])
    return {str(entry["name"]): records.astype(np.int64)
            for entry, records in zip(lists, pieces)}
