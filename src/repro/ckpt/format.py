"""On-disk container format of the homemade checkpoint library.

A checkpoint file is a self-describing binary container::

    +------------------+----------------------+------------------------+
    | magic (8 bytes)  | header length (u64)  | JSON header | payloads |
    +------------------+----------------------+------------------------+

The JSON header carries the benchmark metadata (name, problem class, step,
mode: ``full``, ``pruned``, ``incremental`` or ``mixed``) and one
:class:`RecordSpec` per record: its key, dtype, logical shape, whether it
holds only some elements ("pruned") and where its payload bytes live in the
file.  Payloads are raw little-endian array bytes -- the full C-order array,
or the kept elements in C order.  A pruned record names where its elements
sit: a region list of the auxiliary file (the paper's start/end regions as
strided records, :mod:`repro.ckpt.auxfile`) or a tier-map record of this
file; the two keys of a dcomplex pair name the same one.  Which variable
gets which records is the codec's choice (:mod:`repro.ckpt.codec`).

The format is deliberately simple: everything needed to reason about storage
(Table III) is a byte count of this file plus the auxiliary file.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointFormatError",
    "RecordSpec",
    "CheckpointHeader",
    "write_container",
    "container_nbytes",
    "read_container",
    "read_header",
]


#: file magic of checkpoint containers
MAGIC = b"RPCKPT01"

#: bumped whenever the header schema changes (2: strided region records
#: shared per variable)
FORMAT_VERSION = 2

_LENGTH_STRUCT = struct.Struct("<Q")


class CheckpointFormatError(RuntimeError):
    """Raised when a checkpoint file is truncated, corrupt or mismatched."""


@dataclass(frozen=True)
class RecordSpec:
    """Description of one state-dict entry stored in a checkpoint file."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    pruned: bool
    offset: int
    nbytes: int
    n_stored: int
    #: region list or tier map of a record holding only some elements
    #: (``None``: the region list named ``key``)
    regions: str | None = None

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        data = {
            "key": self.key,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "pruned": self.pruned,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "n_stored": self.n_stored,
        }
        if self.regions is not None:
            data["regions"] = self.regions
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RecordSpec":
        """Inverse of :meth:`to_json`."""
        return cls(key=str(data["key"]), dtype=str(data["dtype"]),
                   shape=tuple(int(s) for s in data["shape"]),
                   pruned=bool(data["pruned"]), offset=int(data["offset"]),
                   nbytes=int(data["nbytes"]),
                   n_stored=int(data["n_stored"]),
                   regions=data.get("regions"))

    @property
    def region_list(self) -> str:
        """Name of the region list or tier map a pruned record uses."""
        return self.key if self.regions is None else self.regions

    @property
    def numpy_dtype(self) -> np.dtype:
        """The record's numpy dtype."""
        return np.dtype(self.dtype)

    @property
    def n_elements(self) -> int:
        """Logical element count of the full array."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


@dataclass
class CheckpointHeader:
    """Metadata block of a checkpoint container."""

    benchmark: str
    problem_class: str
    step: int
    mode: str  # "full", "pruned", "incremental" or "mixed"
    records: list[RecordSpec] = field(default_factory=list)
    version: int = FORMAT_VERSION
    extra: dict[str, Any] = field(default_factory=dict)

    def record(self, key: str) -> RecordSpec:
        """Look up a record by state-dict key."""
        for rec in self.records:
            if rec.key == key:
                return rec
        raise KeyError(f"checkpoint has no record for state key {key!r}")

    @property
    def keys(self) -> list[str]:
        """State-dict keys stored in the checkpoint, in file order."""
        return [rec.key for rec in self.records]

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "version": self.version,
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "step": self.step,
            "mode": self.mode,
            "records": [rec.to_json() for rec in self.records],
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CheckpointHeader":
        """Inverse of :meth:`to_json`."""
        version = int(data.get("version", -1))
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"unsupported checkpoint format version {version} "
                f"(this library writes version {FORMAT_VERSION})")
        return cls(
            benchmark=str(data["benchmark"]),
            problem_class=str(data["problem_class"]),
            step=int(data["step"]),
            mode=str(data["mode"]),
            records=[RecordSpec.from_json(r) for r in data["records"]],
            version=version,
            extra=dict(data.get("extra", {})),
        )


def _prefix(header: CheckpointHeader, payloads: Mapping[str, Any]) -> bytes:
    """Magic, length and JSON header, with record offsets and sizes
    (re)computed from ``payloads``."""
    missing = [rec.key for rec in header.records if rec.key not in payloads]
    if missing:
        raise ValueError(f"payloads missing for records: {missing}")
    cursor = 0
    fixed_records: list[RecordSpec] = []
    for rec in header.records:
        size = memoryview(payloads[rec.key]).nbytes
        fixed_records.append(replace(rec, offset=cursor, nbytes=size))
        cursor += size
    header.records = fixed_records
    header_bytes = json.dumps(header.to_json(), sort_keys=True).encode("utf-8")
    return MAGIC + _LENGTH_STRUCT.pack(len(header_bytes)) + header_bytes


def container_nbytes(header: CheckpointHeader,
                     payloads: Mapping[str, Any]) -> int:
    """Size :func:`write_container` would give the file, without writing."""
    return len(_prefix(header, payloads)) \
        + sum(memoryview(payloads[rec.key]).nbytes for rec in header.records)


def write_container(path: str | Path, header: CheckpointHeader,
                    payloads: Mapping[str, Any]) -> int:
    """Write a checkpoint container and return its total byte size.

    ``payloads`` maps state keys to raw bytes or C-contiguous arrays
    (written without a copy); record offsets in ``header`` are (re)computed
    here so callers only need to fill in sizes-agnostic metadata.
    """
    path = Path(path)
    prefix = _prefix(header, payloads)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(prefix)
        for rec in header.records:
            fh.write(payloads[rec.key])
    return path.stat().st_size


def read_header(path: str | Path) -> tuple[CheckpointHeader, int]:
    """Read only the header; returns ``(header, payload_start_offset)``."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointFormatError(
                f"{path} is not a checkpoint file (bad magic {magic!r})")
        (header_len,) = _LENGTH_STRUCT.unpack(fh.read(_LENGTH_STRUCT.size))
        header_bytes = fh.read(header_len)
        if len(header_bytes) != header_len:
            raise CheckpointFormatError(f"{path} is truncated in the header")
        try:
            header = CheckpointHeader.from_json(json.loads(header_bytes))
        except CheckpointFormatError as exc:
            raise CheckpointFormatError(f"{path}: {exc}") from None
        payload_start = len(MAGIC) + _LENGTH_STRUCT.size + header_len
    return header, payload_start


def read_container(path: str | Path
                   ) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    """Read a checkpoint container into flat per-key arrays.

    Verbatim records come back with their logical shape, the others as
    the flat array of stored values -- reassembly into the full array is
    the reader's job (:mod:`repro.ckpt.reader`), because it needs the
    auxiliary region file or the tier maps.
    """
    header, payload_start = read_header(path)
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        for rec in header.records:
            fh.seek(payload_start + rec.offset)
            blob = bytearray(rec.nbytes)
            if fh.readinto(blob) != rec.nbytes:
                raise CheckpointFormatError(
                    f"{path} is truncated in record {rec.key!r}")
            flat = np.frombuffer(blob, dtype=rec.numpy_dtype)
            if flat.size != rec.n_stored:
                raise CheckpointFormatError(
                    f"{path}: record {rec.key!r} holds {flat.size} values "
                    f"but its header says {rec.n_stored}")
            if rec.pruned:
                arrays[rec.key] = flat
            else:
                arrays[rec.key] = flat.reshape(rec.shape)
    return header, arrays
