"""Protobuf/TFRecord-like serialization for training volumes.

Paper §III-E.1: "the input to this system is translated from NetCDF files
to a binary representation in a protocol buffer file (protobuf) format.
This file representation is used to structure the data and quickly access
it in a serialized form."

We implement a real binary record format (not a mock): length-prefixed
records with a CRC-style checksum, each record a typed header plus raw
little-endian array bytes.  Round-tripping is exact, and the writer is
the unit of work the distributed-preprocessing extension parallelizes.
"""

from __future__ import annotations

import dataclasses
import io
import struct
import typing as _t
import zlib

import numpy as np

from repro.errors import MLError

__all__ = ["VolumeExample", "TFRecordWriter", "TFRecordReader"]

_MAGIC = b"RPRT"  # repro-record
_HEADER = struct.Struct("<4sI")  # magic, payload length
_CRC = struct.Struct("<I")


@dataclasses.dataclass
class VolumeExample:
    """One serialized training example: a volume + its label mask."""

    volume: np.ndarray
    label: np.ndarray
    meta: dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.volume = np.ascontiguousarray(self.volume)
        self.label = np.ascontiguousarray(self.label)
        if self.volume.shape != self.label.shape:
            raise MLError(
                f"volume {self.volume.shape} and label {self.label.shape} differ"
            )


def _pack_array(arr: np.ndarray) -> bytes:
    dtype = arr.dtype.str.encode()
    shape = arr.shape
    head = struct.pack("<B", len(dtype)) + dtype
    head += struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}q", *shape)
    return head + arr.tobytes()


def _unpack_array(buf: memoryview, offset: int) -> tuple[np.ndarray, int]:
    (dlen,) = struct.unpack_from("<B", buf, offset)
    offset += 1
    dtype = bytes(buf[offset : offset + dlen]).decode()
    offset += dlen
    (ndim,) = struct.unpack_from("<B", buf, offset)
    offset += 1
    shape = struct.unpack_from(f"<{ndim}q", buf, offset)
    offset += 8 * ndim
    count = int(np.prod(shape)) if ndim else 1
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset).reshape(shape)
    offset += arr.nbytes
    return arr.copy(), offset


def _pack_meta(meta: dict[str, object]) -> bytes:
    items = []
    for key, value in sorted(meta.items()):
        k = str(key).encode()
        v = repr(value).encode()
        items.append(struct.pack("<HH", len(k), len(v)) + k + v)
    return struct.pack("<H", len(items)) + b"".join(items)


def _unpack_meta(buf: memoryview, offset: int) -> tuple[dict[str, object], int]:
    import ast

    (count,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    meta: dict[str, object] = {}
    for _ in range(count):
        klen, vlen = struct.unpack_from("<HH", buf, offset)
        offset += 4
        key = bytes(buf[offset : offset + klen]).decode()
        offset += klen
        raw = bytes(buf[offset : offset + vlen]).decode()
        offset += vlen
        meta[key] = ast.literal_eval(raw)
    return meta, offset


class TFRecordWriter:
    """Write :class:`VolumeExample` records to an in-memory byte stream."""

    def __init__(self):
        self.stream = io.BytesIO()
        self.records_written = 0
        self.bytes_written = 0

    def write(self, example: VolumeExample) -> int:
        """Append one record; returns its on-wire size in bytes."""
        payload = (
            _pack_array(example.volume)
            + _pack_array(example.label)
            + _pack_meta(example.meta)
        )
        record = _HEADER.pack(_MAGIC, len(payload)) + payload
        record += _CRC.pack(zlib.crc32(payload))
        self.stream.write(record)
        self.records_written += 1
        self.bytes_written += len(record)
        return len(record)

    def getvalue(self) -> bytes:
        """All bytes written so far."""
        return self.stream.getvalue()


class TFRecordReader:
    """Read records back, verifying checksums."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)

    def __iter__(self) -> _t.Iterator[VolumeExample]:
        offset = 0
        n = len(self.data)
        while offset < n:
            magic, length = _HEADER.unpack_from(self.data, offset)
            if magic != _MAGIC:
                raise MLError(f"bad record magic at offset {offset}")
            offset += _HEADER.size
            payload = self.data[offset : offset + length]
            offset += length
            (crc,) = _CRC.unpack_from(self.data, offset)
            offset += _CRC.size
            if zlib.crc32(payload) != crc:
                raise MLError(f"checksum mismatch at offset {offset}")
            pos = 0
            volume, pos = _unpack_array(payload, pos)
            label, pos = _unpack_array(payload, pos)
            meta, pos = _unpack_meta(payload, pos)
            yield VolumeExample(volume=volume, label=label, meta=meta)

    def read_all(self) -> list[VolumeExample]:
        return list(self)
