"""Binary feature-set files: the utterances of one world split.

Magic ``FTS0``, uint32 count, then ``count`` records of uint32 T, uint32
dim and T x dim row-major little-endian float32 data. The reader rejects a
file that ends early or carries bytes past its last record.
"""

from __future__ import annotations

import struct

import numpy as np

SET_MAGIC = b"FTS0"


class BinaryReader:
    """Reads one binary file front to back in exact lengths: a read past the
    end, or bytes left over at ``expect_end``, raises ValueError naming the
    file and the byte offset."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.pos = 0

    def read(self, n):
        end = self.pos + n
        if end > len(self.data):
            # n itself may be too long to print: it can come from damaged data
            raise ValueError(
                f"{self.path}: truncated: a record at byte {self.pos} runs past "
                f"the end at byte {len(self.data)}"
            )
        self.pos = end
        return self.data[end - n : end]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def expect_end(self):
        if self.pos != len(self.data):
            raise ValueError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes after "
                f"byte {self.pos}"
            )


def _read_record(reader):
    t, dim = reader.unpack("<II")
    data = np.frombuffer(reader.read(4 * t * dim), dtype="<f4")
    return data.reshape(t, dim).astype(np.float64)


def write_feature_set(path, matrices):
    with open(path, "wb") as fh:
        fh.write(SET_MAGIC)
        fh.write(struct.pack("<I", len(matrices)))
        for feats in matrices:
            feats = np.ascontiguousarray(feats, dtype="<f4")
            fh.write(struct.pack("<II", *feats.shape))
            fh.write(feats.tobytes())


def read_feature_set(path):
    reader = BinaryReader(path)
    if reader.read(4) != SET_MAGIC:
        raise ValueError(f"{path}: not a feature set file")
    (count,) = reader.unpack("<I")
    out = [_read_record(reader) for _ in range(count)]
    reader.expect_end()
    return out
