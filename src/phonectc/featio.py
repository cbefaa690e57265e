"""Binary files: one container for every array file the package writes.

A file is an uncompressed NumPy ``.npz`` archive, so ``np.load`` opens it,
and zip keeps a CRC-32 of every member. ``read_arrays`` checks each CRC,
rejects bytes past the archive's end and names the file in every error.

A feature set, the utterances of one world split, has two members:
``frames``, every utterance's T x dim float32 frames one after another, and
``lengths``, each utterance's T as uint32.
"""

from __future__ import annotations

import io
import zipfile

import numpy as np

# NumPy writes no zip comment, so an archive ends in its 22-byte end record
END_RECORD = b"PK\x05\x06"


def write_arrays(path, arrays):
    """Write the name -> array mapping ``arrays`` to ``path``, under exactly
    that name."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def read_arrays(path, what):
    """Name -> array of every member of the container at ``path``. A file
    that is no such container, is damaged or carries trailing bytes raises
    ValueError naming ``path`` as a ``what`` file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if data[-22:][:4] != END_RECORD:
            raise ValueError("no .npz end record at the end of the file")
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            # reading a member to its end checks its CRC-32
            return {name: archive[name] for name in archive.files}
    # a flipped compression-method bit raises NotImplementedError, a flipped
    # encryption bit RuntimeError
    except (ValueError, EOFError, zipfile.BadZipFile, NotImplementedError,
            RuntimeError) as err:
        raise ValueError(f"{path}: not a valid {what} file: {err}") from err


def write_feature_set(path, matrices):
    write_arrays(path, {
        "frames": (np.concatenate(matrices, dtype=np.float32) if len(matrices)
                   else np.zeros((0, 0), np.float32)),
        "lengths": np.array([len(m) for m in matrices], dtype=np.uint32),
    })


def read_feature_set(path):
    arrays = read_arrays(path, "feature set")
    layout = {name: (a.dtype, a.ndim) for name, a in arrays.items()}
    if (layout != {"frames": (np.float32, 2), "lengths": (np.uint32, 1)}
            or arrays["lengths"].sum() != len(arrays["frames"])):
        raise ValueError(f"{path}: not a feature set: expected 2-D float32 "
                         f"frames and 1-D uint32 lengths that sum to their count")
    ends = np.cumsum(arrays["lengths"], dtype=np.int64)
    frames = arrays["frames"].astype(np.float64)
    return np.split(frames, ends[:-1]) if len(ends) else []
