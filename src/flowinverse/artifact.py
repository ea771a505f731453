"""The one binary layout of every saved artifact: datasets and checkpoints.

Layout (little-endian): 4-byte magic, u32 format version, u32 header length,
a JSON header, u32 array count, then per array its u16 name length, UTF-8
name, u8 rank, one u32 per dimension and the row-major float32 values. The
magic tells the kind of artifact and the header holds everything that is not
an array, so each kind only maps its objects to a header and named arrays.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np


class FormatError(ValueError):
    """A file that is not a well-formed artifact of the expected kind."""


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temporary file in ``path``'s directory that replaces ``path``
    when the ``with`` block ends; if the block raises, the temporary file is
    removed and an earlier ``path`` is left untouched."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write(path, magic: bytes, version: int, header: dict, arrays: dict):
    """Write ``header`` and the ``arrays`` as float32, in their order, to
    ``path``, atomically (see :func:`atomic_open`)."""
    blob = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path) as f:
        f.write(magic + struct.pack("<II", version, len(blob)) + blob)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            a = np.ascontiguousarray(arr, dtype="<f4")
            nb = name.encode()
            f.write(struct.pack(f"<H{len(nb)}sB{a.ndim}I", len(nb), nb, a.ndim, *a.shape))
            f.write(a.tobytes())


def read(path, magic: bytes, version: int, error=FormatError, keys=()):
    """(header, arrays) of an artifact written by :func:`write`.

    Raises ``error``, a :class:`FormatError` subclass, on a wrong magic or
    version, a header that is not a JSON object holding every one of
    ``keys``, a truncated file (checked before each read, so no shape
    allocates more than the file holds), an array name that is not UTF-8
    or repeats an earlier one, or bytes after the last array.
    """
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size

        def take(n, what):
            if n > end - f.tell():
                raise error(f"{path}: truncated while reading {what}: {n} bytes, "
                            f"{end - f.tell()} left")
            return f.read(n)

        def unpack(fmt, what):
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))

        found = f.read(len(magic))
        if found != magic:
            raise error(f"{path}: bad magic {found!r}, expected {magic!r}")
        (found_version,) = unpack("<I", "version")
        if found_version != version:
            raise error(f"{path}: version mismatch: file has {found_version}, "
                        f"reader supports {version}")
        (size,) = unpack("<I", "header length")
        blob = take(size, "header")
        try:
            header = json.loads(blob)
        except ValueError as err:          # also a UnicodeDecodeError
            raise error(f"{path}: header is not JSON: {err}") from err
        if not isinstance(header, dict) or not set(keys) <= set(header):
            raise error(f"{path}: header is not a JSON object with keys {list(keys)}")
        arrays = {}
        (count,) = unpack("<I", "array count")
        for _ in range(count):
            (size,) = unpack("<H", "name length")
            try:
                name = take(size, "array name").decode()
            except UnicodeDecodeError as err:
                raise error(f"{path}: array name is not UTF-8: {err}") from err
            if name in arrays:
                raise error(f"{path}: duplicate array name '{name}'")
            (rank,) = unpack("<B", f"rank of '{name}'")
            dims = unpack(f"<{rank}I", f"shape of '{name}'")
            raw = take(4 * math.prod(dims), f"data of '{name}'")     # no int64 wrap
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if f.read(1):
            raise error(f"{path}: trailing bytes after the last array")
    return header, arrays
