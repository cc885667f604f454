"""Flat binary checkpoint container.

Byte layout (all integers little-endian):

    offset 0   8 bytes   magic b"LBCKPT01" (version header)
    offset 8   uint32    entry count
    then per entry:
        uint16            name length in bytes
        bytes             UTF-8 name
        uint8             ndim
        uint32 * ndim     dimension sizes
        float64 * prod    payload, little-endian C order

Entries are written in insertion order and read back into an ordered dict,
so identical state always serializes to identical bytes. A pipeline's entry
names and order come from its ``parts()`` walk (``layers.Module``).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct

import numpy as np

MAGIC = b"LBCKPT01"

__all__ = ["MAGIC", "atomic_write", "save_checkpoint", "load_checkpoint"]

_tmp_ids = itertools.count()   # process-wide, so no two calls share a temporary name


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open a temporary file next to ``path`` for writing.

    When the block exits cleanly the file replaces ``path``; when it raises,
    the temporary file is removed and any earlier file at ``path`` is left
    untouched, so a reader never sees a half-written file. Each call writes
    its own temporary file, so of several writers of one path the last wins.
    """
    while True:
        tmp = f"{os.fspath(path)}.{os.getpid()}.{next(_tmp_ids)}.tmp"
        try:
            fh = open(tmp, mode.replace("w", "x"))
            break
        except FileExistsError:     # left by an earlier process
            continue
        except OSError as exc:      # name the caller's path, not the temporary one
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, arrays):
    """Write a mapping of name -> float array to ``path``, via ``atomic_write``."""
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"parameter name too long: {name!r}")
            a = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", a.ndim))
            if a.ndim:
                fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(a.tobytes())


def load_checkpoint(path):
    """Read a checkpoint back as an ordered name -> float64 array dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    off = 8

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    (count,) = take("<I")
    out = {}
    for _ in range(count):
        (name_len,) = take("<H")
        if off + name_len > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = take("<B")
        shape = take(f"<{ndim}I") if ndim else ()
        n = int(np.prod(shape)) if shape else 1
        nbytes = 8 * n
        if off + nbytes > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        data = np.frombuffer(blob, dtype="<f8", count=n, offset=off).astype(np.float64)
        off += nbytes
        out[name] = data.reshape(shape)
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes after last entry")
    return out
