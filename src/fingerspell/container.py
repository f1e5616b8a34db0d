"""Binary container shared by the feature and model files.

Layout: magic bytes, a little-endian uint32 header length, a UTF-8 JSON
object header, then raw row-major tensors of one little-endian dtype.
The header fixes every tensor's shape, so the reader checks the sizes
against the file length before it allocates, then reads the whole payload
into one buffer.
"""

import json
import math
import os
import struct

import numpy as np

from fingerspell.errors import FormatError


def write(path, magic: bytes, dtype, header: dict, tensors) -> None:
    """Write ``header`` and then ``tensors``, in order, as ``dtype``."""
    raw = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(raw)) + raw)
        for a in tensors:
            fh.write(memoryview(np.ascontiguousarray(a, dtype=dtype)))


def read(path, magic: bytes, dtype, layout) -> tuple[dict, list]:
    """Read a container; returns ``(header, arrays)``.

    ``layout(header)`` yields each tensor's ``(name, shape)`` in file order
    and raises ``KeyError``, ``TypeError`` or ``ValueError`` on a malformed
    header.  The arrays are writable views of one buffer.  Raises
    :class:`FormatError` on a bad magic, a header that is not a JSON object,
    a size that is not a non-negative integer, a truncated file (naming the
    tensor where the data runs out) or trailing data.
    """
    dtype = np.dtype(dtype)
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise FormatError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", raw_len)
        raw_header = fh.read(hlen)
        if len(raw_header) != hlen:
            raise FormatError(f"{path}: truncated header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
            if not isinstance(header, dict):
                raise TypeError(f"header is a JSON {type(header).__name__}, not an object")
            tensors = [(name, tuple(shape)) for name, shape in layout(header)]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise FormatError(f"{path}: malformed header: {exc}") from exc

        available = os.fstat(fh.fileno()).st_size - fh.tell()
        bounds = [0]
        for name, shape in tensors:
            if not all(type(d) is int and d >= 0 for d in shape):
                raise FormatError(f"{path}: tensor {name!r} has invalid shape {list(shape)}")
            bounds.append(bounds[-1] + math.prod(shape))
            if bounds[-1] * dtype.itemsize > available:
                raise FormatError(f"{path}: truncated tensor {name!r} (wanted {math.prod(shape)} {dtype.name} values)")
        if bounds[-1] * dtype.itemsize < available:
            raise FormatError(f"{path}: trailing data after tensors")
        buf = np.empty(bounds[-1], dtype=dtype)
        if fh.readinto(buf) != available:
            raise FormatError(f"{path}: file shrank while being read")
    return header, [buf[a:b].reshape(shape) for (_, shape), a, b in zip(tensors, bounds, bounds[1:])]
