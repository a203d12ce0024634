"""Binary tensor file format used to exchange masks, components and EEG.

Layout (all integers little-endian):

    magic   4 bytes  b"CBTF"
    version u8       currently 1
    dtype   u8       0=float32, 1=float64, 2=complex64, 3=complex128
    rank    u8
    dims    rank x u64
    payload row-major array data

The format is lossless: ``read_tensor(write_tensor(x)) == x`` bit for bit.
"""

import math
import os
import struct

import numpy as np

MAGIC = b"CBTF"
VERSION = 1

_DTYPE_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.complex64): 2,
    np.dtype(np.complex128): 3,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


class TensorFileError(ValueError):
    """Malformed header, truncated payload or unsupported dtype."""


def write_tensor(path, array):
    """Write ``array`` to ``path`` in the CBTF format."""
    array = np.asarray(array)
    dtype = array.dtype.newbyteorder("=")  # the codes name native dtypes
    if dtype not in _DTYPE_CODES:
        if np.issubdtype(dtype, np.complexfloating):
            dtype = np.dtype(np.complex128)
        elif np.issubdtype(dtype, np.floating) or np.issubdtype(dtype, np.integer):
            dtype = np.dtype(np.float64)
        else:
            raise TensorFileError(f"unsupported dtype {dtype}")
    code = _DTYPE_CODES[dtype]
    header = MAGIC + struct.pack("<BBB", VERSION, code, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    # copied only when the input is not C-contiguous little-endian data of
    # the stored dtype; the file is written from the payload's own memory
    payload = np.ascontiguousarray(array, dtype=dtype.newbyteorder("<"))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.reshape(-1).view(np.uint8))


def read_tensor(path):
    """Read a CBTF tensor; raises TensorFileError on any format violation.

    The payload is read straight into the returned array, so the file's
    bytes are held once, not once more as a buffer to copy from.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(7)
        if len(head) < 7:
            raise TensorFileError(
                f"truncated header: need at least 7 bytes, file has {len(head)}"
            )
        if head[:4] != MAGIC:
            raise TensorFileError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        version, code, rank = struct.unpack("<BBB", head[4:7])
        if version != VERSION:
            raise TensorFileError(f"unsupported version {version}")
        if code not in _CODE_DTYPES:
            raise TensorFileError(f"unknown dtype code {code}")
        dims_end = 7 + 8 * rank
        if size < dims_end:
            raise TensorFileError(f"truncated dims: missing {dims_end - size} bytes")
        dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        dtype = _CODE_DTYPES[code].newbyteorder("<")
        n_bytes = math.prod(dims) * dtype.itemsize  # Python ints: no overflow
        payload = size - dims_end
        if payload < n_bytes:
            raise TensorFileError(f"truncated payload: missing {n_bytes - payload} bytes")
        if payload > n_bytes:
            raise TensorFileError(f"trailing garbage: {payload - n_bytes} extra bytes")
        try:
            array = np.empty(dims, dtype=dtype)
        except ValueError as exc:  # over 64 axes, or a zero-size shape numpy cannot hold
            raise TensorFileError(f"unsupported shape {dims}: {exc}") from None
        got = fh.readinto(array.reshape(-1).view(np.uint8))
    if got != n_bytes:  # the file shrank after its size was taken
        raise TensorFileError(f"truncated payload: missing {n_bytes - got} bytes")
    return array if array.dtype.isnative else array.astype(_CODE_DTYPES[code])
