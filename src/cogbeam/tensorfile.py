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
    dtype = array.dtype
    if dtype not in _DTYPE_CODES:
        if np.issubdtype(dtype, np.complexfloating):
            array = array.astype(np.complex128)
        elif np.issubdtype(dtype, np.floating) or np.issubdtype(dtype, np.integer):
            array = array.astype(np.float64)
        else:
            raise TensorFileError(f"unsupported dtype {dtype}")
        dtype = array.dtype
    code = _DTYPE_CODES[dtype]
    header = MAGIC + struct.pack("<BBB", VERSION, code, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(array).astype(dtype.newbyteorder("<")).tobytes())


def read_tensor(path):
    """Read a CBTF tensor; raises TensorFileError on any format violation."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 7:
        raise TensorFileError(
            f"truncated header: need at least 7 bytes, file has {len(data)}"
        )
    if data[:4] != MAGIC:
        raise TensorFileError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, code, rank = struct.unpack("<BBB", data[4:7])
    if version != VERSION:
        raise TensorFileError(f"unsupported version {version}")
    if code not in _CODE_DTYPES:
        raise TensorFileError(f"unknown dtype code {code}")
    dims_end = 7 + 8 * rank
    if len(data) < dims_end:
        raise TensorFileError(
            f"truncated dims: missing {dims_end - len(data)} bytes"
        )
    dims = struct.unpack(f"<{rank}Q", data[7:dims_end])
    dtype = _CODE_DTYPES[code].newbyteorder("<")
    n_bytes = math.prod(dims) * dtype.itemsize  # Python ints: no overflow
    payload = data[dims_end:]
    if len(payload) < n_bytes:
        raise TensorFileError(
            f"truncated payload: missing {n_bytes - len(payload)} bytes"
        )
    if len(payload) > n_bytes:
        raise TensorFileError(
            f"trailing garbage: {len(payload) - n_bytes} extra bytes"
        )
    try:
        array = np.frombuffer(payload, dtype=dtype).reshape(dims)
    except ValueError as exc:  # over 64 axes, or a zero-size shape numpy cannot hold
        raise TensorFileError(f"unsupported shape {dims}: {exc}") from None
    return array.astype(_CODE_DTYPES[code], copy=True)
