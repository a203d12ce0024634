import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogbeam.tensorfile import MAGIC, TensorFileError, read_tensor, write_tensor


@pytest.mark.parametrize(
    "dtype", [np.float32, np.float64, np.complex64, np.complex128]
)
def test_round_trip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5))
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal((3, 4, 5))
    x = x.astype(dtype)
    path = tmp_path / "t.cbtf"
    write_tensor(path, x)
    y = read_tensor(path)
    assert y.dtype == x.dtype
    assert np.array_equal(y, x)


@pytest.mark.parametrize("shape", [(3, 4), (), (0, 5)])
def test_read_returns_owned_writable_native_array(tmp_path, shape):
    path = tmp_path / "t.cbtf"
    write_tensor(path, np.arange(math.prod(shape), dtype=np.complex64).reshape(shape))
    y = read_tensor(path)
    assert y.flags.owndata and y.flags.writeable and y.flags.c_contiguous
    assert y.dtype.isnative and y.dtype == np.complex64 and y.shape == shape
    y[...] = 1.0  # writing must not fail or touch the file
    assert np.array_equal(read_tensor(path), np.arange(y.size, dtype=np.complex64).reshape(shape))


def test_one_dim_round_trip(tmp_path):
    x = np.arange(7, dtype=np.float64)
    path = tmp_path / "v.cbtf"
    write_tensor(path, x)
    assert np.array_equal(read_tensor(path), x)


def _complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda rng: rng.standard_normal((3, 4)).astype(np.float32), 0),
        (lambda rng: rng.standard_normal((3, 4)), 1),
        (lambda rng: _complex((3, 4), rng).astype(np.complex64), 2),
        (lambda rng: _complex((2, 3, 4), rng), 3),
        (lambda rng: rng.standard_normal((4, 6))[::2, ::-3].T, 1),  # non-contiguous
        (lambda rng: _complex((5, 3), rng).T, 3),  # Fortran order
        (lambda rng: rng.standard_normal((3, 4)).astype(">f8"), 1),  # big-endian
        (lambda rng: rng.standard_normal((3, 4)).astype(">f4"), 0),
        (lambda rng: _complex((3, 4), rng).astype(">c8")[:, 1:], 2),
        (lambda rng: _complex((3, 4), rng).astype(">c16"), 3),
        (lambda rng: np.arange(6, dtype=">i4").reshape(2, 3), 1),
        (lambda rng: np.float32(2.5), 0),
        (lambda rng: np.zeros((0, 5), dtype=np.complex64), 2),
    ],
)
def test_written_bytes_are_header_and_little_endian_c_order_payload(tmp_path, make, code):
    x = np.asarray(make(np.random.default_rng(1)))
    path = tmp_path / "w.cbtf"
    write_tensor(path, x)
    stored = {0: "<f4", 1: "<f8", 2: "<c8", 3: "<c16"}[code]
    header = MAGIC + struct.pack("<BBB", 1, code, x.ndim) + struct.pack(f"<{x.ndim}Q", *x.shape)
    assert path.read_bytes() == header + x.astype(stored).tobytes(order="C")


def test_int_input_promoted(tmp_path):
    path = tmp_path / "i.cbtf"
    write_tensor(path, np.arange(4))
    assert read_tensor(path).dtype == np.float64


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cbtf"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(TensorFileError, match="magic"):
        read_tensor(path)


def test_truncated_payload_names_missing_bytes(tmp_path):
    path = tmp_path / "trunc.cbtf"
    write_tensor(path, np.ones((2, 3)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # drop one float64
    with pytest.raises(TensorFileError, match="missing 8 bytes"):
        read_tensor(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "hdr.cbtf"
    path.write_bytes(b"CBTF\x01")
    with pytest.raises(TensorFileError, match="truncated header"):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.cbtf"
    write_tensor(path, np.ones(2))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(TensorFileError, match="trailing"):
        read_tensor(path)


@pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63 + 5,), (2**64 - 1, 2**64 - 1)])
def test_overflowing_dims_are_truncation(tmp_path, dims):
    # the element count must not wrap around in fixed-width integers
    path = tmp_path / "huge.cbtf"
    path.write_bytes(MAGIC + struct.pack(f"<BBB{len(dims)}Q", 1, 1, len(dims), *dims) + bytes(16))
    with pytest.raises(TensorFileError, match="truncated payload"):
        read_tensor(path)


# small dims, powers of two whose products wrap fixed-width integers to 0,
# and arbitrary huge dims
_DIM = st.one_of(
    st.sampled_from([0, 1, 2, 3, 2**32, 2**62, 2**63, 2**63 + 5]),
    st.integers(2**31, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    rank=st.one_of(st.integers(0, 4), st.integers(60, 70)),
    dims=st.lists(_DIM, min_size=70, max_size=70),
    code=st.integers(0, 5),
    payload_len=st.one_of(st.none(), st.integers(0, 64)),
)
def test_fuzzed_header_reads_exactly_or_raises(tmp_path_factory, rank, dims, code, payload_len):
    """read_tensor returns the exact array a header and payload describe, or
    raises TensorFileError naming what is wrong; nothing else escapes."""
    dims = dims[:rank]
    itemsize = (4, 8, 8, 16)[code] if code < 4 else 8
    n_bytes = math.prod(dims) * itemsize
    if payload_len is None:  # a payload of exactly the promised size, where small
        payload_len = n_bytes if n_bytes <= 4096 else 0
    payload = np.random.default_rng(payload_len).bytes(payload_len)
    path = tmp_path_factory.mktemp("fuzz") / "t.cbtf"
    path.write_bytes(MAGIC + struct.pack(f"<BBB{rank}Q", 1, code, rank, *dims) + payload)
    try:
        array = read_tensor(path)
    except TensorFileError as exc:
        if code < 4 and payload_len < n_bytes:
            assert "truncated payload" in str(exc)
        elif code < 4 and payload_len > n_bytes:
            assert "trailing garbage" in str(exc)
        else:  # of consistent headers, only shapes numpy cannot hold are refused
            assert code >= 4 or rank > 64 or (0 in dims and max(dims) >= 2**31)
        return
    assert code < 4 and payload_len == n_bytes
    dtype = np.dtype(["<f4", "<f8", "<c8", "<c16"][code])
    assert array.shape == tuple(dims)
    assert array.tobytes() == np.frombuffer(payload, dtype=dtype).tobytes()
