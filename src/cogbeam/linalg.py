"""Complex Hermitian linear-algebra kernels shared by all beamformers.

Every kernel works on stacks of small matrices (number of microphones, or
microphones times prediction taps) with any leading batch axes, so the
beamformers solve all bins of a frequency band in one call; a single matrix
is a batch with no leading axes. Each kernel raises if any matrix of the
batch fails; callers that must contain failures per bin retry the bins one
at a time.

The kernels run between numpy's own covariance products, so they use
numpy's LAPACK only. numpy and scipy each bundle a separate OpenBLAS with
its own thread pool; alternating tiny calls between the two makes the idle
pool's spinning threads starve the busy one, and under default threading on
a 2-core machine that cost about 10x (2000 complex 1000x68 products
interleaved with scipy 4x4 triangular solves: 22.5 s, against 2.4 s with the
same solves done by numpy).

``one_blas_thread`` pins numpy's OpenBLAS to one thread while the
beamformers solve chunks of bins, on a thread pool or on the calling thread.
OpenBLAS threads gain little on these small products (3 % on a 60 s scene),
they compete with the pool for the cores, and the bits of a product depend
on how many of them split it. Pinned, every product runs whole on the
thread that calls it.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

__all__ = [
    "SingularMatrixError",
    "hermitian_solve",
    "max_generalized_eigvec",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Coefficient matrix numerically singular even after diagonal loading."""


def loaded(a, ridge):
    """Apply scale-invariant diagonal loading ``a + ridge*trace(a)/dim*I`` to
    each matrix of the stack ``a`` (..., dim, dim)."""
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    if ridge == 0:
        return a
    dim = a.shape[-1]
    load = ridge * np.trace(a, axis1=-2, axis2=-1).real / dim
    return a + load[..., None, None] * np.eye(dim, dtype=a.dtype)


def hermitian_part(a):
    """``(A + A^H) / 2`` of each matrix of the stack ``a`` (..., n, n)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def hermitian_solve(a, b, ridge=0.0):
    """Solve ``(A + ridge*trace(A)/dim * I) X = B`` for Hermitian A.

    Parameters
    ----------
    a : (..., n, n) complex ndarray, Hermitian
    b : (..., n) or (..., n, m) complex ndarray; one dimension fewer than
        ``a`` means one right-hand-side vector per matrix
    ridge : float
        Diagonal loading relative to the mean diagonal magnitude, so the
        regularization is invariant to a rescaling of ``a``.

    Raises
    ------
    SingularMatrixError
        If any loaded matrix is still numerically singular. No further
        regularization is attempted silently.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    a = loaded(a, ridge)
    vector = b.ndim == a.ndim - 1
    try:
        x = np.linalg.solve(a, b[..., None] if vector else b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"{a.shape[-2]}x{a.shape[-1]} Hermitian system is singular "
            f"(ridge={ridge})"
        ) from exc
    return x[..., 0] if vector else x


def max_generalized_eigvec(a, b):
    """Dominant eigenvector of ``B^{-1} A`` for Hermitian A and PD B.

    Whitens with the Cholesky factor ``B = L L^H``, takes the eigenvector of
    the largest eigenvalue of ``L^{-1} A L^{-H}`` from ``np.linalg.eigh`` and
    de-whitens. Works on stacks (..., n, n).

    Returns
    -------
    v : (..., n) complex ndarray
        Unit-norm eigenvector, phase-fixed so its first entry that is not
        negligible (above 1e-12 of the largest magnitude) is real positive.
    value : (...) float ndarray
        The largest generalized eigenvalue ``(v^H A v) / (v^H B v)``.

    Raises
    ------
    np.linalg.LinAlgError
        If any ``b`` is not positive-definite (Cholesky failure).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"shape mismatch: a {a.shape}, b {b.shape}")
    n = a.shape[-1]
    chol = np.linalg.cholesky(b)
    inv_chol = np.linalg.solve(chol, np.broadcast_to(np.eye(n, dtype=complex), chol.shape))
    inv_chol_h = inv_chol.conj().swapaxes(-1, -2)
    values, vectors = np.linalg.eigh(hermitian_part(inv_chol @ a @ inv_chol_h))

    v = (inv_chol_h @ vectors[..., -1:])[..., 0]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    mags = np.abs(v)
    idx = np.argmax(mags > 1e-12 * mags.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(v, idx[..., None], axis=-1)
    v = v * (lead / np.abs(lead)).conj()
    return v, values[..., -1]


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread and restore
    the previous thread count on exit. Yields whether the pin holds: False,
    with nothing changed, where numpy's OpenBLAS exposes no thread setting.
    The thread count is process-wide, so two threads must not overlap their
    pins: the one that exits first would unpin the other."""
    api = _openblas_threads()
    if api is None:
        yield False
        return
    get_threads, set_threads = api
    previous = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)


@functools.cache
def _openblas_threads():
    """(get, set) functions of the thread count of the OpenBLAS in numpy's
    ``numpy.libs``, or None where there is no such library or symbol. Loading
    the library by its path returns the copy numpy already uses."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None
