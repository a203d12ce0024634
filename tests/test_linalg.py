"""Kernel-level checks against dense LAPACK oracles."""

import numpy as np
import pytest
import scipy.linalg

from cogbeam import linalg


def random_hpd(rng, n, loading=0.1):
    x = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    a = x @ x.conj().T / (2 * n)
    return 0.5 * (a + a.conj().T) + loading * np.eye(n)


class TestHermitianSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        x = linalg.hermitian_solve(np.eye(3, dtype=complex), b, ridge=0.0)
        np.testing.assert_allclose(x, b, rtol=0, atol=1e-14)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0]).astype(complex)
        x = linalg.hermitian_solve(a, np.array([1.0, 1.0]), ridge=0.0)
        np.testing.assert_allclose(x, [0.5, 0.25], rtol=1e-14)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(7)
        a = random_hpd(rng, 6)
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = linalg.hermitian_solve(a, b, ridge=0.0)
        oracle = np.linalg.inv(a) @ b
        np.testing.assert_allclose(x, oracle, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hpd(rng, 6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = linalg.hermitian_solve(a, b, ridge=0.0)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_ridge_changes_system(self):
        a = np.eye(2, dtype=complex)
        x = linalg.hermitian_solve(a, np.ones(2), ridge=1.0)
        # loading adds trace/dim = 1, so the solved matrix is 2*I
        np.testing.assert_allclose(x, [0.5, 0.5], rtol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.hermitian_solve(np.zeros((3, 3), dtype=complex), np.ones(3), ridge=0.0)

    def test_singular_fixed_by_ridge(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        x = linalg.hermitian_solve(a, np.array([1.0, 0.0]), ridge=1e-8)
        assert np.all(np.isfinite(x))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            linalg.hermitian_solve(np.eye(2, dtype=complex), np.ones(2), ridge=-1.0)


class TestMaxGeneralizedEigvec:
    def test_diagonal_dominant(self):
        v, value = linalg.max_generalized_eigvec(
            np.diag([3.0, 1.0]).astype(complex), np.eye(2, dtype=complex)
        )
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-10)
        assert value == pytest.approx(3.0, rel=1e-10)

    def test_degenerate_spectrum_reports_unit_eigenvalue(self):
        rng = np.random.default_rng(1)
        b = random_hpd(rng, 4)
        v, value = linalg.max_generalized_eigvec(b.copy(), b.copy())
        assert value == pytest.approx(1.0, rel=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        # every vector is an eigenvector here; eigh picks one deterministically
        v2, _ = linalg.max_generalized_eigvec(b.copy(), b.copy())
        np.testing.assert_array_equal(v, v2)
        assert v[0].real > 0 and v[0].imag == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_generalized_eig_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_hpd(rng, 6)
        b = random_hpd(rng, 6)
        v, _ = linalg.max_generalized_eigvec(a, b)
        vals, vecs = scipy.linalg.eigh(a, b)
        top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
        # sine of the angle via the orthogonal component; arccos of the
        # overlap cannot resolve angles this small in float64
        sin_angle = np.linalg.norm(v - top * np.vdot(top, v))
        assert sin_angle <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_invariant(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = random_hpd(rng, 5)
        b = random_hpd(rng, 5)
        v, value = linalg.max_generalized_eigvec(a, b)
        resid = np.linalg.norm(np.linalg.solve(b, a @ v) - value * v)
        assert resid <= 1e-8 * np.linalg.norm(v)

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(3)
        a = random_hpd(rng, 6)
        b = random_hpd(rng, 6)
        v1, l1 = linalg.max_generalized_eigvec(a, b)
        v2, l2 = linalg.max_generalized_eigvec(a, b)
        assert np.array_equal(v1, v2) and l1 == l2

    def test_phase_fix_first_entry_real_positive(self):
        rng = np.random.default_rng(4)
        a = random_hpd(rng, 4)
        b = random_hpd(rng, 4)
        v, _ = linalg.max_generalized_eigvec(a, b)
        first = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert first.imag == pytest.approx(0.0, abs=1e-12)
        assert first.real > 0

    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(5)
        a = np.stack([random_hpd(rng, 4) for _ in range(6)])
        b = np.stack([random_hpd(rng, 4) for _ in range(6)])
        v, value = linalg.max_generalized_eigvec(a, b)
        for i in range(6):
            vi, li = linalg.max_generalized_eigvec(a[i], b[i])
            np.testing.assert_array_equal(v[i], vi)
            assert value[i] == li

    def test_non_pd_b_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            linalg.max_generalized_eigvec(
                np.eye(2, dtype=complex), -np.eye(2, dtype=complex)
            )


@pytest.mark.skipif(
    linalg._openblas_threads() is None, reason="numpy's OpenBLAS exposes no thread setting"
)
class TestOneBlasThread:
    @pytest.fixture
    def threads(self):
        # start from two threads, a count the pin must restore
        get_threads, set_threads = linalg._openblas_threads()
        before = get_threads()
        set_threads(2)
        yield get_threads
        set_threads(before)

    def test_pins_and_restores(self, threads):
        with linalg.one_blas_thread() as pinned:
            assert pinned
            assert threads() == 1
        assert threads() == 2

    def test_restores_when_the_body_raises(self, threads):
        with pytest.raises(RuntimeError, match="body"):
            with linalg.one_blas_thread():
                assert threads() == 1
                raise RuntimeError("body")
        assert threads() == 2


def test_one_blas_thread_without_the_symbols_changes_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    with linalg.one_blas_thread() as pinned:
        assert pinned is False
