"""Frozen per-bin beamformer, kept only as the reference for the batched core.

This is the bin-by-bin implementation (two Python loops over bins and a
whitened, shift-accelerated power iteration for the dominant generalized
eigenvector) that the frequency-batched solve in ``cogbeam.beamform``
replaced. It is not imported by the package. ``tests/test_batched_core.py``
compares all six beamformer types against it. Do not edit the arithmetic:
the point of this file is that it does not change.
"""

import numpy as np

from cogbeam.beamform import BeamformerOutput, BinState, ConvBeamformerConfig, Diagnostics

_COND_LIMIT = 1e12


class OracleSolveError(Exception):
    """Any per-bin failure of the oracle (carries the round it happened in)."""

    def __init__(self, iteration, message):
        super().__init__(message)
        self.iteration = iteration


def _loaded(a, ridge):
    if ridge == 0:
        return a
    dim = a.shape[0]
    return a + (ridge * np.trace(a).real / dim) * np.eye(dim, dtype=a.dtype)


def hermitian_solve(a, b, ridge=0.0):
    return np.linalg.solve(_loaded(np.asarray(a), ridge), np.asarray(b))


def max_generalized_eigvec(a, b, tol=1e-10, max_iter=200):
    """Power iteration on L^{-1} A L^{-H} with repeated squaring."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    chol = np.linalg.cholesky(b)
    inv_chol = np.linalg.solve(chol, np.eye(n, dtype=complex))
    whitened = inv_chol @ a @ inv_chol.conj().T
    whitened = 0.5 * (whitened + whitened.conj().T)

    u = np.zeros(n, dtype=complex)
    u[0] = 1.0
    if not np.any(whitened):
        converged = True
    else:
        shift = float(np.trace(whitened).real) / n
        shifted = whitened + shift * np.eye(n)
        converged = False
        for _ in range(max_iter):
            w = shifted @ u
            norm = np.linalg.norm(w)
            if norm == 0.0:
                converged = True
                break
            w /= norm
            overlap = np.vdot(u, w)
            if abs(overlap) > 0:
                w *= overlap.conjugate() / abs(overlap)
            delta = np.linalg.norm(w - u)
            u = w
            if delta <= tol:
                converged = True
                break
            shifted = shifted / np.linalg.norm(shifted)
            shifted = shifted @ shifted
            shifted = 0.5 * (shifted + shifted.conj().T)
    if not converged:
        raise np.linalg.LinAlgError("power iteration did not converge")
    v = inv_chol.conj().T @ u
    v /= np.linalg.norm(v)
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-12 * mags.max()))
    phase = v[idx] / abs(v[idx])
    return v * phase.conjugate()


def stack_frames(y, frame_delay, l_w):
    k, m = y.shape
    taps = [0] + list(range(frame_delay, l_w))
    out = np.zeros((k, m * len(taps)), dtype=complex)
    for j, tau in enumerate(taps):
        if tau == 0:
            out[:, :m] = y
        elif tau < k:
            out[tau:, j * m : (j + 1) * m] = y[: k - tau]
    return out


def weighted_correlations(stacked, lam, n_channels):
    k = stacked.shape[0]
    r_full = (stacked / lam[:, None]).T @ stacked.conj() / k
    r_full = 0.5 * (r_full + r_full.conj().T)
    m = n_channels
    return r_full[m:, m:], r_full[m:, :m], r_full


def estimate_retf(frames, weights, reference_mic=0, ridge=1e-8):
    k, m = frames.shape
    w_sum = weights.sum()
    c_sum = (1.0 - weights).sum()
    if w_sum <= 0 or c_sum <= 0:
        raise ValueError("mask leaves no frames for one side")
    cov_src = (frames * weights[:, None]).T @ frames.conj() / w_sum
    cov_rest = (frames * (1.0 - weights)[:, None]).T @ frames.conj() / c_sum
    cov_src = 0.5 * (cov_src + cov_src.conj().T)
    cov_rest = 0.5 * (cov_rest + cov_rest.conj().T)
    if not np.any(cov_src) or not np.any(cov_rest):
        raise ValueError("weighted covariance is identically zero")
    if ridge > 0:
        cov_rest = cov_rest + (ridge * np.trace(cov_rest).real / m) * np.eye(m)
    vec = max_generalized_eigvec(cov_src, cov_rest)
    steering = cov_rest @ vec
    ref = steering[reference_mic]
    if abs(ref) < 1e-12 * np.linalg.norm(steering):
        raise ValueError("steering vector vanishes at the reference microphone")
    return steering / ref


def constrained_min_power(cov, constraints, response, ridge):
    x = hermitian_solve(cov, constraints, ridge)
    gram = constraints.conj().T @ x
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ValueError("constraint set numerically rank-deficient")
    return x @ np.linalg.solve(gram, response)


def interferer_constraints(target, retfs, delta):
    deltas = np.broadcast_to(np.asarray(delta, dtype=float), (len(retfs),))
    return np.column_stack([target] + list(retfs)), np.concatenate([[1.0], deltas])


def _conv_bin(y, target_mask, interferer_masks, cfg, l_w):
    k, m = y.shape
    frame_power = (np.abs(y) ** 2).sum(axis=1)
    floor = max(cfg.lambda_floor * frame_power.mean(), np.finfo(float).tiny)
    lam = np.maximum(frame_power, floor)
    stacked = stack_frames(y, cfg.frame_delay, l_w)
    delayed = stacked[:, m:]
    objective = np.full(cfg.iterations, np.nan)
    for it in range(cfg.iterations):
        try:
            r_delay, p_cross, _ = weighted_correlations(stacked, lam, m)
            derev = hermitian_solve(r_delay, p_cross, cfg.ridge)
            d = y - delayed @ derev.conj()
            _, _, r_d = weighted_correlations(d, lam, m)
            target = estimate_retf(d, target_mask, cfg.reference_mic, cfg.ridge)
            if interferer_masks:
                retfs = [estimate_retf(d, im, cfg.reference_mic, cfg.ridge) for im in interferer_masks]
                constraints, response = interferer_constraints(target, retfs, cfg.delta)
            else:
                constraints, response = target[:, None], np.ones(1)
            weights = constrained_min_power(r_d, constraints, response, cfg.ridge)
            z = d @ weights.conj()
            lam = np.maximum(np.abs(z) ** 2, floor)
            objective[it] = float(np.log(lam).sum() + (np.abs(z) ** 2 / lam).sum())
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise OracleSolveError(it, str(exc)) from exc
    residual = float(np.max(np.abs(constraints.conj().T @ weights - response)))
    interferers = constraints[:, 1:] if constraints.shape[1] > 1 else None
    return z, BinState(l_w, derev, weights, target, interferers), objective, residual


def _passthrough(m, l_w, reference_mic):
    weights = np.zeros(m, dtype=complex)
    weights[reference_mic] = 1.0
    return BinState(l_w, None, weights, None, None, passthrough=True)


def _output(z, states, objective_per_bin, residuals, failures):
    return BeamformerOutput(
        z,
        states,
        Diagnostics(
            objective=np.nansum(objective_per_bin, axis=1),
            objective_per_bin=objective_per_bin,
            max_constraint_residual=float(np.nanmax(residuals, initial=0.0)),
            constraint_residual_per_bin=residuals,
            failed_bins=failures,
        ),
    )


def run_conv_beamformer(spec, target_mask, interferer_masks=None, cfg=None, mode="wmpdr", sample_rate=16000):
    cfg = cfg or ConvBeamformerConfig()
    m_ch, k, f = spec.shape
    i_all = None
    if mode == "wlcmp" and interferer_masks is not None:
        i_all = [np.asarray(im, dtype=float) for im in interferer_masks]
    n_fft = 2 * (f - 1)
    z = np.zeros((k, f), dtype=complex)
    states = []
    objective_per_bin = np.full((cfg.iterations, f), np.nan)
    residuals = np.full(f, np.nan)
    failures = []
    for fi in range(f):
        y = spec[:, :, fi].T
        l_w = cfg.filter_length(fi * sample_rate / n_fft)
        if not np.any(y):
            states.append(_passthrough(m_ch, l_w, cfg.reference_mic))
            continue
        i_masks = [im[:, fi] for im in i_all] if i_all else None
        try:
            z_bin, state, objective, residual = _conv_bin(y, target_mask[:, fi], i_masks, cfg, l_w)
            if not np.all(np.isfinite(z_bin)):
                raise OracleSolveError(cfg.iterations - 1, "non-finite output")
        except OracleSolveError as err:
            failures.append((fi, err.iteration, str(err)))
            states.append(_passthrough(m_ch, l_w, cfg.reference_mic))
            z[:, fi] = y[:, cfg.reference_mic]
            continue
        z[:, fi] = z_bin
        states.append(state)
        objective_per_bin[:, fi] = objective
        residuals[fi] = residual
    return _output(z, states, objective_per_bin, residuals, failures)


def conventional(spec, target_mask, interferer_masks, delta, cfg, noise_cov=None, steering=None, interferer_steering=None):
    """MPDR / LCMP (masks) and MVDR / LCMV (supplied steering, noise covariance)."""
    cfg = cfg or ConvBeamformerConfig()
    m_ch, k, f = spec.shape
    z = np.zeros((k, f), dtype=complex)
    states = []
    residuals = np.full(f, np.nan)
    failures = []
    for fi in range(f):
        y = spec[:, :, fi].T
        if not np.any(y) and steering is None:
            states.append(_passthrough(m_ch, 1, cfg.reference_mic))
            continue
        try:
            if steering is None:
                cov = y.T @ y.conj() / k
                cov = 0.5 * (cov + cov.conj().T)
                target = estimate_retf(y, target_mask[:, fi], cfg.reference_mic, cfg.ridge)
                if interferer_masks is not None:
                    retfs = [estimate_retf(y, im[:, fi], cfg.reference_mic, cfg.ridge) for im in interferer_masks]
                    constraints, response = interferer_constraints(target, retfs, delta)
                else:
                    constraints, response = target[:, None], np.ones(1)
            else:
                cov = noise_cov[fi]
                target = steering[fi]
                if interferer_steering is not None:
                    constraints, response = interferer_constraints(
                        target, list(interferer_steering[fi].T), delta
                    )
                else:
                    constraints, response = target[:, None], np.ones(1)
            weights = constrained_min_power(cov, constraints, response, cfg.ridge)
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.append((fi, 0, str(exc)))
            states.append(_passthrough(m_ch, 1, cfg.reference_mic))
            z[:, fi] = y[:, cfg.reference_mic]
            continue
        z[:, fi] = y @ weights.conj()
        interferers = constraints[:, 1:] if constraints.shape[1] > 1 else None
        states.append(BinState(1, None, weights, target, interferers))
        residuals[fi] = float(np.max(np.abs(constraints.conj().T @ weights - response)))
    return _output(z, states, np.zeros((0, f)), residuals, failures)
