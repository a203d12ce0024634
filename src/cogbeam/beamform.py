"""Minimum-power beamformers, convolutional (dereverberating) and plain.

Bins are independent, and all six beamformer types are one constrained
minimum-power solve run on chunks of bins at once: a chunk is a stack of
bins that share one prediction-filter length, held as (bins, K, M) frames,
and every kernel works on the whole stack. The convolutional variants
jointly estimate a multichannel linear-prediction dereverberation filter G
and a beamforming vector q by alternating updates driven by the time-varying
output variance; the conventional variants are the single-round case without
prediction, on the unit-variance raw-signal covariance or a supplied noise
covariance. Steering comes from masks or from the caller.

Numpy's OpenBLAS is pinned to one thread while chunks are solved
(``linalg.one_blas_thread``). The multi-round solves of the convolutional
types run their chunks on a thread pool with one worker per CPU of the
process's affinity mask, at most two; single-round solves, and every solve
where OpenBLAS cannot be pinned, run on the calling thread. A bin's solve does
not depend on the chunk it shares, and the results are assembled in chunk
order, so the output bits are the same for any worker count and any BLAS
thread setting.

Shapes used throughout (per bin; stacks add a leading bin axis):
    spectrogram    (M, K, F) complex
    mask plane     (K, F) real in [0, 1]
    frames         (K, M) complex, frames as rows
    stacked frames (K, M * (l_w - frame_delay + 1)): current frame first,
                   then frames delayed by frame_delay .. l_w - 1
    G              (M * (l_w - frame_delay), M)
    q, RETF        (M,)
"""

import itertools
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import linalg

__all__ = [
    "ConvBeamformerConfig",
    "BinState",
    "Diagnostics",
    "BeamformerOutput",
    "DegenerateMaskError",
    "ConstraintRankError",
    "weighted_correlations",
    "dereverberate",
    "estimate_retf",
    "wlcmp_solve",
    "run_conv_beamformer",
    "mpdr",
    "lcmp",
    "mvdr_lcmv",
    "apply_bin_filters",
]

DEFAULT_FILTER_BANDS = ((0.0, 800.0, 20), (800.0, 1500.0, 16), (1500.0, None, 8))

_COND_LIMIT = 1e12

# Byte budget of the stacked observations of the chunks in flight: with w
# workers, each chunk fits _CHUNK_BYTES / w, but holds at least one bin.
# Each worker holds two buffers of the largest chunk, the stacked frames and
# their variance-scaled conjugate, so the pool's buffers total about twice
# the budget while a bin fits a worker's share, and 2 w times the largest
# bin once a bin is larger (a 20-tap bin of a 60 s, 4-mic scene with a
# 128-sample STFT is 8.2 MB). Smaller chunks cost more calls per bin: the
# wMPDR solve of both speakers of a 2 s, 4-mic scene with a 128-sample STFT
# takes 1.19 s with one worker at 4 MiB, 1.53 s at 512 KiB, and 0.85 s with
# two workers at 2 MiB each (medians of 5, 2 cores, one BLAS thread).
_CHUNK_BYTES = 4 << 20

# The pool's worker count is capped at the two it was measured with. The
# solve holds the GIL for about 0.5 ms per chunk-round, and more workers
# mean smaller chunks, more rounds and more buffers; whether time and peak
# memory still improve on more cores has not been measured.
_MAX_WORKERS = 2


class DegenerateMaskError(ValueError):
    """Mask weights leave one of the two covariance estimates empty."""


class ConstraintRankError(RuntimeError):
    """Constraint matrix is numerically rank-deficient (parallel steering)."""


@dataclass(frozen=True)
class ConvBeamformerConfig:
    """Settings shared by the convolutional and conventional beamformers.

    ``filter_length_bands`` maps half-open frequency ranges [lo, hi) in Hz to
    prediction-filter lengths; the final band must leave ``hi`` as None so it
    extends to Nyquist. ``lambda_floor`` is relative to the bin's mean frame
    power, keeping the variance weights homogeneous under input scaling.
    """

    frame_delay: int = 4
    filter_length_bands: tuple = DEFAULT_FILTER_BANDS
    iterations: int = 10
    delta: float = 0.1
    lambda_floor: float = 1e-10
    ridge: float = 1e-8
    reference_mic: int = 0

    def __post_init__(self):
        if self.frame_delay < 1:
            raise ValueError("frame_delay must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if np.any(np.asarray(self.delta) < 0):
            raise ValueError("delta must be nonnegative")
        if self.lambda_floor <= 0:
            raise ValueError("lambda_floor must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        bands = self.filter_length_bands
        if not bands or bands[-1][1] is not None:
            raise ValueError("last filter band must extend to Nyquist (hi=None)")
        prev_hi = 0.0
        for lo, hi, taps in bands:
            if lo != prev_hi:
                raise ValueError("filter bands must be contiguous from 0 Hz")
            if hi is not None and hi <= lo:
                raise ValueError("filter band limits must increase")
            if taps <= self.frame_delay:
                raise ValueError(
                    f"filter length {taps} must exceed frame_delay {self.frame_delay}"
                )
            prev_hi = hi

    def filter_length(self, frequency_hz):
        # the last band's hi is None, so the loop always returns
        for _, hi, taps in self.filter_length_bands:
            if hi is None or frequency_hz < hi:
                return taps


@dataclass
class BinState:
    """Final per-bin filter: prediction matrix (None if not dereverberating),
    beamforming weights, and the steering vectors they were solved for."""

    filter_taps: int
    derev: np.ndarray | None
    weights: np.ndarray
    target_retf: np.ndarray | None
    interferer_retfs: np.ndarray | None
    passthrough: bool = False


@dataclass
class Diagnostics:
    objective: np.ndarray  # (iterations,) variance-weighted power proxy, bin sum
    objective_per_bin: np.ndarray  # (iterations, F), NaN where unavailable
    max_constraint_residual: float
    constraint_residual_per_bin: np.ndarray  # (F,) max |C^H q - p|, NaN if passthrough
    failed_bins: list = field(default_factory=list)  # (bin, iteration, message)


@dataclass
class BeamformerOutput:
    z: np.ndarray  # (K, F) complex
    states: list  # BinState per bin
    diagnostics: Diagnostics


_CONTAINED = (np.linalg.LinAlgError, DegenerateMaskError, ConstraintRankError)


def _stack_frames(y, frame_delay, l_w, buffer=None):
    """(..., K, M) frames -> (..., K, M * (l_w - frame_delay + 1)) stacked
    observations, held in the leading elements of the flat complex
    ``buffer`` when given.

    Column blocks hold the current frame followed by the frames delayed by
    ``frame_delay .. l_w - 1``; frames before the signal start are zero.
    """
    *lead, k, m = y.shape
    taps = [0] + list(range(frame_delay, l_w))
    shape = (*lead, k, m * len(taps))
    out = np.empty(shape, dtype=complex) if buffer is None else _view(buffer, shape)
    for j, tau in enumerate(taps):
        block = out[..., j * m : (j + 1) * m]
        block[..., :tau, :] = 0
        block[..., tau:, :] = y[..., : max(k - tau, 0), :]
    return out


def _hermitian_part(a):
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def weighted_correlations(stacked, lam, n_channels):
    """Variance-weighted sample correlations of stacked observations.

    ``stacked`` is (..., K, D) and ``lam`` (..., K). Returns
    ``(r_delay, p_cross, r_full)`` where ``r_full`` averages
    ``stacked_k stacked_k^H / lam_k`` over frames, ``r_delay`` is its
    delayed-frames block and ``p_cross`` the delayed-to-current block.
    Hermitian parts are symmetrized.
    """
    return _weighted_correlations(np.asarray(stacked), lam, n_channels)


def _weighted_correlations(stacked, lam, m, buffer=None):
    """weighted_correlations, with the variance-scaled conjugate of the
    stacked frames held in the flat complex ``buffer`` when given.

    The sum of ``stacked_k stacked_k^H / lam_k`` is computed as the
    conjugate of ``(conj(stacked) / lam)^T @ stacked``, which has the same
    bits and needs no second conjugated copy of the frames.
    """
    k = stacked.shape[-2]
    scaled = np.conjugate(stacked, out=None if buffer is None else _view(buffer, stacked.shape))
    # numpy divides complex by real as a product with the reciprocal; the
    # explicit product gives the same bits at half the cost
    np.multiply(scaled, (1.0 / np.asarray(lam, dtype=float))[..., None], out=scaled)
    r_full = _hermitian_part(np.conjugate(scaled.swapaxes(-1, -2) @ stacked) / k)
    return r_full[..., m:, m:], r_full[..., m:, :m], r_full


def dereverberate(frames, stacked, derev):
    """Subtract the linear prediction from the frames: d_k = y_k - G^H y~_k,
    where ``stacked`` are the stacked observations of ``frames``."""
    m = derev.shape[-1]
    return frames - stacked[..., m:] @ derev.conj()


def _first(values, bad):
    """The first entry of ``values`` where ``bad`` holds, for messages."""
    return np.ravel(values)[np.flatnonzero(bad)[0]]


def estimate_retf(frames, weights, reference_mic=0, ridge=1e-8):
    """Steering vector of the weighted source via covariance whitening.

    ``frames`` is (..., K, M) and ``weights`` (..., K). Builds the
    weight-averaged covariance of the source (weights) and of everything
    else (1 - weights), whitens, takes the dominant generalized eigenvector,
    de-whitens, and normalizes the reference-microphone entry to one.
    Raises DegenerateMaskError when either covariance of any bin is empty.
    """
    frames = np.asarray(frames)
    weights = np.asarray(weights, dtype=float)
    w_sum = weights.sum(axis=-1)
    c_sum = (1.0 - weights).sum(axis=-1)
    empty = (w_sum <= 0) | (c_sum <= 0)
    if np.any(empty):
        raise DegenerateMaskError(
            f"mask leaves no frames for one side (sum={_first(w_sum, empty):.3g}, "
            f"complement={_first(c_sum, empty):.3g})"
        )
    conj = frames.conj()
    cov_src, cov_rest = (
        _hermitian_part((frames * w[..., None]).swapaxes(-1, -2) @ conj / total[..., None, None])
        for w, total in ((weights, w_sum), (1.0 - weights, c_sum))
    )
    if not (np.all(np.any(cov_src, axis=(-2, -1))) and np.all(np.any(cov_rest, axis=(-2, -1)))):
        raise DegenerateMaskError("weighted covariance is identically zero")
    cov_rest = linalg.loaded(cov_rest, ridge)
    vec, _ = linalg.max_generalized_eigvec(cov_src, cov_rest)
    steering = (cov_rest @ vec[..., None])[..., 0]
    ref = steering[..., reference_mic]
    if np.any(np.abs(ref) < 1e-12 * np.linalg.norm(steering, axis=-1)):
        raise DegenerateMaskError("steering vector vanishes at the reference microphone")
    return steering / ref[..., None]


def wlcmp_solve(cov, constraints, response, ridge=1e-8):
    """Multi-constraint minimum-power weights for Hermitian PD ``cov``:
    q = R^{-1} C (C^H R^{-1} C)^{-1} p minimizes q^H R q subject to C^H q = p.

    ``constraints`` is (..., M, C) with the target steering first,
    ``response`` the desired responses p (1 for the target, the suppression
    levels for interferers), broadcast against the leading axes. Raises
    ConstraintRankError for near-parallel constraints.
    """
    constraints = np.asarray(constraints, dtype=complex)
    if constraints.ndim < 2:
        raise ValueError("constraints must be a matrix of column vectors")
    response = np.broadcast_to(
        np.asarray(response, dtype=complex), constraints.shape[:-2] + constraints.shape[-1:]
    )
    x = linalg.hermitian_solve(np.asarray(cov), constraints, ridge)
    gram = constraints.conj().swapaxes(-1, -2) @ x
    cond = np.linalg.cond(gram)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if np.any(bad):
        raise ConstraintRankError(
            f"constraint set numerically rank-deficient (cond ~ {_first(cond, bad):.3g})"
        )
    return (x @ np.linalg.solve(gram, response[..., None]))[..., 0]


def _constraint_set(target, interferers, delta):
    """(..., M, 1 + U) constraints with the target first and their (..., 1 + U)
    responses: 1 for the target, ``delta`` per interferer."""
    if interferers is None:
        return target[..., None], np.ones(target.shape[:-1] + (1,))
    deltas = np.broadcast_to(np.asarray(delta, dtype=float), interferers.shape[-1:])
    response = np.concatenate([[1.0], deltas])
    constraints = np.concatenate([target[..., None], interferers], axis=-1)
    return constraints, np.broadcast_to(response, target.shape[:-1] + response.shape)


def _round(inputs, lam, cfg, delta, scaled=None):
    """One round of the shared solve for a stack of bins.

    ``inputs`` holds per-bin arrays with a leading bin axis: ``frames``;
    when predicting, ``stacked``; and the steering source, either ``mask``
    (plus optional ``interferer_masks`` (bins, U, K)) or ``steering`` and
    ``noise_cov`` (plus optional ``interferer_steering`` (bins, M, U)).
    ``scaled``, when given, is the flat buffer that holds the
    variance-scaled conjugate of the stacked frames. Returns (z, G or None,
    q, constraints, response).
    """
    y = inputs["frames"]
    m = y.shape[-1]
    derev = None
    d = y
    if "stacked" in inputs:
        stacked = inputs["stacked"]
        r_delay, p_cross, _ = _weighted_correlations(stacked, lam, m, scaled)
        derev = linalg.hermitian_solve(r_delay, p_cross, cfg.ridge)
        d = dereverberate(y, stacked, derev)
    if "noise_cov" in inputs:
        cov, target = inputs["noise_cov"], inputs["steering"]
        interferers = inputs.get("interferer_steering")
    else:
        cov = weighted_correlations(d, lam, m)[2]
        target = estimate_retf(d, inputs["mask"], cfg.reference_mic, cfg.ridge)
        interferers = None
        if "interferer_masks" in inputs:
            retfs = [
                estimate_retf(d, im, cfg.reference_mic, cfg.ridge)
                for im in inputs["interferer_masks"].swapaxes(0, 1)
            ]
            interferers = np.stack(retfs, axis=-1)
    constraints, response = _constraint_set(target, interferers, delta)
    weights = wlcmp_solve(cov, constraints, response, cfg.ridge)
    z = (d @ weights.conj()[..., None])[..., 0]
    return z, derev, weights, constraints, response


def _solve_chunk(inputs, cfg, rounds, delta, scaled=None):
    """Run the shared solve on one chunk, containing failures per bin.

    A round that raises for the chunk is repeated bin by bin: the bins that
    raise again are dropped with their (local bin, round, message) record,
    the others keep the results of their single-bin run, which are the
    values the chunk run computes for them. ``scaled`` is passed to every
    round. Returns (surviving local bins, their final-round outputs,
    (rounds, bins) objective, failures).
    """
    y = inputs["frames"]
    n_bins = y.shape[0]
    alive = np.arange(n_bins)
    objective = np.full((rounds, n_bins), np.nan)
    failures = []
    weighted = "stacked" in inputs
    if weighted:
        frame_power = (np.abs(y) ** 2).sum(axis=-1)
        floor = np.maximum(cfg.lambda_floor * frame_power.mean(axis=-1), np.finfo(float).tiny)
        lam = np.maximum(frame_power, floor[:, None])
    else:
        lam = np.ones(y.shape[:-1])
    for it in range(rounds):
        sub = inputs if alive.size == n_bins else {k: v[alive] for k, v in inputs.items()}
        try:
            out = _round(sub, lam[alive], cfg, delta, scaled)
        except _CONTAINED:
            parts, keep = [], []
            for b in alive:
                try:
                    single = {k: v[[b]] for k, v in inputs.items()}
                    parts.append(_round(single, lam[[b]], cfg, delta, scaled))
                    keep.append(b)
                except _CONTAINED as exc:
                    failures.append((b, it, str(exc)))
            alive = np.array(keep, dtype=int)
            if not keep:
                return alive, None, objective, failures
            out = tuple(None if p[0] is None else np.concatenate(p) for p in zip(*parts))
        if weighted:
            power = np.abs(out[0]) ** 2
            lam[alive] = np.maximum(power, floor[alive, None])
            log_term = np.log(lam[alive]).sum(axis=-1)
            objective[it, alive] = log_term + (power / lam[alive]).sum(axis=-1)
    finite = np.all(np.isfinite(out[0]), axis=-1)
    failures += [(b, rounds - 1, "non-finite output") for b in alive[~finite]]
    return alive[finite], [None if a is None else a[finite] for a in out], objective, failures


def _chunks(keys, bytes_per_bin):
    """Runs of consecutive bins with equal key (None: not solved), each cut
    into chunks whose stacked observations fit ``_CHUNK_BYTES``."""
    for key, group in itertools.groupby(range(len(keys)), keys.__getitem__):
        if key is None:
            continue
        bins = np.fromiter(group, dtype=int)
        per = max(1, _CHUNK_BYTES // bytes_per_bin(key))
        for lo in range(0, bins.size, per):
            yield key, bins[lo : lo + per]


def _chunk_frames(spec, bins, cfg, l_w, buffer=None):
    """(bins, K, M) frames of the given bins of an (M, K, F) spectrogram and
    their stacked observations (None without a prediction filter, l_w 0),
    held in the flat complex ``buffer`` when given."""
    frames = np.ascontiguousarray(spec[:, :, bins].transpose(2, 1, 0))
    return frames, _stack_frames(frames, cfg.frame_delay, l_w, buffer) if l_w else None


def _view(buffer, shape):
    """The leading elements of a flat buffer as a C-contiguous array of ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _passthrough_state(m, l_w, reference_mic):
    weights = np.zeros(m, dtype=complex)
    weights[reference_mic] = 1.0
    return BinState(l_w, None, weights, None, None, passthrough=True)


def _beamform(spec, cfg, per_bin, delta, convolutional, sample_rate=16000):
    """The shared constrained minimum-power solve over all bins.

    ``per_bin`` maps the steering inputs of ``_round`` to arrays with a
    leading (F,) bin axis. ``convolutional`` adds the prediction filter and
    ``cfg.iterations`` rounds of variance reweighting; otherwise one round
    runs on unit variances. Bins whose solve fails fall back to a
    reference-microphone passthrough.
    """
    m, k, f = spec.shape
    rounds = cfg.iterations if convolutional else 1
    # filter length per bin; 0: no prediction filter
    taps = [0] * f
    if convolutional:
        taps = [cfg.filter_length(fi * sample_rate / (2 * f - 2)) for fi in range(f)]
    # without supplied steering, all-zero bins pass through unrecorded
    solvable = np.any(spec, axis=(0, 1)) if "mask" in per_bin else np.ones(f, bool)
    keys = [t if ok else None for t, ok in zip(taps, solvable)]

    z = spec[cfg.reference_mic].astype(complex)
    states = [_passthrough_state(m, t or 1, cfg.reference_mic) for t in taps]
    objective_per_bin = np.full((rounds if convolutional else 0, f), np.nan)
    residuals = np.full(f, np.nan)
    failures = []

    with linalg.one_blas_thread() as pinned:
        # Single-round solves stay on the calling thread. Their chunks gain
        # little from a pool, and a worker thread allocates from a malloc
        # arena of its own, which cannot reuse what the calling thread freed:
        # MPDR on 10 s scenes, enhanced in the process that simulated them,
        # peaked at 213 MiB with two workers against 193 MiB with none.
        workers = 1
        if pinned and rounds > 1 and hasattr(os, "sched_getaffinity"):  # Linux
            workers = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
        # each worker's chunks fit its share of the byte budget
        chunks = list(_chunks(keys, lambda l_w: workers * _bin_bytes(k, m, l_w, cfg)))
        results = _solve_chunks(spec, per_bin, chunks, workers, cfg, rounds, delta)
    for (l_w, bins), (alive, out, objective, chunk_failures) in zip(chunks, results):
        failures += [(int(bins[b]), it, msg) for b, it, msg in chunk_failures]
        if out is None:
            continue
        solved = bins[alive]
        z_c, derev, weights, constraints, response = out
        z[:, solved] = z_c.T
        if convolutional:
            objective_per_bin[:, solved] = objective[:, alive]
        gain = (constraints.conj().swapaxes(-1, -2) @ weights[..., None])[..., 0]
        residuals[solved] = np.max(np.abs(gain - response), axis=-1)
        for j, fi in enumerate(solved):
            interferers = constraints[j, :, 1:] if constraints.shape[-1] > 1 else None
            derev_j = None if derev is None else derev[j]
            states[fi] = BinState(l_w or 1, derev_j, weights[j], constraints[j, :, 0], interferers)

    diagnostics = Diagnostics(
        objective=np.nansum(objective_per_bin, axis=1),
        objective_per_bin=objective_per_bin,
        max_constraint_residual=float(np.nanmax(residuals, initial=0.0)),
        constraint_residual_per_bin=residuals,
        failed_bins=sorted(failures),
    )
    return BeamformerOutput(z, states, diagnostics)


def _solve_chunks(spec, per_bin, chunks, workers, cfg, rounds, delta):
    """``_solve_chunk`` of every chunk on a pool of ``workers`` threads, or on
    the calling thread for one worker; the results in chunk order.

    Each worker holds two flat buffers sized for the largest chunk, for the
    stacked frames and their variance-scaled conjugate, and reuses them for
    every chunk and round it solves: a fresh array of that size faults its
    pages in again on each allocation.
    """
    m, k, _ = spec.shape
    size = max(
        (bins.size * _bin_bytes(k, m, l_w, cfg) // 16 for l_w, bins in chunks if l_w), default=0
    )
    # at most ``workers`` chunks run at once, so a free pair is always there
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty(size, dtype=complex), np.empty(size, dtype=complex)))

    def solve(chunk):
        l_w, bins = chunk
        stacked_buf, scaled_buf = buffers.get()
        try:
            inputs = {name: values[bins] for name, values in per_bin.items()}
            inputs["frames"], stacked = _chunk_frames(spec, bins, cfg, l_w, stacked_buf)
            if stacked is not None:
                inputs["stacked"] = stacked
            return _solve_chunk(inputs, cfg, rounds, delta, scaled_buf)
        finally:
            buffers.put((stacked_buf, scaled_buf))

    if workers == 1:
        return [solve(chunk) for chunk in chunks]
    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(solve, chunks))
    finally:
        pool.shutdown(cancel_futures=True)


def _bin_bytes(k, m, l_w, cfg):
    """Bytes of one bin's stacked observations (l_w 0: no prediction filter)."""
    return 16 * k * m * (l_w - cfg.frame_delay + 1 if l_w else 1)


def _mask_inputs(target_mask, interferer_masks):
    """The mask inputs of ``_round`` with a leading bin axis. ``interferer_masks``
    is a list, empty for the target-only constraint set."""
    per_bin = {"mask": np.asarray(target_mask, dtype=float).T}
    if interferer_masks:
        masks = [np.asarray(im, dtype=float).T for im in interferer_masks]
        per_bin["interferer_masks"] = np.stack(masks, axis=1)
    return per_bin


def run_conv_beamformer(
    spec, target_mask, interferer_masks=None, cfg=None, mode="wmpdr", sample_rate=16000
):
    """Convolutional beamformer over all bins: alternate prediction-filter,
    steering, weight and variance updates for ``cfg.iterations`` rounds.

    ``mode`` is "wmpdr" (distortionless only) or "wlcmp" (adds one response
    constraint per interferer mask at level ``cfg.delta``). Bins whose solve
    fails fall back to a reference-microphone passthrough and are recorded in
    the diagnostics instead of aborting the utterance.
    """
    cfg = cfg or ConvBeamformerConfig()
    if mode not in ("wmpdr", "wlcmp"):
        raise ValueError(f"unknown mode {mode!r}")
    spec = np.asarray(spec)
    _, k, f = spec.shape
    if np.shape(target_mask) != (k, f):
        raise ValueError(
            f"target mask shape {np.shape(target_mask)} does not match frames/bins {(k, f)}"
        )
    interferer_masks = [] if interferer_masks is None else list(interferer_masks)
    if any(np.shape(im) != (k, f) for im in interferer_masks):
        raise ValueError("interferer mask shape mismatch")
    per_bin = _mask_inputs(target_mask, interferer_masks if mode == "wlcmp" else [])
    return _beamform(spec, cfg, per_bin, cfg.delta, True, sample_rate)


def mpdr(spec, target_mask, cfg=None):
    """Conventional distortionless minimum-power beamformer on the raw-signal
    covariance, steered by a covariance-whitening estimate from the raw
    frames. Non-iterative."""
    cfg = cfg or ConvBeamformerConfig()
    return _beamform(np.asarray(spec), cfg, _mask_inputs(target_mask, []), None, False)


def lcmp(spec, target_mask, interferer_masks, delta=None, cfg=None):
    """Conventional linearly constrained minimum-power beamformer; ``delta``
    sets the per-interferer response (0 = hard null)."""
    cfg = cfg or ConvBeamformerConfig()
    if delta is None:
        delta = cfg.delta
    per_bin = _mask_inputs(target_mask, list(interferer_masks))
    return _beamform(np.asarray(spec), cfg, per_bin, delta, False)


def mvdr_lcmv(spec, steering, noise_cov, delta=None, interferer_steering=None, cfg=None):
    """Minimum-variance beamformer with caller-supplied steering vectors and
    per-bin noise covariance; with ``delta`` and interferer steering it
    becomes the constrained variant."""
    cfg = cfg or ConvBeamformerConfig()
    per_bin = {
        "steering": np.asarray(steering, dtype=complex),
        "noise_cov": np.asarray(noise_cov, dtype=complex),
    }
    if interferer_steering is not None:
        per_bin["interferer_steering"] = np.asarray(interferer_steering, dtype=complex)
        if delta is None:
            delta = cfg.delta
    return _beamform(np.asarray(spec), cfg, per_bin, delta, False)


def apply_bin_filters(states, spec, cfg=None):
    """Apply previously solved per-bin filters to a spectrogram.

    Useful for measuring how a fixed filter treats an individual scene
    component (target, interferer, noise) of the same mixture.
    """
    cfg = cfg or ConvBeamformerConfig()
    spec = np.asarray(spec)
    m, k, f = spec.shape
    if len(states) != f:
        raise ValueError(f"{len(states)} states for {f} bins")
    keys = [0 if s.derev is None else s.filter_taps for s in states]
    z = np.empty((k, f), dtype=complex)
    for l_w, bins in _chunks(keys, lambda l_w: _bin_bytes(k, m, l_w, cfg)):
        d, stacked = _chunk_frames(spec, bins, cfg, l_w)
        if stacked is not None:
            d = dereverberate(d, stacked, np.stack([states[fi].derev for fi in bins]))
        weights = np.stack([states[fi].weights for fi in bins])
        z[:, bins] = (d @ weights.conj()[..., None])[..., 0].T
    return z
