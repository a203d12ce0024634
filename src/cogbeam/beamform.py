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

One call can solve several speakers of the same mixture: the steering
inputs then carry a leading speaker axis, and the kernels run over
(speakers, bins). A chunk's frames are stacked once for all speakers, and
what does not depend on the speaker is computed once: the first round of
the convolutional types weights every speaker by the frame power of the
mixture, so its prediction filter, dereverberated frames and covariance are
shared, as is the unit-variance covariance of the conventional types. Only
the stacked-frame products of later rounds run speaker by speaker.

Numpy's OpenBLAS is pinned to one thread while chunks are solved
(``linalg.one_blas_thread``). The multi-round solves of the convolutional
types run their chunks on a thread pool with one worker per CPU of the
process's affinity mask, at most two; single-round solves, and every solve
where OpenBLAS cannot be pinned, run on the calling thread. The solve of a
(speaker, bin) pair does not depend on the chunk or the speakers it shares,
and the results are assembled in chunk order, so the output bits are the
same for any worker count, any BLAS thread setting, and whether the
speakers are solved together or one by one.

Shapes used throughout (per bin; stacks add a leading bin axis, joint
solves a speaker axis before it):
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
from ._schema import bound, check

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
    "mvdr_lcmv",
    "apply_bin_filters",
]

DEFAULT_FILTER_BANDS = ((0.0, 800.0, 20), (800.0, 1500.0, 16), (1500.0, None, 8))

_COND_LIMIT = 1e12

# Byte budget of the stacked observations of the chunks in flight: with w
# workers, each chunk fits _CHUNK_BYTES / w, but holds at least one bin.
# Each worker holds two buffers of the largest chunk, the stacked frames and
# their variance-scaled conjugate, which all speakers of a chunk share, so
# the pool's buffers total about twice the budget while a bin fits a
# worker's share, and 2 w times the largest bin once a bin is larger (a
# 20-tap bin of a 60 s, 4-mic scene with the default 512-sample STFT is
# 8.2 MB). Smaller chunks cost more calls per bin: at 10 rounds, the joint
# wMPDR solve of both speakers of a 2 s, 4-mic scene with a 128-sample STFT
# takes 0.78-0.82 s of CPU with one worker at 4 MiB, 1.13-1.34 s at 512 KiB,
# and 0.97-1.04 s with two workers at 2 MiB each (0.58-0.63 s of wall time;
# medians of 7, two runs each, 2 cores, one BLAS thread).
_CHUNK_BYTES = 4 << 20

# The pool's worker count is capped at the two it was measured with. Each
# chunk-round holds the GIL for its small-matrix kernels, and more workers
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
    ``reference_mic`` is one microphone index, or one per speaker of a joint
    solve. ``iterations`` is the number of reweighting rounds of wMPDR and
    wLCMP; in the README's study the default 2 has the highest mean over
    conditions and types of the median fwSSNR gain, and beats 10 rounds in
    every condition and type. ``delta`` is the response level of every
    interferer constraint (wLCMP, LCMP, LCMV), one value shared by all
    interferers; 0 is a hard null.
    """

    frame_delay: int = bound(4, ge=1)
    filter_length_bands: tuple[tuple[float, float | None, int], ...] = DEFAULT_FILTER_BANDS
    iterations: int = bound(2, ge=1)
    delta: float = bound(0.1, ge=0)
    lambda_floor: float = bound(1e-10, gt=0)
    ridge: float = bound(1e-8, ge=0)
    reference_mic: int | tuple[int, ...] = 0

    def __post_init__(self):
        check(self)
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
    """Per-bin record of a solve; a joint solve of S speakers adds a leading
    speaker axis to the arrays and the speaker to each failure."""

    objective: np.ndarray  # ([S,] iterations) variance-weighted power proxy, bin sum
    objective_per_bin: np.ndarray  # ([S,] iterations, F), NaN where unavailable
    max_constraint_residual: float  # over all speakers
    constraint_residual_per_bin: np.ndarray  # ([S,] F) max |C^H q - p|, NaN if passthrough
    failed_bins: list = field(default_factory=list)  # ([speaker,] bin, iteration, message)


@dataclass
class BeamformerOutput:
    z: np.ndarray  # ([S,] K, F) complex
    states: list  # BinState per bin, S * F of them speaker by speaker for S speakers
    diagnostics: Diagnostics

    def speaker(self, i):
        """Speaker ``i`` of a joint solve, as a solve of that speaker alone
        returns it."""
        f = self.z.shape[-1]
        diag = self.diagnostics
        residuals = diag.constraint_residual_per_bin[i]
        return BeamformerOutput(
            self.z[i],
            self.states[i * f : (i + 1) * f],
            Diagnostics(
                objective=diag.objective[i],
                objective_per_bin=diag.objective_per_bin[i],
                max_constraint_residual=float(np.nanmax(residuals, initial=0.0)),
                constraint_residual_per_bin=residuals,
                failed_bins=[failure[1:] for failure in diag.failed_bins if failure[0] == i],
            ),
        )


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


def _gram(frames, weights, total, buffer=None):
    """Hermitian part of the sum over frames of ``weights_k frames_k
    frames_k^H`` divided by ``total``, for (..., K, D) ``frames``, (..., K)
    ``weights`` (None: all ones) and a ``total`` that broadcasts against the
    (..., D, D) sums; leading axes broadcast. Computed as the conjugate of
    ``(weights * conj(frames))^T @ frames``, which needs no conjugated copy
    of the frames; the conjugate is held in the flat complex ``buffer`` when
    given.
    """
    scaled = np.conjugate(frames, out=None if buffer is None else _view(buffer, frames.shape))
    if weights is not None:
        weights = weights[..., None]
        # in place, unless the weights have rows the frames broadcast over
        in_place = weights.shape[:-1] == frames.shape[:-1]
        scaled = np.multiply(scaled, weights, out=scaled if in_place else None)
    return linalg.hermitian_part(np.conjugate(scaled.swapaxes(-1, -2) @ frames) / total)


def weighted_correlations(stacked, lam, buffer=None):
    """Variance-weighted sample correlation of stacked observations.

    ``stacked`` is (..., K, D) and ``lam`` (..., K). Returns the Hermitian
    (..., D, D) average of ``stacked_k stacked_k^H / lam_k`` over frames.
    ``buffer``, when given, is a flat complex array that holds the
    variance-scaled conjugate of the frames.
    """
    stacked = np.asarray(stacked)
    # numpy divides complex by real as a product with the reciprocal; the
    # explicit product gives the same bits at half the cost
    return _gram(stacked, 1.0 / np.asarray(lam, dtype=float), stacked.shape[-2], buffer)


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
    ``reference_mic`` is an index, or an index array broadcast against the
    leading axes. Leading axes of ``frames`` and ``weights`` broadcast.
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
    cov_src, cov_rest = (
        _gram(frames, w, total[..., None, None])
        for w, total in ((weights, w_sum), (1.0 - weights, c_sum))
    )
    if not (np.all(np.any(cov_src, axis=(-2, -1))) and np.all(np.any(cov_rest, axis=(-2, -1)))):
        raise DegenerateMaskError("weighted covariance is identically zero")
    cov_rest = linalg.loaded(cov_rest, ridge)
    vec, _ = linalg.max_generalized_eigvec(cov_src, cov_rest)
    steering = (cov_rest @ vec[..., None])[..., 0]
    ref_index = np.broadcast_to(np.asarray(reference_mic)[..., None], steering.shape[:-1] + (1,))
    ref = np.take_along_axis(steering, ref_index, axis=-1)[..., 0]
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
    response = np.array([1.0] + [delta] * interferers.shape[-1])
    constraints = np.concatenate([target[..., None], interferers], axis=-1)
    return constraints, np.broadcast_to(response, target.shape[:-1] + response.shape)


def _round(shared, per_speaker, lam, cfg, scaled=None):
    """One round of the shared solve for a grid of (speaker, bin) pairs.

    ``shared`` holds the arrays every speaker uses, with a leading bin axis:
    ``frames``; when predicting, ``stacked``; with supplied steering,
    ``noise_cov``. ``per_speaker`` holds arrays with leading (speakers, bins)
    axes: ``reference_mic`` and the steering source, either ``mask`` (plus
    optional ``interferer_masks`` (..., U, K)) or ``steering`` (plus optional
    ``interferer_steering`` (..., M, U)). ``lam`` (L, bins, K) holds the
    frame variances of each speaker, or with L = 1 of all speakers, whose
    prediction filter and covariance are then solved once. ``scaled``, when
    given, is the flat buffer that holds the variance-scaled conjugate of
    the stacked frames. Returns (z, G or None, q, constraints, response),
    with leading (speakers, bins) axes; with L = 1, every speaker's G is a
    view of the one filter.
    """
    y = shared["frames"]
    m = y.shape[-1]
    derev = None
    d = y[None]
    if "stacked" in shared:
        stacked = shared["stacked"]
        # the one scaled buffer serves the speakers in turn
        grams = [weighted_correlations(stacked, lam_s, scaled) for lam_s in lam]
        r_full = np.stack(grams) if len(grams) > 1 else grams[0][None]
        derev = linalg.hermitian_solve(r_full[..., m:, m:], r_full[..., m:, :m], cfg.ridge)
        d = dereverberate(y, stacked, derev)
        derev = np.broadcast_to(derev, per_speaker["reference_mic"].shape + derev.shape[2:])
    if "noise_cov" in shared:
        cov, target = shared["noise_cov"], per_speaker["steering"]
        interferers = per_speaker.get("interferer_steering")
    else:
        cov = weighted_correlations(d, lam)
        ref = per_speaker["reference_mic"]
        target = estimate_retf(d, per_speaker["mask"], ref, cfg.ridge)
        interferers = None
        if "interferer_masks" in per_speaker:
            retfs = [
                estimate_retf(d, im, ref, cfg.ridge)
                for im in np.moveaxis(per_speaker["interferer_masks"], -2, 0)
            ]
            interferers = np.stack(retfs, axis=-1)
    constraints, response = _constraint_set(target, interferers, cfg.delta)
    weights = wlcmp_solve(cov, constraints, response, cfg.ridge)
    z = (d @ weights.conj()[..., None])[..., 0]
    return z, derev, weights, constraints, response


def _solve_grid(shared, per_speaker, cfg, rounds, scaled=None):
    """Run every round of the shared solve on a (speakers, bins) grid of
    pairs, without containing failures: an error a round raises carries
    that round in its ``round`` attribute. Returns the final round's outputs
    and the (rounds, speakers, bins) objective, NaN without reweighting.
    """
    y = shared["frames"]
    objective = np.full((rounds,) + per_speaker["reference_mic"].shape, np.nan)
    weighted = "stacked" in shared
    # the first round weights every speaker alike: one row for all
    if weighted:
        frame_power = (np.abs(y) ** 2).sum(axis=-1)
        floor = np.maximum(cfg.lambda_floor * frame_power.mean(axis=-1), np.finfo(float).tiny)
        lam = np.maximum(frame_power, floor[:, None])[None]
    else:
        lam = np.ones((1,) + y.shape[:-1])
    for it in range(rounds):
        try:
            out = _round(shared, per_speaker, lam, cfg, scaled)
        except _CONTAINED as exc:
            exc.round = it
            raise
        if weighted:
            # after the first round, each speaker has variances of its own
            power = np.abs(out[0]) ** 2
            lam = np.maximum(power, floor[:, None])
            objective[it] = np.log(lam).sum(axis=-1) + (power / lam).sum(axis=-1)
    return out, objective


def _solve_chunk(shared, per_speaker, cfg, rounds, scaled=None):
    """Run the shared solve on one chunk for every speaker, containing
    failures per (speaker, bin) pair.

    The chunk is solved as one grid. If any round raises, every pair is
    solved alone from the first round: the pairs that raise are dropped with
    their (speaker, local bin, round, message) record, the others keep the
    results of their own run, the values the grid run computes for them.
    Returns ((speakers, bins) mask of the solved pairs, their final-round
    outputs or None if no pair is left, (rounds, speakers, bins) objective,
    failures).
    """
    n_spk, n_bins = per_speaker["reference_mic"].shape
    alive = np.ones((n_spk, n_bins), dtype=bool)
    failures = []
    try:
        final, objective = _solve_grid(shared, per_speaker, cfg, rounds, scaled)
    except _CONTAINED:
        final, objective = None, np.full((rounds, n_spk, n_bins), np.nan)
        for s, b in itertools.product(range(n_spk), range(n_bins)):
            pair = {k: v[np.ix_([s], [b])] for k, v in per_speaker.items()}
            try:
                out, objective[:, s : s + 1, b : b + 1] = _solve_grid(
                    {k: v[[b]] for k, v in shared.items()}, pair, cfg, rounds, scaled
                )
            except _CONTAINED as exc:
                alive[s, b] = False
                failures.append((s, b, exc.round, str(exc)))
                continue
            if final is None:
                final = [
                    None if a is None else np.zeros((n_spk, n_bins) + a.shape[2:], a.dtype)
                    for a in out
                ]
            for store, a in zip(final, out):
                if store is not None:
                    store[s, b] = a[0, 0]
        if final is None:
            return alive, None, objective, failures
    bad = alive & ~np.all(np.isfinite(final[0]), axis=-1)
    failures += [(int(s), int(b), rounds - 1, "non-finite output") for s, b in np.argwhere(bad)]
    return alive & ~bad, final, objective, failures


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


def _beamform(spec, cfg, shared, per_speaker, joint, convolutional, sample_rate=16000):
    """The shared constrained minimum-power solve over all bins and speakers.

    ``shared`` maps the inputs of ``_round`` that all speakers use to arrays
    with a leading (F,) bin axis, ``per_speaker`` the steering inputs to
    arrays with leading (S, F) axes. ``convolutional`` adds the prediction
    filter and ``cfg.iterations`` rounds of variance reweighting; otherwise
    one round runs on unit variances. Pairs whose solve fails fall back to a
    passthrough of the speaker's reference microphone. Returns the joint
    output of the S speakers, or without ``joint`` the one speaker's output.
    """
    m, k, f = spec.shape
    n_spk = len(per_speaker["mask" if "mask" in per_speaker else "steering"])
    ref_mics = np.broadcast_to(np.asarray(cfg.reference_mic, dtype=int), (n_spk,))
    per_speaker = dict(per_speaker, reference_mic=np.broadcast_to(ref_mics[:, None], (n_spk, f)))
    rounds = cfg.iterations if convolutional else 1
    # filter length per bin; 0: no prediction filter
    taps = [0] * f
    if convolutional:
        taps = [cfg.filter_length(fi * sample_rate / (2 * f - 2)) for fi in range(f)]
    # without supplied steering, all-zero bins pass through unrecorded
    solvable = np.any(spec, axis=(0, 1)) if "mask" in per_speaker else np.ones(f, bool)
    keys = [t if ok else None for t, ok in zip(taps, solvable)]

    z = spec[ref_mics].astype(complex, copy=False)
    states = [_passthrough_state(m, t or 1, ref) for ref in ref_mics for t in taps]
    objective_per_bin = np.full((n_spk, rounds if convolutional else 0, f), np.nan)
    residuals = np.full((n_spk, f), np.nan)
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
        chunks = list(_chunks(keys, lambda l_w: workers * _bin_bytes(k, m, l_w, cfg, n_spk)))
        results = _solve_chunks(spec, shared, per_speaker, chunks, workers, cfg, rounds)
        for (l_w, bins), (alive, out, objective, chunk_failures) in zip(chunks, results):
            failures += [(s, int(bins[b]), it, msg) for s, b, it, msg in chunk_failures]
            if out is None:
                continue
            z_c, derev, weights, constraints, response = out
            gain = (constraints.conj().swapaxes(-1, -2) @ weights[..., None])[..., 0]
            residual = np.max(np.abs(gain - response), axis=-1)
            for s, j in np.argwhere(alive):
                interferers = constraints[s, j, :, 1:] if constraints.shape[-1] > 1 else None
                derev_j = None if derev is None else derev[s, j]
                states[s * f + bins[j]] = BinState(
                    l_w or 1, derev_j, weights[s, j], constraints[s, j, :, 0], interferers
                )
            for s, ok in enumerate(alive):
                solved = bins[ok]
                z[s][:, solved] = z_c[s, ok].T
                if convolutional:
                    objective_per_bin[s][:, solved] = objective[:, s, ok]
                residuals[s, solved] = residual[s, ok]

    diagnostics = Diagnostics(
        objective=np.nansum(objective_per_bin, axis=-1),
        objective_per_bin=objective_per_bin,
        max_constraint_residual=float(np.nanmax(residuals, initial=0.0)),
        constraint_residual_per_bin=residuals,
        failed_bins=sorted(failures),
    )
    out = BeamformerOutput(z, states, diagnostics)
    return out if joint else out.speaker(0)


def _solve_chunks(spec, shared, per_speaker, chunks, workers, cfg, rounds):
    """``_solve_chunk`` of every chunk on a pool of ``workers`` threads, or on
    the calling thread for one worker; yields the results in chunk order, so
    that each is assembled and dropped while later chunks are solved.

    Each worker holds two flat buffers sized for the largest chunk, for the
    stacked frames and their variance-scaled conjugate, and reuses them for
    every chunk, round and speaker it solves: a fresh array of that size
    faults its pages in again on each allocation.
    """
    m, k, _ = spec.shape
    speakers = np.arange(len(per_speaker["reference_mic"]))
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
            chunk_shared = {name: values[bins] for name, values in shared.items()}
            chunk_shared["frames"], stacked = _chunk_frames(spec, bins, cfg, l_w, stacked_buf)
            if stacked is not None:
                chunk_shared["stacked"] = stacked
            # a C-contiguous (speakers, bins) copy; ``take`` would first copy all bins
            grid = np.ix_(speakers, bins)
            chunk_per = {name: values[grid] for name, values in per_speaker.items()}
            return _solve_chunk(chunk_shared, chunk_per, cfg, rounds, scaled_buf)
        finally:
            buffers.put((stacked_buf, scaled_buf))

    if workers == 1:
        yield from map(solve, chunks)
        return
    pool = ThreadPoolExecutor(workers)
    try:
        yield from pool.map(solve, chunks)
    finally:
        pool.shutdown(cancel_futures=True)


def _bin_bytes(k, m, l_w, cfg, speakers=1):
    """Bytes of one bin's stacked observations, or without a prediction
    filter (l_w 0) of its frames once per speaker: the steering estimate
    and the output of a single-round solve hold frame-sized arrays per
    speaker."""
    return 16 * k * m * (l_w - cfg.frame_delay + 1 if l_w else speakers)


def _mask_inputs(target_mask, interferer_masks, k, f):
    """The per-speaker mask inputs of ``_round`` with leading (S, F) axes and
    whether they come from a joint (S, K, F) target stack rather than one
    (K, F) mask. ``interferer_masks`` is ([S,] U, K, F); None or empty for
    the target-only constraint set."""
    target = np.asarray(target_mask, dtype=float)
    if target.ndim not in (2, 3) or target.shape[-2:] != (k, f):
        raise ValueError(
            f"target mask shape {target.shape} does not match frames/bins {(k, f)}"
        )
    joint = target.ndim == 3
    per_speaker = {"mask": np.swapaxes(target.reshape((-1, k, f)), -1, -2)}
    others = np.asarray([] if interferer_masks is None else interferer_masks, dtype=float)
    if others.size:
        if others.ndim != target.ndim + 1 or others.shape[:-3] + others.shape[-2:] != target.shape:
            raise ValueError(
                f"interferer mask shape mismatch: {others.shape} for target {target.shape}"
            )
        others = others.reshape((-1,) + others.shape[-3:])
        per_speaker["interferer_masks"] = np.moveaxis(others, -1, 1)  # (S, F, U, K)
    return per_speaker, joint


def run_conv_beamformer(spec, target_mask, interferer_masks=None, cfg=None, sample_rate=16000):
    """Convolutional beamformer over all bins: alternate prediction-filter,
    steering, weight and variance updates for ``cfg.iterations`` rounds.

    Without interferer masks this is wMPDR (distortionless only); with them
    it is wLCMP, which adds one response constraint per interferer mask at
    level ``cfg.delta``. A (K, F) ``target_mask`` with a list of (K, F)
    interferer masks solves one speaker; an (S, K, F) stack with (S, U, K,
    F) interferer masks solves S speakers of the mixture in one pass and
    returns their joint output (``BeamformerOutput.speaker``). Bins whose
    solve fails fall back to a reference-microphone passthrough and are
    recorded in the diagnostics instead of aborting the utterance.
    """
    cfg = cfg or ConvBeamformerConfig()
    spec = np.asarray(spec)
    per_speaker, joint = _mask_inputs(target_mask, interferer_masks, *spec.shape[1:])
    return _beamform(spec, cfg, {}, per_speaker, joint, True, sample_rate)


def mpdr(spec, target_mask, interferer_masks=None, cfg=None):
    """Conventional minimum-power beamformer on the raw-signal covariance,
    steered by covariance-whitening estimates from the raw frames.
    Non-iterative. Without interferer masks this is the distortionless MPDR;
    with them it is LCMP, with one response constraint per interferer at
    level ``cfg.delta``. An (S, K, F) ``target_mask`` with (S, U, K, F)
    interferer masks solves S speakers."""
    cfg = cfg or ConvBeamformerConfig()
    spec = np.asarray(spec)
    per_speaker, joint = _mask_inputs(target_mask, interferer_masks, *spec.shape[1:])
    return _beamform(spec, cfg, {}, per_speaker, joint, False)


def mvdr_lcmv(spec, steering, noise_cov, interferer_steering=None, cfg=None):
    """Minimum-variance beamformer with caller-supplied (F, M) steering
    vectors and (F, M, M) noise covariance; with (F, M, U) interferer
    steering it becomes LCMV, with one response constraint per interferer at
    level ``cfg.delta``. (S, F, M) steering with (S, F, M, U) interferer
    steering solves S speakers that share the noise covariance."""
    cfg = cfg or ConvBeamformerConfig()
    steering = np.asarray(steering, dtype=complex)
    joint = steering.ndim == 3
    per_speaker = {"steering": steering.reshape((-1,) + steering.shape[-2:])}
    if interferer_steering is not None:
        others = np.asarray(interferer_steering, dtype=complex)
        per_speaker["interferer_steering"] = others.reshape((-1,) + others.shape[-3:])
    shared = {"noise_cov": np.asarray(noise_cov, dtype=complex)}
    return _beamform(np.asarray(spec), cfg, shared, per_speaker, joint, False)


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
