"""Envelope extraction, linear stimulus-reconstruction decoding, and
correlation-based attended-speaker selection.

The decoder is a lagged linear map from multichannel EEG to the attended
speech envelope, trained by ridge regression. Selection correlates the
reconstruction against each candidate reference envelope and picks the
argmax. A seeded synthetic-EEG generator stands in for recorded data so the
whole chain can be exercised end to end. It synthesizes a whole trial set in
one pass: one noise filter call for every trial and channel, one draw of the
listener's mixing.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.signal

from . import linalg

__all__ = [
    "UndefinedCorrelationError",
    "SpeakerSelection",
    "extract_envelope",
    "pearson",
    "select_speaker",
    "make_synthetic_trial_set",
    "decode_trials",
]


class UndefinedCorrelationError(ValueError):
    """Pearson correlation undefined (zero variance input)."""


@functools.lru_cache(maxsize=16)
def _lowpass(cutoff_hz, rate):
    """Second-order Butterworth low-pass sections, designed once per
    (cutoff, rate). Kept as a tuple so no caller can change the shared
    design; ``sosfiltfilt`` reads it as the same float64 array."""
    return tuple(map(tuple, scipy.signal.butter(2, cutoff_hz, fs=rate, output="sos")))


@functools.lru_cache(maxsize=16)
def _decimation_fir(up, down):
    """The anti-aliasing FIR that ``resample_poly(x, up, down)`` designs for
    itself, designed once per (up, down). Read-only; ``resample_poly`` copies
    an array window and scales the copy by ``up``, as it does its own design,
    so passing it as ``window=`` gives the same bits."""
    max_rate = max(up, down)
    fir = scipy.signal.firwin(2 * 10 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    fir.flags.writeable = False
    return fir


def extract_envelope(signal, rate_in, rate_out=64):
    """Slow amplitude envelope: rectify, 8 Hz low-pass (zero-phase, effective
    4th order), resample to ``rate_out``. Output is nonnegative."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("empty signal")
    if rate_out > rate_in:
        raise ValueError("rate_out must not exceed rate_in")
    env = np.abs(signal)
    if rate_in > 16:
        env = scipy.signal.sosfiltfilt(_lowpass(8.0, rate_in), env)
    if rate_out != rate_in:
        g = math.gcd(int(rate_out), int(rate_in))
        up, down = int(rate_out) // g, int(rate_in) // g
        env = scipy.signal.resample_poly(env, up, down, window=_decimation_fir(up, down))
    return np.clip(env, 0.0, None)


def _lag_indices(lag_range_ms, rate):
    lo = int(round(lag_range_ms[0] * 1e-3 * rate))
    hi = int(round(lag_range_ms[1] * 1e-3 * rate))
    if lo < 0 or hi < lo:
        raise ValueError(f"bad lag range {lag_range_ms}")
    return np.arange(lo, hi + 1)


def _zscore(eeg):
    mean = eeg.mean(axis=1, keepdims=True)
    std = eeg.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return (eeg - mean) / std


def _design_matrix(eeg, lags):
    """Lagged EEG features: row l holds eeg[c, l + lag] for all (c, lag),
    column ``c * len(lags) + j`` for lag ``lags[j]``. ``lags`` is a run of
    consecutive samples, as ``_lag_indices`` makes it."""
    n_ch, n = eeg.shape
    valid = n - lags[-1]
    if valid < 1:
        raise ValueError("EEG shorter than the decoder lag span")
    # windows[c, l, j] = eeg[c, lags[0] + l + j]: one window per valid row
    windows = np.lib.stride_tricks.sliding_window_view(eeg[:, lags[0] :], lags.size, axis=1)
    return np.ascontiguousarray(windows.transpose(1, 0, 2)).reshape(valid, n_ch * lags.size)


def _normal_terms(eeg, env, lags):
    """One trial's lagged design matrix ``X`` with its normal-equation terms:
    ``(X, XᵀX, Xᵀe, rows)``."""
    eeg = np.asarray(eeg, dtype=float)
    env = np.asarray(env, dtype=float)
    if eeg.shape[1] != env.shape[0]:
        raise ValueError(
            f"trial length mismatch: EEG {eeg.shape[1]}, envelope {env.shape[0]}"
        )
    x = _design_matrix(_zscore(eeg), lags)
    return x, x.T @ x, x.T @ env[: x.shape[0]], x.shape[0]


def _ridge_solve(terms, ridge):
    """Decoder weights from per-trial ``(XᵀX, Xᵀe, rows)`` terms, summed in
    the given order. ``ridge`` is relative to the mean lagged-feature power,
    so the regularization does not depend on the EEG amplitude scale."""
    if not terms:
        raise ValueError("need at least one training trial")
    dim = terms[0][0].shape[0]
    normal = np.zeros((dim, dim))
    cross = np.zeros(dim)
    n_rows = 0
    for xtx, xte, rows in terms:
        normal += xtx
        cross += xte
        n_rows += rows
    normal /= n_rows
    cross /= n_rows
    penalty = ridge * float(np.mean(np.diag(normal)))
    return np.linalg.solve(normal + penalty * np.eye(dim), cross)


def pearson(a, b):
    """Pearson correlation of two equal-length sequences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two 1-D sequences of equal length >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.linalg.norm(ac) * np.linalg.norm(bc)
    if denom == 0.0:
        raise UndefinedCorrelationError("zero-variance input")
    return float(np.dot(ac, bc) / denom)


@dataclass
class SpeakerSelection:
    index: int
    correlations: np.ndarray  # NaN where a candidate was excluded
    tie: bool = False
    excluded: tuple = ()


def select_speaker(reference_envelopes, reconstructed):
    """Pick the candidate envelope most correlated with the reconstruction.

    Candidates with undefined correlation are excluded and flagged; exact
    ties resolve to the lowest index with the tie flag set.
    """
    if len(reference_envelopes) < 2:
        raise ValueError("need at least two candidate envelopes")
    rho = np.full(len(reference_envelopes), np.nan)
    excluded = []
    for i, env in enumerate(reference_envelopes):
        env = np.asarray(env, dtype=float)[: len(reconstructed)]
        try:
            rho[i] = pearson(env, reconstructed)
        except UndefinedCorrelationError:
            excluded.append(i)
    if np.all(np.isnan(rho)):
        raise UndefinedCorrelationError("every candidate correlation undefined")
    best = int(np.nanargmax(rho))
    tie = bool(np.sum(rho == rho[best]) > 1)
    return SpeakerSelection(best, rho, tie, tuple(excluded))


def _delayed(x, delay):
    out = np.zeros_like(x)
    if delay == 0:
        return x.copy()
    out[delay:] = x[:-delay]
    return out


# synthetic EEG: the longest delay of an envelope copy, inside the decoder's
# default lag span, and the unattended copy's gain relative to the attended
_MAX_LAG_MS = 200.0
_LEAKAGE = 0.3


def _synthesize_trials(attended, unattended, n_channels, snr_db, mixing_seed, noise_seeds, rate):
    """EEG ``(trials, channels, samples)`` for ``(trials, samples)`` attended
    and unattended envelopes; trial ``t`` draws its noise from
    ``noise_seeds[t]``.

    The mixing stream is drawn once, as one trial would draw it, and every
    trial's noise is filtered and normalized in one pass. The mixing step
    runs per (trial, channel) on the filter's output as it is: that output
    is a reversed-stride view, and the coupling product on a contiguous copy
    of it differs in the last bit.
    """
    n_trials, n = attended.shape
    mix_rng = np.random.default_rng(mixing_seed)
    mix_rng.integers(2**63)  # unused, but dropping it shifts every later draw and EEG bit
    max_lag = max(1, int(round(_MAX_LAG_MS * 1e-3 * rate)))

    # volume conduction: half the background power is shared across channels
    # through a per-listener coupling, so channel averaging cannot integrate
    # the noise away the way it could for independent sensor noise
    n_shared = 3
    coupling = mix_rng.standard_normal((n_channels, n_shared))
    coupling /= np.linalg.norm(coupling, axis=1, keepdims=True)
    mixing = []  # per channel: attended gain and delay, unattended gain and delay
    for _ in range(n_channels):
        gain_a = mix_rng.uniform(0.5, 1.0) * mix_rng.choice((-1.0, 1.0))
        gain_u = _LEAKAGE * mix_rng.uniform(0.5, 1.0) * mix_rng.choice((-1.0, 1.0))
        delay_a = int(mix_rng.integers(0, max_lag + 1))
        delay_u = int(mix_rng.integers(0, max_lag + 1))
        mixing.append((gain_a, delay_a, gain_u, delay_u))

    # per trial: the shared rows, then one row per channel
    noise = np.empty((n_trials, n_shared + n_channels, n))
    for t, seed in enumerate(noise_seeds):
        np.random.default_rng(seed).standard_normal(out=noise[t])
    noise = scipy.signal.sosfiltfilt(_lowpass(min(10.0, 0.4 * rate / 2), rate), noise, axis=-1)
    noise /= np.maximum(noise.std(axis=-1, keepdims=True), 1e-12)

    eeg = np.empty((n_trials, n_channels, n))
    for t in range(n_trials):
        shared = noise[t, :n_shared]
        for c, (gain_a, delay_a, gain_u, delay_u) in enumerate(mixing):
            comp = gain_a * _delayed(attended[t], delay_a)
            comp += gain_u * _delayed(unattended[t], delay_u)
            background = np.sqrt(0.5) * noise[t, n_shared + c] + np.sqrt(0.5) * (
                coupling[c] @ shared
            )
            noise_std = max(comp.std(), 1e-12) * 10.0 ** (-snr_db / 20.0)
            eeg[t, c] = comp + noise_std * background
    return eeg


def make_synthetic_trial_set(
    envelopes,
    attended,
    rate=64,
    n_channels=16,
    snr_db=20.0,
    seed=0,
    trial_seconds=30.0,
):
    """Split candidate envelopes into fixed-length trials and synthesize EEG
    following the attended speaker: returns ``(eeg, labels)``, with ``eeg``
    of shape ``(trials, channels, samples)`` and one label per trial.

    ``attended`` is a speaker index applied to all trials or one index per
    trial. Each channel carries a randomly weighted and delayed copy of the
    attended envelope, a weaker copy of the mean of the others, and
    low-frequency Gaussian noise scaled so the attended component sits at
    ``snr_db``. The noise is band-matched to the envelope region (EEG
    background is dominated by slow activity), so ``snr_db`` states the
    ratio in the band a linear decoder can exploit; white noise would let
    long trials recover the envelope far below its nominal level. Delays
    stay inside the decoder's default lag span.

    ``seed`` plays the role of the listener: the mixing (delays, gains,
    signs) is drawn from it once and fixed across the whole set, and trial
    ``t`` draws its noise from ``SeedSequence((seed, t))``, so a decoder
    trained on some trials of a set transfers to the rest. A trial's EEG
    depends only on its own envelopes, ``seed`` and ``t``: the same bits in
    a set of any size.
    """
    envelopes = np.asarray(envelopes, dtype=float)
    n_spk, n = envelopes.shape
    per_trial = int(round(trial_seconds * rate))
    n_trials = n // per_trial
    if n_trials == 0:
        raise ValueError("envelopes shorter than one trial")
    labels = np.broadcast_to(np.asarray(attended, dtype=int), (n_trials,)).copy()
    if np.any((labels < 0) | (labels >= n_spk)):
        raise ValueError(f"attended speaker indices must lie in [0, {n_spk})")
    attended_envs = np.empty((n_trials, per_trial))
    unattended_envs = np.zeros((n_trials, per_trial))
    for t, att in enumerate(labels):
        seg = envelopes[:, t * per_trial : (t + 1) * per_trial]
        attended_envs[t] = seg[att]
        others = [i for i in range(n_spk) if i != att]
        if others:
            unattended_envs[t] = seg[others].mean(axis=0)
    eeg = _synthesize_trials(
        attended_envs,
        unattended_envs,
        n_channels,
        snr_db,
        seed,
        [np.random.SeedSequence((seed, t)) for t in range(n_trials)],
        rate,
    )
    return eeg, labels


def decode_trials(eeg, candidates, labels, lag_range_ms=(0.0, 250.0), ridge=100.0, rate=64):
    """Leave-one-out decoding: for each trial, train a decoder on the
    attended envelopes of all other trials, reconstruct this trial's
    envelope and select among its candidates.

    ``eeg[t]`` is trial ``t``'s ``(channels, samples)`` EEG, ``candidates[t]``
    its ``(speakers, samples)`` candidate envelopes and ``labels[t]`` the
    index of its attended candidate. Returns one SpeakerSelection per trial.
    """
    n_trials = len(eeg)
    if len(candidates) != n_trials or len(labels) != n_trials:
        raise ValueError(
            f"{n_trials} EEG trials, {len(candidates)} candidate sets "
            f"and {len(labels)} labels"
        )
    lags = _lag_indices(lag_range_ms, rate)
    with linalg.one_blas_thread():
        per_trial = [_normal_terms(eeg[t], candidates[t][labels[t]], lags) for t in range(n_trials)]
        selections = []
        for t, (x, *_) in enumerate(per_trial):
            w = _ridge_solve([terms[1:] for j, terms in enumerate(per_trial) if j != t], ridge)
            selections.append(select_speaker(candidates[t], x @ w))
    return selections
