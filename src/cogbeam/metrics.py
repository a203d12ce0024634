"""Frequency-weighted segmental SNR and decoding-accuracy measures.

The segmental SNR variant here frames both signals, measures per-band SNR of
the residual (test minus reference) against the reference in mel-spaced
bands, clamps each band SNR, and averages with reference-magnitude weights
over speech-active frames. Its parameters are fixed (the constants below),
so every comparison inside this package uses the same variant, as
fwSegSNR (Hu & Loizou, IEEE TASLP 16(1), 2008) does.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .stft import _frame_blocks

__all__ = [
    "FwssnrReference",
    "input_fwssnr",
    "DecodeOutcome",
    "selection_outcome",
    "aad_accuracy",
    "chance_upper_bound",
    "PUBLISHED_CHANCE_BOUND_PCT",
]

# Chance-level upper bounds published for the original 40- and 20-trial
# listening-test conditions; reported next to our exact-binomial bound for
# comparison because the convention behind them is not reproducible exactly.
PUBLISHED_CHANCE_BOUND_PCT = {40: 61.39, 20: 66.19}


# The fwSSNR variant: 32 ms Hann frames at 75 % overlap, 25 mel bands from
# 50 Hz to Nyquist, band SNRs clamped to [-10, 35] dB, frame weights of the
# reference band magnitude ** 0.2, and frames more than 35 dB below the
# loudest reference frame skipped.
_FRAME_MS = 32.0
_OVERLAP = 0.75
_N_BANDS = 25
_LOW_HZ = 50.0
_CLAMP_DB = (-10.0, 35.0)
_WEIGHT_EXPONENT = 0.2
_ACTIVE_RANGE_DB = 35.0


def _frame_length(sample_rate):
    """Samples in one fwSSNR frame at ``sample_rate``."""
    return int(round(_FRAME_MS * 1e-3 * sample_rate))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def _band_matrix(n_fft, sample_rate):
    """Triangular mel-spaced filters (n_bands, n_bins), unit peak; read-only,
    built once per frame length and sample rate."""
    edges = _mel_to_hz(np.linspace(_hz_to_mel(_LOW_HZ), _hz_to_mel(sample_rate / 2), _N_BANDS + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((_N_BANDS, bin_hz.size))
    for j in range(_N_BANDS):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_hz - left) / max(center - left, 1e-12)
        falling = (right - bin_hz) / max(right - center, 1e-12)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    fb.flags.writeable = False
    return fb


def _frame_spectra(signal, frame, hop):
    n = signal.size
    if n < frame:
        raise ValueError(f"signal length {n} shorter than one frame ({frame})")
    frames = np.lib.stride_tricks.sliding_window_view(signal, frame)[::hop]
    return np.fft.rfft(frames * np.hanning(frame), axis=-1)


class FwssnrReference:
    """A reference signal framed once, for scoring any number of signals.

    Holds the reference's band powers, its speech-active frames and the
    per-frame band weights; ``score(test)`` is the fwSSNR of ``test``
    against the reference. ``band_power`` and ``score_band_power`` split the
    score at the residual's band powers, so a caller that can compute those
    another way (the noise-gain calibration) shares the scoring tail.

    Raises ValueError for a silent reference, one shorter than a frame, or
    one with no speech-active frame.
    """

    def __init__(self, reference, sample_rate=16000):
        reference = np.asarray(reference, dtype=float)
        if not np.any(reference):
            raise ValueError("reference signal is silent")
        self.reference = reference
        self.frame = _frame_length(sample_rate)
        self.hop = max(1, int(round(self.frame * (1.0 - _OVERLAP))))
        self._fb_t = _band_matrix(self.frame, sample_rate).T
        self.ref_band = self.band_power(reference)  # (frames, bands)

        frame_energy = self.ref_band.sum(axis=1)
        peak = frame_energy.max()
        self.active = frame_energy > peak * 10.0 ** (-_ACTIVE_RANGE_DB / 10.0)
        if not np.any(self.active):
            raise ValueError("no speech-active frames in reference")
        self.weights = self.ref_band ** (_WEIGHT_EXPONENT / 2.0)  # magnitude ** exponent
        self.w_sum = self.weights.sum(axis=1)
        self.w_sum[self.w_sum == 0] = 1.0

    def spectra(self, signal):
        """Windowed frame spectra (frames, bins) of a signal framed like the reference."""
        return _frame_spectra(signal, self.frame, self.hop)

    def bands(self, power_spectra):
        """Band powers (frames, bands) of per-bin powers (frames, bins)."""
        return power_spectra @ self._fb_t

    def frame_blocks(self, n_samples):
        """``stft._frame_blocks`` of an ``n_samples`` signal framed like the
        reference: ``(lo, hi, samples)`` per block of frames."""
        if n_samples < self.frame:
            raise ValueError(f"signal length {n_samples} shorter than one frame ({self.frame})")
        return _frame_blocks(n_samples, self.frame, self.hop)

    def band_power(self, signal):
        """Band powers (frames, bands) of a signal framed like the reference.

        Framed block by block (``frame_blocks``): each block's band powers
        have the bits of the same frames' rows in one framing of the whole
        signal.
        """
        blocks = self.frame_blocks(signal.size)
        out = np.empty((blocks[-1][1], self._fb_t.shape[1]))
        for lo, hi, samples in blocks:
            out[lo:hi] = self.bands(np.abs(self.spectra(signal[samples])) ** 2)
        return out

    def score_band_power(self, res_band):
        """fwSSNR in dB of a residual given by its band powers (frames, bands)."""
        lo, hi = _CLAMP_DB
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = 10.0 * np.log10(self.ref_band / res_band)
        snr = np.clip(np.nan_to_num(snr, nan=lo, posinf=np.inf), lo, hi)
        per_frame = (self.weights * snr).sum(axis=1) / self.w_sum
        return float(per_frame[self.active].mean())

    def score(self, test):
        """fwSSNR in dB of ``test`` against the reference."""
        test = np.asarray(test, dtype=float)
        if test.shape != self.reference.shape:
            raise ValueError(f"length mismatch: {test.shape} vs {self.reference.shape}")
        return self.score_band_power(self.band_power(test - self.reference))


def input_fwssnr(rendered, speaker, reference_mic=0):
    """Best microphone fwSSNR for one speaker of a rendered scene.

    The reference is that speaker's anechoic component at ``reference_mic``;
    the score is the maximum over microphone signals.
    """
    ref = FwssnrReference(rendered.anechoic[speaker, reference_mic], rendered.sample_rate)
    return float(max(ref.score(mic) for mic in rendered.mics))


class DecodeOutcome(NamedTuple):
    correct: bool
    tie: bool
    fwssnr_selected: float
    fwssnr_discarded: float


def selection_outcome(scores, selected):
    """Trial outcome from the fwSSNR of every candidate output.

    The selected output must beat every other output strictly; equal best
    scores count as incorrect and set the tie flag. ``fwssnr_discarded`` is
    the best score among the other outputs.
    """
    best_other = max(s for i, s in enumerate(scores) if i != selected)
    score = scores[selected]
    return DecodeOutcome(score > best_other, score == best_other, score, best_other)


def aad_accuracy(outcomes):
    """Percentage of correctly decoded trials."""
    if len(outcomes) == 0:
        raise ValueError("need at least one trial")
    correct = [o.correct if isinstance(o, DecodeOutcome) else bool(o) for o in outcomes]
    return 100.0 * sum(correct) / len(correct)


# significance level of the chance bound
_CHANCE_ALPHA = 0.05


def chance_upper_bound(n_trials):
    """Chance-level upper bound in percent from an exact binomial tail.

    Smallest ``k/n`` such that ``P(X >= k | n, p=0.5) <= 0.05``; if even
    ``k = n`` does not reach significance the bound is 100%.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    total = 1 << n_trials
    tail = 0
    # Walk k downward accumulating the exact integer tail sum.
    for k in range(n_trials, -1, -1):
        tail += math.comb(n_trials, k)
        if Fraction(tail, total) > _CHANCE_ALPHA:
            k_min = k + 1
            break
    else:
        k_min = 0
    if k_min > n_trials:
        return 100.0
    return 100.0 * k_min / n_trials
