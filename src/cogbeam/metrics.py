"""Frequency-weighted segmental SNR and decoding-accuracy measures.

The segmental SNR variant here frames both signals, measures per-band SNR of
the residual (test minus reference) against the reference in critical-style
bands, clamps each band SNR, and averages with reference-magnitude weights
over speech-active frames. All comparisons inside this package use the same
variant, so relative numbers are self-consistent.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .stft import _frame_blocks

__all__ = [
    "FwssnrConfig",
    "FwssnrReference",
    "fwssnr",
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


@dataclass(frozen=True)
class FwssnrConfig:
    frame_ms: float = 32.0
    overlap: float = 0.75
    n_bands: int = 25
    band_range_hz: tuple = (50.0, None)  # None = Nyquist
    clamp_db: tuple = (-10.0, 35.0)
    weight_exponent: float = 0.2
    active_range_db: float = 35.0  # frames this far below the peak are skipped

    def __post_init__(self):
        if not self.frame_ms > 0:
            raise ValueError(f"frame_ms must be positive, got {self.frame_ms}")
        # at overlap 1 every sample would start a frame
        if not 0 <= self.overlap < 1:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")
        # the lower band edge would otherwise reach the filterbank as NaN or
        # above the upper edge, which leaves every band empty
        lo, hi = _finite_pair(self.band_range_hz, "band_range_hz", upper_nullable=True)
        if not 0 <= lo < (math.inf if hi is None else hi):
            raise ValueError(f"band_range_hz must satisfy 0 <= lo < hi, got {[lo, hi]}")
        lo, hi = _finite_pair(self.clamp_db, "clamp_db")
        if lo >= hi:
            raise ValueError(f"clamp_db must satisfy lo < hi, got {[lo, hi]}")
        if self.n_bands < 1:
            raise ValueError("need at least one band")


def _finite_pair(value, name, upper_nullable=False):
    """``value`` as (lo, hi), two finite numbers; hi may be None if ``upper_nullable``."""
    finite = [
        (isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v))
        or (v is None and upper_nullable and i == 1)
        for i, v in enumerate(value if isinstance(value, (tuple, list)) else [value])
    ]
    if finite != [True, True]:
        upper = " (the upper one may be null)" if upper_nullable else ""
        raise ValueError(f"{name} must be [lo, hi], two finite numbers{upper}, got {value!r}")
    return value


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def _band_matrix(cfg, n_fft, sample_rate):
    """Triangular mel-spaced filters (n_bands, n_bins), unit peak; read-only,
    built once per configuration, frame length and sample rate."""
    lo = cfg.band_range_hz[0]
    hi = cfg.band_range_hz[1] if cfg.band_range_hz[1] is not None else sample_rate / 2
    edges = _mel_to_hz(np.linspace(_hz_to_mel(lo), _hz_to_mel(hi), cfg.n_bands + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((cfg.n_bands, bin_hz.size))
    for j in range(cfg.n_bands):
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
    per-frame band weights; ``score(test)`` equals ``fwssnr(test, reference)``
    bit for bit. ``band_power`` and ``score_band_power`` split the score at
    the residual's band powers, so a caller that can compute those another
    way (the noise-gain calibration) shares the scoring tail.

    Raises ValueError for a silent reference, one shorter than a frame, or
    one with no speech-active frame.
    """

    def __init__(self, reference, cfg=FwssnrConfig(), sample_rate=16000):
        reference = np.asarray(reference, dtype=float)
        if not np.any(reference):
            raise ValueError("reference signal is silent")
        self.reference = reference
        self.cfg = cfg
        self.frame = int(round(cfg.frame_ms * 1e-3 * sample_rate))
        self.hop = max(1, int(round(self.frame * (1.0 - cfg.overlap))))
        self._fb_t = _band_matrix(cfg, self.frame, sample_rate).T
        self.ref_band = self.band_power(reference)  # (frames, bands)

        frame_energy = self.ref_band.sum(axis=1)
        peak = frame_energy.max()
        self.active = frame_energy > peak * 10.0 ** (-cfg.active_range_db / 10.0)
        if not np.any(self.active):
            raise ValueError("no speech-active frames in reference")
        self.weights = self.ref_band ** (cfg.weight_exponent / 2.0)  # magnitude ** exponent
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
        lo, hi = self.cfg.clamp_db
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


def fwssnr(test, reference, cfg=FwssnrConfig(), sample_rate=16000):
    """Frequency-weighted segmental SNR of ``test`` against ``reference`` in dB.

    Raises ValueError on length mismatch or a silent reference.
    """
    test = np.asarray(test, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if test.shape != reference.shape:
        raise ValueError(f"length mismatch: {test.shape} vs {reference.shape}")
    return FwssnrReference(reference, cfg, sample_rate).score(test)


def input_fwssnr(rendered, speaker, cfg=FwssnrConfig(), sample_rate=16000, reference_mic=0):
    """Best microphone fwSSNR for one speaker of a rendered scene.

    The reference is that speaker's anechoic component at ``reference_mic``;
    the score is the maximum over microphone signals.
    """
    ref = FwssnrReference(rendered.anechoic[speaker, reference_mic], cfg, sample_rate)
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
