"""Weighted overlap-add STFT analysis/synthesis.

Spectrograms are complex arrays of shape (channels, frames, bins) with a
one-sided spectrum, ``bins = frame_length // 2 + 1``. Analysis and synthesis
both use a square-root Hann window so their product satisfies the
constant-overlap-add condition; interior samples reconstruct exactly, the
first/last ``frame_length`` samples are excluded from that contract.
"""

from dataclasses import dataclass

import numpy as np

from ._schema import bound, check

__all__ = ["StftConfig", "analyze", "synthesize"]


@dataclass(frozen=True)
class StftConfig:
    frame_length: int = bound(512, gt=0)
    hop: int = bound(128, gt=0)

    def __post_init__(self):
        check(self)
        if self.frame_length % self.hop != 0:
            raise ValueError(
                f"hop {self.hop} must divide frame_length {self.frame_length}"
            )
        if self.frame_length < 2 * self.hop:
            raise ValueError(
                f"hop {self.hop} must be at most half of frame_length {self.frame_length} "
                "for the sqrt-Hann pair to overlap-add"
            )

    @property
    def n_bins(self):
        return self.frame_length // 2 + 1


def _window(cfg):
    # Periodic Hann; its running sum over hops is constant, which is the
    # overlap-add condition for the sqrt-Hann analysis/synthesis pair.
    n = np.arange(cfg.frame_length)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / cfg.frame_length)
    return np.sqrt(hann)


def _cola_gain(cfg):
    # The squared window summed over hops at sample 0; the sum is the same at
    # every sample because StftConfig requires frame_length / hop >= 2.
    win_sq = _window(cfg) ** 2
    return sum(win_sq[-start] for start in range(0, cfg.frame_length, cfg.hop))


# Frames per block of every framing that is reduced right away (this STFT,
# the fwSSNR band powers, the oracle masks). The last block also takes the
# remainder (256 to 511 frames), so no block is small: OpenBLAS computes a
# band product of a few rows with other kernels, whose bits differ from
# those of the same rows in one product of all frames.
_BLOCK_FRAMES = 256


def _frame_blocks(n_samples, frame_length, hop):
    """``(lo, hi, samples)`` per block of the frames of an ``n_samples``
    signal: frames ``lo .. hi - 1``, which cover the sample slice
    ``samples``, ``_BLOCK_FRAMES`` frames a block and the remainder in the
    last one. A signal shorter than two blocks is one block."""
    n_frames = (n_samples - frame_length) // hop + 1
    stops = list(range(_BLOCK_FRAMES, n_frames - _BLOCK_FRAMES + 1, _BLOCK_FRAMES))
    stops.append(n_frames)
    return [
        (lo, hi, slice(lo * hop, (hi - 1) * hop + frame_length))
        for lo, hi in zip([0] + stops[:-1], stops)
    ]


def analyze(signal, cfg):
    """STFT of an ``(M, N)`` or ``(N,)`` real signal -> ``(M, K, F)`` complex.

    ``K = (N - frame_length) // hop + 1``; all frames lie fully inside the
    signal. Raises ValueError if the signal is shorter than one frame.

    The frames are windowed and transformed block by block
    (``_frame_blocks``) straight into the output, so no windowed copy of the
    whole signal exists; each frame's spectrum has the bits of a one-shot
    transform of all frames.
    """
    signal = np.atleast_2d(np.asarray(signal, dtype=float))
    n = signal.shape[1]
    if n < cfg.frame_length:
        raise ValueError(
            f"signal length {n} shorter than one frame ({cfg.frame_length})"
        )
    windows = np.lib.stride_tricks.sliding_window_view(signal, cfg.frame_length, axis=-1)
    windows = windows[:, :: cfg.hop]
    win = _window(cfg)
    out = np.empty(windows.shape[:2] + (cfg.n_bins,), dtype=complex)
    for lo, hi, _ in _frame_blocks(n, cfg.frame_length, cfg.hop):
        np.fft.rfft(windows[:, lo:hi] * win, axis=-1, out=out[:, lo:hi])
    return out


def synthesize(spec, cfg):
    """Overlap-add inverse STFT -> real signal of shape ``(M, N)``.

    ``N = (K - 1) * hop + frame_length``. Interior samples of
    ``synthesize(analyze(x))`` match ``x`` to numerical precision.
    """
    spec = np.asarray(spec)
    if spec.ndim == 2:
        spec = spec[None]
    if spec.ndim != 3:
        raise ValueError(f"expected (M, K, F) spectrogram, got shape {spec.shape}")
    m, k, f = spec.shape
    if f != cfg.n_bins:
        raise ValueError(f"spectrogram has {f} bins, config implies {cfg.n_bins}")
    win = _window(cfg)
    gain = _cola_gain(cfg)
    frames = np.fft.irfft(spec, n=cfg.frame_length, axis=-1) * win
    per_frame = cfg.frame_length // cfg.hop
    # frame j covers hop-sized blocks j .. j + per_frame - 1; adding its
    # sub-blocks from the last to the first gives every output block its
    # frames in ascending order, the order of a loop over frames
    blocks = frames.reshape(m, k, per_frame, cfg.hop)
    out = np.zeros((m, k + per_frame - 1, cfg.hop))
    for r in range(per_frame - 1, -1, -1):
        out[:, r : r + k] += blocks[:, :, r]
    return out.reshape(m, -1) / gain
