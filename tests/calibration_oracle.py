"""Frozen noise-gain calibration, kept only as the reference for the
band-power bisection in ``cogbeam.scene.calibrate_noise_gain``.

This is the implementation that bisection replaced: every bisection step
rebuilds the microphone signals at the trial gain and scores them with the
full fwSSNR, re-framing and re-transforming the reference, the speech and the
noise each time. The fwSSNR is frozen here too, so that the oracle does not
move with ``cogbeam.metrics``. It is not imported by the package.
``tests/test_calibration.py`` compares against it. Do not edit the
arithmetic: the point of this file is that it does not change.
"""

import numpy as np

from cogbeam.scene import CalibrationError, render


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _band_matrix(cfg, n_fft, sample_rate):
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
    return fb


def _frame_spectra(signal, frame, hop):
    frames = np.lib.stride_tricks.sliding_window_view(signal, frame)[::hop]
    return np.fft.rfft(frames * np.hanning(frame), axis=-1)


def fwssnr(test, reference, cfg, sample_rate):
    frame = int(round(cfg.frame_ms * 1e-3 * sample_rate))
    hop = max(1, int(round(frame * (1.0 - cfg.overlap))))
    ref_spec = _frame_spectra(reference, frame, hop)
    res_spec = _frame_spectra(test - reference, frame, hop)
    fb = _band_matrix(cfg, frame, sample_rate)

    ref_band = np.abs(ref_spec) ** 2 @ fb.T
    res_band = np.abs(res_spec) ** 2 @ fb.T

    frame_energy = ref_band.sum(axis=1)
    peak = frame_energy.max()
    active = frame_energy > peak * 10.0 ** (-cfg.active_range_db / 10.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10(ref_band / res_band)
    snr = np.clip(np.nan_to_num(snr, nan=cfg.clamp_db[0], posinf=np.inf), *cfg.clamp_db)
    weights = ref_band ** (cfg.weight_exponent / 2.0)
    w_sum = weights.sum(axis=1)
    w_sum[w_sum == 0] = 1.0
    per_frame = (weights * snr).sum(axis=1) / w_sum
    return float(per_frame[active].mean())


def input_fwssnr(mics, anechoic, speaker, cfg, sample_rate, reference_mic):
    reference = anechoic[speaker, reference_mic]
    return float(max(fwssnr(mics[m], reference, cfg, sample_rate) for m in range(mics.shape[0])))


def achieved_fwssnr(unit, gain, reference_source, cfg, reference_mics):
    """The calibration objective at one gain: input fwSSNR of the matched
    speaker, or the mean over all speakers."""
    mics = unit.components.sum(axis=0) + gain * unit.noise
    speakers = range(unit.components.shape[0]) if reference_source is None else [reference_source]
    vals = [
        input_fwssnr(mics, unit.anechoic, i, cfg, unit.sample_rate, reference_mics[i])
        for i in speakers
    ]
    return float(np.mean(vals))


def calibrate_noise_gain(
    scene,
    target_fwssnr,
    cfg,
    reference_source=None,
    tolerance_db=0.1,
    gain_bounds=(1e-6, 1e6),
    max_iter=80,
    reference_mics=None,
):
    """Returns ``(gain, achieved fwSSNR at that gain)``."""
    if reference_mics is None:
        reference_mics = [0] * scene.n_sources
    unit = render(scene)

    def achieved(gain):
        return achieved_fwssnr(unit, gain, reference_source, cfg, reference_mics)

    lo, hi = gain_bounds
    val_lo = achieved(lo)
    if val_lo < target_fwssnr - tolerance_db:
        raise CalibrationError("above reach")
    if abs(val_lo - target_fwssnr) <= tolerance_db:
        return lo, val_lo
    val_hi = achieved(hi)
    if val_hi > target_fwssnr + tolerance_db:
        raise CalibrationError("below reach")
    for _ in range(max_iter):
        mid = np.sqrt(lo * hi)
        val = achieved(mid)
        if abs(val - target_fwssnr) <= tolerance_db:
            return float(mid), val
        if val > target_fwssnr:
            lo = mid
        else:
            hi = mid
    raise CalibrationError("no convergence")
