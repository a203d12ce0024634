"""Simulated reverberant, noisy multi-speaker scenes with oracle components.

A rendered scene keeps every additive part of the microphone signals (per
speaker reverberant and anechoic images, noise) so that oracle masks and
evaluation references need no re-simulation: ``mics == components.sum + noise``
holds exactly because the sum is how ``mics`` is built.
"""

from dataclasses import dataclass

import numpy as np
import scipy.signal

from . import metrics

__all__ = [
    "AcousticScene",
    "RenderedScene",
    "CalibrationError",
    "NOISE_SHAPES",
    "shorten_pauses",
    "render",
    "with_noise_gain",
    "calibrate_noise_gain",
    "generate_decorrelated_noise",
    "synthetic_room_irs",
    "synthetic_speech",
]


class CalibrationError(RuntimeError):
    """Noise-gain search cannot reach the requested level inside its bounds."""


@dataclass
class AcousticScene:
    """Clean sources plus impulse responses and noise, before rendering.

    sources: list of 1-D clean signals, one per speaker.
    irs: (I, M, L) reverberant impulse responses.
    anechoic_irs: (I, M, La) direct-path impulse responses.
    noise: (M, N) multichannel noise, or None for a silent scene.
    """

    sources: list
    irs: np.ndarray
    anechoic_irs: np.ndarray
    noise: np.ndarray | None
    sample_rate: int = 16000

    def __post_init__(self):
        self.irs = np.asarray(self.irs, dtype=float)
        self.anechoic_irs = np.asarray(self.anechoic_irs, dtype=float)
        if self.irs.ndim != 3 or self.anechoic_irs.ndim != 3:
            raise ValueError("impulse responses must have shape (I, M, L)")
        if len(self.sources) != self.irs.shape[0]:
            raise ValueError(
                f"{len(self.sources)} sources but {self.irs.shape[0]} IR sets"
            )
        if self.irs.shape[:2] != self.anechoic_irs.shape[:2]:
            raise ValueError("reverberant and anechoic IR grids disagree")

    @property
    def n_sources(self):
        return self.irs.shape[0]

    @property
    def n_mics(self):
        return self.irs.shape[1]


@dataclass
class RenderedScene:
    """Microphone signals with their additive decomposition retained."""

    mics: np.ndarray  # (M, N)
    components: np.ndarray  # (I, M, N) reverberant speaker images
    anechoic: np.ndarray  # (I, M, N) direct-path speaker images
    noise: np.ndarray  # (M, N)
    sample_rate: int = 16000


def _frame_rms(signal, frame):
    n_frames = len(signal) // frame
    if n_frames == 0:
        return np.zeros(0)
    trimmed = signal[: n_frames * frame].reshape(n_frames, frame)
    return np.sqrt((trimmed**2).mean(axis=1))


# shorten_pauses: RMS frame length, and how far below the 95th-percentile
# frame RMS a frame counts as silent
_PAUSE_FRAME_MS = 20.0
_PAUSE_THRESHOLD_DB = 40.0


def shorten_pauses(signal, max_pause, sample_rate=16000):
    """Truncate silent stretches longer than ``max_pause`` seconds.

    Silence is detected from 20 ms RMS frames more than 40 dB below the
    95th-percentile frame RMS. Retained silence around each cut
    gets a 10 ms cosine taper so no click survives at the joint. Speech
    frames are passed through untouched, which also makes the operation
    idempotent.
    """
    signal = np.asarray(signal, dtype=float)
    if max_pause <= 0:
        raise ValueError("max_pause must be positive")
    if signal.size == 0:
        return signal.copy()

    frame = max(1, int(round(_PAUSE_FRAME_MS * 1e-3 * sample_rate)))
    rms = _frame_rms(signal, frame)
    if rms.size == 0:
        return signal.copy()
    threshold = np.percentile(rms, 95) * 10.0 ** (-_PAUSE_THRESHOLD_DB / 20.0)
    silent = rms <= threshold

    max_samples = int(round(max_pause * sample_rate))
    keep = np.ones(signal.size, dtype=bool)
    fades = []
    i = 0
    while i < silent.size:
        if silent[i]:
            j = i
            while j < silent.size and silent[j]:
                j += 1
            start = i * frame
            stop = j * frame if j < silent.size else signal.size
            if stop - start > max_samples:
                keep[start + max_samples : stop] = False
                fades.append(start + max_samples)
            i = j
        else:
            i += 1

    out = signal.copy()
    fade_len = max(1, int(round(0.010 * sample_rate)))
    ramp = 0.5 * (1.0 + np.cos(np.linspace(0.0, np.pi, fade_len)))
    for cut in fades:
        lo = max(0, cut - fade_len)
        out[lo:cut] *= ramp[fade_len - (cut - lo) :]
    return out[keep]


def render(scene):
    """Convolve sources with their impulse responses and add the noise.

    Full convolutions are trimmed to the longest common length across all
    components and the noise channel count must match the IR grid. The
    noise enters at gain 1, as a view of the scene's noise;
    ``with_noise_gain`` scales it.
    """
    n_src, n_mic = scene.n_sources, scene.n_mics
    shortest = min(len(scene.sources[i]) for i in range(n_src))
    if max(scene.irs.shape[2], scene.anechoic_irs.shape[2]) >= shortest:
        raise ValueError(
            f"impulse responses ({scene.irs.shape[2]} taps) must be shorter "
            f"than the shortest source ({shortest} samples)"
        )
    lengths = [
        len(scene.sources[i]) + scene.irs.shape[2] - 1 for i in range(n_src)
    ]
    lengths += [
        len(scene.sources[i]) + scene.anechoic_irs.shape[2] - 1 for i in range(n_src)
    ]
    if scene.noise is not None:
        noise = np.asarray(scene.noise, dtype=float)
        if noise.shape[0] != n_mic:
            raise ValueError(
                f"noise has {noise.shape[0]} channels, scene has {n_mic} mics"
            )
        lengths.append(noise.shape[1])
    n = min(lengths)

    components = np.empty((n_src, n_mic, n))
    anechoic = np.empty((n_src, n_mic, n))
    for i in range(n_src):
        # one transform of the source per IR set, broadcast over microphones:
        # the same bits as one convolution per microphone
        src = np.asarray(scene.sources[i], dtype=float)[None]
        components[i] = scipy.signal.fftconvolve(src, scene.irs[i], axes=-1)[:, :n]
        anechoic[i] = scipy.signal.fftconvolve(src, scene.anechoic_irs[i], axes=-1)[:, :n]
    if scene.noise is not None:
        noise_part = noise[:, :n]
    else:
        noise_part = np.zeros((n_mic, n))
    mics = components.sum(axis=0) + noise_part
    return RenderedScene(mics, components, anechoic, noise_part, scene.sample_rate)


def with_noise_gain(unit, gain):
    """The rendered scene ``unit`` with its noise scaled by ``gain``: the same
    bits as rendering its acoustic scene with the noise scaled by ``gain``."""
    noise = gain * unit.noise
    return RenderedScene(
        unit.components.sum(axis=0) + noise,
        unit.components,
        unit.anechoic,
        noise,
        unit.sample_rate,
    )


# calibrate_noise_gain: the gain bracket it bisects, how close to the target
# it stops, and how many bisection steps it takes at most
_GAIN_BOUNDS = (1e-6, 1e6)
_TOLERANCE_DB = 0.1
_MAX_STEPS = 80


def calibrate_noise_gain(objective, target_fwssnr):
    """Bisect the noise gain in the log domain until ``objective(gain)`` lies
    within ``_TOLERANCE_DB`` of ``target_fwssnr``.

    ``objective`` falls as the gain rises, as the input fwSSNR of
    ``_input_fwssnr_of_gain`` does; ``with_noise_gain(unit, gain)`` then
    gives the calibrated scene without rendering again. Raises
    CalibrationError when the target lies outside what the gains in
    ``_GAIN_BOUNDS`` reach, or when no gain is close enough after
    ``_MAX_STEPS`` steps.
    """
    lo, hi = _GAIN_BOUNDS
    val_lo = objective(lo)  # quietest noise -> highest fwSSNR
    if val_lo < target_fwssnr - _TOLERANCE_DB:
        raise CalibrationError(
            f"target {target_fwssnr:.2f} dB above reach: {val_lo:.2f} dB at gain {lo:g}"
        )
    if abs(val_lo - target_fwssnr) <= _TOLERANCE_DB:
        return lo
    val_hi = objective(hi)
    if val_hi > target_fwssnr + _TOLERANCE_DB:
        raise CalibrationError(
            f"target {target_fwssnr:.2f} dB below reach: {val_hi:.2f} dB at gain {hi:g}"
        )
    for _ in range(_MAX_STEPS):
        mid = np.sqrt(lo * hi)  # bisect in log domain
        val = objective(mid)
        if abs(val - target_fwssnr) <= _TOLERANCE_DB:
            return float(mid)
        if val > target_fwssnr:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"no gain within {_TOLERANCE_DB} dB of {target_fwssnr} dB after {_MAX_STEPS} steps"
    )


def _input_fwssnr_of_gain(unit, cfg, reference_mics):
    """The calibration objective: the mean over the speakers of their input
    fwSSNR, as a function of the noise gain applied to ``unit``, with speaker
    ``i`` referenced at microphone ``reference_mics[i]``. Its
    ``per_speaker(gain)`` gives the scores it averages, in speaker order.

    The residual at microphone ``m`` against speaker ``i``'s reference is
    linear in the gain, ``(speech[m] - ref_i) + gain * noise[m]``, so its band
    power per frame is the quadratic ``P_ss + 2 gain P_sn + gain**2 P_nn``.
    The three terms come from one framing of the speech residual and of the
    noise; an evaluation only computes the quadratic and scores it.

    The framing runs block by block (``FwssnrReference.frame_blocks``): each
    block's terms come from the sample slice its frames cover, of the noise,
    the components and the reference, and are written into the terms of
    the whole signal with the bits of one framing of it. No whole-signal
    speech sum, spectrum, power or cross term is built.
    """
    if not np.any(unit.noise):
        raise ValueError("scene has no noise to calibrate")
    refs = [
        metrics.FwssnrReference(unit.anechoic[i, reference_mics[i]], cfg, unit.sample_rate)
        for i in range(unit.components.shape[0])
    ]
    framing = refs[0]  # every reference frames and bands alike
    n_mics, n_samples = unit.noise.shape
    blocks = framing.frame_blocks(n_samples)
    shape = framing.ref_band.shape
    # terms[i][m] = (P_ss, P_sn, P_nn) of speaker i at microphone m; the
    # noise term is shared by the speakers
    p_nn = [np.empty(shape) for _ in range(n_mics)]
    terms = [[(np.empty(shape), np.empty(shape), p_nn[m]) for m in range(n_mics)] for _ in refs]
    for m, noise in enumerate(unit.noise):
        for lo, hi, samples in blocks:
            noise_spec = framing.spectra(noise[samples])
            p_nn[m][lo:hi] = framing.bands(_power(noise_spec))
            speech = unit.components[:, m, samples].sum(axis=0)
            for ref, speaker_terms in zip(refs, terms):
                speech_spec = framing.spectra(speech - ref.reference[samples])
                cross = speech_spec.real * noise_spec.real + speech_spec.imag * noise_spec.imag
                p_ss, p_sn, _ = speaker_terms[m]
                p_ss[lo:hi] = framing.bands(_power(speech_spec))
                p_sn[lo:hi] = framing.bands(cross)

    def per_speaker(gain):
        # max(..., 0): where the residual cancels exactly, rounding can leave
        # the expanded power just below zero; it must score as a silent
        # residual (upper clamp), not as NaN (lower clamp)
        return [
            max(
                ref.score_band_power(np.maximum(p_ss + 2.0 * gain * p_sn + gain**2 * p_nn, 0.0))
                for p_ss, p_sn, p_nn in speaker_terms
            )
            for ref, speaker_terms in zip(refs, terms)
        ]

    def achieved(gain):
        return float(np.mean(per_speaker(gain)))

    achieved.per_speaker = per_speaker
    return achieved


def _power(spectra):
    return spectra.real**2 + spectra.imag**2


NOISE_SHAPES = ("white", "speech")


def generate_decorrelated_noise(n_channels, length, spectrum_shape="white", sample_rate=16000, seed=0):
    """Mutually uncorrelated stationary noise channels.

    ``spectrum_shape`` is ``"white"`` or ``"speech"``; the speech shape is a
    first-order 500 Hz lowpass tilt applied per channel.
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_channels, length))
    if spectrum_shape == "white":
        return noise
    if spectrum_shape == "speech":
        b, a = speech_shape_filter(sample_rate)
        shaped = scipy.signal.lfilter(b, a, noise, axis=1)
        # Restore unit variance per channel.
        shaped /= shaped.std(axis=1, keepdims=True)
        return shaped
    raise ValueError(f"unknown spectrum shape {spectrum_shape!r}")


def speech_shape_filter(sample_rate=16000):
    """First-order lowpass giving the long-term spectral tilt used for noise."""
    return scipy.signal.butter(1, 500.0, fs=sample_rate)


# synthetic_room_irs: discrete images per source in the reverberant tail
_N_REFLECTIONS = 96
# The angular diversity of those images: 1 gives each image its own
# inter-microphone signature, 0 would make every image share the direct
# path's signature (corridor-like propagation, a spatially rank-one source
# image).
_REFLECTION_SPREAD = 1.0


def synthetic_room_irs(
    n_sources,
    n_mics,
    sample_rate=16000,
    t60=0.5,
    direct_to_reverb_db=0.0,
    max_delay_ms=2.0,
    early_gap_ms=8.0,
    shadow_db=8.0,
    seed=0,
):
    """Synthetic impulse responses: direct path plus specular reflection train.

    Each (source, mic) pair gets its own integer direct-path delay and gain,
    giving the array a usable spatial signature without any room geometry.
    Sources are spread across the array aperture and attenuated by up to
    ``shadow_db`` at the far end, mimicking the head-shadow level differences
    that make one microphone favor each speaker.

    Reverberation is a train of 96 discrete images per source, starting
    ``early_gap_ms`` after the direct path, with amplitudes drawn under an
    exponential envelope that reaches -60 dB at ``t60`` seconds and total
    energy ``direct_to_reverb_db`` below the direct path. Every image
    is shared across microphones up to a per-microphone arrival jitter and
    gain, the way real room reflections arrive coherently at a compact
    array; fully independent per-microphone tails would make the late field
    spatially white, which no array processing could touch. Each image has
    its own inter-microphone signature. ``t60 = 0`` produces anechoic
    responses.

    Returns ``(irs, anechoic_irs)`` of shapes (I, M, L) and (I, M, La).
    """
    rng = np.random.default_rng(seed)
    max_delay = max(1, int(round(max_delay_ms * 1e-3 * sample_rate)))
    delays = rng.integers(0, max_delay + 1, size=(n_sources, n_mics))
    mic_pos = np.linspace(0.0, 1.0, n_mics) if n_mics > 1 else np.array([0.5])
    src_pos = np.linspace(0.0, 1.0, n_sources) if n_sources > 1 else np.array([0.5])
    shadow = 10.0 ** (
        -shadow_db * np.abs(src_pos[:, None] - mic_pos[None, :]) / 20.0
    )
    gains = shadow * rng.uniform(0.9, 1.0, size=(n_sources, n_mics))

    la = max_delay + 1
    anechoic = np.zeros((n_sources, n_mics, la))
    for i in range(n_sources):
        for m in range(n_mics):
            anechoic[i, m, delays[i, m]] = gains[i, m]

    if t60 <= 0:
        return anechoic.copy(), anechoic

    gap = int(round(early_gap_ms * 1e-3 * sample_rate))
    tail_len = int(round(t60 * sample_rate))
    l_ir = la + gap + tail_len + max_delay
    irs = np.zeros((n_sources, n_mics, l_ir))
    for i in range(n_sources):
        # image arrival times and amplitudes are per source, shared by mics
        offsets = np.sort(rng.uniform(0.0, t60, _N_REFLECTIONS))
        amps = rng.standard_normal(_N_REFLECTIONS) * np.exp(
            -3.0 * np.log(10.0) * offsets / t60
        )
        jitter = rng.integers(0, max_delay + 1, size=(_N_REFLECTIONS, n_mics))
        img_gain = 1.0 - _REFLECTION_SPREAD * rng.uniform(0.0, 0.3, size=(_N_REFLECTIONS, n_mics))
        taps = gap + (offsets * sample_rate).astype(int)
        for m in range(n_mics):
            tail = np.zeros(l_ir)
            base = delays[i, m]
            for r in range(_N_REFLECTIONS):
                pos = base + taps[r] + int(round(_REFLECTION_SPREAD * jitter[r, m]))
                tail[pos] += amps[r] * img_gain[r, m] * (gains[i, m] / shadow[i, m])
            direct_energy = gains[i, m] ** 2
            target = direct_energy * 10.0 ** (-direct_to_reverb_db / 10.0)
            tail *= np.sqrt(target / (tail**2).sum())
            irs[i, m] = tail
            irs[i, m, base] += gains[i, m]
    return irs, anechoic


def synthetic_speech(duration, sample_rate=16000, pause_every=None, pause_length=1.0, seed=0):
    """Speech-like test source: speech-shaped noise under a syllabic envelope.

    A slow (~2-6 Hz) strictly positive modulator shapes speech-tilted noise;
    optional silent gaps every ``pause_every`` seconds exercise pause
    handling. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    carrier = rng.standard_normal(n)
    b, a = speech_shape_filter(sample_rate)
    carrier = scipy.signal.lfilter(b, a, carrier)
    carrier /= max(carrier.std(), 1e-12)

    # Syllabic modulator: lowpassed positive noise, floor keeps it active.
    slow = rng.standard_normal(n)
    b_env, a_env = scipy.signal.butter(2, 4.0, fs=sample_rate)
    slow = scipy.signal.filtfilt(b_env, a_env, slow)
    slow = slow / max(np.abs(slow).max(), 1e-12)
    modulator = 0.15 + (1.0 + slow) / 2.0

    signal = carrier * modulator
    if pause_every is not None:
        gap = int(round(pause_length * sample_rate))
        step = int(round(pause_every * sample_rate))
        if step + gap < 1:
            raise ValueError(
                f"pause_every {pause_every} s and pause_length {pause_length} s round to "
                "no sample, so the pauses would not advance"
            )
        pos = step
        while pos + gap < n:
            signal[pos : pos + gap] = 0.0
            pos += step + gap
    return signal
