"""Command-line pipeline: simulate -> enhance -> decode -> evaluate.

Configuration is a single JSON file (documented in the README); every
command is deterministic given (config, seed). Where numpy's bundled
OpenBLAS exposes its thread setting, ``main`` runs every stage with it
pinned to one thread (``linalg.one_blas_thread``), so each stage writes the
same bits for any BLAS thread setting and any CPU count; elsewhere a stage
runs under the BLAS threading it finds, ``enhance`` solves on one thread,
and the bits may depend on the BLAS thread count. Artifacts cross stage
boundaries as float32 WAV, CBTF tensors and JSON records, so each stage can
also be driven by externally produced files. Each stage reads only the
scene files it uses.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Literal

import numpy as np
import scipy.io.wavfile

from . import aad, beamform, linalg, masks, metrics, scene, stft
from ._schema import bound, check
from .beamform import ConvBeamformerConfig
from .metrics import FwssnrConfig
from .stft import StftConfig
from .tensorfile import read_tensor, write_tensor

# Beamformer type -> (beamform entry point, steering source, one response
# constraint per interfering speaker). The steering source sets the scene
# tensors enhance reads beside mics.wav: "masks" reads the reverberant
# components and the noise, and only for oracle masks; "direct" reads the
# direct-path responses (irs_anechoic.cbtf) and the noise, for its covariance.
_BEAMFORMERS = {
    "wMPDR": ("run_conv_beamformer", "masks", False),
    "wLCMP": ("run_conv_beamformer", "masks", True),
    "MPDR": ("mpdr", "masks", False),
    "LCMP": ("mpdr", "masks", True),
    "MVDR": ("mvdr_lcmv", "direct", False),
    "LCMV": ("mvdr_lcmv", "direct", True),
}
BEAMFORMER_TYPES = tuple(_BEAMFORMERS)
CONDITION_PRESETS = {
    # (t60 seconds, target input fwSSNR dB)
    "anechoic-noisy": (0.0, 2.9),
    "reverberant": (0.5, 3.5),
    "reverberant-noisy": (0.5, 0.5),
}
_MAX_RATE = 2**32 - 1  # the rate field of a WAV header


class ConfigError(ValueError):
    pass


@dataclass
class SceneConfig:
    condition: Literal[(*CONDITION_PRESETS, "custom")] = "reverberant-noisy"
    n_speakers: int = bound(2, ge=2)  # decoding selects among the speakers
    n_mics: int = bound(4, ge=1)
    duration_s: float = bound(60.0, gt=0)
    t60_s: float | None = bound(None, ge=0)  # None: taken from the condition preset
    target_input_fwssnr_db: float | None = None
    noise_gain: float = 1.0  # used only when no fwSSNR target applies
    noise_shape: Literal[scene.NOISE_SHAPES] = "speech"
    max_pause_s: float = bound(0.5, gt=0)
    pause_every_s: float = bound(4.0, gt=0)
    pause_length_s: float = bound(1.5, ge=0)
    direct_to_reverb_db: float = 5.0
    shadow_db: float = 12.0

    def __post_init__(self):
        check(self)
        if self.condition == "custom" and self.t60_s is None:
            raise ValueError(
                "condition 'custom' has no preset T60: set scene.t60_s to the "
                "reverberation time in seconds (0 for an anechoic scene)"
            )


@dataclass
class MaskConfig:
    source: Literal["oracle", "file"] = "oracle"
    path: str | None = None

    def __post_init__(self):
        check(self)


@dataclass
class AadConfig:
    mode: Literal["synth", "file"] = "synth"
    rate: int = bound(64, ge=1, le=_MAX_RATE)  # load_config holds it to sample_rate
    channels: int = bound(16, ge=1)
    snr_db: float = 20.0
    lag_range_ms: tuple[float, float] = (0.0, 250.0)
    ridge: float = bound(100.0, ge=0)
    trial_seconds: float = bound(30.0, gt=0)
    attended_speaker: int = 0
    eeg_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self):
        check(self)
        lo, hi = self.lag_range_ms
        if not 0 <= lo <= hi:
            raise ValueError(f"lag_range_ms must be [lo, hi] with 0 <= lo <= hi, got {[lo, hi]}")
        # A trial's reconstruction holds its samples minus the lag window, and
        # the correlation that selects a speaker needs two of them. sosfiltfilt
        # pads the one-section filter of the synthetic EEG by 3 * (2 + 1) = 9
        # samples at each end and needs a longer trial.
        per_trial = round(_samples("trial_seconds", self.trial_seconds, self.rate))
        lag_window = round(_samples("lag_range_ms", hi, self.rate, 1e-3)) + 1
        if per_trial <= max(lag_window, 9):
            raise ValueError(
                f"trial_seconds {self.trial_seconds:g} gives {per_trial} samples at rate "
                f"{self.rate} Hz; a trial must be longer than the {lag_window}-sample lag "
                f"window of lag_range_ms {list(self.lag_range_ms)} and the 9-sample "
                "padding of the EEG filter"
            )


@dataclass
class PipelineConfig:
    seed: int = bound(ge=0)
    # above twice the 500 Hz cutoff of scene.speech_shape_filter
    sample_rate: int = bound(16000, gt=1000, le=_MAX_RATE)
    scene: SceneConfig = field(default_factory=SceneConfig)
    stft: StftConfig = field(default_factory=StftConfig)
    beamformer_type: Literal[BEAMFORMER_TYPES] = "wMPDR"
    beamformer: ConvBeamformerConfig = field(default_factory=ConvBeamformerConfig)
    masks: MaskConfig = field(default_factory=MaskConfig)
    aad: AadConfig = field(default_factory=AadConfig)
    metrics: FwssnrConfig = field(default_factory=FwssnrConfig)

    def __post_init__(self):
        check(self)


def _samples(key, value, rate, scale=1):
    """``value * scale * rate`` samples, refused naming ``key`` beyond the float range."""
    count = value * scale * rate
    if not abs(count) <= sys.float_info.max:
        raise ConfigError(f"{key} {value:g} gives more samples at {rate} Hz than a float holds")
    return count


def _config(cls, values, where=""):
    """``cls(**values)``, its refusal raised as a ConfigError after ``where``."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}") from None


def _build(section_cls, data, name):
    if not isinstance(data, dict | None):
        raise ConfigError(f"section {name!r} must be an object")
    values = {k: _tupled(v) for k, v in (data or {}).items()}
    return _config(section_cls, values, f"section {name!r}: ")


def _tupled(value):
    return tuple(map(_tupled, value)) if isinstance(value, list) else value


def load_config(path):
    """Parse and validate a JSON pipeline configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # malformed JSON or text, or an integer too long to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(
            f"unknown top-level config key(s) {unknown}; allowed keys are {sorted(known)}"
        )
    if "seed" not in raw:
        raise ConfigError("config must set an explicit seed")
    if isinstance(raw.get("beamformer"), dict) and "reference_mic" in raw["beamformer"]:
        raise ConfigError(
            "beamformer.reference_mic is not a config option: each speaker's "
            "reference microphone comes from reference_mics in the scene's "
            "metadata.json; remove the key"
        )
    sections = {f.name: f.type for f in fields(PipelineConfig) if is_dataclass(f.type)}
    values = {k: _build(sections[k], v, k) if k in sections else v for k, v in raw.items()}
    cfg = _config(PipelineConfig, values)
    fs = cfg.sample_rate
    nyquist = fs / 2
    lo, hi = cfg.metrics.band_range_hz
    if lo >= nyquist or (hi is not None and hi > nyquist):
        raise ConfigError(f"metrics.band_range_hz {[lo, hi]} must lie within [0, {nyquist:g}] Hz")
    if cfg.aad.rate > fs:  # envelopes are resampled down to it
        raise ConfigError(f"aad.rate {cfg.aad.rate} must not exceed sample_rate {fs}")
    t60 = _t60_and_target(cfg.scene)[0]
    n_samples = int(_samples("scene.duration_s", cfg.scene.duration_s, fs))
    _samples("aad.trial_seconds", cfg.aad.trial_seconds, fs)
    fw_frame = round(_samples("metrics.frame_ms", cfg.metrics.frame_ms, fs, 1e-3))
    _samples("scene.t60_s", t60, fs)
    # the scene is analyzed in STFT frames and scored in fwSSNR frames, and
    # each trial is scored in fwSSNR frames; checked before the band matrix
    # below is built at the fwSSNR frame's length
    for key, seconds, frame, frame_name in [
        ("scene.duration_s", cfg.scene.duration_s, cfg.stft.frame_length, "stft.frame_length"),
        ("scene.duration_s", cfg.scene.duration_s, fw_frame, "metrics.frame_ms"),
        ("aad.trial_seconds", cfg.aad.trial_seconds, fw_frame, "metrics.frame_ms"),
    ]:
        if seconds * fs < frame:
            raise ConfigError(
                f"{key} {seconds:g} gives {seconds * fs:g} samples at sample_rate "
                f"{fs}, shorter than the {frame}-sample frame of {frame_name}"
            )
    if fw_frame < 3 or not metrics._band_matrix(cfg.metrics, fw_frame, fs).any():
        raise ConfigError(
            f"metrics.frame_ms {cfg.metrics.frame_ms:g} gives a {fw_frame}-sample fwSSNR frame "
            f"at sample_rate {fs}; a frame needs at least 3 samples (a shorter "
            "Hann window is all zero) and a frequency bin inside a band of "
            f"metrics.band_range_hz {list(cfg.metrics.band_range_hz)}: lengthen the frame"
        )
    # simulate cuts the sources to int(duration_s * sample_rate) samples,
    # and render needs them longer than the impulse responses
    taps = scene._ir_taps(fs, t60)[2]
    if n_samples <= taps:
        raise ConfigError(
            f"scene.duration_s {cfg.scene.duration_s:g} gives {n_samples} samples at "
            f"sample_rate {fs}, not more than the {taps} taps of the T60 "
            f"{t60:g} s room impulse responses: lengthen the scene or shorten scene.t60_s"
        )
    if cfg.masks.source == "file":
        if not cfg.masks.path or not Path(cfg.masks.path).exists():
            raise ConfigError(f"mask file not found: {cfg.masks.path}")
    if cfg.aad.mode == "synth" and not 0 <= cfg.aad.attended_speaker < cfg.scene.n_speakers:
        raise ConfigError(
            f"aad.attended_speaker {cfg.aad.attended_speaker} must be a speaker index "
            f"in [0, {cfg.scene.n_speakers}) (scene.n_speakers)"
        )
    if cfg.aad.mode == "file":
        for key in ("eeg_path", "labels_path"):
            p = getattr(cfg.aad, key)
            if not p or not Path(p).exists():
                raise ConfigError(f"aad.{key} not found: {p}")
    return cfg


def _is_speaker_index(value, n_speakers):
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n_speakers


def _check_trial_count(cfg, n_samples, fs):
    """Leave-one-out decoding of synthetic EEG trains on the other trials, so
    a scene of ``n_samples`` at ``fs`` must hold at least two whole trials,
    counted by ``_trial_spans`` as decode and evaluate count them. Checked
    when enhance or decode starts, with the longest scene ``duration_s``
    allows, and again on the scene's own length, which shortened pauses can
    make shorter; not at load time, because a shorter scene still simulates."""
    if cfg.aad.mode != "synth":
        return
    n_trials = len(_trial_spans(n_samples, fs, cfg.aad.trial_seconds))
    if n_trials < 2:
        sc = cfg.scene
        raise ConfigError(
            f"the scene's {n_samples / fs:g} s hold {n_trials} whole trial(s) of "
            f"aad.trial_seconds {cfg.aad.trial_seconds:g}, and leave-one-out decoding "
            "trains on the other trials, so it needs two: simulate cuts the sources to "
            f"scene.duration_s {sc.duration_s:g} after shortening their pauses "
            f"(scene.pause_every_s {sc.pause_every_s:g}, scene.pause_length_s "
            f"{sc.pause_length_s:g}, scene.max_pause_s {sc.max_pause_s:g}); lengthen the "
            "scene, shorten the pauses or shorten the trials"
        )


def write_wav(path, signal, sample_rate):
    """Write (M, N) or (N,) float audio as a 32-bit float WAV."""
    signal = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    scipy.io.wavfile.write(path, sample_rate, signal.T.astype(np.float32))


def read_wav(path):
    """Read WAV as (M, N) float64; integer PCM is rescaled to [-1, 1): 8-bit
    (unsigned, silence at 128), 16-bit and 24- or 32-bit (read as int32)."""
    rate, data = scipy.io.wavfile.read(path)
    if data.ndim == 1:
        data = data[:, None]
    if data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype.kind == "f":
        data = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: cannot scale {data.dtype} WAV samples to [-1, 1]")
    return data.T, rate


def _speaker_reference_mics(anechoic_irs):
    """Reference microphone per speaker: where its direct path is strongest."""
    energy = (anechoic_irs**2).sum(axis=2)
    return [int(np.argmax(energy[i])) for i in range(energy.shape[0])]


def _t60_and_target(sc):
    """The scene's T60 and input fwSSNR target: its condition's preset
    values, each replaced by the scene's own when set."""
    if sc.condition == "custom":
        return sc.t60_s, sc.target_input_fwssnr_db
    t60, target = CONDITION_PRESETS[sc.condition]
    if sc.t60_s is not None:
        t60 = sc.t60_s
    if sc.target_input_fwssnr_db is not None:
        target = sc.target_input_fwssnr_db
    return t60, target


def cmd_simulate(cfg, out_dir):
    """Build and store a rendered scene with all oracle components."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = cfg.scene
    fs = cfg.sample_rate
    t60, target = _t60_and_target(sc)

    sources = []
    for i in range(sc.n_speakers):
        raw = scene.synthetic_speech(
            sc.duration_s * 1.25 + sc.pause_length_s,
            fs,
            pause_every=sc.pause_every_s,
            pause_length=sc.pause_length_s,
            seed=np.random.SeedSequence((cfg.seed, 100 + i)),
        )
        trimmed = scene.shorten_pauses(raw, sc.max_pause_s, fs)
        sources.append(trimmed)
    n = min(min(len(s) for s in sources), int(sc.duration_s * fs))
    sources = [s[:n] for s in sources]

    irs, anech = scene.synthetic_room_irs(
        sc.n_speakers,
        sc.n_mics,
        fs,
        t60=t60,
        direct_to_reverb_db=sc.direct_to_reverb_db,
        shadow_db=sc.shadow_db,
        seed=np.random.SeedSequence((cfg.seed, 200)),
    )
    noise = scene.generate_decorrelated_noise(
        sc.n_mics,
        n + irs.shape[2],
        sc.noise_shape,
        fs,
        seed=np.random.SeedSequence((cfg.seed, 300)),
    )
    acoustic = scene.AcousticScene(sources, irs, anech, noise, fs)
    ref_mics = _speaker_reference_mics(anech)
    unit = scene.render(acoustic)
    if target is None:
        gain = sc.noise_gain
        per_speaker = None
    else:
        # the calibration's own scores at its gain: the input fwSSNR of the
        # calibrated scene up to rounding, with no framing of its signals
        objective = scene._input_fwssnr_of_gain(unit, cfg.metrics, ref_mics)
        gain = scene.calibrate_noise_gain(objective, target)
        per_speaker = objective.per_speaker(gain)
        del objective
    rendered = scene.with_noise_gain(unit, gain)
    del unit

    write_wav(out / "mics.wav", rendered.mics, fs)
    write_tensor(out / "components_reverberant.cbtf", rendered.components)
    write_tensor(out / "components_anechoic.cbtf", rendered.anechoic)
    write_tensor(out / "noise.cbtf", rendered.noise)
    write_tensor(out / "sources.cbtf", np.stack(sources))
    write_tensor(out / "irs_reverberant.cbtf", irs)
    write_tensor(out / "irs_anechoic.cbtf", anech)

    if per_speaker is None:
        per_speaker = [
            metrics.input_fwssnr(rendered, i, cfg.metrics, fs, ref_mics[i])
            for i in range(sc.n_speakers)
        ]
    meta = {
        "seed": cfg.seed,
        "sample_rate": fs,
        "condition": sc.condition,
        "t60_s": t60,
        "n_speakers": sc.n_speakers,
        "n_mics": sc.n_mics,
        "noise_gain": gain,
        "reference_mics": ref_mics,
        "input_fwssnr_db": per_speaker,
        "mean_input_fwssnr_db": float(np.mean(per_speaker)),
        "audio": {"format": "float32", "dithered": False},
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return meta


def _read_metadata(scene_dir):
    return json.loads((Path(scene_dir) / "metadata.json").read_text())


def _reference_rows(scene_dir, reference_mics):
    """Each speaker's direct-path component at its reference microphone,
    (I, N): the rows of components_anechoic.cbtf that decode and evaluate use."""
    anechoic = read_tensor(Path(scene_dir) / "components_anechoic.cbtf")
    return anechoic[np.arange(len(reference_mics)), reference_mics]


def _oracle_masks(scene_dir, stft_cfg):
    """Oracle ratio masks of the scene pooled over microphones, (I + 1, K, F).

    Built block by block of frames (``stft._frame_blocks``), each block from
    the sample slice its frames cover, and within a block one microphone at
    a time: a block's analysis has the bits of those frames of the
    whole-signal one, and the masks summed in microphone order, then divided
    by M, have the bits of ``masks.average_masks`` over all microphones.
    Oracle masks share the construction's source order on every microphone,
    so no permutation matching is needed before pooling.
    """
    scene_dir = Path(scene_dir)
    components = read_tensor(scene_dir / "components_reverberant.cbtf")
    noise = read_tensor(scene_dir / "noise.cbtf")
    n_mics, n_samples = noise.shape
    blocks = stft._frame_blocks(n_samples, stft_cfg.frame_length, stft_cfg.hop)
    pooled = np.empty((components.shape[0] + 1, blocks[-1][1], stft_cfg.n_bins))
    for lo, hi, samples in blocks:
        block = None
        for m in range(n_mics):
            mask = masks.oracle_irm(
                stft.analyze(components[:, m, samples], stft_cfg)[:, None],
                stft.analyze(noise[m, samples], stft_cfg),
                0,
            )
            if block is None:
                block = mask
            else:
                block += mask
        np.divide(block, n_mics, out=pooled[:, lo:hi])
    return pooled


def _file_masks(path, frames_bins):
    mask_set = masks.load_masks(path)
    if mask_set.shape[1:] != frames_bins:
        raise ConfigError(
            f"mask tensor {mask_set.shape} does not match spectrogram "
            f"frames/bins {frames_bins}"
        )
    return mask_set


def _anechoic_steering(anechoic_irs, cfg, speaker, reference_mic):
    """Exact per-bin steering from the stored direct-path impulse responses,
    normalized to the reference microphone: shape (bins, mics)."""
    spectra = np.fft.rfft(anechoic_irs[speaker], n=cfg.stft.frame_length, axis=1)
    ref = spectra[reference_mic]
    if np.any(np.abs(ref) < 1e-12):
        raise ConfigError(
            f"speaker {speaker} has no direct path at microphone {reference_mic}"
        )
    return (spectra / ref).T


def _noise_covariance(noise, stft_cfg):
    """Per-bin covariance of the (M, N) noise component: (bins, mics, mics)."""
    frames = stft.analyze(noise, stft_cfg).transpose(2, 1, 0)  # (bins, frames, mics)
    return beamform._gram(frames, None, frames.shape[1])


def cmd_enhance(cfg, scene_dir, out_dir):
    """Run the configured beamformer once for all speakers; write WAV outputs.

    Reads mics.wav and the scene tensors the beamformer type's steering
    needs (``_BEAMFORMERS``); oracle masks are built before the mixture is
    analyzed, no scene tensor is held while beamforming, and the mixture's
    spectrogram and the masks are dropped before synthesis. One beamformer
    call solves every speaker, each with its own reference microphone.
    """
    _check_trial_count(cfg, int(cfg.scene.duration_s * cfg.sample_rate), cfg.sample_rate)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scene_dir = Path(scene_dir)
    meta = _read_metadata(scene_dir)
    fs = meta["sample_rate"]
    n_speakers = meta["n_speakers"]
    ref_mics = meta["reference_mics"]

    kind = cfg.beamformer_type
    entry, source, constrained = _BEAMFORMERS[kind]
    if source == "masks" and cfg.masks.source == "oracle":
        mask_set = _oracle_masks(scene_dir, cfg.stft)
    if source == "direct":
        noise_cov = _noise_covariance(read_tensor(scene_dir / "noise.cbtf"), cfg.stft)
        anech_irs = read_tensor(scene_dir / "irs_anechoic.cbtf")
    mics = read_wav(scene_dir / "mics.wav")[0]
    _check_trial_count(cfg, mics.shape[1], fs)
    mix_spec = stft.analyze(mics, cfg.stft)
    del mics
    if source == "masks" and cfg.masks.source == "file":
        mask_set = _file_masks(cfg.masks.path, mix_spec.shape[1:])

    speakers = range(n_speakers)
    others = [[j for j in speakers if j != i] for i in speakers]
    bf_cfg = replace(cfg.beamformer, reference_mic=tuple(ref_mics))
    if source == "masks":
        inputs = {"target_mask": mask_set[:n_speakers]}
        if constrained:
            inputs["interferer_masks"] = mask_set[np.array(others)]  # (I, I - 1, K, F)
    else:

        def steering(j, i):  # speaker j's steering at speaker i's reference
            return _anechoic_steering(anech_irs, cfg, j, ref_mics[i])

        inputs = {"steering": np.stack([steering(i, i) for i in speakers]), "noise_cov": noise_cov}
        if constrained:  # (I, bins, mics, I - 1)
            inputs["interferer_steering"] = np.stack(
                [np.stack([steering(j, i) for j in others[i]], axis=2) for i in speakers]
            )
    if entry == "run_conv_beamformer":
        inputs["sample_rate"] = fs
    # looked up at call time, so a wrapper installed on the module applies
    joint = getattr(beamform, entry)(mix_spec, cfg=bf_cfg, **inputs)
    # synthesis needs only the outputs
    del mix_spec, inputs
    if source == "masks":
        del mask_set

    diag_all = {}
    for i in speakers:
        result = joint.speaker(i)
        signal = stft.synthesize(result.z[None], cfg.stft)[0]
        write_wav(out / f"speaker{i}.wav", signal, fs)
        diag = result.diagnostics
        diag_all[f"speaker{i}"] = {
            "beamformer": kind,
            "max_constraint_residual": diag.max_constraint_residual,
            "failed_bins": len(diag.failed_bins),
            "failed_bin_list": [list(failure) for failure in diag.failed_bins],
            "constraint_residual_per_bin": _json_floats(diag.constraint_residual_per_bin),
            "objective": _json_floats(diag.objective),
            "objective_per_bin": _json_floats(diag.objective_per_bin),
            "rising_rounds_per_bin": _rising_rounds(diag.objective_per_bin, result.states),
        }
    (out / "diagnostics.json").write_text(
        json.dumps(diag_all, indent=2, sort_keys=True)
    )
    return diag_all


def _rising_rounds(objective_per_bin, states):
    """Per bin, the number of rounds whose objective rose above the round
    before; None for a passthrough bin."""
    rises = (np.diff(objective_per_bin, axis=0) > 0).sum(axis=0)
    return [None if state.passthrough else int(n) for n, state in zip(rises, states)]


def _json_floats(values):
    """(Nested) lists of floats, NaN (a bin with no value) written as null."""
    if np.ndim(values) > 1:
        return [_json_floats(row) for row in values]
    return [None if np.isnan(v) else float(v) for v in values]


def _read_enhanced(enhance_dir, n_speakers):
    """The enhanced single-channel output of every speaker."""
    return [read_wav(Path(enhance_dir) / f"speaker{i}.wav")[0][0] for i in range(n_speakers)]


def _trial_spans(n_samples, fs, trial_seconds):
    per = int(round(trial_seconds * fs))
    return [(t * per, (t + 1) * per) for t in range(n_samples // per)]


def cmd_decode(cfg, scene_dir, enhance_dir, out_dir):
    """Per trial: envelopes, reconstruction, speaker selection. Decodes the
    trials whose enhanced audio is whole, by the ``_trial_spans`` rule that
    ``cmd_evaluate`` scores with."""
    _check_trial_count(cfg, int(cfg.scene.duration_s * cfg.sample_rate), cfg.sample_rate)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _read_metadata(scene_dir)
    fs = meta["sample_rate"]
    n_speakers = meta["n_speakers"]
    ac = cfg.aad

    enhanced = _read_enhanced(enhance_dir, n_speakers)
    n = min(map(len, enhanced))
    _check_trial_count(cfg, n, fs)
    candidate_envs = np.stack(
        [aad.extract_envelope(e[:n], fs, ac.rate) for e in enhanced]
    )

    # the envelope rounds its length up, so keep only the trials whose audio
    # is whole: the trials evaluate scores
    whole = len(_trial_spans(n, fs, ac.trial_seconds))
    spans = _trial_spans(candidate_envs.shape[1], ac.rate, ac.trial_seconds)[:whole]
    if not spans:
        raise ConfigError(f"scene too short for one {ac.trial_seconds:g}-second trial")

    if ac.mode == "synth":
        # listener-side envelopes come from the clean direct-path components
        references = _reference_rows(scene_dir, meta["reference_mics"])
        clean_envs = np.stack(
            [aad.extract_envelope(row[:n], fs, ac.rate) for row in references]
        )
        eeg, labels = aad.make_synthetic_trial_set(
            clean_envs[:, : spans[-1][1]],
            ac.attended_speaker,
            ac.rate,
            ac.channels,
            ac.snr_db,
            seed=cfg.seed,
            trial_seconds=ac.trial_seconds,
        )
    else:
        eeg = read_tensor(Path(ac.eeg_path))
        if eeg.ndim != 3:
            raise ConfigError("EEG tensor must have shape (trials, channels, samples)")
        labels = json.loads(Path(ac.labels_path).read_text())
        if not isinstance(labels, list) or len(labels) != eeg.shape[0]:
            raise ConfigError("labels must be a list with one entry per EEG trial")
        bad = [label for label in labels if not _is_speaker_index(label, n_speakers)]
        if bad:
            raise ConfigError(
                f"attention labels must be speaker indices in [0, {n_speakers}), "
                f"got {bad[:5]}"
            )
    n_trials = min(len(spans), len(eeg))
    if ac.mode == "file" and n_trials < 2:
        raise ConfigError(
            f"aad.eeg_path {ac.eeg_path} gives {n_trials} usable trial(s) of the two that "
            f"leave-one-out decoding needs ({len(eeg)} in the file, {len(spans)} in the audio)"
        )
    selections = aad.decode_trials(
        eeg[:n_trials],
        [candidate_envs[:, lo:hi] for lo, hi in spans[:n_trials]],
        labels[:n_trials],
        ac.lag_range_ms,
        ac.ridge,
        ac.rate,
    )
    records = [
        {
            "trial": t,
            "selected": sel.index,
            "attended": int(labels[t]),
            "correlations": [None if np.isnan(r) else float(r) for r in sel.correlations],
            "tie": sel.tie,
            "excluded": list(sel.excluded),
        }
        for t, sel in enumerate(selections)
    ]
    with open(out / "trials.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def cmd_evaluate(cfg, scene_dir, enhance_dir, decode_dir, out_dir):
    """Score the pipeline: per-trial fwSSNR deltas, decoding accuracy under
    envelope-based and best-delta selection, and chance bounds."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _read_metadata(scene_dir)
    fs = meta["sample_rate"]
    n_speakers = meta["n_speakers"]
    references = _reference_rows(scene_dir, meta["reference_mics"])
    mics = read_wav(Path(scene_dir) / "mics.wav")[0]

    enhanced = _read_enhanced(enhance_dir, n_speakers)
    n = min(min(map(len, enhanced)), mics.shape[1])

    records = [
        json.loads(line)
        for line in (Path(decode_dir) / "trials.jsonl").read_text().splitlines()
    ]
    spans = _trial_spans(n, fs, cfg.aad.trial_seconds)

    trial_rows = []
    outcomes = []
    oracle_outcomes = []
    oracle_delta = []
    est_delta = []
    for rec in records:
        t = rec["trial"]
        if t >= len(spans):
            break
        lo, hi = spans[t]
        attended = rec["attended"]
        ref = metrics.FwssnrReference(references[attended, lo:hi], cfg.metrics, fs)
        input_db = max(ref.score(mic[lo:hi]) for mic in mics)
        scores = [ref.score(enhanced[i][lo:hi]) for i in range(n_speakers)]
        selected = rec["selected"]
        outcome = metrics.selection_outcome(scores, selected)
        outcomes.append(outcome)
        oracle_outcomes.append(metrics.selection_outcome(scores, attended))
        est_delta.append(scores[selected] - input_db)
        oracle_delta.append(max(scores) - input_db)
        trial_rows.append(
            {
                "trial": t,
                "attended": attended,
                "selected": selected,
                "input_fwssnr_db": input_db,
                "output_fwssnr_db": scores,
                "delta_est_db": scores[selected] - input_db,
                "delta_oracle_db": max(scores) - input_db,
                "correct": outcome.correct,
                "tie": outcome.tie,
            }
        )

    n_trials = len(trial_rows)
    report = {
        "condition": meta["condition"],
        "beamformer": cfg.beamformer_type,
        "n_trials": n_trials,
        "input_fwssnr_db": float(np.mean([r["input_fwssnr_db"] for r in trial_rows])),
        "delta_fwssnr_est_aad_db": float(np.mean(est_delta)),
        "delta_fwssnr_oracle_aad_db": float(np.mean(oracle_delta)),
        "aad_accuracy_pct": metrics.aad_accuracy(outcomes),
        "oracle_aad_accuracy_pct": metrics.aad_accuracy(oracle_outcomes),
        "chance_upper_bound_pct": metrics.chance_upper_bound(n_trials),
        "published_chance_bounds_pct": metrics.PUBLISHED_CHANCE_BOUND_PCT,
        "trials": trial_rows,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))

    table_dir = out / "tables"
    table_dir.mkdir(exist_ok=True)
    with open(table_dir / "trials.tsv", "w") as fh:
        fh.write("trial\tattended\tselected\tinput_db\tdelta_est_db\tdelta_oracle_db\tcorrect\n")
        for r in trial_rows:
            fh.write(
                f"{r['trial']}\t{r['attended']}\t{r['selected']}\t"
                f"{r['input_fwssnr_db']:.3f}\t{r['delta_est_db']:.3f}\t"
                f"{r['delta_oracle_db']:.3f}\t{int(r['correct'])}\n"
            )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cogbeam",
        description="simulate, enhance, decode and evaluate multichannel "
        "speech-enhancement scenes",
    )
    parser.add_argument("command", choices=["simulate", "enhance", "decode", "evaluate"])
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--scene", help="scene directory (enhance/decode/evaluate)")
    parser.add_argument("--enhanced", help="enhance output directory (decode/evaluate)")
    parser.add_argument("--decoded", help="decode output directory (evaluate)")
    args = parser.parse_args(argv)

    try:
        with linalg.one_blas_thread():
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = _config(PipelineConfig, {**vars(cfg), "seed": args.seed}, "--seed: ")
            if args.command == "simulate":
                cmd_simulate(cfg, args.out)
            elif args.command == "enhance":
                _require(args.scene, "--scene")
                cmd_enhance(cfg, args.scene, args.out)
            elif args.command == "decode":
                _require(args.scene, "--scene")
                _require(args.enhanced, "--enhanced")
                cmd_decode(cfg, args.scene, args.enhanced, args.out)
            else:
                _require(args.scene, "--scene")
                _require(args.enhanced, "--enhanced")
                _require(args.decoded, "--decoded")
                cmd_evaluate(cfg, args.scene, args.enhanced, args.decoded, args.out)
    except Exception as exc:  # noqa: BLE001 - single exit point for the CLI
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
        }
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


def _require(value, flag):
    if not value:
        raise ConfigError(f"{flag} is required for this command")


if __name__ == "__main__":
    sys.exit(main())
