import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogbeam import _schema, aad, beamform, cli, linalg, metrics, scene
from cogbeam.tensorfile import read_tensor, write_tensor


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "seed": 11,
        "scene": {
            "condition": "custom",
            "t60_s": 0.15,
            "target_input_fwssnr_db": None,
            "noise_gain": 0.05,
            "n_mics": 3,
            "duration_s": 6.0,
        },
        "beamformer_type": "wMPDR",
        "beamformer": {"iterations": 2},
        "aad": {"trial_seconds": 1.5, "snr_db": 40.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def stage_argvs(cfg_path, root):
    """The four CLI stages of one pipeline under ``root``, in order."""
    dirs = {name: str(root / name) for name in ("scene", "enh", "dec", "eval")}
    stages = [
        ["simulate", "--out", dirs["scene"]],
        ["enhance", "--scene", dirs["scene"], "--out", dirs["enh"]],
        ["decode", "--scene", dirs["scene"], "--enhanced", dirs["enh"], "--out", dirs["dec"]],
        ["evaluate", "--scene", dirs["scene"], "--enhanced", dirs["enh"],
         "--decoded", dirs["dec"], "--out", dirs["eval"]],
    ]
    return [[argv[0], "--config", str(cfg_path)] + argv[1:] for argv in stages]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> enhance -> decode -> evaluate run."""
    root = tmp_path_factory.mktemp("pipe")
    cfg_path = write_config(root)
    cfg = cli.load_config(cfg_path)
    cli.cmd_simulate(cfg, root / "scene")
    cli.cmd_enhance(cfg, root / "scene", root / "enh")
    cli.cmd_decode(cfg, root / "scene", root / "enh", root / "dec")
    report = cli.cmd_evaluate(cfg, root / "scene", root / "enh", root / "dec", root / "eval")
    return root, cfg, report


class TestConfig:
    def test_seed_mandatory(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.load_config(path)

    def test_unknown_beamformer(self, tmp_path):
        path = write_config(tmp_path, beamformer_type="GEV")
        with pytest.raises(cli.ConfigError, match="beamformer_type"):
            cli.load_config(path)

    def test_missing_mask_file(self, tmp_path):
        path = write_config(tmp_path, masks={"source": "file", "path": "/nope.cbtf"})
        with pytest.raises(cli.ConfigError, match="mask file"):
            cli.load_config(path)

    def test_unknown_section_key(self, tmp_path):
        path = write_config(tmp_path, scene={"warp": 1})
        with pytest.raises(cli.ConfigError, match="scene"):
            cli.load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        # a misspelt section, and the fwSSNR section the fixed measure replaced
        for key, value in [("beamfomer", {"iterations": 1}), ("metrics", {"frame_ms": 32.0})]:
            path = write_config(tmp_path, **{key: value})
            message = rf"^unknown top-level config key\(s\) \['{key}'\]; allowed keys are "
            with pytest.raises(cli.ConfigError, match=message):
                cli.load_config(path)

    def test_section_validation_is_config_error(self, tmp_path):
        path = write_config(tmp_path, beamformer={"iterations": 0})
        with pytest.raises(cli.ConfigError, match="beamformer"):
            cli.load_config(path)

    def test_hop_without_overlap_refused_at_load(self, tmp_path):
        # refused before any stage runs, not in stft.synthesize after enhance
        path = write_config(tmp_path, stft={"frame_length": 128, "hop": 128})
        with pytest.raises(cli.ConfigError, match="stft"):
            cli.load_config(path)

    def test_beamformer_reference_mic_refused(self, tmp_path):
        path = write_config(tmp_path, beamformer={"iterations": 2, "reference_mic": 1})
        with pytest.raises(cli.ConfigError, match="reference_mic.*metadata.json"):
            cli.load_config(path)

    def test_unknown_noise_shape_refused(self, tmp_path):
        path = write_config(tmp_path, scene={"noise_shape": "pink"})
        with pytest.raises(cli.ConfigError, match="noise_shape"):
            cli.load_config(path)

    def test_single_speaker_refused(self, tmp_path):
        path = write_config(tmp_path, scene={"n_speakers": 1})
        with pytest.raises(cli.ConfigError, match="n_speakers"):
            cli.load_config(path)

    def test_no_microphone_refused(self, tmp_path):
        path = write_config(tmp_path, scene={"n_mics": 0})
        with pytest.raises(cli.ConfigError, match="n_mics"):
            cli.load_config(path)

    @pytest.mark.parametrize("duration", [0.0, -6.0])
    def test_nonpositive_duration_refused(self, tmp_path, duration):
        path = write_config(tmp_path, scene={"duration_s": duration})
        with pytest.raises(cli.ConfigError, match="duration_s"):
            cli.load_config(path)

    def test_custom_condition_without_t60_refused(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["scene"]["t60_s"]
        path.write_text(json.dumps(raw))
        with pytest.raises(cli.ConfigError, match=r"set scene\.t60_s"):
            cli.load_config(path)

    @pytest.mark.parametrize("condition", ["custom", "reverberant-noisy"])
    def test_negative_t60_refused(self, tmp_path, condition):
        path = write_config(tmp_path, scene={"condition": condition, "t60_s": -0.1})
        message = r"^section 'scene': t60_s must be at least 0, got -0\.1$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # -1 failed inside simulate with a bare ValueError from shorten_pauses
            ("max_pause_s", -1.0, "max_pause_s must be positive, got -1.0"),
            ("max_pause_s", 0, "max_pause_s must be positive, got 0"),
            # 0 with a zero pause length would never advance synthetic_speech
            ("pause_every_s", 0.0, "pause_every_s must be positive, got 0.0"),
            ("pause_length_s", -0.5, "pause_length_s must be at least 0, got -0.5"),
        ],
    )
    def test_pause_settings_refused(self, tmp_path, key, value, message):
        path = write_config(tmp_path, scene={key: value})
        with pytest.raises(cli.ConfigError, match=rf"section 'scene': {message}$"):
            cli.load_config(path)

    def test_sub_sample_pauses_refused_by_synthetic_speech(self):
        with pytest.raises(ValueError, match="would not advance"):
            scene.synthetic_speech(0.1, pause_every=1e-5, pause_length=0.0)

    def test_eeg_rate_below_one_refused(self, tmp_path):
        path = write_config(tmp_path, aad={"rate": 0})
        with pytest.raises(cli.ConfigError, match="rate"):
            cli.load_config(path)

    def test_no_eeg_channel_refused(self, tmp_path):
        path = write_config(tmp_path, aad={"channels": 0})
        with pytest.raises(cli.ConfigError, match="channels"):
            cli.load_config(path)

    @pytest.mark.parametrize("attended", [-1, 2])
    def test_synth_attended_speaker_range(self, tmp_path, attended):
        path = write_config(tmp_path, aad={"attended_speaker": attended})
        with pytest.raises(cli.ConfigError, match="attended_speaker"):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "aad_cfg, message",
        [
            # decode divided by the zero-sample trial
            ({"trial_seconds": 0.005}, r"trial_seconds 0.005 gives 0 samples at rate 64"),
            # the EEG filter's padding refused it, in scipy's words
            ({"trial_seconds": 0.1}, r"trial_seconds 0.1 gives 6 samples .* 17-sample lag window"),
            ({"trial_seconds": 17 / 64}, r"trial_seconds 0.265625 gives 17 samples .* 17-sample lag window"),
            ({"lag_range_ms": [0, 50], "trial_seconds": 0.125}, r"trial_seconds 0.125 gives 8 samples .* 9-sample padding"),
            ({"lag_range_ms": [300, 100]}, r"lag_range_ms must be \[lo, hi\] with 0 <= lo <= hi"),
            ({"lag_range_ms": [-10, 100]}, r"lag_range_ms .* 0 <= lo <= hi, got \[-10, 100\]"),
            ({"ridge": -1}, r"ridge must be at least 0, got -1"),
        ],
    )
    def test_aad_bounds_refused_at_load(self, tmp_path, aad_cfg, message):
        path = write_config(tmp_path, aad=aad_cfg)
        with pytest.raises(cli.ConfigError, match=r"section 'aad': " + message):
            cli.load_config(path)

    def test_shortest_trial_within_bounds_decodes(self, pipeline, tmp_path):
        # one sample longer than the 17-sample lag window of the default lags:
        # each reconstruction holds the two samples a correlation needs
        root, _, _ = pipeline
        cfg = cli.load_config(write_config(tmp_path, aad={"trial_seconds": 18 / 64}))
        records = cli.cmd_decode(cfg, root / "scene", root / "enh", tmp_path / "dec")
        enhanced, fs = cli.read_wav(root / "enh" / "speaker0.wav")
        assert len(records) == len(cli._trial_spans(enhanced.shape[1], fs, 18 / 64)) > 2

    @pytest.mark.parametrize("duration, trial", [(30.0, 30.0), (5.0, 3.0)])
    def test_synth_scene_needs_two_trials(self, tmp_path, duration, trial):
        cfg = cli.load_config(
            write_config(tmp_path, scene={"duration_s": duration}, aad={"trial_seconds": trial})
        )
        # refused before any scene file is read
        missing = tmp_path / "no_scene"
        with pytest.raises(cli.ConfigError, match="trial_seconds"):
            cli.cmd_enhance(cfg, missing, tmp_path / "enh")
        with pytest.raises(cli.ConfigError, match="trial_seconds"):
            cli.cmd_decode(cfg, missing, missing, tmp_path / "dec")

    def test_scene_shortened_below_two_trials_refused(self, tmp_path, monkeypatch):
        # duration_s holds 2.5 trials, but pause shortening leaves 7.5 s of
        # audio: one whole 4 s trial
        path = write_config(
            tmp_path,
            seed=3,
            scene={"t60_s": 0.2, "noise_gain": 0.1, "n_mics": 2, "duration_s": 10.0,
                   "pause_every_s": 1.0, "pause_length_s": 6.0},
            stft={"frame_length": 128, "hop": 32},
            beamformer_type="MPDR",
            aad={"trial_seconds": 4.0},
        )
        cfg = cli.load_config(path)
        cli.cmd_simulate(cfg, tmp_path / "scene")

        def no_solve(*args, **kwargs):
            raise AssertionError("beamformed before the trials were counted")

        monkeypatch.setattr(beamform, "mpdr", no_solve)
        refused = r"7\.502 s hold 1 whole trial.*aad\.trial_seconds 4.*scene\.duration_s 10.*" + (
            r"scene\.pause_every_s 1, scene\.pause_length_s 6, scene\.max_pause_s 0\.5"
        )
        with pytest.raises(cli.ConfigError, match=refused):
            cli.cmd_enhance(cfg, tmp_path / "scene", tmp_path / "enh")
        # decode counts the trials of the enhanced audio it reads
        mics, fs = cli.read_wav(tmp_path / "scene" / "mics.wav")
        for i in range(2):
            cli.write_wav(tmp_path / "enh" / f"speaker{i}.wav", mics[i], fs)
        with pytest.raises(cli.ConfigError, match=refused):
            cli.cmd_decode(cfg, tmp_path / "scene", tmp_path / "enh", tmp_path / "dec")

    def test_readme_defaults_run_all_stages(self, tmp_path):
        # the documented defaults (60 s scene, 30 s trials) scaled down
        # twentyfold, keeping their ratio
        defaults = cli.PipelineConfig(seed=0)
        assert (defaults.scene.duration_s, defaults.aad.trial_seconds) == (60.0, 30.0)
        path = tmp_path / "readme.json"
        path.write_text(
            json.dumps(
                {"seed": 17, "scene": {"duration_s": 3.0}, "aad": {"trial_seconds": 1.5}}
            )
        )
        stages = [
            ["simulate", "--out", str(tmp_path / "scene")],
            ["enhance", "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "enh")],
            ["decode", "--scene", str(tmp_path / "scene"), "--enhanced", str(tmp_path / "enh"),
             "--out", str(tmp_path / "dec")],
            ["evaluate", "--scene", str(tmp_path / "scene"), "--enhanced", str(tmp_path / "enh"),
             "--decoded", str(tmp_path / "dec"), "--out", str(tmp_path / "eval")],
        ]
        for argv in stages:
            assert cli.main([argv[0], "--config", str(path)] + argv[1:]) == 0, argv[0]
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["n_trials"] == 2


class TestSimulate:
    def test_seed_repeat_byte_identical(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path))
        cli.cmd_simulate(cfg, tmp_path / "a")
        cli.cmd_simulate(cfg, tmp_path / "b")
        for name in [
            "mics.wav",
            "components_reverberant.cbtf",
            "components_anechoic.cbtf",
            "noise.cbtf",
            "metadata.json",
        ]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_zero_noise_config(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, scene={"noise_gain": 0.0}))
        cli.cmd_simulate(cfg, tmp_path / "scene")
        noise = read_tensor(tmp_path / "scene" / "noise.cbtf")
        assert not np.any(noise)

    def test_additivity_of_stored_components(self, pipeline):
        root, _, _ = pipeline
        mics, _ = cli.read_wav(root / "scene" / "mics.wav")
        comps = read_tensor(root / "scene" / "components_reverberant.cbtf")
        noise = read_tensor(root / "scene" / "noise.cbtf")
        # float32 WAV quantizes; components are stored at full precision
        np.testing.assert_allclose(
            mics, comps.sum(axis=0) + noise, atol=1e-6 * np.abs(mics).max()
        )

    def test_calibrated_condition_hits_target(self, tmp_path):
        cfg = cli.load_config(
            write_config(
                tmp_path,
                scene={
                    "condition": "reverberant-noisy",
                    "t60_s": 0.15,
                    "target_input_fwssnr_db": None,
                    "duration_s": 6.0,
                    "noise_gain": 1.0,
                },
            )
        )
        meta = cli.cmd_simulate(cfg, tmp_path / "scene")
        assert meta["mean_input_fwssnr_db"] == pytest.approx(0.5, abs=0.1)

    def test_calibrated_metadata_reads_calibration_scores(self, tmp_path, monkeypatch):
        framings = []  # frames framed per call; a signal is framed in blocks
        frame_spectra = metrics._frame_spectra

        def counting(signal, frame, hop):
            framings.append((signal.size - frame) // hop + 1)
            return frame_spectra(signal, frame, hop)

        monkeypatch.setattr(metrics, "_frame_spectra", counting)
        cfg = cli.load_config(
            write_config(
                tmp_path, scene={"condition": "reverberant-noisy", "t60_s": None, "n_mics": 4}
            )
        )
        meta = cli.cmd_simulate(cfg, tmp_path / "scene")
        rebuilt = self.stored_scene(tmp_path / "scene")
        # 2 references, then per microphone the noise and 2 speech residuals;
        # re-scoring the calibrated scene would frame 10 more signals
        frames_per_signal = (rebuilt.noise.shape[1] - 512) // 128 + 1
        assert sum(framings) == 14 * frames_per_signal
        for i, mic in enumerate(meta["reference_mics"]):
            want = metrics.input_fwssnr(rebuilt, i, mic)
            assert abs(meta["input_fwssnr_db"][i] - want) <= 1e-12
        assert meta["mean_input_fwssnr_db"] == float(np.mean(meta["input_fwssnr_db"]))

    def test_fixed_gain_metadata_scores_the_scene(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path))
        meta = cli.cmd_simulate(cfg, tmp_path / "scene")
        rebuilt = self.stored_scene(tmp_path / "scene")
        assert meta["input_fwssnr_db"] == [
            metrics.input_fwssnr(rebuilt, i, mic)
            for i, mic in enumerate(meta["reference_mics"])
        ]

    @staticmethod
    def stored_scene(scene_dir):
        # the stored float64 tensors give the rendered mics bit for bit
        components = read_tensor(scene_dir / "components_reverberant.cbtf")
        noise = read_tensor(scene_dir / "noise.cbtf")
        anechoic = read_tensor(scene_dir / "components_anechoic.cbtf")
        return scene.RenderedScene(components, anechoic, noise)


class TestEnhance:
    def test_outputs_exist_with_diagnostics(self, pipeline):
        root, _, _ = pipeline
        assert (root / "enh" / "speaker0.wav").exists()
        assert (root / "enh" / "speaker1.wav").exists()
        diag = json.loads((root / "enh" / "diagnostics.json").read_text())
        speaker = diag["speaker0"]
        assert speaker["max_constraint_residual"] <= 1e-8
        n_bins = 257
        assert speaker["failed_bins"] == len(speaker["failed_bin_list"])
        assert len(speaker["constraint_residual_per_bin"]) == n_bins
        solved = [r for r in speaker["constraint_residual_per_bin"] if r is not None]
        assert max(solved) == speaker["max_constraint_residual"]
        assert len(speaker["objective_per_bin"]) == 2  # iterations
        assert all(len(row) == n_bins for row in speaker["objective_per_bin"])

    def test_rising_rounds_per_bin(self, pipeline, tmp_path):
        # speaker 0's all-ones target mask in bin 5 fails that bin, which
        # passes through with no count
        root, _, _ = pipeline
        cfg = cli.load_config(write_config(tmp_path, beamformer={"iterations": 4}))
        mask_set = cli._oracle_masks(root / "scene", cfg.stft)
        mask_set[0, :, 5] = 1.0
        mask_path = tmp_path / "masks.cbtf"
        write_tensor(mask_path, mask_set)
        cfg = cli.load_config(
            write_config(
                tmp_path,
                beamformer={"iterations": 4},
                masks={"source": "file", "path": str(mask_path)},
            )
        )
        diag = cli.cmd_enhance(cfg, root / "scene", tmp_path / "enh")
        assert diag == json.loads((tmp_path / "enh" / "diagnostics.json").read_text())
        assert diag["speaker0"]["failed_bin_list"][0][:2] == [5, 0]
        for speaker in diag.values():
            rising = speaker["rising_rounds_per_bin"]
            objective = np.array(speaker["objective_per_bin"], dtype=float)
            residuals = speaker["constraint_residual_per_bin"]
            assert len(rising) == objective.shape[1] == 257
            for fi, count in enumerate(rising):
                assert (count is None) == (residuals[fi] is None)
                if count is not None:
                    assert count == int(np.sum(np.diff(objective[:, fi]) > 0))
            assert 0 < max(r for r in rising if r is not None) <= 3
        assert diag["speaker0"]["rising_rounds_per_bin"][5] is None
        assert None not in diag["speaker1"]["rising_rounds_per_bin"]

    def test_mask_file_route_matches_oracle_route(self, pipeline, tmp_path):
        root, cfg, _ = pipeline
        mask_set = cli._oracle_masks(root / "scene", cfg.stft)
        mask_path = tmp_path / "masks.cbtf"
        write_tensor(mask_path, mask_set)

        cfg_file = cli.load_config(
            write_config(tmp_path, masks={"source": "file", "path": str(mask_path)})
        )
        cli.cmd_enhance(cfg_file, root / "scene", tmp_path / "enh_file")
        assert (tmp_path / "enh_file" / "speaker0.wav").read_bytes() == (
            root / "enh" / "speaker0.wav"
        ).read_bytes()

    def test_per_mic_mask_file_route_matches_oracle_route(self, pipeline, tmp_path, monkeypatch):
        from cogbeam import masks as masks_mod

        root, cfg, _ = pipeline
        mask_set = cli._oracle_masks(root / "scene", cfg.stft)
        # the second microphone's planes permuted: aligned back, the mean of
        # two equal sets is exact
        mask_path = tmp_path / "masks.cbtf"
        write_tensor(mask_path, np.stack([mask_set, mask_set[[1, 2, 0]]]))
        opened = []

        def record(path, _original=masks_mod.read_tensor):
            opened.append(Path(path).name)
            return _original(path)

        monkeypatch.setattr(masks_mod, "read_tensor", record)
        cfg_file = cli.load_config(
            write_config(tmp_path, masks={"source": "file", "path": str(mask_path)})
        )
        cli.cmd_enhance(cfg_file, root / "scene", tmp_path / "enh_file")
        assert opened == ["masks.cbtf"]
        for i in range(2):
            assert (tmp_path / "enh_file" / f"speaker{i}.wav").read_bytes() == (
                root / "enh" / f"speaker{i}.wav"
            ).read_bytes()

    def test_per_mic_mask_file_clamped_with_warning(self, pipeline, tmp_path):
        root, cfg, _ = pipeline
        mask_set = cli._oracle_masks(root / "scene", cfg.stft)
        per_mic = np.stack([mask_set, mask_set])
        per_mic[0, 0, 0, :2] = [1.5, -0.5]
        per_mic[1, 2, 3, 4] = 2.0
        mask_path = tmp_path / "masks.cbtf"
        write_tensor(mask_path, per_mic)
        cfg_file = cli.load_config(
            write_config(
                tmp_path,
                beamformer_type="MPDR",
                masks={"source": "file", "path": str(mask_path)},
            )
        )
        with pytest.warns(UserWarning, match="clamped 3 mask value"):
            cli.cmd_enhance(cfg_file, root / "scene", tmp_path / "enh_file")

    @pytest.mark.parametrize("n_speakers", [2, 3])
    def test_streamed_oracle_masks_match_all_mic_construction(self, tmp_path, n_speakers):
        from cogbeam import masks as masks_mod
        from cogbeam import stft as stft_mod

        cfg = cli.load_config(
            write_config(tmp_path, scene={"n_speakers": n_speakers, "duration_s": 3.0})
        )
        cli.cmd_simulate(cfg, tmp_path / "scene")
        # the reference: every component's multichannel spectrogram at once,
        # one mask set per microphone, then their mean
        comps = read_tensor(tmp_path / "scene" / "components_reverberant.cbtf")
        noise = read_tensor(tmp_path / "scene" / "noise.cbtf")
        comp_specs = [stft_mod.analyze(c, cfg.stft) for c in comps]
        noise_spec = stft_mod.analyze(noise, cfg.stft)
        per_mic = [
            masks_mod.oracle_irm(comp_specs, noise_spec, m) for m in range(noise.shape[0])
        ]
        reference = masks_mod.average_masks(per_mic)
        streamed = cli._oracle_masks(tmp_path / "scene", cfg.stft)
        assert streamed.shape == (n_speakers + 1,) + noise_spec.shape[1:]
        assert np.array_equal(streamed, reference)

    @pytest.mark.parametrize("n_speakers", [2, 3])
    def test_blocked_oracle_masks_match_whole_signal_per_mic_masks(self, tmp_path, n_speakers):
        # 773 frames of a 128/32 STFT: blocks of 256, 256 and 261 frames
        from cogbeam import masks as masks_mod
        from cogbeam import stft as stft_mod

        stft_cfg = stft_mod.StftConfig(frame_length=128, hop=32)
        rng = np.random.default_rng(n_speakers)
        n_samples = 772 * 32 + 128 + 5
        comps = rng.standard_normal((n_speakers, 3, n_samples)) * rng.uniform(0, 2, n_samples)
        noise = 0.1 * rng.standard_normal((3, n_samples))
        comps[:, :, :300] = 0.0
        noise[:, :300] = 0.0  # all-zero bins take the uniform value
        (tmp_path / "scene").mkdir()
        write_tensor(tmp_path / "scene" / "components_reverberant.cbtf", comps)
        write_tensor(tmp_path / "scene" / "noise.cbtf", noise)

        def one_shot(x):  # every frame of a whole signal windowed and transformed at once
            windows = np.lib.stride_tricks.sliding_window_view(x, 128, axis=-1)[..., ::32, :]
            return np.fft.rfft(windows * stft_mod._window(stft_cfg), axis=-1)

        per_mic = [
            masks_mod.oracle_irm([one_shot(c[m])[None] for c in comps], one_shot(noise[m])[None], 0)
            for m in range(3)
        ]
        blocked = cli._oracle_masks(tmp_path / "scene", stft_cfg)
        assert blocked.shape == (n_speakers + 1, 773, 65)
        np.testing.assert_array_equal(blocked, masks_mod.average_masks(per_mic))

    @pytest.mark.parametrize("kind", ["MPDR", "LCMP", "MVDR", "LCMV"])
    def test_conventional_types_run(self, pipeline, tmp_path, kind):
        root, _, _ = pipeline
        cfg = cli.load_config(write_config(tmp_path, beamformer_type=kind))
        out = tmp_path / f"enh_{kind}"
        cli.cmd_enhance(cfg, root / "scene", out)
        sig, _ = cli.read_wav(out / "speaker0.wav")
        assert np.all(np.isfinite(sig))


# Runs a CLI stage in a fresh interpreter; with "one-cpu" the child first
# limits its affinity to one CPU, before numpy starts OpenBLAS.
_CLI_CHILD = """
import os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cogbeam.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _child_env(threads):
    """Environment of a ``_CLI_CHILD`` that imports this cogbeam, with
    ``OPENBLAS_NUM_THREADS`` set to ``threads``, or unset for None."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.skipif(
    linalg._openblas_threads() is None, reason="numpy's OpenBLAS exposes no thread setting"
)
def test_enhance_same_bytes_for_any_blas_threads_and_cpu_count(tmp_path):
    cfg_path = write_config(
        tmp_path,
        scene={"duration_s": 2.0, "n_mics": 4, "t60_s": 0.5, "noise_gain": 0.1},
        stft={"frame_length": 128, "hop": 32},
        aad={"trial_seconds": 1.0},
    )
    cli.cmd_simulate(cli.load_config(cfg_path), tmp_path / "scene")
    outputs = {}
    for setting, threads in (("blas-default", None), ("blas-1", "1"), ("one-cpu", None)):
        env = _child_env(threads)
        out = tmp_path / setting
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_CHILD, setting, "enhance", "--config",
             str(cfg_path), "--scene", str(tmp_path / "scene"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[setting] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs["blas-default"]) == ["diagnostics.json", "speaker0.wav", "speaker1.wav"]
    assert outputs["blas-default"] == outputs["blas-1"] == outputs["one-cpu"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.skipif(
    linalg._openblas_threads() is None, reason="numpy's OpenBLAS exposes no thread setting"
)
def test_every_stage_same_bytes_for_any_blas_threads_and_cpu_count(tmp_path):
    cfg_path = write_config(
        tmp_path,
        scene={"duration_s": 2.0, "n_mics": 4, "t60_s": 0.5, "noise_gain": 0.1},
        stft={"frame_length": 128, "hop": 32},
        aad={"trial_seconds": 1.0},
    )
    outputs = {}
    for setting, threads in (("blas-default", None), ("blas-1", "1"), ("one-cpu", None)):
        env = _child_env(threads)
        root = tmp_path / setting
        for argv in stage_argvs(cfg_path, root):
            proc = subprocess.run(
                [sys.executable, "-c", _CLI_CHILD, setting] + argv,
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, (setting, argv[0], proc.stderr)
        outputs[setting] = {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()
        }
    first = outputs["blas-default"]
    assert {"scene/mics.wav", "dec/trials.jsonl", "eval/report.json"} <= first.keys()
    for setting in ("blas-1", "one-cpu"):
        assert outputs[setting].keys() == first.keys()
        assert [name for name in first if outputs[setting][name] != first[name]] == [], setting


@pytest.mark.skipif(
    linalg._openblas_threads() is None, reason="numpy's OpenBLAS exposes no thread setting"
)
def test_every_stage_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    get_threads, set_threads = linalg._openblas_threads()
    before = get_threads()
    seen = []

    def recorded(fn):
        def call(*args, **kwargs):
            entry = [fn.__name__, get_threads()]
            seen.append(entry)
            result = fn(*args, **kwargs)
            entry.append(get_threads())
            return result

        return call

    for name in ("cmd_simulate", "cmd_enhance", "cmd_decode", "cmd_evaluate"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    # called inside _beamform's own pin, nested in the CLI's
    monkeypatch.setattr(beamform, "_solve_chunks", recorded(beamform._solve_chunks))
    cfg_path = write_config(
        tmp_path,
        scene={"duration_s": 2.0},
        stft={"frame_length": 128, "hop": 32},
        aad={"trial_seconds": 1.0},
    )
    argvs = stage_argvs(cfg_path, tmp_path)
    set_threads(2)
    try:
        for argv in argvs:
            assert cli.main(argv) == 0, argv[0]
            assert get_threads() == 2, argv[0]
        # a stage that fails inside the pin
        failing = ["evaluate", "--config", str(cfg_path), "--scene", str(tmp_path / "scene"),
                   "--enhanced", str(tmp_path / "enh"), "--decoded", str(tmp_path / "no_dec"),
                   "--out", str(tmp_path / "no_eval")]
        assert cli.main(failing) == 1
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert seen == [
        ["cmd_simulate", 1, 1],
        ["cmd_enhance", 1, 1],
        ["_solve_chunks", 1, 1],
        ["cmd_decode", 1, 1],
        ["cmd_evaluate", 1, 1],
        ["cmd_evaluate", 1],
    ]


class TestDecode:
    def test_record_count_matches_trials(self, pipeline):
        root, cfg, _ = pipeline
        records = [
            json.loads(line)
            for line in (root / "dec" / "trials.jsonl").read_text().splitlines()
        ]
        enhanced, fs = cli.read_wav(root / "enh" / "speaker0.wav")
        assert len(records) == enhanced.shape[1] // int(cfg.aad.trial_seconds * fs) == 4

    def test_decodes_only_trials_whose_audio_is_whole(self, tmp_path):
        # a 2.99 s scene enhances to 47 872 samples at a 128/32 STFT: two
        # whole 1 s trials, while the envelope rounds up to three 64-sample ones
        path = write_config(
            tmp_path,
            scene={"duration_s": 2.99},
            stft={"frame_length": 128, "hop": 32},
            beamformer_type="MPDR",
            aad={"trial_seconds": 1.0},
        )
        for argv in stage_argvs(path, tmp_path):
            assert cli.main(argv) == 0, argv[0]
        enhanced, _ = cli.read_wav(tmp_path / "enh" / "speaker0.wav")
        assert enhanced.shape[1] == 47872
        assert len(aad.extract_envelope(enhanced[0], 16000, 64)) == 192
        records = (tmp_path / "dec" / "trials.jsonl").read_text().splitlines()
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert len(records) == report["n_trials"] == 2

    def test_high_snr_selects_attended(self, pipeline):
        root, _, _ = pipeline
        records = [
            json.loads(line)
            for line in (root / "dec" / "trials.jsonl").read_text().splitlines()
        ]
        correct = [r["selected"] == r["attended"] for r in records]
        assert sum(correct) >= 0.75 * len(correct)

    def test_file_mode_matches_synth_mode(self, pipeline, tmp_path, monkeypatch):
        # feed the synthetic EEG that synth mode decodes back in through file
        # mode: both reach the same leave-one-out decoding
        root, cfg, _ = pipeline
        made = []
        original = aad.make_synthetic_trial_set

        def keep(*args, **kwargs):
            made.append(original(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(aad, "make_synthetic_trial_set", keep)
        cli.cmd_decode(cfg, root / "scene", root / "enh", tmp_path / "synth")
        eeg, labels = made[0]
        file_cfg = self.file_mode_config(tmp_path, eeg, labels.tolist())
        cli.cmd_decode(file_cfg, root / "scene", root / "enh", tmp_path / "file")
        assert (tmp_path / "file" / "trials.jsonl").read_bytes() == (
            tmp_path / "synth" / "trials.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("bad", [-1, 2, 1.0, True])
    def test_file_mode_labels_range_checked(self, pipeline, tmp_path, monkeypatch, bad):
        root, _, _ = pipeline
        cfg = self.file_mode_config(tmp_path, np.zeros((4, 16, 96)), [0, 1, bad, 0])

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the labels were checked")

        monkeypatch.setattr(aad, "decode_trials", no_training)
        with pytest.raises(cli.ConfigError, match=r"speaker indices in \[0, 2\)"):
            cli.cmd_decode(cfg, root / "scene", root / "enh", tmp_path / "dec")

    def test_too_short_message_keeps_fraction(self, pipeline, tmp_path):
        root, _, _ = pipeline
        cfg = self.file_mode_config(tmp_path, np.zeros((1, 16, 96)), [0], trial_seconds=7.5)
        with pytest.raises(cli.ConfigError, match="one 7.5-second trial"):
            cli.cmd_decode(cfg, root / "scene", root / "enh", tmp_path / "dec")

    @pytest.mark.parametrize("n_eeg", [0, 1])
    def test_file_mode_needs_two_usable_trials(self, pipeline, tmp_path, monkeypatch, n_eeg):
        # one trial failed in aad with "need at least one training trial"; none
        # wrote an empty trials.jsonl that evaluate then refused
        root, _, _ = pipeline
        cfg = self.file_mode_config(tmp_path, np.zeros((n_eeg, 16, 96)), [0] * n_eeg)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the trials were counted")

        monkeypatch.setattr(aad, "decode_trials", no_training)
        message = (
            rf"^aad\.eeg_path {re.escape(str(tmp_path / 'eeg.cbtf'))} gives {n_eeg} usable "
            rf"trial\(s\) of the two that leave-one-out decoding needs \({n_eeg} in the file, 4 "
        )
        with pytest.raises(cli.ConfigError, match=message):
            cli.cmd_decode(cfg, root / "scene", root / "enh", tmp_path / "dec")
        assert not (tmp_path / "dec" / "trials.jsonl").exists()

    @pytest.mark.skipif(
        linalg._openblas_threads() is None, reason="numpy's OpenBLAS exposes no thread setting"
    )
    def test_same_bytes_when_called_at_two_blas_threads(self, pipeline, tmp_path):
        # called directly, outside cli.main's pin, decoding ran on the caller's
        # BLAS threads and the correlations differed in their last digits
        root, cfg, _ = pipeline
        get_threads, set_threads = linalg._openblas_threads()
        before = get_threads()
        written = []
        try:
            for threads in (2, 1):
                set_threads(threads)
                cli.cmd_decode(cfg, root / "scene", root / "enh", tmp_path / str(threads))
                assert get_threads() == threads
                written.append((tmp_path / str(threads) / "trials.jsonl").read_bytes())
        finally:
            set_threads(before)
        assert written[0] == written[1]

    @staticmethod
    def file_mode_config(tmp_path, eeg, labels, trial_seconds=1.5):
        write_tensor(tmp_path / "eeg.cbtf", eeg)
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        aad_cfg = {
            "mode": "file",
            "eeg_path": str(tmp_path / "eeg.cbtf"),
            "labels_path": str(tmp_path / "labels.json"),
            "trial_seconds": trial_seconds,
        }
        return cli.load_config(write_config(tmp_path, "file.json", aad=aad_cfg))

    def test_trial_spans_thirty_seconds(self):
        spans = cli._trial_spans(1200 * 64, 64, 30.0)
        assert len(spans) == 40


class TestEvaluate:
    def test_report_fields(self, pipeline):
        _, _, report = pipeline
        assert report["oracle_aad_accuracy_pct"] == 100.0
        assert report["n_trials"] >= 3
        assert np.isfinite(report["delta_fwssnr_est_aad_db"])
        assert report["published_chance_bounds_pct"] == {40: 61.39, 20: 66.19}

    def test_report_round_trips_through_json(self, pipeline):
        root, _, report = pipeline
        loaded = json.loads((root / "eval" / "report.json").read_text())
        dumped = json.loads(json.dumps(loaded))
        assert dumped == loaded
        assert loaded["n_trials"] == report["n_trials"]

    def test_tables_written(self, pipeline):
        root, _, report = pipeline
        table = (root / "eval" / "tables" / "trials.tsv").read_text().splitlines()
        assert table[0].startswith("trial\t")
        assert len(table) == report["n_trials"] + 1

    def test_passthrough_outputs_give_zero_delta(self, tmp_path):
        cfg = cli.load_config(
            write_config(tmp_path, scene={"n_mics": 1, "noise_gain": 0.05})
        )
        cli.cmd_simulate(cfg, tmp_path / "scene")
        mics, rate = cli.read_wav(tmp_path / "scene" / "mics.wav")
        out = tmp_path / "enh"
        out.mkdir()
        for i in range(2):  # both "outputs" are the lone microphone signal
            cli.write_wav(out / f"speaker{i}.wav", mics[0], rate)
        cli.cmd_decode(cfg, tmp_path / "scene", out, tmp_path / "dec")
        report = cli.cmd_evaluate(
            cfg, tmp_path / "scene", out, tmp_path / "dec", tmp_path / "eval"
        )
        assert report["delta_fwssnr_est_aad_db"] == 0.0
        assert all(t["tie"] for t in report["trials"])
        assert report["aad_accuracy_pct"] == 0.0  # ties count as incorrect


class TestThreeSpeakers:
    def test_selection_must_beat_every_other_output(self, tmp_path):
        cfg = cli.load_config(
            write_config(tmp_path, scene={"n_speakers": 3, "noise_gain": 0.01})
        )
        cli.cmd_simulate(cfg, tmp_path / "scene")
        cli.cmd_enhance(cfg, tmp_path / "scene", tmp_path / "enh")
        cli.cmd_decode(cfg, tmp_path / "scene", tmp_path / "enh", tmp_path / "dec")
        report = cli.cmd_evaluate(
            cfg, tmp_path / "scene", tmp_path / "enh", tmp_path / "dec", tmp_path / "eval"
        )
        for row in report["trials"]:
            scores = row["output_fwssnr_db"]
            assert len(scores) == 3
            others = [s for i, s in enumerate(scores) if i != row["selected"]]
            assert row["correct"] == (scores[row["selected"]] > max(others))

        # Fixed outputs: speaker 0's output is the mixture, speaker 1's the
        # other talker's clean signal, speaker 2's speaker 0's clean signal.
        # Selecting output 0 for attended speaker 0 beats output 1 but not
        # output 2, so neither the selection nor the oracle choice is correct.
        mics, rate = cli.read_wav(tmp_path / "scene" / "mics.wav")
        anechoic = read_tensor(tmp_path / "scene" / "components_anechoic.cbtf")
        ref = json.loads((tmp_path / "scene" / "metadata.json").read_text())["reference_mics"]
        fixed = tmp_path / "fixed"
        fixed.mkdir()
        signals = [mics[ref[0]], anechoic[1, ref[0]], anechoic[0, ref[0]]]
        for i, signal in enumerate(signals):
            cli.write_wav(fixed / f"speaker{i}.wav", signal, rate)
        dec = tmp_path / "dec_fixed"
        dec.mkdir()
        with open(dec / "trials.jsonl", "w") as fh:
            for t in range(report["n_trials"]):
                fh.write(json.dumps({"trial": t, "selected": 0, "attended": 0}) + "\n")
        fixed_report = cli.cmd_evaluate(cfg, tmp_path / "scene", fixed, dec, tmp_path / "ev2")
        for row in fixed_report["trials"]:
            scores = row["output_fwssnr_db"]
            assert scores[0] > scores[1] and scores[2] > scores[0]
            assert not row["correct"]
        assert fixed_report["aad_accuracy_pct"] == 0.0
        assert fixed_report["oracle_aad_accuracy_pct"] == 0.0


class TestReadSets:
    """Each stage opens only the scene files it uses."""

    @staticmethod
    def opened_by(monkeypatch, stage, *args):
        opened = []
        for name in ("read_tensor", "read_wav"):
            original = getattr(cli, name)

            def record(path, _original=original):
                opened.append(Path(path).name)
                return _original(path)

            monkeypatch.setattr(cli, name, record)
        stage(*args)
        monkeypatch.undo()
        return sorted(opened)

    def test_enhance_with_oracle_masks(self, pipeline, tmp_path, monkeypatch):
        root, cfg, _ = pipeline
        opened = self.opened_by(monkeypatch, cli.cmd_enhance, cfg, root / "scene", tmp_path)
        assert opened == ["components_reverberant.cbtf", "mics.wav", "noise.cbtf"]
        assert (tmp_path / "speaker0.wav").read_bytes() == (
            root / "enh" / "speaker0.wav"
        ).read_bytes()

    @pytest.mark.parametrize("kind", ["MVDR", "LCMV"])
    def test_enhance_with_direct_path_steering(self, pipeline, tmp_path, monkeypatch, kind):
        root, _, _ = pipeline
        cfg = cli.load_config(write_config(tmp_path, beamformer_type=kind))
        opened = self.opened_by(monkeypatch, cli.cmd_enhance, cfg, root / "scene", tmp_path)
        assert opened == ["irs_anechoic.cbtf", "mics.wav", "noise.cbtf"]

    def test_decode(self, pipeline, tmp_path, monkeypatch):
        root, cfg, _ = pipeline
        opened = self.opened_by(
            monkeypatch, cli.cmd_decode, cfg, root / "scene", root / "enh", tmp_path
        )
        assert opened == ["components_anechoic.cbtf", "speaker0.wav", "speaker1.wav"]
        assert (tmp_path / "trials.jsonl").read_bytes() == (
            root / "dec" / "trials.jsonl"
        ).read_bytes()

    def test_evaluate(self, pipeline, tmp_path, monkeypatch):
        root, cfg, _ = pipeline
        stage_args = (cfg, root / "scene", root / "enh", root / "dec", tmp_path)
        opened = self.opened_by(monkeypatch, cli.cmd_evaluate, *stage_args)
        assert opened == ["components_anechoic.cbtf", "mics.wav", "speaker0.wav", "speaker1.wav"]
        assert (tmp_path / "report.json").read_bytes() == (
            root / "eval" / "report.json"
        ).read_bytes()


class TestMainEntry:
    def test_cli_error_record_on_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        proc = subprocess.run(
            [sys.executable, "-m", "cogbeam.cli", "simulate", "--config", str(bad), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"

    def test_cli_simulate_success(self, tmp_path):
        cfg_path = write_config(tmp_path)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cogbeam.cli",
                "simulate",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "scene"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "scene" / "metadata.json").exists()

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        proc = subprocess.run(
            [
                sys.executable, "-m", "cogbeam.cli", "simulate",
                "--config", str(cfg_path), "--out", str(tmp_path / "s2"),
                "--seed", "99",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "s2" / "metadata.json").read_text())
        assert meta["seed"] == 99


    def test_negative_seed_override_refused_before_rendering(self, tmp_path, capsys):
        # simulate failed with "expected non-negative integer" from SeedSequence
        argv = ["simulate", "--config", str(write_config(tmp_path)),
                "--out", str(tmp_path / "scene"), "--seed", "-1"]
        assert cli.main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert record["message"] == "--seed: seed must be at least 0, got -1"
        assert not (tmp_path / "scene").exists()


class TestReadWav:
    def test_integer_pcm_scaled_to_unit_range(self, tmp_path):
        # 8-bit WAV is unsigned with silence at 128
        path = tmp_path / "u8.wav"
        scipy.io.wavfile.write(path, 8000, np.array([0, 128, 255, 64], dtype=np.uint8))
        data, rate = cli.read_wav(path)
        assert rate == 8000
        np.testing.assert_array_equal(data, [[-1.0, 0.0, 127 / 128, -0.5]])
        for dtype, full_scale in [(np.int16, 2.0**15), (np.int32, 2.0**31)]:
            path = tmp_path / f"{np.dtype(dtype).name}.wav"
            pcm = np.array([[-full_scale, 0], [full_scale / 2, full_scale / 4]]).astype(dtype)
            scipy.io.wavfile.write(path, 8000, pcm)
            np.testing.assert_array_equal(cli.read_wav(path)[0], [[-1.0, 0.5], [0.0, 0.25]])

    def test_unscalable_integer_width_refused(self, tmp_path):
        # 64-bit PCM read back unscaled, about 1e12 for this sample
        path = tmp_path / "i64.wav"
        scipy.io.wavfile.write(path, 8000, np.array([0, 2**40], dtype=np.int64))
        with pytest.raises(ValueError, match=r"i64\.wav: cannot scale int64 WAV samples"):
            cli.read_wav(path)


class TestConfigTypes:
    @pytest.mark.parametrize("key", ["seed", "sample_rate"])
    @pytest.mark.parametrize("value", ["abc", 1.7, True, 16000.9, None])
    def test_top_level_integers_refused_unless_json_integers(self, tmp_path, key, value):
        # int() raised a bare ValueError on "abc", read 1.7 and true as 1 and
        # truncated 16000.9
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(cli.ConfigError, match=f"^{key} must be a JSON integer, got "):
            cli.load_config(path)

    def test_top_level_integers_kept(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, seed=12, sample_rate=8000))
        assert (cfg.seed, cfg.sample_rate) == (12, 8000)
        assert cli.load_config(write_config(tmp_path, "default.json")).sample_rate == 16000

    @pytest.mark.parametrize(
        "section, key, value, shown",
        [
            # each loaded, then raised TypeError inside a stage
            ("scene", "n_mics", True, "true"),
            ("aad", "channels", 2.5, "2.5"),
            ("beamformer", "iterations", 1.5, "1.5"),
            ("stft", "hop", 32.0, "32.0"),
        ],
    )
    def test_int_fields_refuse_bools_and_non_integers(self, tmp_path, section, key, value, shown):
        path = write_config(tmp_path, **{section: {key: value}})
        message = rf"section '{section}': {key} must be a JSON integer, got {shown}$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "section, key, value, shown",
        [
            # each loaded and reached a stage as a bool, a string or NaN
            ("scene", "duration_s", True, "true"),
            ("scene", "noise_gain", "0.1", '"0.1"'),
            ("scene", "t60_s", False, "false"),
            ("scene", "max_pause_s", [0.5], "[0.5]"),
            ("aad", "snr_db", float("nan"), "NaN"),
            ("aad", "ridge", float("inf"), "Infinity"),
            ("beamformer", "delta", None, "null"),
        ],
    )
    def test_float_fields_refuse_non_numbers(self, tmp_path, section, key, value, shown):
        path = write_config(tmp_path, **{section: {key: value}})
        shown = re.escape(shown)
        message = rf"section '{section}': {key} must be a finite JSON number, got {shown}$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)

    def test_float_fields_keep_numbers_and_optional_nulls(self, tmp_path):
        cfg = cli.load_config(
            write_config(
                tmp_path,
                scene={"duration_s": 6, "t60_s": 0, "noise_gain": 0.25},
                aad={"snr_db": -5},
            )
        )
        assert (cfg.scene.duration_s, cfg.scene.noise_gain, cfg.scene.t60_s) == (6, 0.25, 0)
        assert cfg.aad.snr_db == -5
        cfg = cli.load_config(write_config(tmp_path, scene={"target_input_fwssnr_db": None}))
        assert cfg.scene.target_input_fwssnr_db is None

    def test_int_fields_keep_integers(self, tmp_path):
        cfg = cli.load_config(
            write_config(
                tmp_path, scene={"n_mics": 2}, aad={"channels": 3}, beamformer={"iterations": 1}
            )
        )
        assert (cfg.scene.n_mics, cfg.aad.channels, cfg.beamformer.iterations) == (2, 3, 1)

    @pytest.mark.parametrize(
        "overrides, key, samples, frame, frame_key",
        [
            # on a 2 s scene with a 128/32 STFT, each would fail in a stage
            # without its check: FwssnrReference refuses a scene or a trial
            # shorter than the 32 ms fwSSNR frame in simulate or evaluate,
            # enhance a scene shorter than the STFT frame, and simulate the
            # 0.005 s scene, shorter than its impulse responses
            ({"scene": {"duration_s": 0.02, "t60_s": 0}}, "scene.duration_s 0.02", 320, 512,
             "the fwSSNR measure"),
            ({"stft": {"frame_length": 100000}}, "scene.duration_s 2", 32000, 100000,
             "stft.frame_length"),
            ({"scene": {"duration_s": 0.005}}, "scene.duration_s 0.005", 80, 128, "stft.frame_length"),
            ({"aad": {"rate": 16000, "lag_range_ms": [0, 0], "trial_seconds": 0.01}},
             "aad.trial_seconds 0.01", 160, 512, "the fwSSNR measure"),
        ],
    )
    def test_scene_and_trials_shorter_than_a_frame_refused(
        self, tmp_path, overrides, key, samples, frame, frame_key
    ):
        sections = {"scene": {"duration_s": 2.0}, "stft": {"frame_length": 128, "hop": 32}}
        for section, values in overrides.items():
            sections[section] = sections.get(section, {}) | values
        path = write_config(tmp_path, **sections)
        message = (
            rf"^{re.escape(key)} gives {samples} samples at sample_rate 16000, shorter than "
            rf"the {frame}-sample frame of {re.escape(frame_key)}$"
        )
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)

    def test_load_builds_no_band_matrix(self, tmp_path, monkeypatch):
        # the frame checks built the fwSSNR band matrix at load, 293 MiB at 80 MHz
        def no_band_matrix(*args):
            raise AssertionError("load_config built the fwSSNR band matrix")

        monkeypatch.setattr(metrics, "_band_matrix", no_band_matrix)
        cfg = cli.load_config(write_config(tmp_path, sample_rate=80_000_000))
        assert cfg.sample_rate == 80_000_000

    def test_scene_and_trials_one_frame_long_kept(self, tmp_path):
        # 512 samples each: the scene, a trial and the 32 ms fwSSNR frame,
        # with anechoic impulse responses shorter than the scene
        cfg = cli.load_config(
            write_config(
                tmp_path,
                scene={"duration_s": 0.032, "t60_s": 0},
                stft={"frame_length": 128, "hop": 32},
                aad={"rate": 16000, "lag_range_ms": [0, 0], "trial_seconds": 0.032},
            )
        )
        assert cfg.scene.duration_s == cfg.aad.trial_seconds == 0.032
        assert metrics._frame_length(cfg.sample_rate) == 512

    @pytest.mark.parametrize(
        "duration, samples",
        [
            # each loaded, then simulate failed with "impulse responses (8193
            # taps) must be shorter than the shortest source (... samples)"
            (0.1, 1600),
            (8193.5 / 16000, 8193),  # the sources are cut to whole samples
        ],
    )
    def test_scene_not_longer_than_its_impulse_responses_refused(
        self, tmp_path, duration, samples
    ):
        path = write_config(
            tmp_path,
            scene={"duration_s": duration, "t60_s": 0.5, "n_mics": 2},
            aad={"trial_seconds": 19 / 64},
        )
        message = (
            rf"^scene\.duration_s {duration:g} gives {samples} samples at sample_rate 16000, "
            r"not more than the 8193 taps of the T60 0\.5 s room impulse responses"
        )
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)

    def test_preset_t60_scene_longer_than_its_impulse_responses_kept(self, tmp_path):
        # the preset's 0.5 s T60 gives 8193 taps, under the 16000 samples
        scene_cfg = {"condition": "reverberant-noisy", "t60_s": None, "duration_s": 1.0}
        cfg = cli.load_config(write_config(tmp_path, scene=scene_cfg))
        assert cli._t60_and_target(cfg.scene) == (0.5, 0.5)
        assert scene.synthetic_room_irs(2, 2, t60=0.5)[0].shape[2] == 8193

    @pytest.mark.parametrize("sample_rate", [0, 1000, -16000])
    def test_sample_rate_below_the_speech_filter_refused(self, tmp_path, sample_rate):
        # 0 and 1000 loaded, then simulate failed designing the 500 Hz low-pass
        # of scene.speech_shape_filter
        path = write_config(tmp_path, sample_rate=sample_rate)
        message = rf"^sample_rate must be in \(1000, 4294967295\], got {sample_rate}$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)

    def test_eeg_rate_above_sample_rate_refused(self, tmp_path):
        # loaded, then decode failed with "rate_out must not exceed rate_in"
        path = write_config(tmp_path, aad={"rate": 100000})
        message = r"^aad\.rate 100000 must not exceed sample_rate 16000$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(path)
        cfg = cli.load_config(write_config(tmp_path, sample_rate=8000, aad={"rate": 8000}))
        assert cfg.aad.rate == cfg.sample_rate


# A JSON number no Python float holds, written into a config's text by
# _write_raw in place of this string.
OVERFLOW = "1e400"


def _write_raw(path, overrides):
    """The test config with ``overrides``, {key path: value}, applied; a key
    path names a top-level key or a section's key."""
    cfg = json.loads(write_config(path.parent, path.name).read_text())
    for keys, value in overrides.items():
        target = cfg
        for key in keys[:-1]:
            target = target.setdefault(key, {}) if isinstance(target.get(key, {}), dict) else {}
        target[keys[-1]] = value
    path.write_text(json.dumps(cfg).replace(json.dumps(OVERFLOW), OVERFLOW))
    return path


# Each escaped load_config with a bare exception, or loaded and then failed or
# misscored in a stage.
ESCAPES = [
    # OverflowError
    ({("aad", "lag_range_ms"): [0, OVERFLOW]},
     r"^section 'aad': lag_range_ms must be \[lo, hi\], two finite numbers, got \[0, Infinity\]$"),
    # IndexError
    ({("beamformer", "filter_length_bands"): [[0]]},
     r"^section 'beamformer': filter_length_bands must be a list of \[lo, hi, taps\] with finite "
     r"lo, hi or null, and integer taps, got \[\[0\]\]$"),
    # TypeError
    ({("masks", "path"): 5}, r"^section 'masks': path must be a JSON string, got 5$"),
    ({("aad", "eeg_path"): 3}, r"^section 'aad': eeg_path must be a JSON string, got 3$"),
    # TypeError in enhance
    ({("beamformer", "filter_length_bands"): [[0, None, 8.5]]},
     r"^section 'beamformer': filter_length_bands must be a list of .* got \[\[0, null, 8\.5\]\]$"),
    # "expected non-negative integer" in simulate
    ({("seed",): -1}, r"^seed must be at least 0, got -1$"),
    # decode cut trials of 18 EEG samples (0.28125 s) and evaluate scored
    # trials of 0.2734375 s: on the 6 s test scene their trials 20 overlap by 43 %
    ({("aad", "trial_seconds"): 17.5 / 64},
     r"^section 'aad': trial_seconds 0\.2734375 gives 17\.5 samples at rate 64 Hz, not a whole "
     r"number: make it a multiple of 1 / rate$"),
    # OverflowError: sample counts beyond the float range
    ({("scene", "duration_s"): 1e308},
     r"^scene\.duration_s 1e\+308 gives more samples at 16000 Hz than a float holds$"),
    ({("scene", "t60_s"): 1e308},
     r"^scene\.t60_s 1e\+308 gives more samples at 16000 Hz than a float holds$"),
    ({("aad", "trial_seconds"): 1e308},
     r"^section 'aad': trial_seconds 1e\+308 gives more samples at 64 Hz than a float holds$"),
    ({("sample_rate",): 10**400}, r"^sample_rate must be in \(1000, 4294967295\], got 10{400}$"),
]

# Values for any key: inside and outside the bounds, of each JSON type, and
# beyond the float range.
ANY_VALUE = st.one_of(
    st.sampled_from(
        [None, True, False, "", "speech", "white", "custom", "reverberant", "oracle", "file",
         "synth", "wLCMP", "MVDR", -1, 0, 1, 2, 3, 4, 8, 0.5, 1.5, 0.75, 1.0, 1024, 1025,
         2**32, 2**63, 10**400, 1e308, -1e308, 1e-300, OVERFLOW, float("nan"), float("inf"),
         [], [0], [0, None], [50, 1000], [300, 100], [-1, 5], [0, OVERFLOW], [1, 2, 3],
         [[0, None, 8]], [[0]], [[0, None, 8.5]], [[0, 800, 20], [800, None, 2]], {}, {"x": 1}]
    ),
    st.integers(-10, 2000),
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
)
KEY_PATHS = [("seed",), ("sample_rate",), ("beamformer_type",)] + [
    (f.name,) + key
    for f in fields(cli.PipelineConfig)
    if is_dataclass(f.type)
    for key in [()] + [(g.name,) for g in fields(f.type) if g.name != "reference_mic"]
]


def _escape_examples(test):
    """``test`` with each of ESCAPES as an explicit hypothesis example."""
    for overrides, _ in ESCAPES:
        test = example(overrides=overrides)(test)
    return test


class TestConfigSchema:
    @pytest.mark.parametrize("overrides, message", ESCAPES)
    def test_escapes_refused_at_load(self, tmp_path, overrides, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(_write_raw(tmp_path / "cfg.json", overrides))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(overrides=st.dictionaries(st.sampled_from(KEY_PATHS), ANY_VALUE, max_size=3))
    @example(overrides={})
    @example(overrides={("scene", "duration_s"): 10**400})
    @example(overrides={("aad", "lag_range_ms"): [0, 1e300]})
    @example(overrides={("aad", "rate"): 10**400})
    @example(overrides={("stft", "frame_length"): 2**63})
    @example(overrides={("scene",): 5, ("aad",): []})
    @_escape_examples
    def test_every_config_loads_or_is_refused(self, config_dir, overrides):
        # a drawn config either loads or raises ConfigError, and nothing else
        path = _write_raw(config_dir / "cfg.json", overrides)
        try:
            cli.load_config(path)
        except cli.ConfigError:
            pass

    def test_readme_block_is_the_schema(self, tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("### Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```")[0]
        comments = {}
        section = None
        for line in block.splitlines():
            if m := re.match(r'\s*"(\w+)": (.*?),?\s*(?://\s*(.*))?$', line):
                key, value, comment = m.groups()
                section = key if value == "{" else section
                comments[(section, key) if value != "{" and line.startswith("    ") else key] = (
                    comment or ""
                )
        raw = json.loads(re.sub(r"//.*", "", block))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(raw))
        assert cli.load_config(path) == cli.PipelineConfig(seed=raw["seed"])
        # every key is in the block, and its comment states the field's bound
        for cls, prefix in [(cli.PipelineConfig, None)] + [
            (f.type, f.name) for f in fields(cli.PipelineConfig) if is_dataclass(f.type)
        ]:
            for f in fields(cls):
                if is_dataclass(f.type) or f.name == "reference_mic":
                    continue
                comment = comments[(prefix, f.name) if prefix else f.name]
                if "limits" in f.metadata:
                    assert _schema._rule(f.metadata["limits"]) in comment, (prefix, f.name)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")
