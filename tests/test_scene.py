import numpy as np
import pytest
import scipy.signal

from cogbeam import metrics, scene
from cogbeam.scene import (
    AcousticScene,
    CalibrationError,
    calibrate_noise_gain,
    generate_decorrelated_noise,
    render,
    shorten_pauses,
    synthetic_room_irs,
    synthetic_speech,
)

FS = 16000


def speech_with_gap(gap_seconds, seed=0):
    talk = synthetic_speech(1.0, FS, seed=seed)
    gap = np.zeros(int(gap_seconds * FS))
    return np.concatenate([talk, gap, talk])


class TestShortenPauses:
    def test_no_pause_is_noop(self):
        x = synthetic_speech(2.0, FS, seed=1)
        np.testing.assert_array_equal(shorten_pauses(x, 0.5, FS), x)

    def test_two_second_gap_loses_exactly_1p5s(self):
        x = speech_with_gap(2.0)
        y = shorten_pauses(x, 0.5, FS)
        assert x.size - y.size == int(1.5 * FS)

    def test_all_silence_truncates_to_max_pause(self):
        y = shorten_pauses(np.zeros(3 * FS), 0.5, FS)
        assert y.size == int(0.5 * FS)
        assert not np.any(y)

    def test_idempotent(self):
        x = speech_with_gap(1.7, seed=2)
        once = shorten_pauses(x, 0.5, FS)
        twice = shorten_pauses(once, 0.5, FS)
        np.testing.assert_array_equal(once, twice)

    def test_empty_input(self):
        assert shorten_pauses(np.zeros(0), 0.5, FS).size == 0

    def test_speech_frames_untouched(self):
        x = speech_with_gap(2.0, seed=3)
        y = shorten_pauses(x, 0.5, FS)
        n_talk = FS  # leading speech second
        np.testing.assert_array_equal(y[: n_talk - 400], x[: n_talk - 400])


def two_source_scene(seed=0, t60=0.0, duration=1.5, n_mics=2, noise=None):
    rng = np.random.default_rng(seed)
    sources = [
        synthetic_speech(duration, FS, seed=seed + 10),
        synthetic_speech(duration, FS, seed=seed + 11),
    ]
    irs, anech = synthetic_room_irs(2, n_mics, FS, t60=t60, seed=seed)
    if noise is None:
        noise = generate_decorrelated_noise(n_mics, int(duration * FS), seed=seed + 5)
    return AcousticScene(sources, irs, anech, noise, FS)


class TestRender:
    def test_identity_irs_sum_sources(self):
        src = [synthetic_speech(1.0, FS, seed=4), synthetic_speech(1.0, FS, seed=5)]
        unit = np.zeros((2, 2, 1))
        unit[:, :, 0] = 1.0
        sc = AcousticScene(src, unit, unit, np.zeros((2, FS)), FS)
        r = render(sc, noise_gain=0.0)
        np.testing.assert_allclose(r.mics[0], src[0] + src[1], atol=0)
        assert not np.any(r.noise)

    def test_pure_delay(self):
        src = [synthetic_speech(1.0, FS, seed=6)]
        d = 7
        ir = np.zeros((1, 1, 16))
        ir[0, 0, d] = 1.0
        sc = AcousticScene(src, ir, ir, np.zeros((1, FS)), FS)
        r = render(sc, 0.0)
        np.testing.assert_allclose(
            r.components[0, 0, d:], src[0][: FS - d], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(r.components[0, 0, :d], 0.0, atol=1e-14)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(8)
        src = [rng.standard_normal(400)]
        ir = (rng.standard_normal(60) * np.exp(-np.arange(60) / 12.0))[None, None]
        sc = AcousticScene(src, ir, ir, np.zeros((1, 459)), FS)
        r = render(sc, 0.0)
        assert r.components.shape[2] == 459  # full convolution length
        oracle = np.array(
            [
                sum(
                    src[0][k] * ir[0, 0, n - k]
                    for k in range(max(0, n - 59), min(n, 399) + 1)
                )
                for n in range(459)
            ]
        )
        np.testing.assert_allclose(r.components[0, 0], oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "n_sources,n_mics,t60",
        [(2, 4, 0.5), (2, 4, 0.0), (3, 1, 0.5)],
    )
    def test_batched_render_keeps_per_mic_bits(self, n_sources, n_mics, t60):
        # the reference is one fftconvolve per (source, mic, IR set), the
        # loop render replaced; a library change to the batched bits fails here
        sources = [synthetic_speech(1.0, FS, seed=20 + i) for i in range(n_sources)]
        irs, anech = synthetic_room_irs(n_sources, n_mics, FS, t60=t60, seed=21)
        noise = generate_decorrelated_noise(n_mics, 2 * FS, seed=22)
        r = render(AcousticScene(sources, irs, anech, noise, FS), 0.3)
        n = r.mics.shape[1]
        assert irs.shape[2] == (8193 if t60 else 33) and anech.shape[2] == 33
        for i, src in enumerate(sources):
            for m in range(n_mics):
                want = scipy.signal.fftconvolve(src, irs[i, m])[:n]
                np.testing.assert_array_equal(r.components[i, m], want)
                want = scipy.signal.fftconvolve(src, anech[i, m])[:n]
                np.testing.assert_array_equal(r.anechoic[i, m], want)
        np.testing.assert_array_equal(r.mics, r.components.sum(axis=0) + 0.3 * noise[:, :n])

    def test_additivity_exact(self):
        r = render(two_source_scene(seed=9, t60=0.2), 0.7)
        recon = r.components.sum(axis=0) + r.noise
        np.testing.assert_array_equal(r.mics, recon)

    def test_linear_in_each_source(self):
        sc = two_source_scene(seed=10, t60=0.1)
        base = render(sc, 0.0)
        sc.sources[0] = 2.0 * sc.sources[0]  # power of two: exact scaling
        doubled = render(sc, 0.0)
        np.testing.assert_array_equal(doubled.components[0], 2.0 * base.components[0])
        np.testing.assert_array_equal(doubled.components[1], base.components[1])

    def test_noise_channel_mismatch(self):
        sc = two_source_scene(seed=11)
        sc.noise = np.zeros((5, FS))
        with pytest.raises(ValueError, match="channels"):
            render(sc, 1.0)

    def test_ir_longer_than_source_rejected(self):
        src = [np.ones(100)]
        ir = np.zeros((1, 1, 100))
        ir[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="shorter"):
            render(AcousticScene(src, ir, ir, None, FS), 0.0)


class TestCalibrateNoiseGain:
    def test_self_consistent_at_half_db(self):
        sc = two_source_scene(seed=12, t60=0.0, duration=2.0)
        gain = calibrate_noise_gain(render(sc, 1.0), 0.5, reference_source=0)
        from cogbeam import metrics

        achieved = metrics.input_fwssnr(render(sc, gain), 0)
        assert achieved == pytest.approx(0.5, abs=0.1)

    def test_prebuilt_objective_gives_the_same_gain(self):
        unit = render(two_source_scene(seed=16, t60=0.2, duration=2.0, n_mics=3), 1.0)
        objective = scene._input_fwssnr_of_gain(unit, range(2), metrics.FwssnrConfig(), [1, 2])
        gain = calibrate_noise_gain(unit, -6.0, objective=objective)
        assert gain == calibrate_noise_gain(unit, -6.0, reference_mics=[1, 2])
        scores = objective.per_speaker(gain)
        assert len(scores) == 2 and objective(gain) == float(np.mean(scores))
        for i in range(2):
            alone = scene._input_fwssnr_of_gain(unit, [i], metrics.FwssnrConfig(), [1, 2])
            assert alone(gain) == scores[i]

    def test_doubling_gain_lowers_fwssnr(self):
        from cogbeam import metrics

        sc = two_source_scene(seed=13, t60=0.0, duration=2.0)
        a = metrics.input_fwssnr(render(sc, 0.5), 0)
        b = metrics.input_fwssnr(render(sc, 1.0), 0)
        assert b < a

    def test_unreachable_target_raises(self):
        sc = two_source_scene(seed=14, t60=0.0, duration=2.0)
        with pytest.raises(CalibrationError):
            calibrate_noise_gain(
                render(sc, 1.0), 80.0, reference_source=0, gain_bounds=(1e-3, 1e3)
            )

    def test_noise_free_scene_rejected(self):
        sc = two_source_scene(seed=15)
        sc.noise = np.zeros_like(sc.noise)
        with pytest.raises(ValueError, match="noise"):
            calibrate_noise_gain(render(sc, 1.0), 0.5)


class TestDecorrelatedNoise:
    def test_channels_uncorrelated(self):
        x = generate_decorrelated_noise(2, 10 * FS, "white", FS, seed=0)
        rho = np.corrcoef(x)[0, 1]
        assert abs(rho) <= 0.05

    def test_zero_mean(self):
        x = generate_decorrelated_noise(3, 10 * FS, "white", FS, seed=1)
        bound = 3.0 / np.sqrt(x.shape[1])  # 3 sigma of the sample mean
        assert np.all(np.abs(x.mean(axis=1)) < bound)

    def test_speech_shape_matches_filter_response(self):
        x = generate_decorrelated_noise(1, 20 * FS, "speech", FS, seed=2)[0]
        freqs, psd = scipy.signal.welch(x, FS, nperseg=4096)
        b, a = scene.speech_shape_filter(FS)
        _, h = scipy.signal.freqz(b, a, worN=freqs, fs=FS)
        octaves = [(125, 250), (250, 500), (500, 1000), (1000, 2000), (2000, 4000)]
        devs = []
        for lo, hi in octaves:
            band = (freqs >= lo) & (freqs < hi)
            measured = 10 * np.log10(psd[band].mean())
            target = 10 * np.log10((np.abs(h[band]) ** 2).mean())
            devs.append(measured - target)
        devs = np.array(devs) - np.mean(devs)  # overall level is arbitrary
        assert np.all(np.abs(devs) <= 1.0)

    def test_seed_reproducible(self):
        a = generate_decorrelated_noise(2, 1000, "white", FS, seed=3)
        b = generate_decorrelated_noise(2, 1000, "white", FS, seed=3)
        np.testing.assert_array_equal(a, b)


class TestSyntheticIrs:
    def test_anechoic_when_t60_zero(self):
        irs, anech = synthetic_room_irs(2, 3, FS, t60=0.0, seed=0)
        np.testing.assert_array_equal(irs, anech)
        assert (np.count_nonzero(anech, axis=2) == 1).all()

    def test_tail_energy_matches_drr(self):
        irs, anech = synthetic_room_irs(1, 1, FS, t60=0.3, direct_to_reverb_db=3.0, seed=1)
        direct = (anech[0, 0] ** 2).sum()
        tail = (irs[0, 0] ** 2).sum() - direct
        assert 10 * np.log10(direct / tail) == pytest.approx(3.0, abs=0.3)

    def test_deterministic(self):
        a, _ = synthetic_room_irs(2, 2, FS, t60=0.2, seed=7)
        b, _ = synthetic_room_irs(2, 2, FS, t60=0.2, seed=7)
        np.testing.assert_array_equal(a, b)
