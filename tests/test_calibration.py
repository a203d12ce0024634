"""Band-power noise-gain calibration and the precomputed fwSSNR reference,
checked against the frozen full-fwSSNR bisection in ``calibration_oracle``,
and the bisection itself on synthetic objectives."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibration_oracle as oracle
from cogbeam import metrics, scene
from cogbeam.metrics import FwssnrConfig, FwssnrReference
from cogbeam.scene import CalibrationError, calibrate_noise_gain, render, with_noise_gain

FS = 16000
CFG = FwssnrConfig()


def make_scene(n_sources=2, n_mics=3, t60=0.3, duration=2.0, seed=0):
    sources = [
        scene.synthetic_speech(duration, FS, pause_every=0.8, pause_length=0.2, seed=seed + i)
        for i in range(n_sources)
    ]
    irs, anech = scene.synthetic_room_irs(
        n_sources, n_mics, FS, t60=t60, direct_to_reverb_db=5.0, shadow_db=12.0, seed=seed
    )
    noise = scene.generate_decorrelated_noise(
        n_mics, int(duration * FS), "speech", FS, seed=seed + 50
    )
    return scene.AcousticScene(sources, irs, anech, noise, FS)


CASES = {
    # name: (scene kwargs, objective kwargs, targets in dB within reach); a
    # reference source calibrates that speaker's score alone
    "mean-over-speakers": ({"seed": 1}, {"reference_source": None}, (-3.0, -6.0)),
    "speaker-0": ({"seed": 2}, {"reference_source": 0}, (0.5, 3.5)),
    "per-speaker-mics": (
        {"seed": 3},
        {"reference_source": None, "reference_mics": [0, 2]},
        (0.5, 3.5),
    ),
    "speaker-1-own-mic": (
        {"seed": 4},
        {"reference_source": 1, "reference_mics": [1, 2]},
        (0.5, 3.5),
    ),
    "three-speakers": (
        {"seed": 5, "n_sources": 3, "n_mics": 4},
        {"reference_source": None, "reference_mics": [0, 2, 3]},
        (0.0, -3.0),
    ),
    "anechoic": ({"seed": 6, "t60": 0.0}, {"reference_source": None}, (0.5, -5.0)),
}


def every_speaker_objective(unit, cal_kw):
    mics = cal_kw.get("reference_mics") or [0] * unit.components.shape[0]
    return scene._input_fwssnr_of_gain(unit, CFG, mics), mics


def objective_of(unit, cal_kw):
    objective, _ = every_speaker_objective(unit, cal_kw)
    source = cal_kw["reference_source"]
    if source is None:
        return objective
    return lambda gain: objective.per_speaker(gain)[source]


class TestAgainstFrozenBisection:
    @pytest.mark.parametrize(
        "case,target", [(case, t) for case in sorted(CASES) for t in CASES[case][2]]
    )
    def test_same_gain_and_achieved_fwssnr(self, case, target):
        scene_kw, cal_kw, _ = CASES[case]
        sc = make_scene(**scene_kw)
        want_gain, want_db = oracle.calibrate_noise_gain(sc, target, CFG, **cal_kw)
        objective = objective_of(render(sc), cal_kw)
        gain = calibrate_noise_gain(objective, target)
        assert gain == want_gain
        assert objective(gain) == pytest.approx(want_db, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_objective_matches_over_the_gain_range(self, case):
        scene_kw, cal_kw, _ = CASES[case]
        unit = render(make_scene(**scene_kw))
        objective, mics = every_speaker_objective(unit, cal_kw)
        for gain in np.geomspace(1e-6, 1e6, 13):
            want = oracle.achieved_fwssnr(unit, gain, None, CFG, mics)
            assert objective(gain) == pytest.approx(want, abs=1e-9)
            scores = objective.per_speaker(gain)
            assert objective(gain) == float(np.mean(scores))
            for i, score in enumerate(scores):
                want = oracle.achieved_fwssnr(unit, gain, i, CFG, mics)
                assert score == pytest.approx(want, abs=1e-9)

    def test_unreachable_targets_raise(self, monkeypatch):
        unit = render(make_scene(seed=7))
        objective = objective_of(unit, {"reference_source": None})
        with pytest.raises(CalibrationError, match="above reach"):
            calibrate_noise_gain(objective, 80.0)
        with pytest.raises(CalibrationError, match="below reach"):
            calibrate_noise_gain(objective, -80.0)
        monkeypatch.setattr(scene, "_TOLERANCE_DB", 1e-12)
        monkeypatch.setattr(scene, "_MAX_STEPS", 2)
        speaker_0 = objective_of(unit, {"reference_source": 0})
        with pytest.raises(CalibrationError, match="after 2 steps"):
            calibrate_noise_gain(speaker_0, 2.0)

    def test_silent_noise_rejected(self):
        sc = make_scene(seed=8)
        sc.noise = None
        with pytest.raises(ValueError, match="no noise"):
            scene._input_fwssnr_of_gain(render(sc), CFG, [0, 0])

    @pytest.mark.parametrize("gain", [1.0, 3.0, 0.7])
    def test_cancelling_residual_scores_upper_clamp(self, gain):
        # noise = -(speech - reference) / gain at every microphone: at that
        # gain the residual cancels (exactly at gain 1, up to one rounding
        # otherwise), and its expanded band power is a sum of large terms
        # that can cancel to just below zero
        unit = render(make_scene(seed=9, n_mics=2))
        residual = unit.components.sum(axis=0) - unit.anechoic[0, 0]
        cancelling = scene.RenderedScene(
            unit.mics, unit.components, unit.anechoic, -residual / gain, unit.sample_rate
        )
        objective = scene._input_fwssnr_of_gain(cancelling, CFG, [0, 0])
        assert objective.per_speaker(gain)[0] == CFG.clamp_db[1]
        assert oracle.achieved_fwssnr(cancelling, gain, 0, CFG, [0, 0]) == CFG.clamp_db[1]
        assert objective.per_speaker(0.5 * gain)[0] < CFG.clamp_db[1]


@st.composite
def monotone_objectives(draw):
    """``(objective, continuous)``: a non-increasing function of the gain, a
    log-linear slope clipped to [floor, ceiling] like the fwSSNR clamps,
    which drops by ``jump`` dB at a drawn gain (continuous when it is 0)."""
    slope = draw(st.floats(0.0, 50.0))  # dB per decade of gain
    centre = draw(st.floats(-8.0, 8.0))  # log10 of the gain where the slope reads 0 dB
    floor = draw(st.floats(-60.0, 0.0))
    ceiling = draw(st.floats(0.0, 60.0))
    jump_at = draw(st.floats(-8.0, 8.0))
    jump = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))

    def objective(gain):
        x = np.log10(gain)
        value = min(max(-slope * (x - centre), floor), ceiling)
        return value - (jump if x >= jump_at else 0.0)

    return objective, jump == 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    drawn=monotone_objectives(),
    target=st.floats(-100.0, 100.0),
    steps=st.sampled_from([1, 4, scene._MAX_STEPS]),
)
def test_bisection_returns_a_gain_within_tolerance_or_says_why(drawn, target, steps):
    objective, continuous = drawn
    values = []

    def recorded(gain):
        values.append(objective(gain))
        return values[-1]

    lo, hi = scene._GAIN_BOUNDS
    tolerance = scene._TOLERANCE_DB
    with mock.patch.object(scene, "_MAX_STEPS", steps):
        try:
            gain = calibrate_noise_gain(recorded, target)
        except CalibrationError as exc:
            message = str(exc)
        else:
            assert lo <= gain <= hi
            assert abs(objective(gain) - target) <= tolerance
            return
    if "above reach" in message:
        # the quietest noise scores highest, and still too low
        assert values == [objective(lo)] and values[0] < target - tolerance
    elif "below reach" in message:
        assert values == [objective(lo), objective(hi)] and values[1] > target + tolerance
    else:
        assert f"after {steps} steps" in message
        assert len(values) == steps + 2
        # the quietest gain and every midpoint missed the target (the loudest
        # gain is tested for reach only)
        assert all(abs(value - target) > tolerance for value in values[:1] + values[2:])
        # halving the log-gain bracket 80 times reaches float resolution, where
        # a continuous objective moves by far less than the tolerance
        assert not (continuous and steps == scene._MAX_STEPS)


class TestBlockedObjective:
    @staticmethod
    def unblocked_terms(unit, speaker, reference_mic):
        """(reference band powers, per-mic (P_ss, P_sn, P_nn)) from one frozen
        framing of each whole signal."""
        fb_t = oracle._band_matrix(CFG, 512, FS).T
        reference = unit.anechoic[speaker, reference_mic]
        ref_band = np.abs(oracle._frame_spectra(reference, 512, 128)) ** 2 @ fb_t
        speech = unit.components.sum(axis=0)
        terms = []
        for m, noise in enumerate(unit.noise):
            s = oracle._frame_spectra(speech[m] - reference, 512, 128)
            n = oracle._frame_spectra(noise, 512, 128)
            terms.append(
                (
                    (s.real**2 + s.imag**2) @ fb_t,
                    (s.real * n.real + s.imag * n.imag) @ fb_t,
                    (n.real**2 + n.imag**2) @ fb_t,
                )
            )
        return ref_band, terms

    @pytest.mark.parametrize("n_sources, reference_mics", [(2, [0, 2]), (3, [0, 2, 3])])
    def test_per_speaker_scores_have_the_bits_of_unblocked_band_terms(
        self, n_sources, reference_mics
    ):
        # 6.5 s is 809 fwSSNR frames: blocks of 256, 256 and 297 frames
        sc = make_scene(n_sources=n_sources, n_mics=4, duration=6.5, seed=20 + n_sources)
        unit = render(sc)
        objective = scene._input_fwssnr_of_gain(unit, CFG, reference_mics)
        refs = [
            FwssnrReference(unit.anechoic[i, mic], CFG, FS) for i, mic in enumerate(reference_mics)
        ]
        unblocked = [self.unblocked_terms(unit, i, reference_mics[i]) for i in range(n_sources)]
        for ref, (ref_band, _) in zip(refs, unblocked):
            assert ref_band.shape[0] == 809
            np.testing.assert_array_equal(ref.ref_band, ref_band)
        for gain in [1e-3, 0.05, 0.4, 1.0, 7.0, 1e3]:
            want = [
                max(
                    ref.score_band_power(
                        np.maximum(p_ss + 2.0 * gain * p_sn + gain**2 * p_nn, 0.0)
                    )
                    for p_ss, p_sn, p_nn in terms
                )
                for ref, (_, terms) in zip(refs, unblocked)
            ]
            assert objective.per_speaker(gain) == want


class TestRenderOnce:
    @pytest.mark.parametrize("gain", [0.0, 0.037, 1.0, 2.5])
    def test_with_noise_gain_is_bitwise_render(self, gain):
        # the render of the scene whose noise is scaled before rendering
        sc = make_scene(seed=10, t60=0.2)
        rescaled = with_noise_gain(render(sc), gain)
        sc.noise = gain * sc.noise
        direct = render(sc)
        for name in ("mics", "components", "anechoic", "noise"):
            np.testing.assert_array_equal(getattr(rescaled, name), getattr(direct, name))


class TestFwssnrReference:
    def signals(self, seed):
        rng = np.random.default_rng(seed)
        sc = make_scene(seed=seed, n_mics=2)
        r = with_noise_gain(render(sc), 0.4)
        return r.mics[1] + 0.01 * rng.standard_normal(r.mics.shape[1]), r.anechoic[0, 0]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_score_bitwise_equals_fwssnr_and_frozen_oracle(self, seed):
        test, reference = self.signals(seed)
        ref = FwssnrReference(reference, CFG, FS)
        score = ref.score(test)
        assert score == metrics.fwssnr(test, reference, CFG, FS)
        assert score == oracle.fwssnr(test, reference, CFG, FS)

    def test_input_fwssnr_bitwise_equals_frozen_oracle(self):
        r = with_noise_gain(render(make_scene(seed=13, n_sources=3, n_mics=3)), 0.3)
        for speaker, mic in [(0, 0), (1, 2), (2, 1)]:
            got = metrics.input_fwssnr(r, speaker, CFG, FS, mic)
            assert got == oracle.input_fwssnr(r.mics, r.anechoic, speaker, CFG, FS, mic)

    def test_zero_residual_scores_upper_clamp(self):
        _, reference = self.signals(14)
        assert FwssnrReference(reference, CFG, FS).score(reference) == CFG.clamp_db[1]

    def test_reference_checks(self):
        with pytest.raises(ValueError, match="silent"):
            FwssnrReference(np.zeros(FS))
        ref = FwssnrReference(self.signals(15)[1])
        with pytest.raises(ValueError, match="length mismatch"):
            ref.score(np.ones(FS))

    def test_filterbank_built_once_and_read_only(self):
        a = metrics._band_matrix(CFG, 512, FS)
        assert metrics._band_matrix(FwssnrConfig(), 512, FS) is a
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, oracle._band_matrix(CFG, 512, FS))
