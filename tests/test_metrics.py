import numpy as np
import pytest
import scipy.stats

from cogbeam import metrics, scene
from cogbeam.metrics import FwssnrConfig, FwssnrReference, chance_upper_bound


def stationary_reference(seed=0, seconds=4.0, rate=16000):
    return scene.generate_decorrelated_noise(
        1, int(seconds * rate), "speech", rate, seed
    )[0]


class TestFwssnr:
    def test_identical_signals_hit_upper_clamp(self):
        x = stationary_reference()
        assert FwssnrReference(x).score(x) == pytest.approx(35.0, abs=1e-9)

    def test_flat_zero_db_noise(self):
        # same-shaped independent noise at equal power: every band sits at
        # 0 dB SNR in expectation
        ref = stationary_reference(seed=1)
        noise = stationary_reference(seed=2)
        assert FwssnrReference(ref).score(ref + noise) == pytest.approx(0.0, abs=1.0)

    def test_monotone_in_noise_gain(self):
        ref = stationary_reference(seed=3)
        noise = stationary_reference(seed=4)
        scorer = FwssnrReference(ref)
        scores = [scorer.score(ref + g * noise) for g in (0.25, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_joint_scaling_invariance(self):
        ref = stationary_reference(seed=5)
        test = ref + 0.5 * stationary_reference(seed=6)
        assert FwssnrReference(2.0 * ref).score(2.0 * test) == pytest.approx(
            FwssnrReference(ref).score(test), abs=1e-9
        )

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            FwssnrReference(np.zeros(16000)).score(np.ones(16000))

    def test_length_mismatch_rejected(self):
        ref = stationary_reference(seed=7)
        with pytest.raises(ValueError, match="length mismatch"):
            FwssnrReference(ref).score(ref[:-1])

    @pytest.mark.parametrize("n", [512, 513, 639, 640, 4000])
    def test_framing_matches_per_frame_slices(self, n):
        # Oracle: one explicit slice per frame; a trailing partial frame is dropped.
        x = np.random.default_rng(n).standard_normal(n)
        win = np.hanning(512)
        oracle = np.array(
            [np.fft.rfft(x[s : s + 512] * win) for s in range(0, n - 511, 128)]
        )
        np.testing.assert_array_equal(metrics._frame_spectra(x, 512, 128), oracle)


def tiny_rendered(seed, n_mics=3):
    rng = np.random.default_rng(seed)
    n = 16000
    anech = np.tile(stationary_reference(seed=seed), (2, n_mics, 1))[:, :, :n]
    comps = anech.copy()
    noise = 0.3 * rng.standard_normal((n_mics, n))
    mics = comps.sum(axis=0) + noise
    return scene.RenderedScene(mics, comps, anech, noise)


class TestInputFwssnr:
    def test_single_mic_equals_fwssnr(self):
        r = tiny_rendered(0, n_mics=1)
        direct = FwssnrReference(r.anechoic[0, 0]).score(r.mics[0])
        assert metrics.input_fwssnr(r, 0) == pytest.approx(direct)

    def test_planted_best_mic(self):
        r = tiny_rendered(1, n_mics=3)
        r.mics[0] += 1.0 * np.random.default_rng(9).standard_normal(r.mics.shape[1])
        r.mics[2] += 1.0 * np.random.default_rng(10).standard_normal(r.mics.shape[1])
        best = metrics.input_fwssnr(r, 0)
        scorer = FwssnrReference(r.anechoic[0, 0])
        per_mic = [scorer.score(r.mics[m]) for m in range(3)]
        assert best == pytest.approx(per_mic[1])
        assert int(np.argmax(per_mic)) == 1

    def test_matches_exhaustive_scan(self):
        r = tiny_rendered(2, n_mics=4)
        scorer = FwssnrReference(r.anechoic[1, 0])
        oracle = max(scorer.score(r.mics[m]) for m in range(4))
        assert metrics.input_fwssnr(r, 1) == pytest.approx(oracle)


class TestDecodeCorrect:
    """A trial's outcome from the fwSSNR of the selected and the discarded
    output, the rule ``cmd_evaluate`` applies."""

    @staticmethod
    def outcome(selected, discarded, ref):
        scorer = FwssnrReference(ref)
        return metrics.selection_outcome([scorer.score(selected), scorer.score(discarded)], 0)

    def test_clear_winner(self):
        ref = stationary_reference(seed=7)
        noise = stationary_reference(seed=8)
        out = self.outcome(ref, ref + noise, ref)
        assert out.correct and not out.tie

    def test_swapped(self):
        ref = stationary_reference(seed=7)
        noise = stationary_reference(seed=8)
        out = self.outcome(ref + noise, ref, ref)
        assert not out.correct and not out.tie

    def test_tie_is_incorrect_with_flag(self):
        ref = stationary_reference(seed=7)
        noisy = ref + stationary_reference(seed=8)
        out = self.outcome(noisy, noisy.copy(), ref)
        assert not out.correct and out.tie


class TestAadAccuracy:
    def test_all_correct(self):
        assert metrics.aad_accuracy([True] * 5) == 100.0

    def test_none_correct(self):
        assert metrics.aad_accuracy([False] * 5) == 0.0

    def test_three_of_four(self):
        assert metrics.aad_accuracy([True, True, True, False]) == 75.0

    def test_accepts_outcomes(self):
        o = metrics.DecodeOutcome(True, False, 1.0, 0.0)
        assert metrics.aad_accuracy([o, o._replace(correct=False)]) == 50.0


class TestChanceUpperBound:
    def test_single_trial_unreachable(self):
        assert chance_upper_bound(1) == 100.0

    def test_monotone_in_n(self):
        assert chance_upper_bound(100) < chance_upper_bound(20)

    @pytest.mark.parametrize("n", [5, 20, 40, 100])
    def test_matches_scipy_binomial_tail(self, n):
        bound = chance_upper_bound(n)
        k = int(round(bound * n / 100.0))
        # the reported k is significant, k - 1 is not
        assert scipy.stats.binom.sf(k - 1, n, 0.5) <= 0.05
        assert scipy.stats.binom.sf(k - 2, n, 0.5) > 0.05

    def test_published_comparison_values_present(self):
        assert metrics.PUBLISHED_CHANCE_BOUND_PCT[40] == 61.39
        assert metrics.PUBLISHED_CHANCE_BOUND_PCT[20] == 66.19

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            chance_upper_bound(0)
