import numpy as np
import pytest
import scipy.signal

from cogbeam import aad, linalg, metrics
from cogbeam.aad import (
    UndefinedCorrelationError,
    decode_trials,
    extract_envelope,
    make_synthetic_trial_set,
    pearson,
    select_speaker,
)

FS = 16000
EEG_RATE = 64


def smooth_envelope(rng, n, rate=EEG_RATE):
    raw = rng.standard_normal(n)
    sos = scipy.signal.butter(2, 6.0, fs=rate, output="sos")
    env = scipy.signal.sosfiltfilt(sos, raw)
    return np.abs(env) + 0.1


def train(eeg_trials, envelopes, ridge=100.0):
    """Decoder weights and lags from the kernels ``decode_trials`` trains with."""
    lags = aad._lag_indices((0.0, 250.0), EEG_RATE)
    terms = [aad._normal_terms(eeg, env, lags)[1:] for eeg, env in zip(eeg_trials, envelopes)]
    return aad._ridge_solve(terms, ridge), lags


def reconstruct(eeg, w, lags):
    """``x @ w`` over the lagged design matrix, as ``decode_trials`` reconstructs."""
    return aad._design_matrix(aad._zscore(eeg), lags) @ w


def reference_synthesize_eeg(
    attended, unattended, n_channels, snr_db, mixing_seed, noise_seed, rate=64
):
    """The synthesis as a per-channel loop that filters each noise row on its
    own: the bit-exact reference for the one-pass synthesis, with envelope
    copies delayed by up to 200 ms and the unattended one at 0.3 gain."""
    mix_rng = np.random.default_rng(mixing_seed)
    mix_rng.integers(2**63)  # drawn and unused, as in the synthesis
    noise_rng = np.random.default_rng(noise_seed)
    n = attended.size
    max_lag = max(1, int(round(200.0 * 1e-3 * rate)))
    sos = scipy.signal.butter(2, min(10.0, 0.4 * rate / 2), fs=rate, output="sos")
    coupling = mix_rng.standard_normal((n_channels, 3))
    coupling /= np.linalg.norm(coupling, axis=1, keepdims=True)
    shared = scipy.signal.sosfiltfilt(sos, noise_rng.standard_normal((3, n)), axis=1)
    shared /= np.maximum(shared.std(axis=1, keepdims=True), 1e-12)

    def delayed(x, delay):
        out = np.zeros_like(x)
        out[delay:] = x[: x.size - delay]
        return out

    eeg = np.empty((n_channels, n))
    for c in range(n_channels):
        gain_a = mix_rng.uniform(0.5, 1.0) * mix_rng.choice((-1.0, 1.0))
        gain_u = 0.3 * mix_rng.uniform(0.5, 1.0) * mix_rng.choice((-1.0, 1.0))
        comp = gain_a * delayed(attended, int(mix_rng.integers(0, max_lag + 1)))
        comp += gain_u * delayed(unattended, int(mix_rng.integers(0, max_lag + 1)))
        own = scipy.signal.sosfiltfilt(sos, noise_rng.standard_normal(n))
        own /= max(own.std(), 1e-12)
        noise = np.sqrt(0.5) * own + np.sqrt(0.5) * (coupling[c] @ shared)
        noise_std = max(comp.std(), 1e-12) * 10.0 ** (-snr_db / 20.0)
        eeg[c] = comp + noise_std * noise
    return eeg


class TestExtractEnvelope:
    def test_zero_signal(self):
        env = extract_envelope(np.zeros(FS), FS, EEG_RATE)
        assert env.size == EEG_RATE
        np.testing.assert_allclose(env, 0.0, atol=1e-12)

    def test_am_tone_modulator_dominates(self):
        t = np.arange(4 * FS) / FS
        x = (1.0 + 0.9 * np.sin(2 * np.pi * 2.0 * t)) * np.sin(2 * np.pi * 500.0 * t)
        env = extract_envelope(x, FS, EEG_RATE)
        spec = np.abs(np.fft.rfft(env - env.mean()))
        freqs = np.fft.rfftfreq(env.size, 1.0 / EEG_RATE)
        assert freqs[np.argmax(spec)] == pytest.approx(2.0, abs=0.3)

    def test_positive_scaling_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2 * FS)
        base = extract_envelope(x, FS, EEG_RATE)
        np.testing.assert_allclose(
            extract_envelope(2.0 * x, FS, EEG_RATE), 2.0 * base, rtol=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        env = extract_envelope(rng.standard_normal(FS), FS, EEG_RATE)
        assert env.min() >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_envelope(np.zeros(0), FS, EEG_RATE)

    def test_upsampling_rejected(self):
        with pytest.raises(ValueError):
            extract_envelope(np.zeros(100), 64, 128)

    @pytest.mark.parametrize(
        "rate_in, rate_out",
        [(16000, 64), (16000, 100), (8000, 64), (22050, 64), (48000, 128), (1000, 64), (64, 32)],
    )
    @pytest.mark.parametrize("n", [300, 4097, 40001])
    def test_same_bits_as_resample_poly_designing_its_filter(self, rate_in, rate_out, n):
        # the cached decimation filter must be the one resample_poly designs
        x = np.random.default_rng(n).standard_normal(n)
        sos = scipy.signal.butter(2, 8.0, fs=rate_in, output="sos")
        env = scipy.signal.sosfiltfilt(sos, np.abs(x))
        g = np.gcd(rate_in, rate_out)
        want = np.clip(scipy.signal.resample_poly(env, rate_out // g, rate_in // g), 0.0, None)
        for _ in range(2):  # a cached design gives the same bits as a fresh one
            got = extract_envelope(x, rate_in, rate_out)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestPearson:
    def test_self_correlation_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(50)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negated_minus_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_five_points(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.array([2.0, 1.0, 4.0, 3.0, 6.0])
        # centered: a - 3 = [-2,-1,0,1,2]; b - 3.2 = [-1.2,-2.2,0.8,-0.2,2.8]
        # dot = 2.4 + 2.2 + 0 - 0.2 + 5.6 = 10; norms^2 = 10 and 14.8
        expected = 10.0 / np.sqrt(10.0 * 14.8)
        assert pearson(a, b) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_error(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(np.ones(10), np.arange(10.0))


class TestSelectSpeaker:
    def test_exact_match_selected(self):
        rng = np.random.default_rng(4)
        envs = [smooth_envelope(rng, 200) for _ in range(3)]
        sel = select_speaker(envs, envs[2].copy())
        assert sel.index == 2
        assert sel.correlations[2] == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        sel = select_speaker([x, -x], x.copy())
        assert sel.index == 0

    def test_matches_max_scan_oracle(self):
        rng = np.random.default_rng(6)
        envs = [smooth_envelope(rng, 300) for _ in range(4)]
        recon = smooth_envelope(rng, 300)
        sel = select_speaker(envs, recon)
        oracle = int(np.argmax([pearson(e, recon) for e in envs]))
        assert sel.index == oracle

    def test_tie_flag_lowest_index(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(80)
        sel = select_speaker([x.copy(), x.copy()], x.copy())
        assert sel.index == 0 and sel.tie

    def test_constant_candidate_excluded(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(80)
        sel = select_speaker([np.ones(80), x], x.copy())
        assert sel.index == 1
        assert sel.excluded == (0,)
        assert np.isnan(sel.correlations[0])

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(9)
        envs = [smooth_envelope(rng, 250) for _ in range(3)]
        recon = smooth_envelope(rng, 250)
        base = select_speaker(envs, recon).index
        transformed = [3.5 * e + 1.25 for e in envs]
        assert select_speaker(transformed, recon).index == base

    def test_needs_two_candidates(self):
        with pytest.raises(ValueError):
            select_speaker([np.ones(10)], np.ones(10))


class TestDecoder:
    def test_planted_identity_channel(self):
        rng = np.random.default_rng(10)
        env = smooth_envelope(rng, 2000)
        eeg = np.zeros((4, 2000))
        eeg[1] = env
        recon = reconstruct(eeg, *train([eeg], [env], ridge=1e-8))
        assert pearson(recon, env[: recon.size]) >= 0.999

    def test_large_ridge_shrinks_weights(self):
        rng = np.random.default_rng(11)
        env = smooth_envelope(rng, 1000)
        eeg = np.vstack([env, rng.standard_normal(1000)])
        small, _ = train([eeg], [env], ridge=1e-6)
        huge, _ = train([eeg], [env], ridge=1e9)
        assert np.linalg.norm(huge) <= 1e-6 * np.linalg.norm(small)

    def test_planted_linear_model_recovers_weights(self):
        # forward model eeg = w* applied to lagged envelope, white envelope
        # so the lagged features decorrelate and the decoder's weights line
        # up with the forward mixing
        rng = np.random.default_rng(12)
        env = np.abs(rng.standard_normal(20000)) + 0.05
        n_ch, lags = 3, np.arange(0, 17)
        true_w = rng.standard_normal((n_ch, lags.size))
        valid = env.size - lags[-1]
        eeg = np.zeros((n_ch, env.size))
        for c in range(n_ch):
            for j, lag in enumerate(lags):
                eeg[c, lag : lag + valid] += true_w[c, j] * env[:valid]
        eeg += eeg.std() * rng.standard_normal(eeg.shape)  # 0 dB noise
        got, _ = train([eeg], [env], ridge=100.0)
        ref = true_w.ravel()
        corr = np.dot(got - got.mean(), ref - ref.mean()) / (
            np.linalg.norm(got - got.mean()) * np.linalg.norm(ref - ref.mean())
        )
        assert corr >= 0.9

    def test_reconstruction_matches_lagged_dot_oracle(self):
        rng = np.random.default_rng(13)
        eeg = rng.standard_normal((3, 400))
        env = smooth_envelope(rng, 400)
        w, lags = train([eeg], [env], ridge=1.0)
        recon = reconstruct(eeg, w, lags)
        weights = w.reshape(3, lags.size)  # column c * len(lags) + j: channel c, lag j
        z = (eeg - eeg.mean(axis=1, keepdims=True)) / eeg.std(axis=1, keepdims=True)
        naive = np.zeros_like(recon)
        for c in range(3):
            for j, lag in enumerate(lags):
                naive += weights[c, j] * z[c, lag : lag + naive.size]
        np.testing.assert_allclose(recon, naive, atol=1e-10)

    def test_zero_eeg_zero_reconstruction(self):
        rng = np.random.default_rng(14)
        env = smooth_envelope(rng, 500)
        eeg = np.vstack([env, env * 0.5])
        recon = reconstruct(np.zeros_like(eeg), *train([eeg], [env]))
        np.testing.assert_allclose(recon, 0.0, atol=1e-12)


def one_trial_set(attended, unattended, n_channels, snr_db, seed):
    """EEG of a one-trial synthetic set whose candidates are ``attended``
    and ``unattended``, attending the first."""
    eeg, _ = make_synthetic_trial_set(
        np.vstack([attended, unattended]), 0, EEG_RATE, n_channels, snr_db, seed,
        trial_seconds=attended.size / EEG_RATE,
    )
    return eeg[0]


class TestSynthesizeEeg:
    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(16)
        att, unatt = smooth_envelope(rng, 500), smooth_envelope(rng, 500)
        a = one_trial_set(att, unatt, 8, 10.0, seed=42)
        b = one_trial_set(att, unatt, 8, 10.0, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_fixed_mixing_varying_noise(self):
        # two trials of one set with the same envelopes: the same listener
        # mixing, each trial's own noise
        rng = np.random.default_rng(17)
        att, unatt = smooth_envelope(rng, 500), smooth_envelope(rng, 500)
        (a, b), _ = make_synthetic_trial_set(
            np.tile(np.vstack([att, unatt]), 2), 0, EEG_RATE, 8, 40.0, seed=1,
            trial_seconds=500 / EEG_RATE,
        )
        # signal component identical, noise tiny: channels nearly equal
        assert not np.array_equal(a, b)
        np.testing.assert_allclose(a, b, atol=0.02 * np.abs(a).max())

    @pytest.mark.parametrize("n", [64, 1920])
    def test_matches_per_channel_reference(self, n):
        rng = np.random.default_rng(20)
        att, unatt = smooth_envelope(rng, n), smooth_envelope(rng, n)
        np.testing.assert_array_equal(
            one_trial_set(att, unatt, 16, 5.0, seed=4),
            reference_synthesize_eeg(att, unatt, 16, 5.0, 4, np.random.SeedSequence((4, 0))),
        )


class TestSyntheticTrials:
    def test_shapes_and_labels(self):
        rng = np.random.default_rng(18)
        envelopes = np.vstack([smooth_envelope(rng, 700), smooth_envelope(rng, 700)])
        eeg, labels = make_synthetic_trial_set(
            envelopes, [0, 1, 1], EEG_RATE, n_channels=4, trial_seconds=3.0
        )
        assert eeg.shape == (3, 4, 192)
        assert labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize(
        "n_speakers, per_trial, attended",
        [(2, 64, [0, 1, 1, 0, 1]), (2, 1920, 1), (3, 64, 2), (3, 1920, [2, 0, 1])],
    )
    def test_each_trial_is_its_one_trial_synthesis(self, n_speakers, per_trial, attended):
        # the one-pass synthesis filters a (trials, 3 + channels, samples)
        # stack; each trial must keep the bits of synthesizing it alone
        rng = np.random.default_rng(22)
        n_trials, seed = np.size(attended) if np.ndim(attended) else 4, 31
        envelopes = np.vstack(
            [smooth_envelope(rng, n_trials * per_trial + 7) for _ in range(n_speakers)]
        )
        eeg, labels = make_synthetic_trial_set(
            envelopes, attended, EEG_RATE, n_channels=16, snr_db=5.0, seed=seed,
            trial_seconds=per_trial / EEG_RATE,
        )
        assert eeg.shape == (n_trials, 16, per_trial)
        assert labels.tolist() == np.broadcast_to(attended, n_trials).tolist()
        for t, att in enumerate(labels):
            seg = envelopes[:, t * per_trial : (t + 1) * per_trial]
            others = [i for i in range(n_speakers) if i != att]
            args = (seg[att], seg[others].mean(axis=0), 16, 5.0, seed)
            np.testing.assert_array_equal(
                eeg[t], reference_synthesize_eeg(*args, np.random.SeedSequence((seed, t)))
            )

    @pytest.mark.parametrize("attended", [-1, 2])
    def test_out_of_range_label_rejected(self, attended):
        with pytest.raises(ValueError, match="attended"):
            make_synthetic_trial_set(
                np.ones((2, 640)), attended, EEG_RATE, n_channels=4, trial_seconds=5.0
            )


class TestDecodeTrials:
    def test_leave_one_out_matches_per_trial_oracle(self):
        rng = np.random.default_rng(19)
        n_trials, per = 5, 640
        envelopes = np.vstack([smooth_envelope(rng, n_trials * per) for _ in range(2)])
        eeg, labels = make_synthetic_trial_set(
            envelopes, [0, 1, 0, 1, 1], EEG_RATE, n_channels=8, snr_db=20.0, seed=5,
            trial_seconds=10.0,
        )
        candidates = envelopes.reshape(2, n_trials, per).transpose(1, 0, 2)
        got = decode_trials(eeg, candidates, labels)
        for t, sel in enumerate(got):
            others = [j for j in range(n_trials) if j != t]
            # on the one BLAS thread decode_trials solves on
            with linalg.one_blas_thread():
                w, lags = train([eeg[j] for j in others], [candidates[j, labels[j]] for j in others])
                want = select_speaker(candidates[t], reconstruct(eeg[t], w, lags))
            assert (sel.index, sel.tie) == (want.index, want.tie)
            np.testing.assert_array_equal(sel.correlations, want.correlations)
        assert [sel.index for sel in got] == labels.tolist()

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            decode_trials(np.zeros((3, 2, 100)), np.zeros((3, 2, 100)), [0, 1])

    def test_single_trial_has_nothing_to_train_on(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="training trial"):
            decode_trials(rng.standard_normal((1, 2, 100)), rng.random((1, 2, 100)), [0])


class TestEndToEnd:
    def fixed_split_accuracy(self, seed, snr_db, n_trials, n_train, trial_seconds=30.0):
        """One synthetic listener (fixed EEG mixing, fresh noise per trial):
        train on the first ``n_train`` trials, decode the rest."""
        rng = np.random.default_rng(1000 + seed)
        n = int(n_trials * trial_seconds * EEG_RATE)
        envelopes = np.vstack([smooth_envelope(rng, n), smooth_envelope(rng, n)])
        labels = rng.integers(0, 2, n_trials)
        eeg, labels = make_synthetic_trial_set(
            envelopes,
            labels,
            EEG_RATE,
            n_channels=16,
            snr_db=snr_db,
            seed=seed,
            trial_seconds=trial_seconds,
        )
        per = eeg.shape[2]
        candidates = [envelopes[:, t * per : (t + 1) * per] for t in range(n_trials)]
        w, lags = train(eeg[:n_train], [candidates[t][labels[t]] for t in range(n_train)])
        correct = [
            select_speaker(candidates[t], reconstruct(eeg[t], w, lags)).index == labels[t]
            for t in range(n_train, n_trials)
        ]
        return metrics.aad_accuracy(correct)

    def test_high_snr_decodes_all_trials(self):
        accuracy = self.fixed_split_accuracy(seed=1, snr_db=40.0, n_trials=30, n_train=10)
        assert accuracy == 100.0

    def test_very_low_snr_near_chance(self):
        accuracy = self.fixed_split_accuracy(
            seed=3, snr_db=-40.0, n_trials=210, n_train=10, trial_seconds=5.0
        )
        assert 35.0 <= accuracy <= 65.0
