"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Shared synthetic-scene recipe for the enhancement-trend criteria: two
competing speakers, T60 = 0.5 s specular-image impulse responses
(direct-to-reverb 8 dB, 24 ms pre-reflection gap, 4 ms inter-mic delay
spread), four microphones, low speech-shaped noise, oracle ratio masks.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from cogbeam import aad, beamform, linalg, masks, metrics, scene, stft
from cogbeam.beamform import ConvBeamformerConfig

FS = 16000
EEG_RATE = 64


def _status(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def random_hpd(rng, n, loading=0.5):
    x = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    a = x @ x.conj().T / (2 * n)
    return 0.5 * (a + a.conj().T) + loading * np.eye(n)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def kkt_oracle(cov, constraints, response):
    m, c = constraints.shape
    kkt = np.zeros((m + c, m + c), dtype=complex)
    kkt[:m, :m] = 2.0 * cov
    kkt[:m, m:] = constraints
    kkt[m:, :m] = constraints.conj().T
    rhs = np.concatenate([np.zeros(m), response])
    return np.linalg.solve(kkt, rhs)[:m]


def build_trend_scene(seed, duration):
    """The criterion-6 scene recipe."""
    sources = [
        scene.synthetic_speech(duration, FS, seed=(seed, 1)),
        scene.synthetic_speech(duration, FS, seed=(seed, 2)),
    ]
    irs, anech = scene.synthetic_room_irs(
        2,
        4,
        FS,
        t60=0.5,
        direct_to_reverb_db=8.0,
        early_gap_ms=24.0,
        max_delay_ms=4.0,
        shadow_db=3.0,
        seed=(seed, 3),
    )
    n = int(duration * FS) + irs.shape[2]
    noise = scene.generate_decorrelated_noise(4, n, "speech", FS, (seed, 4))
    acoustic = scene.AcousticScene(sources, irs, anech, noise, FS)
    rendered = scene.with_noise_gain(scene.render(acoustic), 0.005)
    cfg = stft.StftConfig()
    mix = stft.analyze(rendered.mics, cfg)
    comps = [stft.analyze(rendered.components[i], cfg) for i in range(2)]
    nspec = stft.analyze(rendered.noise, cfg)
    per_mic = [masks.oracle_irm(comps, nspec, m) for m in range(4)]
    mask_set = masks.average_masks(per_mic)
    ref_mic = int(np.argmax((anech**2).sum(axis=2)[0]))
    return rendered, mix, comps, mask_set, ref_mic, cfg


def energy(x):
    return float((np.abs(x) ** 2).sum())


def test_criterion_1_constraint_suite():
    """1000 random instances: distortionless and multi-constraint residuals."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_single = 0.0
    worst_multi = 0.0
    for i in range(1000):
        m = int(rng.choice([2, 4, 6]))
        cov = random_hpd(rng, m)
        steering = random_vec(rng, m)
        q = beamform.wlcmp_solve(cov, steering[..., None], 1.0)
        worst_single = max(worst_single, abs(np.vdot(q, steering) - 1.0))
        n_con = int(rng.integers(1, m)) if m > 1 else 1
        constraints = np.column_stack([steering] + [random_vec(rng, m) for _ in range(n_con - 1)])
        response = np.concatenate([[1.0], np.full(n_con - 1, 0.1)])
        q = beamform.wlcmp_solve(cov, constraints, response)
        worst_multi = max(
            worst_multi, float(np.max(np.abs(constraints.conj().T @ q - response)))
        )
    elapsed = time.perf_counter() - start
    ok = worst_single <= 1e-8 and worst_multi <= 1e-8 and elapsed < 10.0
    _status(
        1,
        ok,
        f"1000 instances, max |q^H a - 1| = {worst_single:.2e}, "
        f"max ||C^H q - p||_inf = {worst_multi:.2e}, {elapsed:.1f} s",
    )
    assert worst_single <= 1e-8
    assert worst_multi <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_kkt_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(200):
        m = int(rng.choice([3, 4, 5, 6]))
        cov = random_hpd(rng, m)
        n_con = int(rng.integers(1, m))
        constraints = np.column_stack([random_vec(rng, m) for _ in range(n_con)])
        response = np.concatenate([[1.0], 0.1 * np.ones(n_con - 1)])
        q = beamform.wlcmp_solve(cov, constraints, response, ridge=0.0)
        oracle = kkt_oracle(cov, constraints, response)
        worst = max(worst, float(np.max(np.abs(q - oracle))))
    ok = worst <= 1e-8
    _status(2, ok, f"200 instances, max |q - q_kkt| = {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_3_factorization_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        m = int(rng.choice([2, 3, 4]))
        taps = int(rng.integers(6, 12))
        delay = int(rng.integers(1, 4))
        k = 40
        y = random_vec(rng, k * m).reshape(k, m)
        stacked = beamform._stack_frames(y, delay, taps)
        dim = stacked.shape[1] - m
        derev = random_vec(rng, dim * m).reshape(dim, m)
        weights = random_vec(rng, m)
        stacked_filter = np.concatenate([weights, -(derev @ weights)])
        via_stack = stacked @ stacked_filter.conj()
        via_factor = beamform.dereverberate(y, stacked, derev) @ weights.conj()
        scale = max(np.linalg.norm(via_factor), 1.0)
        worst = max(worst, float(np.max(np.abs(via_stack - via_factor))) / scale)
    ok = worst <= 1e-10
    _status(3, ok, f"50 random instances, max relative mismatch = {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_4_stft_round_trip():
    cfg = stft.StftConfig()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(400 + seed)
        x = rng.standard_normal(2 * FS)
        y = stft.synthesize(stft.analyze(x, cfg), cfg)[0]
        hi = (x.size - cfg.frame_length) // cfg.hop * cfg.hop + cfg.frame_length
        interior = slice(cfg.frame_length, hi - cfg.frame_length)
        err = np.linalg.norm(y[interior] - x[interior]) / np.linalg.norm(x[interior])
        worst = max(worst, float(err))
    ok = worst <= 1e-10
    _status(4, ok, f"100 seeds, 2 s signals, worst interior error = {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_5_retf_recovery():
    worst_clean = 0.0
    worst_noisy_deg = 0.0
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        m = 4
        steering = random_vec(rng, m)
        steering /= abs(steering[0])
        amps = random_vec(rng, 60)
        target_frames = np.outer(amps, steering)
        rest = random_vec(rng, 80 * m).reshape(80, m)  # arbitrary PD complement
        frames = np.vstack([target_frames, rest])
        weights = np.concatenate([np.ones(60), np.zeros(80)])
        est = beamform.estimate_retf(frames, weights, 0, ridge=0.0)
        est_n = est / np.linalg.norm(est)
        tru_n = steering / np.linalg.norm(steering)
        angle = np.arcsin(
            min(1.0, np.linalg.norm(est_n - tru_n * np.vdot(tru_n, est_n)))
        )
        worst_clean = max(worst_clean, float(angle))

        noise_scale = np.linalg.norm(steering) / np.sqrt(m) * 10.0 ** (-20.0 / 20.0)
        noisy = target_frames + noise_scale * random_vec(rng, 60 * m).reshape(60, m)
        frames = np.vstack([noisy, noise_scale * random_vec(rng, 200 * m).reshape(200, m)])
        weights = np.concatenate([np.ones(60), np.zeros(200)])
        est = beamform.estimate_retf(frames, weights, 0, ridge=0.0)
        est_n = est / np.linalg.norm(est)
        angle = np.degrees(
            np.arcsin(min(1.0, np.linalg.norm(est_n - tru_n * np.vdot(tru_n, est_n))))
        )
        worst_noisy_deg = max(worst_noisy_deg, float(angle))
    ok = worst_clean <= 1e-6 and worst_noisy_deg <= 5.0
    _status(
        5,
        ok,
        f"100 seeds, noise-free angle <= {worst_clean:.2e} rad, "
        f"20 dB angle <= {worst_noisy_deg:.2f} deg",
    )
    assert worst_clean <= 1e-6
    assert worst_noisy_deg <= 5.0


@pytest.fixture(scope="module")
def trend_results():
    """Criterion 6 sweep: per-seed fwSSNR improvements of both beamformers."""
    start = time.perf_counter()
    deltas_conv = []
    deltas_plain = []
    for seed in range(20):
        rendered, mix, comps, mask_set, ref_mic, cfg = build_trend_scene(seed, 8.0)
        reference = rendered.anechoic[0, ref_mic]
        input_db = metrics.input_fwssnr(rendered, 0, reference_mic=ref_mic)
        bf = ConvBeamformerConfig(reference_mic=ref_mic)
        conv = beamform.run_conv_beamformer(mix, mask_set[0], cfg=bf)
        plain = beamform.mpdr(mix, mask_set[0], cfg=bf)
        for out, sink in ((conv, deltas_conv), (plain, deltas_plain)):
            signal = stft.synthesize(out.z[None], cfg)[0]
            n = min(signal.size, reference.size)
            sink.append(metrics.FwssnrReference(reference[:n]).score(signal[:n]) - input_db)
    return np.array(deltas_conv), np.array(deltas_plain), time.perf_counter() - start


def _blas_threads():
    """BLAS thread variables set in the environment, or "default"."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    found = [f"{name}={os.environ[name]}" for name in names if name in os.environ]
    return " ".join(found) or "default"


def test_criterion_6_dereverberation_trend(trend_results):
    deltas_conv, deltas_plain, elapsed = trend_results
    med_conv = float(np.median(deltas_conv))
    med_plain = float(np.median(deltas_plain))
    ok = med_conv > med_plain and med_conv > 0.0 and elapsed < 300.0
    _status(
        6,
        ok,
        f"20 seeds: median delta-fwSSNR conv {med_conv:+.2f} dB vs plain "
        f"{med_plain:+.2f} dB, runtime {elapsed:.0f} s "
        f"(BLAS threads {_blas_threads()}, {os.cpu_count()} CPUs)",
    )
    assert med_conv > med_plain
    assert med_conv > 0.0
    assert elapsed < 300.0


def test_criterion_7_interferer_suppression():
    """Hard-null SIR improvement and the controlled-suppression contrast.

    The second clause is known not to hold for this algorithm class on a
    genuinely reverberant scene: the interferer residual at delta = 0 is
    dominated by prediction/estimation leakage around -11 dB, far above the
    -20 dB controlled level that delta = 0.1 injects, so the two residuals
    differ by well under 6 dB. The assertion is kept as specified and the
    failure is documented rather than hidden.
    """
    rendered, mix, comps, mask_set, ref_mic, cfg = build_trend_scene(0, 12.0)
    sir_in = max(
        10 * np.log10(energy(comps[0][m]) / energy(comps[1][m])) for m in range(4)
    )
    residuals = {}
    sir_gain = None
    for delta in (0.0, 0.1):
        bf = ConvBeamformerConfig(reference_mic=ref_mic, delta=delta)
        out = beamform.run_conv_beamformer(mix, mask_set[0], mask_set[1:2], bf)
        z_target = beamform.apply_bin_filters(out.states, comps[0], bf)
        z_interf = beamform.apply_bin_filters(out.states, comps[1], bf)
        residuals[delta] = energy(z_interf)
        if delta == 0.0:
            sir_gain = 10 * np.log10(energy(z_target) / energy(z_interf)) - sir_in
    contrast = 10 * np.log10(residuals[0.1] / residuals[0.0])
    ok = sir_gain >= 10.0 and contrast >= 6.0
    _status(
        7,
        ok,
        f"delta=0 SIR improvement {sir_gain:+.1f} dB (need >= 10); "
        f"delta=0.1 residual {contrast:+.1f} dB louder (need >= 6)",
    )
    assert sir_gain >= 10.0
    assert contrast >= 6.0


def test_criterion_8_iteration_stability():
    conditions = {
        "anechoic-noisy": 0.0,
        "reverberant": 0.5,
        "reverberant-noisy": 0.5,
    }
    noise_gains = {"anechoic-noisy": 0.3, "reverberant": 0.02, "reverberant-noisy": 0.6}
    all_finite = True
    worst_step = -np.inf
    for name, t60 in conditions.items():
        sources = [
            scene.synthetic_speech(6.0, FS, seed=(80, 1)),
            scene.synthetic_speech(6.0, FS, seed=(80, 2)),
        ]
        irs, anech = scene.synthetic_room_irs(
            2, 4, FS, t60=t60, direct_to_reverb_db=5.0, shadow_db=5.0, seed=(80, 3)
        )
        n = int(6.0 * FS) + irs.shape[2]
        noise = scene.generate_decorrelated_noise(4, n, "speech", FS, (80, 4))
        rendered = scene.with_noise_gain(
            scene.render(scene.AcousticScene(sources, irs, anech, noise, FS)), noise_gains[name]
        )
        cfg = stft.StftConfig()
        mix = stft.analyze(rendered.mics, cfg)
        comps = [stft.analyze(rendered.components[i], cfg) for i in range(2)]
        nspec = stft.analyze(rendered.noise, cfg)
        mask_set = masks.average_masks(
            [masks.oracle_irm(comps, nspec, m) for m in range(4)]
        )
        for interferers in (None, mask_set[1:2]):  # wMPDR, wLCMP
            bf = ConvBeamformerConfig()  # the default round count
            out = beamform.run_conv_beamformer(mix, mask_set[0], interferers, bf)
            all_finite &= bool(np.all(np.isfinite(out.z)))
            obj = out.diagnostics.objective
            steps = [(b - a) / abs(a) for a, b in zip(obj, obj[1:])]
            worst_step = max(worst_step, max(steps))
    ok = all_finite and worst_step <= 1e-6
    _status(
        8,
        ok,
        f"3 conditions x 2 modes, outputs finite: {all_finite}, "
        f"worst relative objective increase {worst_step:+.2e} (tol 1e-6)",
    )
    assert all_finite
    assert worst_step <= 1e-6


def _smooth_envelope(rng, n):
    sos = scipy.signal.butter(2, 6.0, fs=EEG_RATE, output="sos")
    return np.abs(scipy.signal.sosfiltfilt(sos, rng.standard_normal(n))) + 0.1


def _aad_accuracy(seed, snr_db, n_train, n_test):
    rng = np.random.default_rng(9000 + seed)
    total = n_train + n_test
    n = total * 30 * EEG_RATE
    envelopes = np.vstack([_smooth_envelope(rng, n), _smooth_envelope(rng, n)])
    labels = rng.integers(0, 2, total)
    eeg, labels = aad.make_synthetic_trial_set(
        envelopes, labels, EEG_RATE, 16, snr_db, seed=seed, trial_seconds=30.0
    )
    per = eeg.shape[2]
    candidates = [envelopes[:, t * per : (t + 1) * per] for t in range(total)]
    # fixed split: train on the first n_train trials with the kernels
    # decode_trials trains with, decode the rest as it does (x @ w)
    lags = aad._lag_indices((0.0, 250.0), EEG_RATE)
    w = aad._ridge_solve(
        [aad._normal_terms(eeg[t], candidates[t][labels[t]], lags)[1:] for t in range(n_train)],
        100.0,
    )
    correct = [
        aad.select_speaker(candidates[t], aad._design_matrix(aad._zscore(eeg[t]), lags) @ w).index
        == labels[t]
        for t in range(n_train, total)
    ]
    return metrics.aad_accuracy(correct)


def test_criterion_9_aad_end_to_end():
    high = _aad_accuracy(seed=1, snr_db=20.0, n_train=15, n_test=40)
    low = _aad_accuracy(seed=2, snr_db=-40.0, n_train=15, n_test=200)
    bound_40 = metrics.chance_upper_bound(40)
    bound_20 = metrics.chance_upper_bound(20)
    bound_100 = metrics.chance_upper_bound(100)
    print(
        f"  exact binomial chance bounds: n=40 -> {bound_40:.2f}% "
        f"(published {metrics.PUBLISHED_CHANCE_BOUND_PCT[40]:.2f}%), "
        f"n=20 -> {bound_20:.2f}% "
        f"(published {metrics.PUBLISHED_CHANCE_BOUND_PCT[20]:.2f}%)"
    )
    monotone = bound_100 < bound_40 < bound_20
    ok = high >= 95.0 and 35.0 <= low <= 65.0 and monotone
    _status(
        9,
        ok,
        f"+20 dB EEG accuracy {high:.1f}% over 40 trials; "
        f"-40 dB accuracy {low:.1f}% over 200 trials; bounds monotone: {monotone}",
    )
    assert high >= 95.0
    assert 35.0 <= low <= 65.0
    assert monotone


def test_criterion_10_metric_sanity():
    ref = scene.generate_decorrelated_noise(1, 4 * FS, "speech", FS, 100)[0]
    scorer = metrics.FwssnrReference(ref)
    clamp = scorer.score(ref)
    noise = scene.generate_decorrelated_noise(1, 4 * FS, "speech", FS, 101)[0]
    zero_db = scorer.score(ref + noise)
    tie = metrics.selection_outcome(
        [scorer.score(ref + noise), scorer.score((ref + noise).copy())], 0
    )
    ok = (
        abs(clamp - 35.0) <= 1e-9
        and abs(zero_db) <= 1.0
        and not tie.correct
        and tie.tie
    )
    _status(
        10,
        ok,
        f"fwssnr(x,x) = {clamp:.3f} dB; band-flat 0 dB noise -> {zero_db:+.2f} dB; "
        f"tie -> correct={tie.correct}, flagged={tie.tie}",
    )
    assert abs(clamp - 35.0) <= 1e-9
    assert abs(zero_db) <= 1.0
    assert not tie.correct and tie.tie
