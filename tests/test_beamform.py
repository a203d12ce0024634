import numpy as np
import pytest

from cogbeam import beamform, cli, linalg, metrics, scene, stft
from cogbeam.beamform import (
    ConstraintRankError,
    ConvBeamformerConfig,
    DegenerateMaskError,
    dereverberate,
    estimate_retf,
    mpdr,
    mvdr_lcmv,
    run_conv_beamformer,
    weighted_correlations,
    wlcmp_solve,
)

from conftest import FS, build_scene, oracle_mask_set


def random_hpd(rng, n, loading=0.5):
    x = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    a = x @ x.conj().T / (2 * n)
    return 0.5 * (a + a.conj().T) + loading * np.eye(n)


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def kkt_oracle(cov, constraints, response):
    """Equality-constrained quadratic program by the full KKT system."""
    m, c = constraints.shape
    kkt = np.zeros((m + c, m + c), dtype=complex)
    kkt[:m, :m] = 2.0 * cov
    kkt[:m, m:] = constraints
    kkt[m:, :m] = constraints.conj().T
    rhs = np.concatenate([np.zeros(m), response])
    return np.linalg.solve(kkt, rhs)[:m]


class TestConfig:
    def test_defaults_match_operating_point(self):
        cfg = ConvBeamformerConfig()
        assert cfg.frame_delay == 4
        assert cfg.iterations == 2
        assert cfg.delta == 0.1
        assert cfg.filter_length(100.0) == 20
        assert cfg.filter_length(800.0) == 16
        assert cfg.filter_length(1200.0) == 16
        assert cfg.filter_length(1500.0) == 8
        assert cfg.filter_length(7999.0) == 8

    def test_filter_length_not_exceeding_delay_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            ConvBeamformerConfig(filter_length_bands=((0.0, None, 4),), frame_delay=4)

    def test_non_contiguous_bands_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            ConvBeamformerConfig(
                filter_length_bands=((0.0, 500.0, 10), (600.0, None, 8))
            )

    def test_last_band_must_reach_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            ConvBeamformerConfig(filter_length_bands=((0.0, 500.0, 10),))


class TestStackObservations:
    """The pipeline's stacking of one bin's (K, M) frames."""

    def test_first_frame_padding(self):
        rng = np.random.default_rng(0)
        spec = rng.standard_normal((2, 5, 257)) + 1j * rng.standard_normal((2, 5, 257))
        stacked = beamform._stack_frames(spec[:, :, 10].T, frame_delay=4, l_w=8)
        assert stacked.shape == (5, 2 * 5)
        assert not np.any(stacked[0, 2:])  # frame 0: only the current frame
        np.testing.assert_array_equal(stacked[0, :2], spec[:, 0, 10])

    def test_index_bookkeeping_oracle(self):
        rng = np.random.default_rng(1)
        spec = rng.standard_normal((3, 12, 17)) + 1j * rng.standard_normal((3, 12, 17))
        f = 5
        stacked = beamform._stack_frames(spec[:, :, f].T, frame_delay=2, l_w=7)
        taps = [0, 2, 3, 4, 5, 6]
        for k in range(12):
            for j, tau in enumerate(taps):
                for m in range(3):
                    expected = spec[m, k - tau, f] if k - tau >= 0 else 0.0
                    assert stacked[k, j * 3 + m] == expected


class TestWeightedCorrelations:
    def test_single_frame_unit_variance(self):
        rng = np.random.default_rng(2)
        row = random_vec(rng, 6)[None, :]
        r_full = weighted_correlations(row, np.ones(1))
        np.testing.assert_allclose(r_full, np.outer(row[0], row[0].conj()), atol=1e-15)

    def test_variance_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        stacked = random_vec(rng, 40).reshape(8, 5)
        lam = rng.uniform(0.5, 2.0, 8)
        base = weighted_correlations(stacked, lam)
        scaled = weighted_correlations(stacked, 2.0 * lam)
        np.testing.assert_array_equal(scaled, base / 2.0)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(4)
        k, dim, m = 9, 6, 2
        stacked = random_vec(rng, k * dim).reshape(k, dim)
        lam = rng.uniform(0.1, 3.0, k)
        r_full = weighted_correlations(stacked, lam)
        r_delay, p_cross = r_full[m:, m:], r_full[m:, :m]
        naive = np.zeros((dim, dim), dtype=complex)
        for i in range(k):
            naive += np.outer(stacked[i], stacked[i].conj()) / lam[i]
        naive /= k
        naive = 0.5 * (naive + naive.conj().T)
        np.testing.assert_allclose(r_full, naive, atol=1e-12)
        np.testing.assert_allclose(r_delay, naive[m:, m:], atol=1e-12)
        np.testing.assert_allclose(p_cross, naive[m:, :m], atol=1e-12)


class TestDereverberate:
    def test_zero_filter_is_noop(self):
        rng = np.random.default_rng(5)
        stacked = random_vec(rng, 30).reshape(5, 6)
        g = np.zeros((4, 2), dtype=complex)
        np.testing.assert_array_equal(dereverberate(stacked[:, :2], stacked, g), stacked[:, :2])

    def test_planted_regression_recovers_residual(self):
        rng = np.random.default_rng(6)
        k, m, taps = 10, 2, 6
        delayed = random_vec(rng, k * m * taps).reshape(k, m * taps)
        g = random_vec(rng, m * taps * m).reshape(m * taps, m)
        residual = random_vec(rng, k * m).reshape(k, m)
        current = delayed @ g.conj() + residual
        stacked = np.hstack([current, delayed])
        np.testing.assert_allclose(dereverberate(current, stacked, g), residual, atol=1e-12)

    def test_single_frame_padding(self):
        rng = np.random.default_rng(7)
        y = random_vec(rng, 3)[None, :]
        stacked = beamform._stack_frames(y, 2, 5)
        g = random_vec(rng, 9 * 3).reshape(9, 3)
        np.testing.assert_array_equal(dereverberate(y, stacked, g), y)


class TestEstimateRetf:
    def plant(self, rng, m=4, k_target=40):
        # target frames: exact rank-1; complement frames: exact identity cov
        steering = random_vec(rng, m)
        amps = random_vec(rng, k_target)
        target_frames = np.outer(amps, steering)
        complement = np.sqrt(m) * np.eye(m, dtype=complex)
        frames = np.vstack([target_frames, complement])
        weights = np.concatenate([np.ones(k_target), np.zeros(m)])
        return steering, frames, weights

    def test_planted_rank_one_recovery(self):
        rng = np.random.default_rng(8)
        steering, frames, weights = self.plant(rng)
        est = estimate_retf(frames, weights, reference_mic=0, ridge=0.0)
        truth = steering / steering[0]
        np.testing.assert_allclose(est, truth, atol=1e-8)

    def test_all_ones_mask_degenerate(self):
        rng = np.random.default_rng(9)
        frames = random_vec(rng, 20).reshape(5, 4)
        with pytest.raises(DegenerateMaskError):
            estimate_retf(frames, np.ones(5))

    def test_scale_invariance_bit_exact(self):
        rng = np.random.default_rng(10)
        steering, frames, weights = self.plant(rng)
        frames = frames + 0.1 * random_vec(rng, frames.size).reshape(frames.shape)
        a1 = estimate_retf(frames, weights)
        a2 = estimate_retf(2.0 * frames, weights)
        np.testing.assert_array_equal(a1, a2)

    def test_zero_frames_degenerate(self):
        frames = np.zeros((6, 3), dtype=complex)
        weights = np.concatenate([np.ones(3), np.zeros(3)])
        with pytest.raises(DegenerateMaskError):
            estimate_retf(frames, weights)


class TestWmpdrSolve:
    def test_identity_covariance(self):
        q = wlcmp_solve(np.eye(3, dtype=complex), np.eye(3)[:, 0][..., None], 1.0, ridge=0.0)
        np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        q = wlcmp_solve(np.diag([1.0, 4.0]).astype(complex), np.ones(2)[..., None], 1.0, ridge=0.0)
        np.testing.assert_allclose(q, [0.8, 0.2], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kkt_oracle(self, seed):
        rng = np.random.default_rng(20 + seed)
        cov = random_hpd(rng, 5)
        steering = random_vec(rng, 5)
        q = wlcmp_solve(cov, steering[..., None], 1.0, ridge=0.0)
        oracle = kkt_oracle(cov, steering[:, None], np.ones(1))
        np.testing.assert_allclose(q, oracle, atol=1e-8)

    def test_distortionless_residual(self):
        rng = np.random.default_rng(30)
        cov = random_hpd(rng, 4)
        steering = random_vec(rng, 4)
        q = wlcmp_solve(cov, steering[..., None], 1.0)
        assert abs(np.vdot(q, steering) - 1.0) <= 1e-8


class TestWlcmpSolve:
    def test_no_interferers_reduces_to_wmpdr_bitwise(self):
        rng = np.random.default_rng(31)
        cov = random_hpd(rng, 4)
        steering = random_vec(rng, 4)
        q1 = wlcmp_solve(cov, steering[..., None], 1.0, ridge=1e-8)
        q2 = wlcmp_solve(cov, steering[:, None], np.ones(1), ridge=1e-8)
        np.testing.assert_array_equal(q1, q2)

    def test_orthonormal_constraints_identity_covariance(self):
        c = np.eye(4, dtype=complex)[:, :2]
        q = wlcmp_solve(np.eye(4, dtype=complex), c, np.array([1.0, 0.0]), ridge=0.0)
        np.testing.assert_allclose(q, c[:, 0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kkt_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        cov = random_hpd(rng, 5)
        constraints = np.column_stack([random_vec(rng, 5) for _ in range(3)])
        response = np.array([1.0, 0.1, 0.1])
        q = wlcmp_solve(cov, constraints, response, ridge=0.0)
        oracle = kkt_oracle(cov, constraints, response)
        np.testing.assert_allclose(q, oracle, atol=1e-8)

    def test_parallel_constraints_raise_with_condition(self):
        rng = np.random.default_rng(50)
        cov = random_hpd(rng, 4)
        a = random_vec(rng, 4)
        c = np.column_stack([a, a * (1.0 + 1e-15)])
        with pytest.raises(ConstraintRankError, match="cond"):
            wlcmp_solve(cov, c, np.array([1.0, 0.0]), ridge=0.0)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_optimal_among_random_feasible_vectors(self, dim):
        rng = np.random.default_rng(60 + dim)
        cov = random_hpd(rng, dim)
        n_con = min(dim - 1, 2)
        constraints = np.column_stack([random_vec(rng, dim) for _ in range(n_con)])
        response = np.concatenate([[1.0], np.full(n_con - 1, 0.1)])
        q = wlcmp_solve(cov, constraints, response, ridge=0.0)
        objective = np.vdot(q, cov @ q).real
        # random feasible candidates: q + null-space perturbations
        _, _, vh = np.linalg.svd(constraints.conj().T)
        null_basis = vh[n_con:].conj().T
        perturb = null_basis @ (
            rng.standard_normal((null_basis.shape[1], 10_000))
            + 1j * rng.standard_normal((null_basis.shape[1], 10_000))
        )
        candidates = q[:, None] + perturb
        cand_obj = np.einsum("ik,ij,jk->k", candidates.conj(), cov, candidates).real
        assert np.all(objective <= cand_obj + 1e-10)


class TestRunConvBeamformer:
    def test_mask_of_ones_passes_reference_mic_through(self):
        # single anechoic speaker, no noise: the all-ones mask makes the
        # steering estimate degenerate, so every bin falls back to the
        # reference microphone, which here IS the target component
        acoustic, rendered = build_scene(
            seed=5, t60=0.0, duration=1.0, noise_gain=0.0
        )
        rendered.mics = rendered.components[0].copy()
        cfg = stft.StftConfig()
        mix = stft.analyze(rendered.mics, cfg)
        k, f = mix.shape[1], mix.shape[2]
        out = run_conv_beamformer(mix, np.ones((k, f)), cfg=ConvBeamformerConfig())
        target_ref = stft.analyze(rendered.components[0, 0], cfg)[0]
        err = np.linalg.norm(out.z - target_ref)
        assert err <= 1e-6 * np.linalg.norm(target_ref)
        assert len(out.diagnostics.failed_bins) > 0

    def test_wlcmp_without_interferers_equals_wmpdr_bitwise(self, small_reverberant_scene):
        sc = small_reverberant_scene
        cfg = ConvBeamformerConfig(iterations=2)
        a = run_conv_beamformer(sc["mix"], sc["masks"][0], interferer_masks=None, cfg=cfg)
        b = run_conv_beamformer(sc["mix"], sc["masks"][0], interferer_masks=[], cfg=cfg)
        np.testing.assert_array_equal(a.z, b.z)

    def test_objective_non_increasing(self, small_reverberant_scene):
        sc = small_reverberant_scene
        cfg = ConvBeamformerConfig(iterations=6)
        out = run_conv_beamformer(
            sc["mix"],
            sc["masks"][0],
            interferer_masks=sc["masks"][1:2],
            cfg=cfg,
        )
        obj = out.diagnostics.objective
        assert np.all(np.isfinite(obj))
        for prev, cur in zip(obj, obj[1:]):
            assert cur <= prev + 1e-6 * abs(prev)

    def test_output_finite_and_constraints_met(self, small_reverberant_scene):
        sc = small_reverberant_scene
        cfg = ConvBeamformerConfig(iterations=3)
        out = run_conv_beamformer(sc["mix"], sc["masks"][0], cfg=cfg)
        assert np.all(np.isfinite(out.z))
        assert out.diagnostics.max_constraint_residual <= 1e-8

    def test_factorization_identity(self, small_reverberant_scene):
        # applying the stacked filter [q; -G q] to the stacked observations
        # equals dereverberate-then-beamform
        sc = small_reverberant_scene
        cfg = ConvBeamformerConfig(iterations=2)
        out = run_conv_beamformer(sc["mix"], sc["masks"][0], cfg=cfg)
        rng = np.random.default_rng(0)
        for fi in rng.choice(sc["mix"].shape[2], 12, replace=False):
            state = out.states[fi]
            if state.passthrough:
                continue
            frames = sc["mix"][:, :, fi].T
            stacked = beamform._stack_frames(frames, cfg.frame_delay, state.filter_taps)
            w_bar = np.concatenate([state.weights, -(state.derev @ state.weights)])
            via_stack = stacked @ w_bar.conj()
            d = dereverberate(frames, stacked, state.derev)
            via_factor = d @ state.weights.conj()
            scale = np.linalg.norm(via_factor)
            np.testing.assert_allclose(via_stack, via_factor, atol=1e-10 * max(scale, 1))

    @pytest.mark.xfail(
        strict=True,
        reason="measured behavior: the bin sum of the variance-weighted objective "
        "is monotone (see the stability tests) but fwSSNR against the direct-path "
        "reference peaks around 3 refinement rounds and dips ~0.4-1 dB by "
        "round 10 on desk-scale synthetic scenes, at every variance-floor "
        "setting tried",
    )
    def test_more_iterations_do_not_hurt_fwssnr(self):
        # ten refinement rounds should match or beat a single round on
        # almost every scene draw
        from cogbeam import metrics

        improved = 0
        n_trials = 10
        for seed in range(n_trials):
            acoustic, rendered = build_scene(
                seed=200 + seed, t60=0.4, duration=2.5, n_mics=3, noise_gain=0.02
            )
            mask_set, mix, cfg = oracle_mask_set(rendered)
            reference = rendered.anechoic[0, 0]
            scores = {}
            for iters in (1, 10):
                bf = ConvBeamformerConfig(iterations=iters)
                out = run_conv_beamformer(mix, mask_set[0], cfg=bf)
                signal = stft.synthesize(out.z[None], cfg)[0]
                n = min(signal.size, reference.size)
                scores[iters] = metrics.FwssnrReference(reference[:n]).score(signal[:n])
            if scores[10] >= scores[1] - 1e-9:
                improved += 1
        assert improved >= 0.9 * n_trials

    def test_default_rounds_beat_ten_rounds_in_fwssnr(self):
        # the default round count was chosen because it scores above ten
        # rounds (README, "Reweighting rounds"); on the xfail's scenes it
        # must still win almost every draw, so a default drifting back to
        # ten rounds fails here
        improved = 0
        n_trials = 10
        for seed in range(n_trials):
            _, rendered = build_scene(
                seed=200 + seed, t60=0.4, duration=2.5, n_mics=3, noise_gain=0.02
            )
            mask_set, mix, cfg = oracle_mask_set(rendered)
            reference = rendered.anechoic[0, 0]
            scores = []
            for bf in (ConvBeamformerConfig(), ConvBeamformerConfig(iterations=10)):
                out = run_conv_beamformer(mix, mask_set[0], cfg=bf)
                signal = stft.synthesize(out.z[None], cfg)[0]
                n = min(signal.size, reference.size)
                scores.append(metrics.FwssnrReference(reference[:n]).score(signal[:n]))
            if scores[0] > scores[1]:
                improved += 1
        assert improved >= 0.9 * n_trials

    def test_mask_shape_mismatch(self, small_reverberant_scene):
        sc = small_reverberant_scene
        with pytest.raises(ValueError, match="mask"):
            run_conv_beamformer(sc["mix"], sc["masks"][0][:, :5])

    def test_interferer_masks_must_match_the_targets(self, small_reverberant_scene):
        sc = small_reverberant_scene
        targets = sc["masks"][:2]
        with pytest.raises(ValueError, match="interferer mask shape"):
            run_conv_beamformer(sc["mix"], targets, sc["masks"][None, :1])
        with pytest.raises(ValueError, match="interferer mask shape"):
            run_conv_beamformer(sc["mix"], targets[0], sc["masks"][1])


class TestConventional:
    def test_mpdr_distortionless_on_scene(self, small_reverberant_scene):
        sc = small_reverberant_scene
        out = mpdr(sc["mix"], sc["masks"][0])
        assert out.diagnostics.max_constraint_residual <= 1e-8
        assert np.all(np.isfinite(out.z))
        checked = 0
        for state in out.states:
            if state.passthrough:
                continue
            assert abs(np.vdot(state.weights, state.target_retf) - 1.0) <= 1e-8
            checked += 1
        assert checked > 200

    def test_mpdr_single_frame_needs_ridge(self):
        rng = np.random.default_rng(70)
        spec = rng.standard_normal((3, 1, 9)) + 1j * rng.standard_normal((3, 1, 9))
        mask = np.full((1, 9), 0.6)
        out = mpdr(spec, mask)
        assert np.all(np.isfinite(out.z))

    def test_lcmp_hard_null_zeroes_interferer_direction(self, small_reverberant_scene):
        sc = small_reverberant_scene
        out = mpdr(sc["mix"], sc["masks"][0], sc["masks"][1:2], ConvBeamformerConfig(delta=0.0))
        for state in out.states:
            if state.passthrough or state.interferer_retfs is None:
                continue
            response = state.interferer_retfs.conj().T @ state.weights
            assert np.max(np.abs(response)) <= 1e-8

    def test_lcmp_constraint_residuals(self, small_reverberant_scene):
        sc = small_reverberant_scene
        out = mpdr(sc["mix"], sc["masks"][0], sc["masks"][1:2], ConvBeamformerConfig(delta=0.1))
        assert out.diagnostics.max_constraint_residual <= 1e-8

    def test_mvdr_white_noise_matched_filter(self):
        rng = np.random.default_rng(71)
        m, k, f = 3, 8, 5
        spec = rng.standard_normal((m, k, f)) + 1j * rng.standard_normal((m, k, f))
        steering = np.stack([random_vec(rng, m) for _ in range(f)])
        noise_cov = np.broadcast_to(np.eye(m, dtype=complex), (f, m, m)).copy()
        out = mvdr_lcmv(spec, steering, noise_cov, cfg=ConvBeamformerConfig(ridge=0.0))
        for fi in range(f):
            a = steering[fi]
            np.testing.assert_allclose(
                out.states[fi].weights, a / np.vdot(a, a).real, atol=1e-12
            )

    def test_lcmv_with_supplied_interferer_steering(self):
        rng = np.random.default_rng(72)
        m, k, f = 4, 8, 3
        spec = rng.standard_normal((m, k, f)) + 1j * rng.standard_normal((m, k, f))
        steering = np.stack([random_vec(rng, m) for _ in range(f)])
        interferers = np.stack([random_vec(rng, m)[:, None] for _ in range(f)])
        noise_cov = np.stack([random_hpd(rng, m) for _ in range(f)])
        out = mvdr_lcmv(spec, steering, noise_cov, interferers, ConvBeamformerConfig(delta=0.1))
        assert out.diagnostics.max_constraint_residual <= 1e-8
        for fi in range(f):
            response = np.vdot(interferers[fi][:, 0], out.states[fi].weights)
            assert abs(response - 0.1) <= 1e-8


class TestApplyBinFilters:
    def test_reapplication_reproduces_output(self, small_reverberant_scene):
        sc = small_reverberant_scene
        cfg = ConvBeamformerConfig(iterations=2)
        out = run_conv_beamformer(sc["mix"], sc["masks"][0], cfg=cfg)
        again = beamform.apply_bin_filters(out.states, sc["mix"], cfg)
        np.testing.assert_allclose(again, out.z, atol=1e-12)

    def test_linearity_over_components(self, small_reverberant_scene):
        sc = small_reverberant_scene
        cfg = ConvBeamformerConfig(iterations=2)
        out = run_conv_beamformer(sc["mix"], sc["masks"][0], cfg=cfg)
        mix, comps, noise, _ = (
            sc["mix"],
            [stft.analyze(sc["rendered"].components[i], sc["stft"]) for i in range(2)],
            stft.analyze(sc["rendered"].noise, sc["stft"]),
            None,
        )
        parts = sum(
            beamform.apply_bin_filters(out.states, s, cfg) for s in comps + [noise]
        )
        np.testing.assert_allclose(parts, out.z, atol=1e-8 * np.abs(out.z).max())


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def old_hermitian_part(a):
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


class TestGramKeepsBits:
    """``beamform._gram`` against the formulas it replaced, bit for bit."""

    @staticmethod
    def frames(rng, *shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def mask(rng, *shape):
        # oracle masks hold exact zeros and ones beside fractions
        return np.clip(rng.uniform(-0.3, 1.3, shape), 0.0, 1.0)

    def test_variance_weighted_correlations(self):
        rng = np.random.default_rng(40)
        stacked = self.frames(rng, 5, 70, 3 * 5)
        lam = rng.uniform(0.1, 4.0, (5, 70))
        scaled = np.conjugate(stacked)
        np.multiply(scaled, (1.0 / lam)[..., None], out=scaled)
        old = old_hermitian_part(np.conjugate(scaled.swapaxes(-1, -2) @ stacked) / 70)
        buffer = np.full(stacked.size + 7, np.nan, dtype=complex)
        for new in (
            weighted_correlations(stacked, lam),
            weighted_correlations(stacked, lam, buffer),
            beamform._gram(stacked, 1.0 / lam, 70),
            beamform._gram(stacked, 1.0 / lam, 70, buffer),
        ):
            assert same_bits(new, old)

    def test_mask_weighted_covariance_with_total_array(self):
        rng = np.random.default_rng(41)
        frames = self.frames(rng, 2, 4, 60, 3)
        weights = self.mask(rng, 2, 4, 60)
        for w in (weights, 1.0 - weights):
            total = w.sum(axis=-1)
            scaled = frames * w[..., None]
            np.conjugate(scaled, out=scaled)
            old = old_hermitian_part(
                np.conjugate(scaled.swapaxes(-1, -2) @ frames) / total[..., None, None]
            )
            assert same_bits(beamform._gram(frames, w, total[..., None, None]), old)

    def test_one_row_of_frames_against_speaker_rows_of_weights(self):
        # the first round's frames are shared by every speaker's mask
        rng = np.random.default_rng(42)
        frames = self.frames(rng, 1, 4, 60, 3)
        weights = self.mask(rng, 3, 4, 60)
        total = weights.sum(axis=-1)
        scaled = np.conjugate(frames * weights[..., None])
        old = old_hermitian_part(
            np.conjugate(scaled.swapaxes(-1, -2) @ frames) / total[..., None, None]
        )
        new = beamform._gram(frames, weights, total[..., None, None])
        assert new.shape == (3, 4, 3, 3)
        assert same_bits(new, old)

    def test_noise_covariance(self):
        rng = np.random.default_rng(43)
        cfg = stft.StftConfig(frame_length=128, hop=32)
        noise = rng.standard_normal((3, 4000))
        frames = stft.analyze(noise, cfg).transpose(2, 1, 0)
        cov = frames.swapaxes(-1, -2) @ frames.conj() / frames.shape[1]
        old = 0.5 * (cov + cov.conj().swapaxes(-1, -2))
        assert same_bits(cli._noise_covariance(noise, cfg), old)
        assert same_bits(beamform._gram(frames, None, frames.shape[1]), old)
