"""The frequency-batched beamformer core against the frozen per-bin oracle,
plus property tests of the batched kernels."""

import operator
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import perbin_oracle
from cogbeam import beamform, linalg, masks, scene, stft
from cogbeam.beamform import ConvBeamformerConfig

ZERO_BIN = 100
DEGENERATE_BIN = 60


def relative_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def oracle_scene(small_reverberant_scene):
    """The small reverberant scene with one all-zero bin and one bin whose
    target mask is all ones (degenerate for every mask-steered type), plus
    oracle direct-path steering and noise covariance for MVDR / LCMV."""
    sc = small_reverberant_scene
    mix = sc["mix"].copy()
    mix[:, :, ZERO_BIN] = 0.0
    target = sc["masks"][0].copy()
    target[:, DEGENERATE_BIN] = 1.0
    n_fft = sc["stft"].frame_length
    anech = sc["acoustic"].anechoic_irs
    steering = [np.fft.rfft(anech[i], n=n_fft, axis=1) for i in range(2)]
    steering = [(s / s[0]).T for s in steering]  # (bins, mics), reference mic 0
    noise = stft.analyze(sc["rendered"].noise, sc["stft"])
    frames = noise.transpose(2, 1, 0)
    noise_cov = frames.swapaxes(-1, -2) @ frames.conj() / frames.shape[1]
    noise_cov = 0.5 * (noise_cov + noise_cov.conj().swapaxes(-1, -2))
    return {
        "mix": mix,
        "target": target,
        "interferers": [sc["masks"][1]],
        "steering": steering[0],
        "interferer_steering": steering[1][:, :, None],
        "noise_cov": noise_cov,
    }


def _run_all(sc, cfg):
    """(batched, oracle) outputs per beamformer type."""
    mix, target, others = sc["mix"], sc["target"], sc["interferers"]
    delta = cfg.delta
    return {
        "wMPDR": (
            beamform.run_conv_beamformer(mix, target, cfg=cfg),
            perbin_oracle.run_conv_beamformer(mix, target, cfg=cfg, mode="wmpdr"),
        ),
        "wLCMP": (
            beamform.run_conv_beamformer(mix, target, others, cfg),
            perbin_oracle.run_conv_beamformer(mix, target, others, cfg, mode="wlcmp"),
        ),
        "MPDR": (
            beamform.mpdr(mix, target, cfg=cfg),
            perbin_oracle.conventional(mix, target, None, None, cfg),
        ),
        "LCMP": (
            beamform.mpdr(mix, target, others, cfg),
            perbin_oracle.conventional(mix, target, others, delta, cfg),
        ),
        "MVDR": (
            beamform.mvdr_lcmv(mix, sc["steering"], sc["noise_cov"], cfg=cfg),
            perbin_oracle.conventional(
                mix, None, None, None, cfg, sc["noise_cov"], sc["steering"]
            ),
        ),
        "LCMV": (
            beamform.mvdr_lcmv(
                mix, sc["steering"], sc["noise_cov"], sc["interferer_steering"], cfg
            ),
            perbin_oracle.conventional(
                mix, None, None, delta, cfg, sc["noise_cov"], sc["steering"],
                sc["interferer_steering"],
            ),
        ),
    }


@pytest.fixture(scope="module")
def outputs(oracle_scene):
    return _run_all(oracle_scene, ConvBeamformerConfig())


KINDS = ("wMPDR", "wLCMP", "MPDR", "LCMP", "MVDR", "LCMV")


@pytest.mark.parametrize("kind", KINDS)
def test_failed_bins_and_passthrough_match_oracle(outputs, kind):
    new, old = outputs[kind]
    assert [fb[:2] for fb in new.diagnostics.failed_bins] == [
        fb[:2] for fb in old.diagnostics.failed_bins
    ]
    assert [s.passthrough for s in new.states] == [s.passthrough for s in old.states]
    assert [s.filter_taps for s in new.states] == [s.filter_taps for s in old.states]
    if kind in ("MVDR", "LCMV"):
        assert not new.diagnostics.failed_bins  # steering does not come from the mask
    else:
        assert [fb[:2] for fb in new.diagnostics.failed_bins] == [(DEGENERATE_BIN, 0)]
        assert new.states[ZERO_BIN].passthrough


@pytest.mark.parametrize(
    "kind, tol", [("wMPDR", 1e-6), ("MPDR", 1e-10), ("LCMP", 1e-10), ("MVDR", 1e-10), ("LCMV", 1e-10)]
)
def test_output_matches_oracle(outputs, kind, tol):
    new, old = outputs[kind]
    assert relative_l2(new.z, old.z) <= tol
    np.testing.assert_allclose(
        new.diagnostics.constraint_residual_per_bin,
        old.diagnostics.constraint_residual_per_bin,
        atol=1e-10,
    )


def test_wlcmp_matches_oracle_inside_dc_and_nyquist(outputs):
    # The wLCMP objective is not monotone at DC and Nyquist (see README), so
    # rounding differences grow there; inside, the outputs agree closely.
    new, old = outputs["wLCMP"]
    inner = slice(1, new.z.shape[1] - 1)
    assert relative_l2(new.z[:, inner], old.z[:, inner]) <= 1e-5
    for fi in (0, new.z.shape[1] - 1):
        assert np.all(np.isfinite(new.z[:, fi]))
        assert new.diagnostics.constraint_residual_per_bin[fi] <= 1e-8


def test_wlcmp_without_interferers_bitwise_equals_wmpdr(oracle_scene):
    cfg = ConvBeamformerConfig(iterations=2)
    a = beamform.run_conv_beamformer(oracle_scene["mix"], oracle_scene["target"], cfg=cfg)
    b = beamform.run_conv_beamformer(oracle_scene["mix"], oracle_scene["target"], [], cfg)
    np.testing.assert_array_equal(a.z, b.z)


@pytest.mark.parametrize("kind", ["wMPDR", "LCMP"])
def test_failure_leaves_chunk_neighbours_unchanged(oracle_scene, monkeypatch, kind):
    # the degenerate bin shares its chunk with others; solving every bin in
    # a chunk of its own must give the same bits
    cfg = ConvBeamformerConfig(iterations=2)
    chunked = _run_all(oracle_scene, cfg)[kind][0]
    monkeypatch.setattr(beamform, "_CHUNK_BYTES", 1)
    alone = _run_all(oracle_scene, cfg)[kind][0]
    np.testing.assert_array_equal(chunked.z, alone.z)
    assert chunked.diagnostics.failed_bins == alone.diagnostics.failed_bins


def _solve_degenerate(sc, kind, cfg):
    interferers = sc["interferers"] if kind == "wLCMP" else None
    return beamform.run_conv_beamformer(sc["mix"], sc["target"], interferers, cfg)


def _assert_same_output(a, b):
    np.testing.assert_array_equal(a.z, b.z)
    assert a.diagnostics.failed_bins == b.diagnostics.failed_bins
    assert [s.passthrough for s in a.states] == [s.passthrough for s in b.states]
    np.testing.assert_array_equal(a.diagnostics.objective_per_bin, b.diagnostics.objective_per_bin)
    np.testing.assert_array_equal(
        a.diagnostics.constraint_residual_per_bin, b.diagnostics.constraint_residual_per_bin
    )


@pytest.mark.parametrize("kind", ["wMPDR", "wLCMP"])
def test_degenerate_bin_same_with_one_worker_and_all_cpus(oracle_scene, monkeypatch, kind):
    # the pool has one worker per CPU of the affinity mask, at most two, and
    # each worker's chunks fit its share of the byte budget, so one CPU also
    # means other chunks, solved on the calling thread
    cfg = ConvBeamformerConfig(iterations=2)
    every_cpu = _solve_degenerate(oracle_scene, kind, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = _solve_degenerate(oracle_scene, kind, cfg)
    _assert_same_output(every_cpu, one_cpu)
    assert DEGENERATE_BIN in [fb[0] for fb in every_cpu.diagnostics.failed_bins]
    assert every_cpu.states[DEGENERATE_BIN].passthrough
    np.testing.assert_array_equal(
        every_cpu.z[:, DEGENERATE_BIN], oracle_scene["mix"][0, :, DEGENERATE_BIN]
    )


def test_more_workers_than_cpus_under_fast_thread_switching(oracle_scene, monkeypatch):
    # eight workers share the buffer queue and switch every 10 us; a buffer
    # handed to two chunks at once would change their bits
    cfg = ConvBeamformerConfig(iterations=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_worker = _solve_degenerate(oracle_scene, "wMPDR", cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(beamform, "_MAX_WORKERS", 8)
    result = {}
    solver = threading.Thread(
        target=lambda: result.update(out=_solve_degenerate(oracle_scene, "wMPDR", cfg)),
        daemon=True,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        solver.start()
        solver.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not solver.is_alive(), "workers waiting for a buffer pair"
    _assert_same_output(one_worker, result["out"])


JOINT_DEGENERATE_BIN = 40  # shares a 16-tap chunk with other bins
JOINT_ZERO_BIN = 100
JOINT_REFERENCE_MICS = (0, 2, 1)


@pytest.fixture(scope="module")
def three_speakers():
    """A 3-speaker, 3-mic scene with one all-zero bin, where speaker 1 alone
    fails one bin: an all-ones target mask for the mask-steered types, a
    zero steering vector for MVDR / LCMV. Each speaker has its own reference
    microphone."""
    fs = 16000
    sources = [scene.synthetic_speech(1.0, fs, seed=50 + i) for i in range(3)]
    irs, anech = scene.synthetic_room_irs(3, 3, fs, t60=0.3, seed=51)
    noise = scene.generate_decorrelated_noise(3, fs + irs.shape[2], "speech", fs, 52)
    rendered = scene.render(scene.AcousticScene(sources, irs, anech, noise, fs), 0.05)
    cfg = stft.StftConfig(frame_length=256, hop=64)
    mix = stft.analyze(rendered.mics, cfg)
    mix[:, :, JOINT_ZERO_BIN] = 0.0
    comps = [stft.analyze(c, cfg) for c in rendered.components]
    noise_spec = stft.analyze(rendered.noise, cfg)
    mask_set = masks.average_masks([masks.oracle_irm(comps, noise_spec, m) for m in range(3)])
    targets = mask_set[:3].copy()
    targets[1, :, JOINT_DEGENERATE_BIN] = 1.0
    others = [[j for j in range(3) if j != i] for i in range(3)]

    def steering(i, ref):
        spectra = np.fft.rfft(anech[i], n=cfg.frame_length, axis=1)
        return (spectra / spectra[ref]).T

    refs = JOINT_REFERENCE_MICS
    steer = np.stack([steering(i, refs[i]) for i in range(3)])
    steer[1, JOINT_DEGENERATE_BIN] = 0.0
    frames = noise_spec.transpose(2, 1, 0)
    noise_cov = frames.swapaxes(-1, -2) @ frames.conj() / frames.shape[1]
    return {
        "mix": mix,
        "targets": targets,
        "interferers": mask_set[np.array(others)],
        "steering": steer,
        "interferer_steering": np.stack(
            [np.stack([steering(j, refs[i]) for j in others[i]], axis=2) for i in range(3)]
        ),
        "noise_cov": 0.5 * (noise_cov + noise_cov.conj().swapaxes(-1, -2)),
    }


def _solve(sc, kind, cfg, speaker=None):
    """The joint solve of all speakers, or with ``speaker`` that speaker's
    own solve."""
    pick = slice(None) if speaker is None else speaker
    cfg = replace(cfg, reference_mic=JOINT_REFERENCE_MICS[pick])
    mix = sc["mix"]
    target, others = sc["targets"][pick], sc["interferers"][pick]
    steering, interferer_steering = sc["steering"][pick], sc["interferer_steering"][pick]
    if kind == "wMPDR":
        return beamform.run_conv_beamformer(mix, target, cfg=cfg)
    if kind == "wLCMP":
        return beamform.run_conv_beamformer(mix, target, others, cfg)
    if kind == "MPDR":
        return beamform.mpdr(mix, target, cfg=cfg)
    if kind == "LCMP":
        return beamform.mpdr(mix, target, others, cfg)
    if kind == "MVDR":
        return beamform.mvdr_lcmv(mix, steering, sc["noise_cov"], cfg=cfg)
    return beamform.mvdr_lcmv(mix, steering, sc["noise_cov"], interferer_steering, cfg)


def _assert_same_bits(a, b):
    _assert_same_output(a, b)
    assert [s.filter_taps for s in a.states] == [s.filter_taps for s in b.states]
    for x, y in zip(a.states, b.states):
        np.testing.assert_array_equal(x.weights, y.weights)
        for name in ("derev", "target_retf", "interferer_retfs"):
            u, v = getattr(x, name), getattr(y, name)
            assert (u is None) == (v is None)
            if u is not None:
                np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(a.diagnostics.objective, b.diagnostics.objective)
    assert a.diagnostics.max_constraint_residual == b.diagnostics.max_constraint_residual


@pytest.mark.parametrize("kind", KINDS)
def test_joint_solve_equals_separate_solves_bitwise(three_speakers, monkeypatch, kind):
    cfg = ConvBeamformerConfig(iterations=3)
    alone = [_solve(three_speakers, kind, cfg, i) for i in range(3)]
    assert [fb[:2] for fb in alone[1].diagnostics.failed_bins] == [(JOINT_DEGENERATE_BIN, 0)]
    assert not alone[0].diagnostics.failed_bins and not alone[2].diagnostics.failed_bins
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        joint = _solve(three_speakers, kind, cfg)
        f = three_speakers["mix"].shape[2]
        assert joint.z.shape == (3,) + three_speakers["mix"].shape[1:]
        assert len(joint.states) == 3 * f
        assert [fb[:3] for fb in joint.diagnostics.failed_bins] == [(1, JOINT_DEGENERATE_BIN, 0)]
        for i in range(3):
            _assert_same_bits(joint.speaker(i), alone[i])
        failed = joint.speaker(1)
        assert failed.states[JOINT_DEGENERATE_BIN].passthrough
        np.testing.assert_array_equal(
            failed.z[:, JOINT_DEGENERATE_BIN],
            three_speakers["mix"][JOINT_REFERENCE_MICS[1], :, JOINT_DEGENERATE_BIN],
        )


LATE_FAILURE = (1, 40)  # (speaker, bin); the bin shares its 16-tap chunk


@pytest.mark.parametrize("kind", ["wMPDR", "wLCMP"])
def test_failure_after_the_first_round_is_contained(small_reverberant_scene, monkeypatch, kind):
    # one pair of a joint two-speaker solve raises in round 1 of 2, once its
    # variances are its own: the first round weights by the mixture's frame
    # power and never goes below it, the output power of later rounds does
    sc = small_reverberant_scene
    mix, targets = sc["mix"], sc["masks"][:2]
    interferers = sc["masks"][[[1], [0]]] if kind == "wLCMP" else None
    cfg = ConvBeamformerConfig(iterations=2)
    clean = beamform.run_conv_beamformer(mix, targets, interferers, cfg)
    speaker, fi = LATE_FAILURE
    mask_of_pair = targets[speaker, :, fi]
    original = beamform._round

    def failing_round(shared, per_speaker, lam, *args):
        frame_power = (np.abs(shared["frames"]) ** 2).sum(axis=-1)
        masks_in_grid = per_speaker["mask"].reshape(-1, mask_of_pair.size)
        if not np.all(lam >= frame_power) and any(
            np.array_equal(row, mask_of_pair) for row in masks_in_grid
        ):
            raise beamform.ConstraintRankError("injected")
        return original(shared, per_speaker, lam, *args)

    monkeypatch.setattr(beamform, "_round", failing_round)
    out = beamform.run_conv_beamformer(mix, targets, interferers, cfg)
    assert out.diagnostics.failed_bins == [(speaker, fi, 1, "injected")]
    f = mix.shape[2]
    failed = speaker * f + fi
    assert out.states[failed].passthrough
    np.testing.assert_array_equal(out.z[speaker, :, fi], mix[cfg.reference_mic, :, fi])
    for i, (a, b) in enumerate(zip(out.states, clean.states)):
        if i != failed:
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.derev, b.derev)
    others = np.ones(out.z.shape[::2], dtype=bool)  # (speakers, bins)
    others[speaker, fi] = False
    for name in ("z", "diagnostics.objective_per_bin", "diagnostics.constraint_residual_per_bin"):
        a, b = (operator.attrgetter(name)(result) for result in (out, clean))
        np.testing.assert_array_equal(np.moveaxis(a, -1, 1)[others], np.moveaxis(b, -1, 1)[others])
    assert np.isnan(out.diagnostics.constraint_residual_per_bin[speaker, fi])


def test_chunks_fit_the_byte_budget():
    # budget 4 MiB: 2 bins of 2.0 MB, 2 of 1.6 MB, 5 of 0.8 MB per chunk
    keys = [20] * 7 + [None] + [16] * 5 + [8] * 12
    chunks = list(beamform._chunks(keys, lambda key: key * 100_000))
    assert [(key, len(bins)) for key, bins in chunks] == [
        (20, 2), (20, 2), (20, 2), (20, 1), (16, 2), (16, 2), (16, 1), (8, 5), (8, 5), (8, 2)
    ]
    covered = np.concatenate([bins for _, bins in chunks])
    np.testing.assert_array_equal(covered, [i for i, key in enumerate(keys) if key is not None])


def _random_hpd(rng, batch, n, loading=0.1):
    x = rng.standard_normal((batch, n, 2 * n)) + 1j * rng.standard_normal((batch, n, 2 * n))
    a = x @ x.conj().swapaxes(-1, -2) / (2 * n)
    return 0.5 * (a + a.conj().swapaxes(-1, -2)) + loading * np.eye(n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6), n=st.integers(2, 8))
def test_batched_eigvec_matches_dense_generalized_eig(seed, batch, n):
    rng = np.random.default_rng(seed)
    a = _random_hpd(rng, batch, n)
    b = _random_hpd(rng, batch, n)
    v, value = linalg.max_generalized_eigvec(a, b)
    for i in range(batch):
        vals, vecs = scipy.linalg.eigh(a[i], b[i])
        gap = (vals[-1] - vals[-2]) / vals[-1]
        assume(gap > 1e-3)
        top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
        sin_angle = np.linalg.norm(v[i] - top * np.vdot(top, v[i]))
        assert sin_angle <= 1e-8 / gap
        assert value[i] == pytest.approx(vals[-1], rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 6),
    n=st.integers(2, 8),
    n_con=st.integers(1, 3),
)
def test_batched_constrained_solve_residual(seed, batch, n, n_con):
    n_con = min(n_con, n - 1) if n > 1 else 1
    rng = np.random.default_rng(seed)
    cov = _random_hpd(rng, batch, n)
    constraints = rng.standard_normal((batch, n, n_con)) + 1j * rng.standard_normal(
        (batch, n, n_con)
    )
    response = np.concatenate([[1.0], np.full(n_con - 1, 0.1)])
    q = beamform.wlcmp_solve(cov, constraints, response)
    gain = (constraints.conj().swapaxes(-1, -2) @ q[..., None])[..., 0]
    assert np.max(np.abs(gain - response)) <= 1e-10
