import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogbeam import stft


CFG = stft.StftConfig()


class TestConfig:
    def test_defaults(self):
        assert CFG.frame_length == 512
        assert CFG.hop == 128
        assert CFG.n_bins == 257

    def test_hop_must_divide_frame(self):
        with pytest.raises(ValueError):
            stft.StftConfig(frame_length=512, hop=100)

    def test_hop_must_leave_overlap(self):
        # frame_length / hop < 2 cannot overlap-add the sqrt-Hann pair
        with pytest.raises(ValueError, match="half"):
            stft.StftConfig(frame_length=128, hop=128)


class TestAnalyze:
    def test_zero_input(self):
        spec = stft.analyze(np.zeros((2, 4000)), CFG)
        assert spec.shape == (2, (4000 - 512) // 128 + 1, 257)
        assert not np.any(spec)

    def test_frame_count(self):
        spec = stft.analyze(np.zeros(512), CFG)
        assert spec.shape[1] == 1

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            stft.analyze(np.zeros(511), CFG)

    def test_windowed_impulse_flat_magnitude(self):
        # impulse at the center of the single frame: spectrum magnitude is
        # the window value there, flat across bins (pure delay)
        x = np.zeros(512)
        center = 256
        x[center] = 1.0
        spec = stft.analyze(x, CFG)[0, 0]
        n = np.arange(512)
        win = np.sqrt(0.5 - 0.5 * np.cos(2 * np.pi * n / 512))
        oracle = win[center] * np.exp(-2j * np.pi * np.arange(257) * center / 512)
        np.testing.assert_allclose(spec, oracle, atol=1e-12)

    def test_sine_peak_bin(self):
        # 500 Hz at 16 kHz with 512-point frames lands on bin 16
        t = np.arange(16000) / 16000
        x = np.sin(2 * np.pi * 500.0 * t)
        spec = stft.analyze(x, CFG)
        mags = np.abs(spec[0])
        for k in range(1, mags.shape[0] - 1):  # interior frames
            assert np.argmax(mags[k]) == 16


    @pytest.mark.parametrize("frame_length, hop", [(512, 128), (128, 32), (64, 32), (48, 8)])
    @pytest.mark.parametrize("extra", [0, 1, 7, 200])
    def test_frames_are_windowed_slices(self, frame_length, hop, extra):
        # frame j is the rfft of the windowed slice starting at j * hop; a
        # single channel analyzed alone gives the bits of its row
        cfg = stft.StftConfig(frame_length=frame_length, hop=hop)
        x = np.random.default_rng(extra).standard_normal((3, 2 * frame_length + extra))
        spec = stft.analyze(x, cfg)
        win = stft._window(cfg)
        k = (x.shape[1] - frame_length) // hop + 1
        frames = np.stack([x[:, j * hop : j * hop + frame_length] * win for j in range(k)], 1)
        assert np.array_equal(spec, np.fft.rfft(frames, axis=-1))
        for m in range(x.shape[0]):
            assert np.array_equal(stft.analyze(x[m], cfg)[0], spec[m])


class TestBlockedAnalysis:
    @pytest.mark.parametrize("frame_length, hop", [(512, 128), (128, 32)])
    @pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 3 * 256 + 5])
    @pytest.mark.parametrize("channels", [1, 4])
    def test_same_bits_as_one_shot_transform(self, frame_length, hop, n_frames, channels):
        # frames are transformed in blocks; the reference windows and
        # transforms every frame in one call
        cfg = stft.StftConfig(frame_length=frame_length, hop=hop)
        rng = np.random.default_rng(n_frames)
        x = rng.standard_normal((channels, (n_frames - 1) * hop + frame_length + hop - 1))
        windows = np.lib.stride_tricks.sliding_window_view(x, frame_length, axis=-1)
        want = np.fft.rfft(windows[:, ::hop] * stft._window(cfg), axis=-1)
        got = stft.analyze(x, cfg)
        assert got.shape == (channels, n_frames, cfg.n_bins)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "n_frames, sizes",
        [(1, [1]), (511, [511]), (512, [256, 256]), (3 * 256 + 5, [256, 256, 261])],
    )
    def test_blocks_cover_the_frames_with_the_remainder_last(self, n_frames, sizes):
        n_samples = (n_frames - 1) * 128 + 512
        blocks = stft._frame_blocks(n_samples, 512, 128)
        assert [hi - lo for lo, hi, _ in blocks] == sizes
        assert blocks[0][0] == 0 and blocks[-1][1] == n_frames
        for (_, hi, _), (lo, _, _) in zip(blocks, blocks[1:]):
            assert hi == lo
        for lo, hi, samples in blocks:
            assert (samples.start, samples.stop) == (lo * 128, (hi - 1) * 128 + 512)


class TestSynthesize:
    def test_zero_spectrogram(self):
        out = stft.synthesize(np.zeros((1, 5, 257), dtype=complex), CFG)
        assert out.shape == (1, 4 * 128 + 512)
        assert not np.any(out)

    def test_round_trip_interior(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 8192))
        y = stft.synthesize(stft.analyze(x, CFG), CFG)
        fl = CFG.frame_length
        interior = slice(fl, x.shape[1] - fl)
        err = np.linalg.norm(y[:, interior] - x[:, interior])
        assert err <= 1e-10 * np.linalg.norm(x[:, interior])

    def test_single_frame_tone_oracle(self):
        # one synthesized frame must equal the doubly windowed inverse DFT
        t = np.arange(512) / 16000
        tone = np.cos(2 * np.pi * 1000.0 * t)
        spec = stft.analyze(tone, CFG)
        out = stft.synthesize(spec, CFG)[0]
        n = np.arange(512)
        win = np.sqrt(0.5 - 0.5 * np.cos(2 * np.pi * n / 512))
        gain = 512 / (2 * 128)  # overlap-add constant of the squared window
        oracle = win * np.fft.irfft(spec[0, 0]) / gain
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            stft.synthesize(np.zeros((1, 5, 100), dtype=complex), CFG)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_many_seeds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(6000)
        y = stft.synthesize(stft.analyze(x, CFG), CFG)[0]
        fl = CFG.frame_length
        hi = (x.size - fl) // CFG.hop * CFG.hop + fl  # last sample covered
        interior = slice(fl, hi - fl)
        err = np.linalg.norm(y[interior] - x[interior])
        assert err <= 1e-10 * np.linalg.norm(x[interior])

    def test_parseval_consistency(self):
        rng = np.random.default_rng(2)
        x = np.zeros(6144)
        x[512:-512] = rng.standard_normal(6144 - 1024)  # edge-free support
        spec = stft.analyze(x, CFG)[0]
        weights = np.full(257, 2.0)
        weights[0] = weights[-1] = 1.0  # one-sided spectrum double counting
        spectral = (weights * np.abs(spec) ** 2).sum() / 512
        gain = 512 / (2 * 128)
        time_energy = (x**2).sum()
        assert spectral / gain == pytest.approx(time_energy, rel=1e-8)

    def test_other_hop_cola(self):
        cfg = stft.StftConfig(frame_length=256, hop=64)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096)
        y = stft.synthesize(stft.analyze(x, cfg), cfg)[0]
        interior = slice(256, 3840 - 256)
        assert np.allclose(y[interior], x[interior], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    hop=st.integers(1, 48),
    ratio=st.integers(2, 8),
    extra=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(hop, ratio, extra, seed):
    """Any hop dividing frame_length with frame_length / hop >= 2 reconstructs
    the interior exactly."""
    fl = hop * ratio
    cfg = stft.StftConfig(frame_length=fl, hop=hop)
    x = np.random.default_rng(seed).standard_normal(3 * fl + extra)
    y = stft.synthesize(stft.analyze(x, cfg), cfg)[0]
    covered = (x.size - fl) // hop * hop + fl  # last sample any frame reaches
    interior = slice(fl, covered - fl)
    np.testing.assert_allclose(y[interior], x[interior], rtol=0, atol=1e-10)


def reference_synthesize(spec, cfg):
    """Overlap-add one frame at a time, in frame order."""
    frames = np.fft.irfft(spec, n=cfg.frame_length, axis=-1) * stft._window(cfg)
    m, k, _ = spec.shape
    out = np.zeros((m, (k - 1) * cfg.hop + cfg.frame_length))
    for j in range(k):
        out[:, j * cfg.hop : j * cfg.hop + cfg.frame_length] += frames[:, j]
    return out / stft._cola_gain(cfg)


@settings(max_examples=80, deadline=None)
@given(
    hop=st.integers(1, 64),
    ratio=st.integers(2, 8),
    n_frames=st.integers(1, 60),
    channels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_overlap_add_is_frame_loop_bit_for_bit(hop, ratio, n_frames, channels, seed):
    cfg = stft.StftConfig(frame_length=hop * ratio, hop=hop)
    rng = np.random.default_rng(seed)
    shape = (channels, n_frames, cfg.n_bins)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec *= 10.0 ** rng.uniform(-6, 6, size=(channels, n_frames, 1))
    got = stft.synthesize(spec, cfg)
    want = reference_synthesize(spec, cfg)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
