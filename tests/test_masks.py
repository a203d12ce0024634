import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogbeam import masks
from cogbeam.tensorfile import TensorFileError, write_tensor


def random_spec(rng, m=2, k=6, f=9):
    return rng.standard_normal((m, k, f)) + 1j * rng.standard_normal((m, k, f))


class TestOracleIrm:
    def test_single_source_no_noise(self):
        rng = np.random.default_rng(0)
        x = random_spec(rng)
        out = masks.oracle_irm([x], np.zeros_like(x), mic=0)
        np.testing.assert_allclose(out[0], 1.0)
        np.testing.assert_allclose(out[1], 0.0)

    def test_equal_sources_split_half(self):
        rng = np.random.default_rng(1)
        x = random_spec(rng)
        out = masks.oracle_irm([x, x * np.exp(1j)], np.zeros_like(x), mic=1)
        np.testing.assert_allclose(out[0], 0.5)
        np.testing.assert_allclose(out[1], 0.5)

    def test_constructed_ratio(self):
        x1 = np.full((1, 1, 1), 3.0, dtype=complex)
        x2 = np.full((1, 1, 1), 1.0, dtype=complex)
        v = np.full((1, 1, 1), 1.0, dtype=complex)
        out = masks.oracle_irm([x1, x2], v, mic=0)
        np.testing.assert_allclose(out[:, 0, 0], [0.6, 0.2, 0.2])

    def test_zero_bins_uniform(self):
        x = np.zeros((1, 2, 2), dtype=complex)
        out = masks.oracle_irm([x, x], x, mic=0)
        np.testing.assert_allclose(out, 1.0 / 3.0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        specs = [random_spec(rng) for _ in range(3)]
        out = masks.oracle_irm(specs[:2], specs[2], mic=0)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            masks.oracle_irm([random_spec(rng)], random_spec(rng, k=7), mic=0)


def random_mask_set(rng, s=3, k=5, f=7):
    m = rng.uniform(size=(s, k, f))
    return m / m.sum(axis=0)


def brute_force_alignment(ref, other):
    """The ordering of ``other``'s planes with the least total squared
    difference to ``ref``, found by trying every permutation, and the gap to
    the runner-up."""
    n = ref.shape[0]
    costs = sorted(
        (sum(((ref[i] - other[p[i]]) ** 2).sum() for i in range(n)), p)
        for p in itertools.permutations(range(n))
    )
    return list(costs[0][1]), costs[1][0] - costs[0][0]


class TestAlignMasks:
    def test_identical_sets_identity(self):
        rng = np.random.default_rng(4)
        ref = random_mask_set(rng)
        out = masks.align_masks([ref, ref.copy(), ref.copy()])
        for aligned in out:
            np.testing.assert_array_equal(aligned, ref)

    def test_planted_swap_recovered(self):
        rng = np.random.default_rng(5)
        ref = random_mask_set(rng)
        swapped = ref[[1, 0, 2]]
        out = masks.align_masks([ref, swapped])
        np.testing.assert_array_equal(out[1], ref)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        ref = random_mask_set(rng)
        other = random_mask_set(rng)
        out = masks.align_masks([ref, other])
        best, _ = brute_force_alignment(ref, other)
        np.testing.assert_array_equal(out[1], other[best])

    def test_output_is_permutation_of_input(self):
        rng = np.random.default_rng(7)
        sets = [random_mask_set(rng) for _ in range(3)]
        out = masks.align_masks(sets)
        for original, aligned in zip(sets, out):
            orig_planes = sorted(map(tuple, original.reshape(3, -1)))
            alig_planes = sorted(map(tuple, aligned.reshape(3, -1)))
            assert orig_planes == alig_planes

    def test_seven_sources_aligned(self):
        # no cap on the number of sources
        rng = np.random.default_rng(8)
        ref = random_mask_set(rng, s=7)
        perm = rng.permutation(7)
        out = masks.align_masks([ref, ref[perm]])
        np.testing.assert_array_equal(out[1], ref)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(2, 5))
def test_assignment_matches_brute_force(seed, n_sources):
    rng = np.random.default_rng(seed)
    ref = random_mask_set(rng, s=n_sources)
    other = random_mask_set(rng, s=n_sources)
    best, gap = brute_force_alignment(ref, other)
    assume(gap > 1e-9)  # tie-free: the optimum is unique
    out = masks.align_masks([ref, other])
    np.testing.assert_array_equal(out[1], other[best])


class TestAverageMasks:
    def test_single_mic_identity(self):
        rng = np.random.default_rng(9)
        m = random_mask_set(rng)
        np.testing.assert_array_equal(masks.average_masks([m]), m)

    def test_two_mic_mean(self):
        a = np.full((1, 1, 1), 0.2)
        b = np.full((1, 1, 1), 0.6)
        np.testing.assert_allclose(masks.average_masks([a, b]), 0.4)

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(10)
        sets = [random_mask_set(rng) for _ in range(4)]
        out = masks.average_masks(sets)
        naive = sum(sets) / 4.0
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_align_then_average_permutation_consistent(self):
        rng = np.random.default_rng(11)
        ref = random_mask_set(rng)
        noisy = np.clip(ref + 0.01 * rng.standard_normal(ref.shape), 0, 1)
        perm = [2, 0, 1]
        direct = masks.average_masks([ref, noisy])
        via_alignment = masks.average_masks(masks.align_masks([ref, noisy[perm]]))
        np.testing.assert_allclose(via_alignment, direct, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            masks.average_masks([])


class TestMaskIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        m = random_mask_set(rng)
        path = tmp_path / "m.cbtf"
        write_tensor(path, m)
        out = masks.load_masks(path)
        np.testing.assert_array_equal(out, m)

    def test_out_of_range_clamped_with_warning(self, tmp_path):
        m = np.array([[[0.5, 1.0000001]], [[-0.25, 0.5]]])
        path = tmp_path / "m.cbtf"
        write_tensor(path, m)
        with pytest.warns(UserWarning, match="clamped 2"):
            out = masks.load_masks(path)
        assert out.max() == 1.0 and out.min() == 0.0

    @pytest.mark.parametrize("per_mic", [False, True])
    def test_non_finite_values_rejected(self, tmp_path, per_mic):
        m = np.full((3, 4, 5), 1.0 / 3.0)
        m[1, 2, 3] = np.nan
        m[2, 0, 0] = np.inf
        path = tmp_path / "m.cbtf"
        write_tensor(path, np.stack([m, m]) if per_mic else m)
        count = 4 if per_mic else 2
        with pytest.raises(ValueError, match=rf"m\.cbtf: {count} non-finite"):
            masks.load_masks(path)

    def test_per_mic_sets_aligned_and_averaged(self, tmp_path):
        rng = np.random.default_rng(13)
        ref = random_mask_set(rng)
        noisy = np.clip(ref + 0.01 * rng.standard_normal(ref.shape), 0, 1)
        path = tmp_path / "m.cbtf"
        write_tensor(path, np.stack([ref, noisy[[2, 0, 1]]]))
        out = masks.load_masks(path)
        np.testing.assert_array_equal(out, masks.average_masks([ref, noisy]))

    def test_truncated_file_structured_error(self, tmp_path):
        path = tmp_path / "m.cbtf"
        write_tensor(path, np.full((1, 2, 2), 0.5))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(TensorFileError, match="missing 16 bytes"):
            masks.load_masks(path)

    def test_wrong_rank_rejected(self, tmp_path):
        path = tmp_path / "m.cbtf"
        write_tensor(path, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="rank"):
            masks.load_masks(path)
        write_tensor(path, np.zeros((1, 2, 2, 2, 2)))
        with pytest.raises(ValueError, match="rank"):
            masks.load_masks(path)
