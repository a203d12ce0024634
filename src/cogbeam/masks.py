"""Per-speaker time-frequency masks: oracle ratios, alignment, averaging.

A mask set is a real array of shape (I + 1, K, F) in [0, 1]: one plane per
speaker followed by one noise plane. Separately estimated per-microphone
mask sets carry a source-permutation ambiguity; ``align_masks`` resolves it
against the first microphone, as an assignment of planes with no cap on
the number of sources, before ``average_masks`` pools them. ``load_masks``
reads a mask file of either form: one set (I + 1, K, F), or one set per
microphone (M, I + 1, K, F), which it aligns and pools.
"""

import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

# write_tensor is not called here: perfbench/test_tracer.py checks that the
# tracer rebinds this module's name for it
from .tensorfile import read_tensor, write_tensor  # noqa: F401

__all__ = [
    "oracle_irm",
    "align_masks",
    "average_masks",
    "load_masks",
]


def oracle_irm(components, noise, mic):
    """Ideal ratio masks from the stored scene components at one microphone.

    ``components`` is a sequence of per-speaker spectrograms (M, K, F) and
    ``noise`` the noise spectrogram; the mask of source i is its magnitude
    share of the total, the last plane holds the noise share, and bins where
    everything is zero get the uniform value ``1 / (I + 1)``.
    """
    planes = [np.asarray(c)[mic] for c in components] + [np.asarray(noise)[mic]]
    shapes = {p.shape for p in planes}
    if len(shapes) != 1:
        raise ValueError(f"component spectrogram shapes disagree: {shapes}")
    # one (I + 1, K, F) array holds the magnitudes, then the masks
    masks = np.empty((len(planes),) + planes[0].shape)
    for plane, out in zip(planes, masks):
        np.abs(plane, out=out)
    total = masks.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        masks /= total
    masks[:, total == 0] = 1.0 / len(planes)
    return masks


def _permutation_cost(reference, candidate):
    """cost[i, j] = squared distance between reference plane i, candidate j."""
    s = reference.shape[0]
    cost = np.empty((s, s))
    for i in range(s):
        diff = reference[i][None] - candidate
        cost[i] = (diff**2).sum(axis=(1, 2))
    return cost


def align_masks(per_mic_masks):
    """Reorder every microphone's source planes to match the first one's.

    The best ordering minimizes the total squared mask difference against the
    reference. The noise plane takes part. The total is a sum of
    plane-to-plane terms, so the ordering is the solution of an assignment
    problem on their cost matrix.
    """
    per_mic_masks = [np.asarray(m, dtype=float) for m in per_mic_masks]
    shapes = {m.shape for m in per_mic_masks}
    if len(shapes) != 1:
        raise ValueError(f"mask shapes disagree across mics: {shapes}")
    reference = per_mic_masks[0]
    aligned = [reference.copy()]
    for masks in per_mic_masks[1:]:
        _, best = linear_sum_assignment(_permutation_cost(reference, masks))
        aligned.append(masks[best])
    return aligned


def average_masks(aligned):
    """Entrywise mean of aligned per-microphone mask sets."""
    if len(aligned) == 0:
        raise ValueError("no mask sets to average")
    stack = np.stack([np.asarray(m, dtype=float) for m in aligned])
    return stack.mean(axis=0)


def load_masks(path):
    """Read a mask set (I + 1, K, F), or per-microphone sets (M, I + 1, K, F)
    that are aligned to the first microphone and averaged. Stray values are
    clamped into [0, 1] with a warning; NaN or infinite values are refused."""
    masks = np.asarray(read_tensor(path), dtype=float)
    if masks.ndim not in (3, 4):
        raise ValueError(f"expected rank-3 or rank-4 mask tensor, got rank {masks.ndim}")
    non_finite = masks.size - np.count_nonzero(np.isfinite(masks))
    if non_finite:
        raise ValueError(f"{path}: {non_finite} non-finite mask value(s)")
    out_of_range = int(((masks < 0.0) | (masks > 1.0)).sum())
    if out_of_range:
        warnings.warn(
            f"clamped {out_of_range} mask value(s) into [0, 1]", stacklevel=2
        )
        np.clip(masks, 0.0, 1.0, out=masks)
    if masks.ndim == 4:
        masks = average_masks(align_masks(masks))
    return masks
