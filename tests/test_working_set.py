"""The framings that are reduced right away work in blocks of frames, so
their working set does not grow with the signal's length."""

import tracemalloc

import numpy as np
import pytest

from cogbeam import scene, stft

FS = 16000
MiB = 1 << 20


def working_set(fn):
    """Traced peak of ``fn()`` above what is still allocated when it returns
    (its result), in bytes, with the result."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, result


def unit_scene(seconds, n_sources=2, n_mics=4):
    rng = np.random.default_rng(int(seconds))
    n = int(seconds * FS)
    components = rng.standard_normal((n_sources, n_mics, n))
    anechoic = 0.5 * components
    noise = rng.standard_normal((n_mics, n))
    return scene.RenderedScene(components, anechoic, noise, FS)


@pytest.mark.parametrize("channels", [1, 4])
def test_stft_analysis_working_set_is_flat_in_length(channels):
    cfg = stft.StftConfig()
    extra = {}
    for seconds in (4, 16):
        x = np.random.default_rng(seconds).standard_normal((channels, seconds * FS))
        extra[seconds], spec = working_set(lambda: stft.analyze(x, cfg))
        assert spec.shape[1] == (seconds * FS - 512) // 128 + 1
    assert abs(extra[16] - extra[4]) < MiB, extra


def test_calibration_objective_working_set_is_flat_in_length():
    extra = {}
    for seconds in (4, 16):
        unit = unit_scene(seconds)
        extra[seconds], objective = working_set(
            lambda: scene._input_fwssnr_of_gain(unit, [0, 3])
        )
        assert np.isfinite(objective(0.5))
    assert abs(extra[16] - extra[4]) < MiB, extra
