"""Shared builders for synthetic scene fixtures used across test modules."""

import numpy as np
import pytest

from cogbeam import masks, scene, stft

FS = 16000


def build_scene(
    seed,
    t60=0.3,
    duration=1.5,
    n_mics=3,
    noise_gain=0.05,
    direct_to_reverb_db=0.0,
):
    """Two-speaker rendered scene plus STFT and averaged oracle masks."""
    sources = [
        scene.synthetic_speech(duration, FS, seed=seed * 101 + 1),
        scene.synthetic_speech(duration, FS, seed=seed * 101 + 2),
    ]
    irs, anech = scene.synthetic_room_irs(
        2, n_mics, FS, t60=t60, direct_to_reverb_db=direct_to_reverb_db, seed=seed
    )
    length = int(duration * FS) + irs.shape[2]
    noise = scene.generate_decorrelated_noise(n_mics, length, "speech", FS, seed + 7)
    acoustic = scene.AcousticScene(sources, irs, anech, noise, FS)
    rendered = scene.with_noise_gain(scene.render(acoustic), noise_gain)
    return acoustic, rendered


def scene_spectrograms(rendered, cfg=None):
    cfg = cfg or stft.StftConfig()
    mix = stft.analyze(rendered.mics, cfg)
    comps = [stft.analyze(rendered.components[i], cfg) for i in range(2)]
    noise = stft.analyze(rendered.noise, cfg)
    return mix, comps, noise, cfg


def oracle_mask_set(rendered, cfg=None):
    """Per-mic oracle masks pooled in construction order: (I + 1, K, F)."""
    mix, comps, noise, cfg = scene_spectrograms(rendered, cfg)
    n_mics = mix.shape[0]
    per_mic = [masks.oracle_irm(comps, noise, m) for m in range(n_mics)]
    return masks.average_masks(per_mic), mix, cfg


@pytest.fixture(scope="session")
def small_reverberant_scene():
    acoustic, rendered = build_scene(seed=3, t60=0.3, duration=1.5)
    mask_set, mix, cfg = oracle_mask_set(rendered)
    return {
        "acoustic": acoustic,
        "rendered": rendered,
        "masks": mask_set,
        "mix": mix,
        "stft": cfg,
    }
