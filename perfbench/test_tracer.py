"""Checks of the benchmark's tracer: coverage of every public function, and
self times that add up.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYERS, Tracer, function_stats, layer_metrics, public_functions, self_times  # noqa: E402


def _modules():
    return {layer: importlib.import_module(f"cogbeam.{layer}") for layer in LAYERS}


def _expected(modules):
    """Every function the benchmark promises to trace, as (layer, name)."""
    expected = set()
    for layer, module in modules.items():
        for name in getattr(module, "__all__", []):
            if inspect.isfunction(getattr(module, name)):
                expected.add((layer, name))
    cli = modules["cli"]
    expected |= {("cli", n) for n in vars(cli) if n.startswith("cmd_")}
    expected |= {("cli", "read_wav"), ("cli", "write_wav")}
    expected |= {("tensorfile", "read_tensor"), ("tensorfile", "write_tensor")}
    return expected


@pytest.fixture
def tracer():
    tr = Tracer().install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_public_function_is_wrapped(tracer):
    modules = _modules()
    for layer, name in _expected(modules):
        assert getattr(getattr(modules[layer], name), "__traced__", None) == f"{layer}.{name}"


def test_names_imported_elsewhere_are_rebound(tracer):
    """No module of the package keeps a reference to an unwrapped original."""
    originals = {}
    for module in _modules().values():
        for name, fn in public_functions(module).items():
            originals[id(inspect.unwrap(fn))] = f"{module.__name__}.{name}"
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("cogbeam"):
            continue
        for attr, value in vars(module).items():
            assert id(value) not in originals, f"{mod_name}.{attr} is not traced"
    cli, masks = _modules()["cli"], _modules()["masks"]
    assert cli.read_tensor.__traced__ == "tensorfile.read_tensor"
    assert masks.write_tensor.__traced__ == "tensorfile.write_tensor"


def test_uninstall_restores_originals():
    modules = _modules()
    before = {(layer, name): getattr(modules[layer], name) for layer, name in _expected(modules)}
    Tracer().install().uninstall()
    for (layer, name), fn in before.items():
        assert getattr(modules[layer], name) is fn


def test_cli_stage_calls_pass_through_wrappers(tracer, tmp_path):
    cli = _modules()["cli"]
    config = {"seed": 5, "scene": {"condition": "custom", "t60_s": 0.1, "noise_gain": 0.05,
                                   "n_mics": 2, "duration_s": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "scene")]) == 0
    names = [s[0] for s in tracer.spans]
    by_index = dict(enumerate(tracer.spans))
    writes = [i for i, n in enumerate(names) if n == "tensorfile.write_tensor"]
    assert len(writes) == 6
    assert all(by_index[by_index[i][3]][0] == "cli.cmd_simulate" for i in writes)
    assert names.count("cli.write_wav") == 1 and names.count("scene.render") == 1
    metrics = layer_metrics(tracer.spans, tracer.counters)
    assert metrics["tensorfile.write_tensor.bytes"] > 0
    assert metrics["metrics.fwssnr.calls_in_calibration"] == 0
    _assert_self_times_add_up(tracer.spans)


def _assert_self_times_add_up(spans):
    own = self_times(spans)
    subtree = list(own)
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        if spans[i][3] >= 0:
            subtree[spans[i][3]] += subtree[i]
    for i, (_, start, end, _) in enumerate(spans):
        assert subtree[i] == pytest.approx(end - start, abs=1e-9)


def test_self_times_of_nested_spans():
    spans = [
        ["cli.cmd_enhance", 0.0, 10.0, -1],
        ["stft.analyze", 1.0, 2.0, 0],
        ["beamform.run_conv_beamformer", 3.0, 9.0, 0],
        ["beamform.estimate_retf", 4.0, 5.5, 2],
        ["linalg.max_generalized_eigvec", 4.5, 5.0, 3],
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 1.0, 4.5, 1.0, 0.5])
    # a parent's self time plus its children's self times is its duration
    assert own[3] + own[4] == pytest.approx(1.5)
    assert own[0] + sum(own[1:]) == pytest.approx(10.0)
    _assert_self_times_add_up(spans)
    stats = function_stats(spans)
    assert stats["beamform.estimate_retf"] == {"calls": 1, "self_s": 1.0, "total_s": 1.5}
    metrics = layer_metrics(spans, {})
    assert metrics["beamform.self_s"] == pytest.approx(5.5)
    assert metrics["beamform.calls"] == 2
    assert metrics["linalg.self_s"] == pytest.approx(0.5)
