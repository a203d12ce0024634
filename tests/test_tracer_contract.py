"""The benchmark's tracer against the joint beamformer call of ``enhance``.

``perfbench/tracer.py`` reads the per-bin accounting (``states[*].passthrough``,
``diagnostics.failed_bins``, ``diagnostics.max_constraint_residual``) from
whatever a beamformer entry point returns. ``enhance`` solves every speaker
in one entry-point call, so that one result must cover every speaker. The
benchmark's modules are imported as they are, not changed.
"""

import inspect
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import run as bench  # noqa: E402
from tracer import BEAMFORMER_ENTRY_POINTS, Tracer  # noqa: E402

from cogbeam import beamform, cli  # noqa: E402


def _config(tmp_path, kind, n_speakers):
    config = dict(bench.WORKLOADS["wmpdr-blas1"]["config"], seed=0, beamformer_type=kind)
    config["scene"] = dict(config["scene"], n_speakers=n_speakers, n_mics=3)
    config["beamformer"] = {"iterations": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


def test_every_beamformer_type_calls_a_traced_entry_point():
    # a row naming a function the tracer does not hook would leave
    # beamform.bins_solved out of its traced runs
    for kind, (entry, _, _) in cli._BEAMFORMERS.items():
        assert entry in beamform.__all__, kind
        assert inspect.isfunction(getattr(beamform, entry)), kind
        assert entry in BEAMFORMER_ENTRY_POINTS, kind


@pytest.mark.parametrize(
    "kind, n_speakers", [("wLCMP", 2), ("MPDR", 3), ("LCMP", 3), ("LCMV", 3)]
)
def test_traced_enhance_counts_bins_of_every_speaker(tmp_path, kind, n_speakers):
    cfg = _config(tmp_path, kind, n_speakers)
    common = ["--config", str(cfg), "--seed", "9"]
    assert cli.main(["simulate", *common, "--out", str(tmp_path / "scene")]) == 0
    tracer = Tracer().install()
    try:
        code = cli.main(
            ["enhance", *common, "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "enh")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    entries = [s for s in tracer.spans if s[0].split(".")[-1] in BEAMFORMER_ENTRY_POINTS]
    assert len(entries) == 1  # one call solves every speaker
    diag = json.loads((tmp_path / "enh" / "diagnostics.json").read_text())
    assert len(diag) == n_speakers
    solved = sum(
        sum(r is not None for r in d["constraint_residual_per_bin"]) for d in diag.values()
    )
    n_bins = 65
    assert solved == n_speakers * n_bins
    assert tracer.counters["beamform.bins_solved"] == solved
    assert tracer.counters["beamform.failed_bins"] == sum(d["failed_bins"] for d in diag.values())
    assert tracer.counters["beamform.max_constraint_residual"] == max(
        d["max_constraint_residual"] for d in diag.values()
    )


def test_traced_pipeline_passes_the_benchmark_checks(tmp_path):
    """What ``perfbench/run.py --trace 1`` checks for one ``wmpdr-blas1``
    scene: the untraced and the traced pipeline both pass ``Run.check``, and
    their output fwSSNR agrees within the trace tolerance."""
    spec = bench.WORKLOADS["wmpdr-blas1"]
    seed = 101
    records = {}
    for traced in (False, True):
        out = tmp_path / ("traced" if traced else "plain")
        scene = {"seed": seed, "out": str(out), "config": dict(spec["config"], seed=seed),
                 "stages": list(bench.STAGES), "spans": str(tmp_path / f"spans-{traced}.json")}
        records[traced] = child.run_pipeline(cli, scene, traced, [], 0.0)
    checks = SimpleNamespace(spec=spec, problems=[])
    for record in records.values():
        bench.Run.check(checks, record)
    bench.Run.compare(
        checks, records[False], records[True], bench.TRACE_TOLERANCE_DB, "traced vs untraced"
    )
    assert checks.problems == []
    layers = records[True]["layers"]
    outputs = records[True]["outputs"]
    assert layers["beamform.bins_solved"] == outputs["n_speakers"] * outputs["n_bins"]
    assert bench.quality(records.values())["solved_bin_pct"] == 100.0
