"""Benchmark pipelines in a fresh process: for each scene of the spec,
simulate -> enhance -> decode -> evaluate through ``cogbeam.cli.main``, then
read the artifacts back for the checks.

Usage: ``python3 child.py SPEC.json``. The parent sets the BLAS thread
environment and ``PYTHONPATH`` before this process starts, so numpy reads
them on import. Set-up time runs from the parent's spawn time until
``cogbeam.cli`` is imported and the config is written. The result is
rewritten to ``spec["result"]`` as JSON after every pipeline, so the
pipelines of a child that dies are still accounted for.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

MAX_CALLS = 100


def _stage_args(out):
    scene, enh, dec = str(out / "scene"), str(out / "enh"), str(out / "dec")
    return [
        ("simulate", ["--out", scene]),
        ("enhance", ["--scene", scene, "--out", enh]),
        ("decode", ["--scene", scene, "--enhanced", enh, "--out", dec]),
        ("evaluate", ["--scene", scene, "--enhanced", enh, "--decoded", dec,
                      "--out", str(out / "eval")]),
    ]


def run_stages(cli, config_path, seed, out, stages, repeat, repeat_s):
    """Call ``cli.main`` once for each of ``stages``, in pipeline order, then
    call the stages named in ``repeat`` again, round-robin on the same inputs,
    each until its calls took ``repeat_s`` in total (at most ``MAX_CALLS``).

    Interleaving spreads each short stage's samples over the scene's repeat
    window instead of one burst. Stops at the first nonzero exit and keeps
    the JSON error record the CLI prints to stderr. Returns the calls' times
    per stage and the errors.
    """
    calls, errors = {}, []
    argvs = {stage: [stage, "--config", str(config_path), "--seed", str(seed)] + args
             for stage, args in _stage_args(out) if stage in stages}

    def call(stage):
        stderr = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argvs[stage])
        calls.setdefault(stage, []).append(time.perf_counter() - start)
        if code != 0:
            text = stderr.getvalue().strip()
            try:
                record = json.loads(text.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                record = {"error": "unparsed", "message": text, "command": stage}
            errors.append({"stage": stage, "exit_code": code, "record": record})
        return code == 0

    for stage in argvs:
        if not call(stage):
            return calls, errors

    def below(stage):
        return sum(calls[stage]) < repeat_s and len(calls[stage]) < MAX_CALLS

    pending = [st for st in argvs if st in repeat and below(st)]
    while pending:
        for stage in pending:
            if not call(stage):
                return calls, errors
        pending = [st for st in pending if below(st)]
    return calls, errors


def inspect_outputs(out, n_bins):
    """Read the artifacts back (without cogbeam code) for the checks and the
    quality metrics."""
    import numpy as np
    import scipy.io.wavfile

    meta = json.loads((out / "scene" / "metadata.json").read_text())
    diag = json.loads((out / "enh" / "diagnostics.json").read_text())
    report = json.loads((out / "eval" / "report.json").read_text())
    trials_lines = (out / "dec" / "trials.jsonl").read_text().splitlines()
    finite = True
    for i in range(meta["n_speakers"]):
        _, data = scipy.io.wavfile.read(out / "enh" / f"speaker{i}.wav")
        finite = finite and bool(np.all(np.isfinite(data)))
    return {
        "mean_input_fwssnr_db": meta["mean_input_fwssnr_db"],
        "noise_gain": meta["noise_gain"],
        "n_speakers": meta["n_speakers"],
        "n_bins": n_bins,
        "max_constraint_residual": [d["max_constraint_residual"] for d in diag.values()],
        "failed_bins": sum(d["failed_bins"] for d in diag.values()),
        "trials_jsonl": len([line for line in trials_lines if line.strip()]),
        "report_n_trials": report["n_trials"],
        "enhanced_finite": finite,
        "trial_est_db": [t["delta_est_db"] for t in report["trials"]],
        "trial_oracle_db": [t["delta_oracle_db"] for t in report["trials"]],
        "trial_correct": [bool(t["correct"]) for t in report["trials"]],
        "trial_output_db": [t["output_fwssnr_db"] for t in report["trials"]],
    }


def environment(cli):
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cogbeam_file": cli.__file__,
    }


def run_pipeline(cli, scene, trace, repeat, repeat_s):
    """Run ``scene["stages"]`` of one scene, traced or not, and read back its
    artifacts."""
    out = Path(scene["out"])
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(scene["config"], indent=2))
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        calls, errors = run_stages(cli, config_path, scene["seed"], out, scene["stages"],
                                   repeat, repeat_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"scene_seed": scene["seed"], "out": scene["out"], "traced": trace,
              "stage_s": {st: statistics.median(v) for st, v in calls.items()},
              "stage_calls": calls, "errors": errors, "ok": not errors}
    if not errors:
        n_bins = scene["config"].get("stft", {}).get("frame_length", 512) // 2 + 1
        result["outputs"] = inspect_outputs(out, n_bins)
    if tracer is not None:
        from tracer import layer_metrics

        tracer.dump(scene["spans"])
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
    return result


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    from cogbeam import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"cogbeam imported from {cli.__file__}, not from {spec['src']}")
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(spec["config"], indent=2))
    setup_s = time.monotonic() - spec["spawned"]

    result = {"setup_s": setup_s, "environment": environment(cli), "pipelines": []}

    def save():
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        Path(spec["result"]).write_text(json.dumps(result))

    save()
    for scene in spec["scenes"]:
        result["pipelines"].append(
            run_pipeline(cli, scene, spec["trace"], spec["repeat"], spec["repeat_s"])
        )
        save()


if __name__ == "__main__":
    main(sys.argv[1])
