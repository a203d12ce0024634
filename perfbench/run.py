"""cogbeam benchmark: per-stage CLI time, memory and output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload wmpdr-blas1 --seed 1 --seconds 40 --trace 0

A run draws the workload's scene set from ``--seed`` (scene ``j`` runs with
CLI seed ``100 * seed + j``) and deals it over ``CHILDREN`` fresh child
processes, each with its BLAS thread count fixed through the environment
before numpy is imported. Every child runs, per scene, simulate -> enhance ->
decode -> evaluate through ``cogbeam.cli.main``, then calls the workload's
short stages again, interleaved. While time is left in ``--seconds``, more
children re-run the short stages of one scene each. A stage's time is the
mean over the scene set of the median of each scene's calls; ``setup_s`` is
the median over children. See README.md.

``--trace 1`` runs the scene set once untraced and once traced and reports
per-layer metrics instead. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
nonzero when any check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CHILDREN = 3  # set-up samples per pass over the scene set

NPROC = len(os.sched_getaffinity(0))

# The threaded cost is per bin and per round, not per sample, so the wMPDR
# recipe runs on short scenes with a 128-sample STFT (65 bins): with 257 bins
# one 2 s scene takes about 44 s in enhance under two threads.
_WMPDR = {
    "scene": {
        "condition": "custom",
        "t60_s": 0.5,
        "target_input_fwssnr_db": None,
        "noise_gain": 0.1,
        "n_mics": 4,
        "n_speakers": 2,
        "duration_s": 2.0,
    },
    "stft": {"frame_length": 128, "hop": 32},
    "beamformer_type": "wMPDR",
    "aad": {"trial_seconds": 1.0},
}

# threads: BLAS threads of the children; scenes: size of the scene set;
# target_db: preset input fwSSNR the calibrated scenes must reach; repeat:
# the short stages each scene calls again, interleaved, until each has taken
# repeat_s (child.py), and that later children re-run. The machine's speed
# swings for seconds at a time, so short stages need many samples spread
# over the run; long stages average such swings out themselves.
_SHORT = ("simulate", "decode", "evaluate")
WORKLOADS = {
    # beamform + linalg are ~90% of the stage time; no noise calibration.
    "wmpdr-blas1": {"threads": 1, "scenes": 5, "target_db": None, "config": _WMPDR,
                    "repeat": _SHORT, "repeat_s": 1.0},
    # The same recipe under threaded BLAS, where the per-bin solver's
    # thousands of tiny calls slow down several fold.
    "wmpdr-blasn": {"threads": NPROC, "scenes": 2, "target_db": None, "config": _WMPDR,
                    "repeat": _SHORT, "repeat_s": 1.0},
    # Noise calibration, fwSSNR, leave-one-out decoding over many short
    # trials, STFT and tensor I/O; MPDR keeps the beamformer small.
    "calib-aad-blas1": {
        "threads": 1,
        "scenes": 5,
        "target_db": 0.5,  # reverberant-noisy preset
        "repeat": ("decode", "evaluate"),
        "repeat_s": 0.4,
        "config": {
            "scene": {"condition": "reverberant-noisy", "n_mics": 4, "n_speakers": 2,
                      "duration_s": 10.0},
            "beamformer_type": "MPDR",
            "aad": {"trial_seconds": 1.0},
        },
    },
}

# name -> (unit, better); the benchmark's end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "enhance_s": ("s", "lower"),
    "decode_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "solved_bin_pct": ("%", "higher"),
}
# Printed and stored with every run but not bounded: they depend on the
# scenes a seed draws far more than any bound allows (see README).
UNBOUNDED = {
    "delta_fwssnr_oracle_db": ("dB", "higher"),
    "delta_fwssnr_est_db": ("dB", "higher"),
    "aad_accuracy_pct": ("%", "higher"),
    "failed_bin_pct": ("%", "lower"),
}
STAGES = ("simulate", "enhance", "decode", "evaluate")
MAX_RESIDUAL = 1e-8
CALIBRATION_TOLERANCE_DB = 0.1
TRACE_TOLERANCE_DB = 1e-9


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cogbeam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One benchmark invocation: launches children and collects records."""

    def __init__(self, workload, seed, seconds, trace):
        self.spec = WORKLOADS[workload]
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.scene_seeds = [100 * seed + j for j in range(self.spec["scenes"])]
        self.work = WORK / f"{workload}-{seed}-{'trace' if trace else 'plain'}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.first = {}  # scene seed -> record of its first pipeline
        self.children = []  # {"setup_s", "peak_rss_mb", "environment", "wall_s"}
        self.pipelines = []  # one record per attempted pipeline
        self.problems = []

    def elapsed(self):
        return time.monotonic() - self.start

    def launch(self, scene_seeds, traced, repeat=False):
        """Run ``scene_seeds`` in one fresh child; returns its pipelines.

        With ``repeat``, the child re-runs only the workload's short stages of
        each scene on the artifacts of the scene's first pipeline."""
        index = len(self.children)
        work = self.work / f"c{index:02d}"
        spec_path = self.work / f"c{index:02d}.spec.json"
        result_path = self.work / f"c{index:02d}.result.json"
        threads = str(self.spec["threads"])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        scenes = [
            {"seed": s, "out": self.first[s]["out"] if repeat else str(work / f"scene{s}"),
             "config": dict(self.spec["config"], seed=s),
             "stages": list(self.spec["repeat"] if repeat else STAGES),
             "spans": str(self.work / f"spans-{s}.json")}
            for s in scene_seeds
        ]
        spawned = time.monotonic()
        spec_path.write_text(json.dumps({
            # set-up ends once the child has written the workload's config
            "src": str(SRC), "work": str(work), "config": dict(self.spec["config"], seed=0),
            "scenes": scenes, "trace": traced, "spawned": spawned,
            # untraced and traced pipelines of a traced run both call each
            # stage once, so trace.overhead_s compares like with like
            "repeat": [] if self.trace else list(self.spec["repeat"]),
            "repeat_s": self.spec["repeat_s"],
            "result": str(result_path),
        }))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        try:
            log, _ = proc.communicate(timeout=max(RUN_LIMIT_S - self.elapsed(), 1.0))
            failure = None if proc.returncode == 0 else f"child exited with {proc.returncode}"
        except subprocess.TimeoutExpired:
            proc.kill()
            log, _ = proc.communicate()
            failure = "child stopped at the run time limit"
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        done = result.pop("pipelines", [])
        self.children.append(dict(result, wall_s=time.monotonic() - spawned))
        for seed in scene_seeds[len(done):]:
            done.append({"scene_seed": seed, "traced": traced, "ok": False, "errors": [
                {"stage": None, "record": {"error": failure or "no result",
                                           "message": log[-2000:]}}]})
        self.pipelines.extend(done)
        return done

    def deal(self, traced):
        """One pass over the scene set, dealt round-robin over the children."""
        done = []
        for c in range(CHILDREN):
            done.extend(self.launch(self.scene_seeds[c::CHILDREN], traced))
        return {r["scene_seed"]: r for r in done}

    def execute(self):
        self.first = first = self.deal(False)
        if self.trace:
            traced = self.deal(True)
            for seed in self.scene_seeds:
                self.compare(first[seed], traced[seed], TRACE_TOLERANCE_DB, "traced vs untraced")
            return
        # Timing-only repeats while one more child fits: each new child
        # re-runs the short stages of one scene, so they are sampled until
        # the run ends.
        order = [seed for seed in self.scene_seeds if first[seed]["ok"]]
        setup = statistics.median([c["setup_s"] for c in self.children if "setup_s" in c] or [0.0])
        j = 0
        while order:
            seed = order[j % len(order)]
            estimate = setup + sum(
                max(first[seed]["stage_s"][st], self.spec["repeat_s"]) for st in self.spec["repeat"]
            ) + 1.0  # output checks and process exit
            if self.elapsed() + estimate > self.seconds:
                break
            for record in self.launch([seed], False, repeat=True):
                self.compare(first[seed], record, 0.0, "repeat")
            j += 1

    def clean(self):
        """Delete the children's artifacts (about 30 MB per calibrated scene);
        result.json and the span files stay."""
        for path in self.work.glob("c[0-9]*"):
            if path.is_dir():
                shutil.rmtree(path)

    def compare(self, a, b, tolerance, what):
        if not (a["ok"] and b["ok"]):
            return
        flat_a = [v for row in a["outputs"]["trial_output_db"] for v in row]
        flat_b = [v for row in b["outputs"]["trial_output_db"] for v in row]
        if len(flat_a) != len(flat_b) or any(abs(p - q) > tolerance for p, q in zip(flat_a, flat_b)):
            self.problems.append(
                f"scene {a['scene_seed']}: {what} output fwSSNR differs by more than {tolerance} dB"
            )

    def check(self, record):
        seed = record["scene_seed"]
        if not record["ok"]:
            for err in record["errors"]:
                self.problems.append(f"scene {seed}: {json.dumps(err)}")
            return
        out = record["outputs"]
        if max(out["max_constraint_residual"]) > MAX_RESIDUAL:
            self.problems.append(f"scene {seed}: constraint residual "
                                 f"{max(out['max_constraint_residual']):.3g} > {MAX_RESIDUAL}")
        target = self.spec["target_db"]
        if target is not None and abs(out["mean_input_fwssnr_db"] - target) > CALIBRATION_TOLERANCE_DB:
            self.problems.append(f"scene {seed}: calibrated input fwSSNR "
                                 f"{out['mean_input_fwssnr_db']:.4f} dB, target {target} dB")
        if out["trials_jsonl"] != out["report_n_trials"]:
            self.problems.append(f"scene {seed}: {out['trials_jsonl']} trials decoded, "
                                 f"{out['report_n_trials']} evaluated")
        if not out["enhanced_finite"]:
            self.problems.append(f"scene {seed}: enhanced WAV holds non-finite samples")

    def end_to_end(self):
        metrics = {}
        started = [c for c in self.children if "setup_s" in c]
        if started:
            metrics["setup_s"] = statistics.median(c["setup_s"] for c in started)
            metrics["peak_rss_mb"] = max(c["peak_rss_mb"] for c in started)
        plain = [r for r in self.pipelines if r["ok"] and not r["traced"]]
        if len({r["scene_seed"] for r in plain}) == len(self.scene_seeds):
            for stage in STAGES:
                metrics[f"{stage}_s"] = statistics.fmean(
                    statistics.median(t for r in plain if r["scene_seed"] == s
                                      for t in r["stage_calls"].get(stage, ()))
                    for s in self.scene_seeds
                )
            metrics["pipeline_s"] = sum(metrics[f"{stage}_s"] for stage in STAGES)
        if all(r["ok"] for r in self.first.values()):
            metrics.update(quality(self.first.values()))
        return metrics

    def per_layer(self):
        plain = [r for r in self.pipelines if r["ok"] and not r["traced"]]
        traced = [r for r in self.pipelines if r["ok"] and r["traced"]]
        if not traced:
            return {}
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        scores = quality(traced)
        metrics["beamform.delta_fwssnr_oracle_db"] = scores["delta_fwssnr_oracle_db"]
        metrics["aad.accuracy_pct"] = scores["aad_accuracy_pct"]
        metrics["aad.delta_fwssnr_est_db"] = scores["delta_fwssnr_est_db"]
        if plain:
            metrics["trace.overhead_s"] = (
                statistics.median(sum(r["stage_s"].values()) for r in traced)
                - statistics.median(sum(r["stage_s"].values()) for r in plain)
            )
        return metrics


def quality(records):
    """Quality figures pooled over the trials and bins of ``records``."""
    scenes = [r["outputs"] for r in records]
    correct = [v for s in scenes for v in s["trial_correct"]]
    bins = sum(s["n_bins"] * s["n_speakers"] for s in scenes)
    failed_bins = sum(s["failed_bins"] for s in scenes)
    return {
        "delta_fwssnr_oracle_db": statistics.fmean(v for s in scenes for v in s["trial_oracle_db"]),
        "solved_bin_pct": 100.0 * (bins - failed_bins) / bins,
        "delta_fwssnr_est_db": statistics.fmean(v for s in scenes for v in s["trial_est_db"]),
        "aad_accuracy_pct": 100.0 * sum(correct) / len(correct),
        "failed_bin_pct": 100.0 * failed_bins / bins,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "cogbeam" / "cli.py").is_file():
        print(f"no cogbeam sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    for record in run.pipelines:
        run.check(record)
    if args.trace:
        from tracer import metric_units

        units = metric_units()
        metrics = {n: (v, units[n], "") for n, v in run.per_layer().items()}
        expected = units
    else:
        catalogue = {**END_TO_END, **UNBOUNDED}
        metrics = {n: (v, *catalogue[n]) for n, v in run.end_to_end().items()}
        expected = END_TO_END
    missing = sorted(set(expected) - set(metrics))
    if missing:
        run.problems.append(f"metrics not measured: {missing}")

    environment = next((c["environment"] for c in run.children if "environment" in c), {})
    environment.update(nproc=NPROC, git_commit=_git_commit(), source_sha256=_source_digest(),
                       workload=args.workload, workload_seed=args.seed,
                       scene_seeds=run.scene_seeds, blas_threads=run.spec["threads"])
    attempted = len(run.pipelines)
    failed = sum(not r["ok"] for r in run.pipelines)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pipelines failed {failed}/{attempted}  children {len(run.children)}  "
          f"({run.elapsed():.1f} s)")
    for name, (value, unit, better) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {better}"
              + ("  (not bounded)" if name in UNBOUNDED else ""))
    print("environment " + json.dumps(environment, sort_keys=True))
    for problem in run.problems:
        print("CHECK FAILED " + problem)

    run.clean()
    (run.work / "result.json").write_text(json.dumps({
        "environment": environment, "metrics": {n: m[0] for n, m in metrics.items()},
        "problems": run.problems, "children": run.children, "pipelines": run.pipelines,
    }, indent=1))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit} for n, (v, unit, _) in metrics.items()
                    if n in expected},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
