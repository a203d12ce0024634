"""Span tracer for the cogbeam modules, installed from outside the program.

``Tracer.install`` wraps every public function of each layer module and
rebinds every module-level name in the ``cogbeam`` package that refers to a
wrapped function, so a call made through a name imported with
``from .tensorfile import read_tensor`` is traced as well as one made through
``tensorfile.read_tensor``. Spans ``[name, start, end, parent]`` are kept in
memory; ``layer_metrics`` turns them into the per-layer metrics the benchmark
reports, and ``dump`` writes them out.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("stft", "scene", "masks", "beamform", "linalg", "metrics", "aad", "tensorfile", "cli")

# Functions whose results are the beamformer's per-bin accounting.
BEAMFORMER_ENTRY_POINTS = ("run_conv_beamformer", "mpdr", "lcmp", "mvdr_lcmv")


def public_functions(module):
    """Functions a layer exposes: those named in ``__all__`` or, for a module
    without one, every function it defines whose name has no underscore."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        name: obj
        for name in names
        if inspect.isfunction(obj := getattr(module, name))
        and obj.__module__ == module.__name__
    }


def _nbytes(array):
    return int(getattr(array, "nbytes", 0))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._open = []
        self._restore = []  # (module, attribute, original)

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_return=None):
        """Wrapper that records one span per call and, when ``on_return`` is
        given, passes the bound arguments and the result to it."""
        signature = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(bound.arguments, result)
            return result

        traced.__traced__ = name
        return traced

    def _hooks(self):
        def beamformer(_args, out):
            self.count("beamform.bins_solved", sum(not s.passthrough for s in out.states))
            self.count("beamform.failed_bins", len(out.diagnostics.failed_bins))
            residual = float(out.diagnostics.max_constraint_residual)
            key = "beamform.max_constraint_residual"
            self.counters[key] = max(self.counters.get(key, 0.0), residual)

        hooks = {
            "stft.analyze": lambda a, _r: self.count(
                "stft.analyze.samples", int(getattr(a["signal"], "size", 0))
            ),
            "metrics.fwssnr": lambda a, _r: self.count(
                "metrics.fwssnr.samples", int(getattr(a["test"], "size", 0))
            ),
            "aad.train_decoder": lambda a, _r: self.count(
                "aad.train_decoder.trials_in", len(a["eeg_trials"])
            ),
            "tensorfile.read_tensor": lambda _a, r: self.count(
                "tensorfile.read_tensor.bytes", _nbytes(r)
            ),
            "tensorfile.write_tensor": lambda a, _r: self.count(
                "tensorfile.write_tensor.bytes", _nbytes(a["array"])
            ),
            "cli.read_wav": lambda _a, r: self.count("cli.read_wav.bytes", _nbytes(r[0])),
            "cli.write_wav": lambda a, _r: self.count(
                "cli.write_wav.bytes", _nbytes(a["signal"])
            ),
        }
        for entry in BEAMFORMER_ENTRY_POINTS:
            hooks[f"beamform.{entry}"] = beamformer
        return hooks

    def install(self, package="cogbeam"):
        """Wrap each layer's public functions and rebind every name in the
        package's modules that refers to one of them."""
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for fn_name, fn in public_functions(module).items():
                name = f"{layer}.{fn_name}"
                wrappers[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if (entry := wrappers.get(id(value))) is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def function_stats(spans):
    """``{span name: {"calls", "self_s", "total_s"}}``; ``total_s`` counts
    only outermost spans of a name, so recursion is not double counted."""
    own = self_times(spans)
    stats = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[i]
        if not _has_ancestor(spans, i, name):
            entry["total_s"] += end - start
    return stats


# Per-function figures reported as per-layer metrics, with their units.
FUNCTION_METRICS = {
    "beamform.run_conv_beamformer.self_s": "s",
    "beamform.estimate_retf.calls": "count",
    "beamform.estimate_retf.self_s": "s",
    "beamform.weighted_correlations.calls": "count",
    "beamform.weighted_correlations.self_s": "s",
    "linalg.max_generalized_eigvec.calls": "count",
    "linalg.max_generalized_eigvec.self_s": "s",
    "linalg.hermitian_solve.calls": "count",
    "linalg.hermitian_solve.self_s": "s",
    "scene.calibrate_noise_gain.self_s": "s",
    "scene.calibrate_noise_gain.total_s": "s",
    "scene.render.calls": "count",
    "scene.render.self_s": "s",
    "metrics.fwssnr.calls": "count",
    "metrics.fwssnr.self_s": "s",
    "aad.train_decoder.calls": "count",
    "aad.train_decoder.self_s": "s",
    "aad.extract_envelope.self_s": "s",
    "aad.make_synthetic_trial_set.self_s": "s",
    "stft.analyze.self_s": "s",
    "stft.synthesize.self_s": "s",
    "masks.oracle_irm.self_s": "s",
    "tensorfile.read_tensor.self_s": "s",
    "tensorfile.write_tensor.self_s": "s",
    "cli.read_wav.self_s": "s",
    "cli.write_wav.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.cmd_enhance.self_s": "s",
    "cli.cmd_decode.self_s": "s",
    "cli.cmd_evaluate.self_s": "s",
}

COUNTER_METRICS = {
    "beamform.bins_solved": "count",
    "beamform.failed_bins": "count",
    "beamform.max_constraint_residual": "abs",
    "metrics.fwssnr.samples": "count",
    "aad.train_decoder.trials_in": "count",
    "stft.analyze.samples": "count",
    "tensorfile.read_tensor.bytes": "B",
    "tensorfile.write_tensor.bytes": "B",
    "cli.read_wav.bytes": "B",
    "cli.write_wav.bytes": "B",
}


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced pipeline, keyed by metric name."""
    stats = function_stats(spans)
    out = {}
    for layer in LAYERS:
        mine = [s for name, s in stats.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
        out[f"{layer}.calls"] = sum(s["calls"] for s in mine)
    for metric in FUNCTION_METRICS:
        fn_name, stat = metric.rsplit(".", 1)
        out[metric] = stats.get(fn_name, {}).get(stat, 0)
    for metric in COUNTER_METRICS:
        out[metric] = counters.get(metric, 0)
    out["metrics.fwssnr.calls_in_calibration"] = sum(
        1
        for i, span in enumerate(spans)
        if span[0] == "metrics.fwssnr" and _has_ancestor(spans, i, "scene.calibrate_noise_gain")
    )
    return out


def metric_units():
    """Unit of every metric ``layer_metrics`` returns."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{layer}.calls": "count" for layer in LAYERS})
    units.update(FUNCTION_METRICS)
    units.update(COUNTER_METRICS)
    units["metrics.fwssnr.calls_in_calibration"] = "count"
    units["beamform.delta_fwssnr_oracle_db"] = "dB"
    units["aad.accuracy_pct"] = "%"
    units["aad.delta_fwssnr_est_db"] = "dB"
    units["trace.overhead_s"] = "s"
    return units
