"""In-memory spans around the public ntkuq calls a workload makes.

Tracing is applied from outside the library: `Tracer.install()` replaces
the module attributes through which ntkuq looks up its own public
functions (for example `ntkuq.experiment.build_kernel_pair`) with timing
wrappers, and `Tracer.uninstall()` restores them. Untraced runs never
install it, so their timings contain no wrapper cost.

A span is (run id, span id, parent span id, name, start, end). Names are
"<layer>.<function>", where the layer is the ntkuq module. A span's self
time is its duration minus the durations of its children; the self times
of all spans add up to the duration of the top-level spans.
"""

import functools
import importlib
import itertools
import json
import os
import time

# (layer, function, modules whose attribute of that name is replaced).
# The library module itself is listed first; the others are the modules
# that call the function through their own imported name.
WRAPPED = [
    ("datasets", "make_synthetic", ["datasets"]),
    ("kernels", "build_kernel_pair", ["kernels", "experiment"]),
    ("infwidth", "closed_form_posterior", ["infwidth", "experiment"]),
    ("infwidth", "bayesian_posterior", ["infwidth", "experiment"]),
    ("infwidth", "gd_evolve", ["infwidth", "experiment"]),
    ("loss_stats", "loss_stats", ["loss_stats", "experiment"]),
    ("finite_width", "run_ensemble", ["finite_width", "experiment"]),
    ("finite_width", "gd_epoch", ["finite_width"]),
    ("finite_width", "mse_loss", ["finite_width"]),
    ("scaling", "fit_power_law", ["scaling", "experiment"]),
    ("scaling", "epsilon_flatness_check", ["scaling", "experiment"]),
    ("experiment", "run_plan", ["experiment"]),
]

LAYERS = ["datasets", "kernels", "infwidth", "loss_stats", "finite_width", "scaling", "experiment"]


class Tracer:
    """Collects spans and per-layer counters for one benchmark run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = []
        self._saved = []
        self.reset_counters()

    def reset_counters(self):
        """Start a new window: layer_metrics() covers only what follows."""
        self.first_span = len(self.spans)
        self.counters = {
            "kernels.matrix_elements": 0,
            "infwidth.fallbacks": 0,
            "infwidth.gd_evolve.steps": 0,
            "finite_width.members": 0,
            "finite_width.epochs": 0,
            "scaling.fits": 0,
            "experiment.cells": 0,
            "experiment.skipped": 0,
            "experiment.store_bytes": 0,
        }
        self.kernel_points = set()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else 0
            span_id = next(self._ids)
            self._stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (span_id, parent, name, start, end, type(error).__name__ if error else None)
                )
                if observe is not None:
                    observe(args, kwargs, None if error else result, error)
            return result

        return traced

    def install(self):
        """Replace each wrapped function in every module that calls it."""
        for layer, func, modules in WRAPPED:
            original = getattr(_module(layer), func)
            wrapper = self.wrap("%s.%s" % (layer, func), original)
            for mod_name in modules:
                mod = _module(mod_name)
                self._saved.append((mod, func, getattr(mod, func)))
                setattr(mod, func, wrapper)

    def uninstall(self):
        while self._saved:
            mod, func, original = self._saved.pop()
            setattr(mod, func, original)

    # -- counters observed at the call boundaries ---------------------------

    def _observe_build_kernel_pair(self, args, kwargs, result, error):
        inputs = args[0] if args else kwargs["inputs"]
        points = getattr(inputs, "points", inputs)
        self.counters["kernels.matrix_elements"] += len(points) ** 2
        self.kernel_points.update(row.tobytes() for row in points)

    def _observe_closed_form_posterior(self, args, kwargs, result, error):
        if error is not None and type(error).__name__ == "IllConditionedError":
            self.counters["infwidth.fallbacks"] += 1

    def _observe_gd_evolve(self, args, kwargs, result, error):
        if result is not None:
            self.counters["infwidth.gd_evolve.steps"] += int(result.steps_used)

    def _observe_run_ensemble(self, args, kwargs, result, error):
        if result is not None:
            self.counters["finite_width.members"] += len(result.records)
            self.counters["finite_width.epochs"] += sum(r.epochs_run for r in result.records)

    def _observe_run_plan(self, args, kwargs, result, error):
        if result is not None:
            self.counters["experiment.cells"] += len(result.infwidth_rows)
            self.counters["experiment.skipped"] += len(result.skipped)
            self.counters["experiment.store_bytes"] += sum(
                os.path.getsize(os.path.join(result.output_dir, f))
                for f in os.listdir(result.output_dir)
            )

    def _observe_fit_power_law(self, args, kwargs, result, error):
        if result is not None:
            self.counters["scaling.fits"] += 1

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and times over the spans since reset_counters()."""
        spans = self.spans[self.first_span :]
        child_time = {}
        for span_id, parent, name, start, end, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        calls = {}
        inclusive = {}
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        top_level = 0.0
        for span_id, parent, name, start, end, _ in spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration
            self_by_layer[name.split(".")[0]] += duration - child_time.get(span_id, 0.0)
            if parent == 0:
                top_level += duration

        def n(name):
            return calls.get(name, 0)

        def t(name):
            return inclusive.get(name, 0.0)

        c = self.counters
        union = len(self.kernel_points)
        epochs = c["finite_width.epochs"]
        return {
            "datasets.calls": n("datasets.make_synthetic"),
            "datasets.busy_s": self_by_layer["datasets"],
            "kernels.calls": n("kernels.build_kernel_pair"),
            "kernels.busy_s": self_by_layer["kernels"],
            "kernels.matrix_elements": c["kernels.matrix_elements"],
            "kernels.useful_ratio": (
                union**2 / c["kernels.matrix_elements"] if c["kernels.matrix_elements"] else 0.0
            ),
            "infwidth.busy_s": self_by_layer["infwidth"],
            "infwidth.closed_form.calls": n("infwidth.closed_form_posterior"),
            "infwidth.closed_form.busy_s": t("infwidth.closed_form_posterior"),
            "infwidth.bayesian.calls": n("infwidth.bayesian_posterior"),
            "infwidth.bayesian.busy_s": t("infwidth.bayesian_posterior"),
            "infwidth.fallbacks": c["infwidth.fallbacks"],
            "infwidth.gd_evolve.calls": n("infwidth.gd_evolve"),
            "infwidth.gd_evolve.busy_s": t("infwidth.gd_evolve"),
            "infwidth.gd_evolve.steps": c["infwidth.gd_evolve.steps"],
            "loss_stats.calls": n("loss_stats.loss_stats"),
            "loss_stats.busy_s": self_by_layer["loss_stats"],
            "finite_width.members": c["finite_width.members"],
            "finite_width.epochs": epochs,
            "finite_width.busy_s": self_by_layer["finite_width"],
            "finite_width.gd_epoch.busy_s": t("finite_width.gd_epoch"),
            "finite_width.mse_loss.calls": n("finite_width.mse_loss"),
            "finite_width.mse_loss.busy_s": t("finite_width.mse_loss"),
            "finite_width.ms_per_member_epoch": (
                1e3 * self_by_layer["finite_width"] / epochs if epochs else 0.0
            ),
            "scaling.fits": c["scaling.fits"],
            "scaling.busy_s": self_by_layer["scaling"],
            "experiment.cells": c["experiment.cells"],
            "experiment.skipped": c["experiment.skipped"],
            "experiment.self_s": self_by_layer["experiment"],
            "experiment.store_bytes": c["experiment.store_bytes"],
            "trace.spans": len(spans),
            "trace.layer_sum_s": top_level,
        }

    def write(self, path):
        with open(path, "w") as f:
            for span_id, parent, name, start, end, error in self.spans:
                rec = {
                    "run": self.run_id,
                    "span": span_id,
                    "parent": parent or None,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                if error:
                    rec["error"] = error
                f.write(json.dumps(rec) + "\n")


def api():
    """The wrapped public functions by name, as currently installed."""
    return {func: getattr(_module(layer), func) for layer, func, _ in WRAPPED}


def _module(layer):
    return importlib.import_module("ntkuq." + layer)
