"""Run one ntkuq benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep_readme --seed 0 --seconds 25 --trace 0

The library is imported from the checkout's own src/ directory. The run
sets up (import, inputs from the seed, one warm-up call) and then repeats
the workload until --seconds have passed, checking every repetition's
outputs against the recorded references (see workloads.py).

--trace 0 prints the end-to-end metrics: setup_s (median of this process's
set-up and of SETUP_PROBES set-ups in fresh interpreters, half of them run
before the measurement and half after it), wall_s (mean repetition
time), ops_per_s (operations that passed their check, per second of
repetition time; an operation is one sweep cell, the analytic cell or one
ensemble member) and peak_rss_mb.
--trace 1 spends half of --seconds untraced and half traced (spans.py) and
prints the per-layer metrics of the traced repetitions.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The same record, with the
environment, every repetition time and any check failures, is written to
.perfbench_out/ in the checkout, together with the spans of a traced run.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
EXACT_UNITS = ("count", "bytes")  # per-layer metrics that must repeat exactly


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload_name, seed):
    """Import the library, make the inputs and warm up; time since START."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    api = spans.api()
    inputs = wl.make_inputs(seed, api)
    wl.warm_up(inputs, api)
    return wl, inputs, time.perf_counter() - START


def probe_setup(args):
    """Set-up time of a fresh interpreter running this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def repeat(wl, inputs, ref, budget_s, tracer=None):
    """Run the workload until budget_s has passed (at least once); check each run."""
    import spans
    import workloads

    api = spans.api()
    runs = []
    started = time.perf_counter()
    while True:
        store = tempfile.mkdtemp(prefix="store-", dir=workloads.OUT_DIR)
        if tracer is not None:
            tracer.reset_counters()
        gc.collect()
        error = None
        t0 = time.perf_counter()
        try:
            result = wl.run(inputs, api, store)
        except Exception as exc:  # a failed run is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        wall = time.perf_counter() - t0
        layers = tracer.layer_metrics() if tracer is not None else None
        shutil.rmtree(store)
        outcome = wl.check(result, ref)
        if error:
            outcome.problems.insert(0, error)
        runs.append(
            {
                "wall_s": wall,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "problems": outcome.problems,
                "layers": layers,
            }
        )
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r["wall_s"] for r in runs) > budget_s:
            return runs


def end_to_end(runs, setup_samples):
    # Means over the repetitions, not medians: co-tenant load on a shared
    # host slows erf-bound code by up to 70% for seconds at a time, and the
    # median of a run then jumps between the slow and the fast level.
    walls = [r["wall_s"] for r in runs]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "ops_per_s": (sum(r["attempted"] - r["failed"] for r in runs) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _layer_unit(name):
    if name.endswith("ms_per_member_epoch"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer(untraced, traced, dataset_layers):
    """Counts of the first traced run, mean times over traced runs."""
    per_run = [r["layers"] for r in traced]
    metrics = {}
    for name, value in per_run[0].items():
        if _layer_unit(name) in EXACT_UNITS:
            metrics[name] = value
        else:
            metrics[name] = statistics.fmean(m[name] for m in per_run)
    for name in ("datasets.calls", "datasets.busy_s"):
        metrics[name] = dataset_layers[name]
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.fmean(r["wall_s"] for r in untraced)
    metrics["trace.unattributed_s"] = statistics.fmean(
        r["wall_s"] - r["layers"]["trace.layer_sum_s"] for r in traced
    )
    unstable = sorted(
        name for name in metrics
        if _layer_unit(name) in EXACT_UNITS and any(m[name] != per_run[0][name] for m in per_run)
    )
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}, unstable


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _tree_sha256(top):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ntkuq", "__init__.py")):
        print("perfbench: %s has no src/ntkuq; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl, inputs, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import ntkuq
    import spans

    if os.path.dirname(os.path.abspath(ntkuq.__file__)) != os.path.join(SRC, "ntkuq"):
        print("perfbench: imported ntkuq from %s, not from %s" % (ntkuq.__file__, SRC),
              file=sys.stderr)
        return 2
    ref = workloads.load_refs(wl.name)["entries"][str(workloads.input_index(args.seed))]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)

    if args.trace:
        untraced = repeat(wl, inputs, ref, args.seconds / 2)
        tracer = spans.Tracer("%s-%d-%d" % (tag, os.getpid(), time.time_ns()))
        tracer.install()
        try:
            inputs = wl.make_inputs(args.seed, spans.api())
            dataset_layers = tracer.layer_metrics()
            traced = repeat(wl, inputs, ref, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(workloads.OUT_DIR, tag + ".spans.jsonl"))
        runs = untraced + traced
        metrics, unstable = per_layer(untraced, traced, dataset_layers)
    else:
        setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES // 2)]
        runs = repeat(wl, inputs, ref, args.seconds)
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = end_to_end(runs, setup_samples)
        unstable = []

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "input_index": workloads.input_index(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "repetitions": len(runs),
        "wall_s": [r["wall_s"] for r in runs],
        "problems": problems[:50],
        "unstable_counts": unstable,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["setup_samples_s"] = setup_samples
    with open(os.path.join(workloads.OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("environment", json.dumps(record["environment"]))
    print("repetitions %d (%d operations each)" % (len(runs), runs[0]["attempted"]))
    for p in problems[:20]:
        print("check failed:", p)
    for name in unstable:
        print("count differs between traced repetitions:", name)
    for name, (value, unit) in metrics.items():
        print("%-36s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
