"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload it checks that
  * two traced runs with the same seed report identical per-layer counts
    (every metric with unit "count" or "bytes"), and both runs are correct;
  * a run with a second seed is correct too;
  * a reference value altered beyond the tolerance registers as a failed
    operation, while the unaltered reference gives none.
It takes a few minutes; exit code 0 means every check passed.
"""

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "bytes")


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (cmd, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(name, ref):
    """A copy of ref with one value moved beyond the check's tolerance."""
    bad = copy.deepcopy(ref)
    if "cells" in bad:
        bad["cells"][1][3] *= 1.0 + 1e3 * workloads.REL_TOL  # one cell's mu_L
    else:
        bad["records"][1][3] += 1  # one member's epochs_run
    return bad


def check_corruption(name, failures):
    wl = workloads.WORKLOADS[name]
    ref = workloads.load_refs(name)["entries"]["0"]
    api = spans.api()
    store = tempfile.mkdtemp(prefix="selftest-", dir=workloads.OUT_DIR)
    try:
        result = wl.run(wl.make_inputs(0, api), api, store)
    finally:
        shutil.rmtree(store)
    clean = wl.check(result, ref)
    broken = wl.check(result, corrupt(name, ref))
    if clean.failed:
        failures.append("%s: unaltered reference gives %d failed" % (name, clean.failed))
    if broken.failed != 1:
        failures.append("%s: altered reference gives %d failed, expected 1" % (name, broken.failed))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    failures = []
    for name in args.workload or workloads.WORKLOADS:
        before = len(failures)
        first, second = bench(name, 7, 1), bench(name, 7, 1)
        other = bench(name, 8, 0)
        for label, out in (("traced seed 7", first), ("traced seed 7 again", second),
                           ("seed 8", other)):
            if not out["correct"] or out["failed"]:
                failures.append("%s, %s: not correct (%d failed)" % (name, label, out["failed"]))
        for metric, entry in first["metrics"].items():
            if entry["unit"] in EXACT_UNITS and entry != second["metrics"][metric]:
                failures.append("%s: %s differs between runs: %r vs %r"
                                % (name, metric, entry["value"], second["metrics"][metric]["value"]))
        check_corruption(name, failures)
        print("%s: %s" % (name, "ok" if len(failures) == before else "FAILED"), flush=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
