"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_refs.py [--workload NAME ...]

Runs each workload once per input set (0 .. TABLE_SIZE-1) with the
checkout's src/ntkuq and writes perfbench/refs/<workload>.json. Refuses to
record a run in which an operation fails: a skipped cell, a diverged
ensemble member, or fits and a flatness verdict that disagree with the
run's own rows. Fits are not recorded: each run re-derives them by OLS.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def record(wl):
    api = spans.api()
    entries = {}
    for index in range(workloads.TABLE_SIZE):
        inputs = wl.make_inputs(index, api)
        store = tempfile.mkdtemp(prefix="refs-", dir=workloads.OUT_DIR)
        try:
            result = wl.run(inputs, api, store)
        finally:
            shutil.rmtree(store)
        ref = wl.reference(result)
        if getattr(result, "skipped", None):
            raise SystemExit("%s input %d: skipped cells %r" % (wl.name, index, result.skipped))
        if isinstance(result, dict) and result["summary"].n_diverged:
            raise SystemExit("%s input %d: diverged members" % (wl.name, index))
        for series, n_d, _, _, _, _, method, steps in ref.get("cells", []):
            if n_d in wl.iterative_sizes:
                expected = ("iterative", workloads.GD_MAX_STEPS)
            else:
                expected = ("closed_form" if series == "infinite" else "bayesian", 0)
            if (method, steps) != expected:
                raise SystemExit(
                    "%s input %d: %s cell at N_D=%d took %s/%d"
                    % (wl.name, index, series, n_d, method, steps)
                )
        outcome = wl.check(result, ref)
        if outcome.failed or outcome.problems:
            raise SystemExit("%s input %d: %s" % (wl.name, index, outcome.problems))
        entries[str(index)] = ref
        print("%s input %d recorded" % (wl.name, index), flush=True)
    path = os.path.join(workloads.REFS_DIR, wl.name + ".json")
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "table_size": workloads.TABLE_SIZE, "entries": entries}, f)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        record(workloads.WORKLOADS[name])


if __name__ == "__main__":
    main()
