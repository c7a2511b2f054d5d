"""The benchmark's workloads: inputs made from a seed, one run, output checks.

Why these four:
  sweep_readme        the README plan, the default user path: one kernel
                      build and one closed-form posterior per size.
  sweep_lambda_bayes  the README plan up to 512 points, over lambda_b =
                      0.5,1,2,4 with the Bayesian series: 32 kernel builds
                      over 4 point sets, so it shows kernel sharing and the
                      Bayesian route.
  sweep_fallback      a low-dimensional regression whose largest size fails
                      the rcond gate, so it is the one workload that runs
                      the iterated GD map (gd_evolve).
  ensemble_cell       one finite-width ensemble cell shaped like acceptance
                      criterion 5, with a fixed number of epochs; its time
                      is all in finite_width.

The workload seed picks one of TABLE_SIZE input sets (seed mod TABLE_SIZE),
because every run checks its outputs against references recorded for
those input sets (refs/<workload>.json, written by record_refs.py).
"""

from dataclasses import dataclass, field
import json
import math
import os

import numpy as np

from ntkuq import ArchitectureConfig, ExperimentPlan, InputSet, TrainConfig

TABLE_SIZE = 16
# max_steps that ntkuq.experiment hands to gd_evolve for a fallback cell.
GD_MAX_STEPS = 1_000_000
# The first 16 data seeds on which sweep_fallback's GD-map cell runs to
# GD_MAX_STEPS (seeds 5, 8, 14 and 15 stop early on patience).
DATA_SEEDS_FALLBACK = (0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 16, 17, 18, 19)
REL_TOL = 1e-10
FIT_TOL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
# Results, spans and the workloads' scratch stores, inside the checkout.
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")


def input_index(seed):
    return int(seed) % TABLE_SIZE


def rel_close(a, b, tol):
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(abs(b), 1e-300)


def load_refs(name):
    with open(os.path.join(REFS_DIR, name + ".json")) as f:
        return json.load(f)


@dataclass
class Outcome:
    """Operations attempted and failed in one workload run."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def _teacher_arch(input_dim):
    return ArchitectureConfig(depth=3, input_dim=input_dim, hidden_width=32, n_out=1)


# -- sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    name: str
    generator: str
    input_dim: int
    depth: int
    sizes: tuple
    test_size: int
    val_size: int
    lambda_b_sweep: tuple = ()
    bayesian: bool = False
    # Data seeds of the input sets; empty means data seed = input index.
    data_seeds: tuple = ()
    # Sizes whose cell must take the GD-map route and run to GD_MAX_STEPS
    # when references are recorded; every other cell must be closed-form.
    iterative_sizes: tuple = ()

    def make_inputs(self, seed, api):
        index = input_index(seed)
        data_seed = self.data_seeds[index] if self.data_seeds else index
        n_points = self.test_size + self.val_size + max(self.sizes)
        dataset = api["make_synthetic"](
            self.generator,
            n_points,
            self.input_dim,
            data_seed,
            teacher_arch=_teacher_arch(self.input_dim),
        )
        return {"data_seed": data_seed, "dataset": dataset}

    def plan(self, inputs, store_dir):
        return ExperimentPlan(
            sizes=list(self.sizes),
            arch=ArchitectureConfig(depth=self.depth, input_dim=self.input_dim),
            output_dir=store_dir,
            master_seed=inputs["data_seed"],
            test_size=self.test_size,
            val_size=self.val_size,
            bayesian=self.bayesian,
            lambda_b_sweep=list(self.lambda_b_sweep),
        )

    def warm_up(self, inputs, api):
        """One closed-form cell at the smallest size."""
        ds = inputs["dataset"]
        n_train = min(self.sizes)
        n = n_train + self.test_size
        X = ds.inputs.points[:n]
        arch = ArchitectureConfig(depth=self.depth, input_dim=self.input_dim)
        kp = api["build_kernel_pair"](InputSet(X), arch)
        post = api["closed_form_posterior"](
            kp, np.arange(n_train), np.arange(n_train, n), ds.labels[:n_train]
        )
        api["loss_stats"](post, ds.labels[n_train:n])

    def run(self, inputs, api, store_dir):
        return api["run_plan"](self.plan(inputs, store_dir), inputs["dataset"])

    def reference(self, result):
        return {
            "cells": [
                [r[0], int(r[1]), float(r[2]), float(r[3]), float(r[4]), float(r[5]), r[6], int(r[7])]
                for r in result.infwidth_rows
            ]
        }

    def check(self, result, ref):
        expected = {(c[0], c[1], c[2]): c[3:] for c in ref["cells"]}
        out = Outcome(attempted=len(expected), failed=0)
        if result is None:
            out.failed = out.attempted
            out.problems.append("run raised")
            return out
        bad = set()
        seen = set()
        for row in result.infwidth_rows:
            key = (row[0], int(row[1]), float(row[2]))
            want = expected.get(key)
            if want is None or key in seen:
                out.problems.append("unexpected row %r" % (key,))
                bad.add(key)
                continue
            seen.add(key)
            mu, var, eps, method, steps = want
            got = (float(row[3]), float(row[4]), float(row[5]))
            if not all(rel_close(g, w, REL_TOL) for g, w in zip(got, (mu, var, eps))):
                out.problems.append("%r: (mu, var, eps) %r != %r" % (key, got, (mu, var, eps)))
                bad.add(key)
            if row[6] != method or int(row[7]) != steps:
                out.problems.append(
                    "%r: route %s/%s != %s/%s" % (key, row[6], row[7], method, steps)
                )
                bad.add(key)
        for key in expected:
            if key not in seen:
                out.problems.append("%r: no row" % (key,))
                bad.add(key)
        for series in self._bad_fit_series(result, out.problems):
            bad.update(k for k in expected if k[0] == series)
        out.attempted += len(bad - set(expected))
        out.failed = len(bad)
        return out

    def _bad_fit_series(self, result, problems):
        """Series whose fits or flatness verdict disagree with the run's rows."""
        groups = {}
        for row in result.infwidth_rows:
            groups.setdefault((row[0], float(row[2])), []).append(
                (int(row[1]), float(row[3]), float(row[4]), float(row[5]))
            )
        bad = set()
        for name, fit in result.fits.items():
            tokens = name.split(":")
            series = tokens[0]
            quantity = next((t for t in tokens if t in ("mu_L", "sigma_L", "eps_L")), None)
            candidates = [
                _ols(rows, quantity)
                for (s, _), rows in groups.items()
                if s == series and quantity is not None
            ]
            if not any(c is not None and _fit_matches(fit, c) for c in candidates):
                problems.append("fit %s does not match an OLS of the run's rows" % name)
                bad.add(series)
        eps_fit = result.fits.get("infinite:eps_L")
        want = _flatness_rule(eps_fit)
        if result.flatness.verdict != want:
            problems.append("flatness %s, expected %s" % (result.flatness.verdict, want))
            bad.add("infinite")
        return bad


def _ols(rows, quantity):
    """Independent OLS of log10(value) on log10(N_D) by least squares."""
    col = {"mu_L": lambda r: r[1], "sigma_L": lambda r: math.sqrt(r[2]), "eps_L": lambda r: r[3]}
    pts = [(r[0], col[quantity](r)) for r in rows]
    pts = [(n, v) for n, v in pts if math.isfinite(v) and v > 0]
    if len(pts) < 3 or len({n for n, _ in pts}) != len(pts):
        return None
    x = np.log10([n for n, _ in pts])
    y = np.log10([v for _, v in pts])
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ np.array([slope, intercept])
    ssr = float(resid @ resid)
    cov = np.linalg.inv(A.T @ A) * ssr / (len(pts) - 2)
    syy = float(np.sum((y - y.mean()) ** 2))
    return {
        "exponent": float(slope),
        "intercept": float(intercept),
        "slope_sigma": float(np.sqrt(cov[0, 0])),
        "n_points": len(pts),
        "r_squared": 1.0 - ssr / syy if syy > 0 else 1.0,
    }


def _fit_matches(fit, want):
    return fit.n_points == want["n_points"] and all(
        abs(getattr(fit, key) - want[key]) <= FIT_TOL * max(1.0, abs(want[key]))
        for key in ("exponent", "intercept", "slope_sigma", "r_squared")
    )


def _flatness_rule(fit, threshold=0.15):
    if fit is None or fit.n_points < 4:
        return "indeterminate"
    flat = abs(fit.exponent) <= threshold or abs(fit.exponent) <= 2.0 * fit.slope_sigma
    return "pass" if flat else "fail"


# -- ensemble ----------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleCell:
    name: str
    input_dim: int = 8
    depth: int = 2
    width: int = 512
    n_train: int = 16
    n_val: int = 16
    n_test: int = 32
    members: int = 4
    epochs: int = 1000
    base_seed: int = 100

    def make_inputs(self, seed, api):
        index = input_index(seed)
        n_points = self.n_train + self.n_val + self.n_test
        dataset = api["make_synthetic"](
            "teacher", n_points, self.input_dim, index, teacher_arch=_teacher_arch(self.input_dim)
        )
        perm = np.random.default_rng(index).permutation(n_points)
        te = perm[: self.n_test]
        va = perm[self.n_test : self.n_test + self.n_val]
        tr = perm[self.n_test + self.n_val :]
        X, Y = dataset.inputs.points, dataset.labels
        split = dict(
            x_train=X[tr], y_train=Y[tr], x_val=X[va], y_val=Y[va], x_test=X[te], y_test=Y[te]
        )
        arch = ArchitectureConfig(depth=self.depth, input_dim=self.input_dim, hidden_width=self.width)
        return {"split": split, "arch": arch}

    def warm_up(self, inputs, api):
        """A two-member ensemble of ten epochs."""
        cfg = TrainConfig(eta=0.1, max_epochs=10, patience=11)
        api["run_ensemble"](inputs["split"], inputs["arch"], cfg, 2, self.base_seed)

    def run(self, inputs, api, store_dir):
        """Analytic prediction plus the trained ensemble it is compared with."""
        split, arch = inputs["split"], inputs["arch"]
        n = self.n_train
        kp = api["build_kernel_pair"](InputSet(np.vstack([split["x_train"], split["x_test"]])), arch)
        post = api["closed_form_posterior"](
            kp, np.arange(n), np.arange(n, n + self.n_test), split["y_train"]
        )
        analytic = api["loss_stats"](post, split["y_test"])
        eta = 1.0 / float(np.max(np.linalg.eigvalsh(kp.Theta[:n, :n])))
        # patience above max_epochs: every member runs exactly `epochs` epochs.
        cfg = TrainConfig(eta=eta, patience=self.epochs + 1, max_epochs=self.epochs)
        summary = api["run_ensemble"](split, arch, cfg, self.members, self.base_seed)
        return {"analytic": analytic, "method": post.method, "summary": summary}

    def reference(self, result):
        a, s = result["analytic"], result["summary"]
        return {
            "analytic": [a.mu_L, a.var_L, a.eps_L, result["method"]],
            "summary": [s.mu_L, s.var_L, s.eps_L, s.eps_se, s.n_ok, s.n_diverged],
            "records": [
                [r.seed, r.final_test_loss, r.best_val_loss, r.epochs_run, r.stop_reason]
                for r in s.records
            ],
        }

    def check(self, result, ref):
        out = Outcome(attempted=1 + len(ref["records"]), failed=0)
        if result is None:
            out.failed = out.attempted
            out.problems.append("run raised")
            return out
        a = result["analytic"]
        mu, var, eps, method = ref["analytic"]
        if not (
            all(rel_close(g, w, REL_TOL) for g, w in zip((a.mu_L, a.var_L, a.eps_L), (mu, var, eps)))
            and result["method"] == method
        ):
            out.problems.append("analytic cell differs from reference")
            out.failed += 1
        s = result["summary"]
        got = self.reference(result)
        summary_ok = all(
            rel_close(g, w, REL_TOL) for g, w in zip(got["summary"][:4], ref["summary"][:4])
        ) and got["summary"][4:] == ref["summary"][4:]
        if not summary_ok:
            out.problems.append("ensemble summary %r != %r" % (got["summary"], ref["summary"]))
        for i, want in enumerate(ref["records"]):
            rec = got["records"][i] if i < len(got["records"]) else None
            ok = (
                summary_ok
                and rec is not None
                and rec[0] == want[0]
                and rel_close(rec[1], want[1], REL_TOL)
                and rel_close(rec[2], want[2], REL_TOL)
                and rec[3:] == want[3:]
            )
            if not ok:
                out.failed += 1
                if rec is not None and summary_ok:
                    out.problems.append("member %d: %r != %r" % (i, rec, want))
        extra = len(s.records) - len(ref["records"])
        if extra > 0:
            out.problems.append("%d unexpected members" % extra)
            out.failed += extra
        return out


WORKLOADS = {
    w.name: w
    for w in [
        Sweep(
            name="sweep_readme",
            generator="teacher",
            input_dim=16,
            depth=3,
            sizes=(64, 128, 256, 512, 1024),
            test_size=256,
            val_size=16,
        ),
        # The README sizes stop at 512 here: with 1024, one repetition takes
        # about 10 s and a run holds too few of them for a steady mean.
        Sweep(
            name="sweep_lambda_bayes",
            generator="teacher",
            input_dim=16,
            depth=3,
            sizes=(64, 128, 256, 512),
            test_size=256,
            val_size=16,
            lambda_b_sweep=(0.5, 1.0, 2.0, 4.0),
            bayesian=True,
        ),
        # Only the 128-point cell fails the rcond gate. Early stopping ends
        # the GD map anywhere from 10^4 to GD_MAX_STEPS steps depending on
        # the data, so the input sets are the data seeds on which it runs to
        # GD_MAX_STEPS: every run then does the same 10^4 GD-map checks.
        Sweep(
            name="sweep_fallback",
            generator="sinusoid",
            input_dim=2,
            depth=3,
            sizes=(8, 16, 32, 128),
            test_size=32,
            val_size=16,
            data_seeds=DATA_SEEDS_FALLBACK,
            iterative_sizes=(128,),
        ),
        EnsembleCell(name="ensemble_cell"),
    ]
}
