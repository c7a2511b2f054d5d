"""Experiment plans: train-size sweeps, lambda_b sweeps, result persistence.

A plan fixes a master seed, a test/validation split that is byte-identical
across all training sizes, and nested training subsets, then runs the
infinite-width (and optionally Bayesian and finite-width) pipeline for
each cell and persists rows for plotting and power-law fitting.

The analytic cells of one lambda_b share a single kernel over the largest
training set plus the validation and test points; each cell indexes into
it. Only one lambda_b's kernel is alive at a time, so peak memory is the
largest cell's kernel. Bayesian cells use K alone, which does not depend
on lambda_b, so each is computed once per size and its row repeated for
every lambda_b. A plan whose analytic cells are all Bayesian builds one
kernel.
"""

from dataclasses import dataclass, field, replace
import csv
import hashlib
import json
import os

import numpy as np

from .errors import IllConditionedError, NtkuqError
from .kernels import ArchitectureConfig, InputSet, build_kernel_pair
from .infwidth import (
    EarlyStopPolicy,
    PredictivePosterior,
    bayesian_posterior,
    closed_form_posterior,
    gd_evolve,
)
from .loss_stats import loss_stats
from .finite_width import TrainConfig, _jackknife_se, run_ensemble
from .scaling import epsilon_flatness_check, fit_power_law

__all__ = ["ExperimentPlan", "RunResult", "run_plan", "emit_plot_data", "load_plan_file"]

_FMT = "%.17g"

INFWIDTH_COLUMNS = [
    "series",
    "N_D",
    "lambda_b",
    "mu_L",
    "var_L",
    "eps_L",
    "method",
    "steps_used",
    "config_hash",
    "master_seed",
]
SUMMARY_COLUMNS = ["N_D", "width", "optimizer", "mu_L", "var_L", "eps_L", "n_ok", "n_diverged"]
FIT_COLUMNS = ["quantity", "n_points", "exponent", "slope_sigma", "intercept", "r_squared"]


@dataclass(frozen=True)
class ExperimentPlan:
    sizes: list
    arch: ArchitectureConfig
    output_dir: str
    master_seed: int = 0
    test_size: int = 64
    val_size: int = 16
    ensemble_size: int = 0
    train_cfg: TrainConfig = None
    infinite_width: bool = True
    bayesian: bool = False
    lambda_b_sweep: list = field(default_factory=list)

    def __post_init__(self):
        sizes = [int(s) for s in self.sizes]
        if sizes != sorted(sizes):
            raise ValueError("sizes must be sorted ascending")
        if len(set(sizes)) != len(sizes):
            raise ValueError("sizes must be distinct")
        object.__setattr__(self, "sizes", sizes)
        if self.test_size < 1 or self.val_size < 1:
            raise ValueError("test_size and val_size must be >= 1")


@dataclass(frozen=True)
class RunResult:
    output_dir: str
    infwidth_rows: list
    summary_rows: list
    fits: dict
    flatness: object
    skipped: list
    config_hash: str


def _config_hash(plan):
    parts = []
    for key in sorted(plan.__dataclass_fields__):
        parts.append("%s=%r" % (key, getattr(plan, key)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _append_csv(path, columns, rows):
    new = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if new:
            writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def _fmt(value):
    if isinstance(value, float):
        return _FMT % value
    return value


def _splits(plan, dataset):
    """Fixed test/validation split plus nested train subsets per size."""
    rng = np.random.default_rng(plan.master_seed)
    perm = rng.permutation(dataset.count)
    needed = plan.test_size + plan.val_size + max(plan.sizes)
    if needed > dataset.count:
        raise ValueError(
            "plan needs %d points but dataset has %d" % (needed, dataset.count)
        )
    test_ids = perm[: plan.test_size]
    val_ids = perm[plan.test_size : plan.test_size + plan.val_size]
    pool = perm[plan.test_size + plan.val_size :]
    return test_ids, val_ids, pool


def _infinite_cell(kp, labels, train_ids, val_ids, test_ids, bayesian):
    """Posterior over test_ids for one (size, lambda_b) cell of a shared kernel.

    Index arrays and labels refer to the rows of kp. Falls back from the
    closed form to the iterated GD map when the train NTK is
    ill-conditioned. The Bayesian path has no fallback.
    """
    y_train = labels[train_ids]
    if bayesian:
        return bayesian_posterior(kp, train_ids, test_ids, y_train)
    try:
        return closed_form_posterior(kp, train_ids, test_ids, y_train)
    except IllConditionedError:
        n_val = val_ids.size
        policy = EarlyStopPolicy(
            validation_ids=np.arange(n_val),
            validation_labels=labels[val_ids],
            patience=20,
            check_every=100,
            max_steps=1_000_000,
        )
        side_ids = np.concatenate([val_ids, test_ids])
        post = gd_evolve(kp, train_ids, side_ids, y_train, eta=None, stop=policy)
        return PredictivePosterior(
            mean=post.mean[n_val:],
            cov=post.cov[n_val:, n_val:],
            method="iterative",
            steps_used=post.steps_used,
        )


def _cell_scalars(kp, labels, n_d, val_ids, test_ids, bayesian):
    """(loss stats, method, steps_used) of one cell, or the error that skips it.

    Returns scalars only, so no posterior outlives its cell.
    """
    try:
        post = _infinite_cell(kp, labels, np.arange(n_d), val_ids, test_ids, bayesian)
    except (IllConditionedError, NtkuqError) as exc:
        return str(exc)
    return loss_stats(post, labels[test_ids]), post.method, post.steps_used


def run_plan(plan, dataset):
    """Execute every (size, lambda_b) cell of a plan and persist results."""
    os.makedirs(plan.output_dir, exist_ok=True)
    cfg_hash = _config_hash(plan)
    test_ids, val_ids, pool = _splits(plan, dataset)
    lambdas = list(plan.lambda_b_sweep) or [plan.arch.lambda_b]

    infwidth_rows = []
    summary_rows = []
    member_rows = []
    skipped = []
    series_values = {}  # (series, quantity) -> list of (N_D, value)
    series = []
    if plan.infinite_width:
        series.append(("infinite", False))
    if plan.bayesian:
        series.append(("bayesian", True))

    # Every cell trains on a prefix of pool and shares val/test, so one
    # kernel over [pool[:max N_D], val, test] holds all of a lambda_b's cells.
    n_max = max(plan.sizes)
    kernel_rows = np.concatenate([pool[:n_max], val_ids, test_ids])
    kernel_inputs = InputSet(dataset.inputs.points[kernel_rows])
    kernel_labels = dataset.labels[kernel_rows]
    kernel_val = np.arange(n_max, n_max + val_ids.size)
    kernel_test = np.arange(n_max + val_ids.size, kernel_rows.size)
    # lambda_b enters Theta only, so a Bayesian cell (which uses K alone) is
    # computed once per N_D and its scalars are reused for every lambda_b.
    bayes_cells = {}

    for lam_b in lambdas:
        arch = replace(plan.arch, lambda_b=float(lam_b))
        # Release the previous kernel before building the next; after the
        # first lambda_b, only the infinite-width cells need one.
        kp = None
        if plan.infinite_width or (plan.bayesian and not bayes_cells):
            kp = build_kernel_pair(kernel_inputs, arch)
        for n_d in plan.sizes:
            train_rows = pool[:n_d]
            cell = {"N_D": n_d, "lambda_b": float(lam_b)}
            for name, is_bayes in series:
                if is_bayes and n_d in bayes_cells:
                    outcome = bayes_cells[n_d]
                else:
                    outcome = _cell_scalars(
                        kp, kernel_labels, n_d, kernel_val, kernel_test, is_bayes
                    )
                    if is_bayes:
                        bayes_cells[n_d] = outcome
                if isinstance(outcome, str):
                    skipped.append({"series": name, **cell, "error": outcome})
                    continue
                stats, method, steps_used = outcome
                infwidth_rows.append(
                    [
                        name,
                        n_d,
                        _fmt(float(lam_b)),
                        _fmt(stats.mu_L),
                        _fmt(stats.var_L),
                        _fmt(stats.eps_L),
                        method,
                        steps_used,
                        cfg_hash,
                        plan.master_seed,
                    ]
                )
                for quantity, value in (
                    ("mu_L", stats.mu_L),
                    ("sigma_L", np.sqrt(stats.var_L)),
                    ("eps_L", stats.eps_L),
                ):
                    series_values.setdefault((name, quantity), []).append((n_d, value))

            if plan.ensemble_size >= 2:
                cfg = plan.train_cfg or TrainConfig(eta=1.0)
                eta = cfg.eta / lam_b if lam_b > 1 else cfg.eta
                cfg = replace(cfg, eta=eta, lambda_b=float(lam_b), lambda_w=arch.lambda_w)
                split = {
                    "x_train": dataset.inputs.points[train_rows],
                    "y_train": dataset.labels[train_rows],
                    "x_val": dataset.inputs.points[val_ids],
                    "y_val": dataset.labels[val_ids],
                    "x_test": dataset.inputs.points[test_ids],
                    "y_test": dataset.labels[test_ids],
                }
                base_seed = plan.master_seed + 10_000 * (
                    plan.sizes.index(n_d) + len(plan.sizes) * lambdas.index(lam_b)
                )
                summary = run_ensemble(split, arch, cfg, plan.ensemble_size, base_seed)
                summary_rows.append(
                    [
                        n_d,
                        arch.hidden_width,
                        cfg.optimizer,
                        _fmt(summary.mu_L),
                        _fmt(summary.var_L),
                        _fmt(summary.eps_L),
                        summary.n_ok,
                        summary.n_diverged,
                    ]
                )
                for rec in summary.records:
                    member_rows.append(
                        {
                            **cell,
                            "width": arch.hidden_width,
                            "optimizer": cfg.optimizer,
                            "seed": rec.seed,
                            "final_test_loss": rec.final_test_loss,
                            "best_val_loss": rec.best_val_loss,
                            "epochs_run": rec.epochs_run,
                            "stop_reason": rec.stop_reason,
                            "config_hash": cfg_hash,
                        }
                    )
                for quantity, value in (
                    ("mu_L", summary.mu_L),
                    ("sigma_L", np.sqrt(summary.var_L)),
                    ("eps_L", summary.eps_L),
                ):
                    series_values.setdefault(("finite", quantity), []).append(
                        (n_d, value)
                    )

    fits = {}
    for (name, quantity), pts in series_values.items():
        clean = [(n, v) for n, v in pts if np.isfinite(v) and v > 0]
        if len(clean) >= 3 and len({n for n, _ in clean}) == len(clean):
            fits["%s:%s" % (name, quantity)] = fit_power_law(clean)

    flatness = epsilon_flatness_check(fits.get("infinite:eps_L"))

    _append_csv(os.path.join(plan.output_dir, "infwidth.csv"), INFWIDTH_COLUMNS, infwidth_rows)
    _append_csv(
        os.path.join(plan.output_dir, "ensemble_summary.csv"), SUMMARY_COLUMNS, summary_rows
    )
    with open(os.path.join(plan.output_dir, "ensemble.jsonl"), "a") as f:
        for rec in member_rows:
            f.write(json.dumps(rec) + "\n")
    fit_rows = [
        [name, fit.n_points, _fmt(fit.exponent), _fmt(fit.slope_sigma), _fmt(fit.intercept), _fmt(fit.r_squared)]
        for name, fit in sorted(fits.items())
    ]
    _append_csv(os.path.join(plan.output_dir, "fits.csv"), FIT_COLUMNS, fit_rows)
    with open(os.path.join(plan.output_dir, "flatness.json"), "w") as f:
        json.dump(
            {
                "verdict": flatness.verdict,
                "exponent": flatness.exponent,
                "slope_sigma": flatness.slope_sigma,
                "threshold": flatness.threshold,
            },
            f,
        )
    if skipped:
        with open(os.path.join(plan.output_dir, "skipped.jsonl"), "a") as f:
            for rec in skipped:
                f.write(json.dumps(rec) + "\n")

    return RunResult(
        output_dir=plan.output_dir,
        infwidth_rows=infwidth_rows,
        summary_rows=summary_rows,
        fits=fits,
        flatness=flatness,
        skipped=skipped,
        config_hash=cfg_hash,
    )


def emit_plot_data(store_dir, quantity, out_path=None):
    """Tidy (x, y, y_err, series) rows for one quantity from a result store.

    Infinite-width and Bayesian rows come from the analytic CSV with zero
    error bars; finite-width values and errors are recomputed from the
    per-member records (jackknife for the variance-derived statistics).
    """
    if quantity not in ("mu_L", "sigma_L", "eps_L"):
        raise ValueError("unknown quantity %r" % quantity)
    rows = []

    inf_path = os.path.join(store_dir, "infwidth.csv")
    if os.path.exists(inf_path):
        with open(inf_path, newline="") as f:
            for rec in csv.DictReader(f):
                if quantity == "sigma_L":
                    y = float(np.sqrt(float(rec["var_L"])))
                else:
                    y = float(rec[quantity])
                rows.append((float(rec["N_D"]), y, 0.0, rec["series"]))

    ens_path = os.path.join(store_dir, "ensemble.jsonl")
    if os.path.exists(ens_path):
        groups = {}
        with open(ens_path) as f:
            for line in f:
                rec = json.loads(line)
                if rec["stop_reason"] == "divergence":
                    continue
                groups.setdefault(rec["N_D"], []).append(rec["final_test_loss"])
        for n_d, losses in sorted(groups.items()):
            arr = np.asarray(losses)
            if arr.size < 2:
                continue
            if quantity == "mu_L":
                y = float(arr.mean())
                y_err = float(arr.std(ddof=1) / np.sqrt(arr.size))
            elif quantity == "sigma_L":
                y = float(arr.std(ddof=1))
                y_err = _jackknife_se(arr, lambda a: a.std(ddof=1))
            else:
                y = float(arr.std(ddof=1) / arr.mean())
                y_err = _jackknife_se(arr, lambda a: a.std(ddof=1) / a.mean())
            rows.append((float(n_d), y, y_err, "finite"))

    if not rows:
        raise ValueError("no rows found for quantity %r in %s" % (quantity, store_dir))
    rows.sort(key=lambda r: (r[3], r[0]))
    if out_path is not None:
        with open(out_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["x", "y", "y_err", "series"])
            for x, y, y_err, series in rows:
                writer.writerow([_fmt(x), _fmt(y), _fmt(y_err), series])
    return rows


def load_plan_file(path):
    """Parse a key = value plan file into keyword arguments.

    Recognized keys mirror ExperimentPlan and its nested configs; list
    values are comma-separated. A key given twice raises ValueError.
    """
    raw = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("bad plan line %r" % line)
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ValueError("plan key %s given twice" % key)
            raw[key] = value
    return raw
