"""Experiment plans: train-size sweeps, lambda_b sweeps, result persistence.

A plan fixes a master seed, a test/validation split that is byte-identical
across all training sizes, and nested training subsets, then runs the
infinite-width (and optionally Bayesian and finite-width) pipeline for
each cell and persists rows for plotting and power-law fitting.

The analytic cells of one lambda_b share a single kernel over the largest
training set plus the validation and test points; each cell indexes into
it. Only one lambda_b's kernel is alive at a time, so peak memory is the
largest cell's kernel. Bayesian cells use K alone, which does not depend
on lambda_b, so each is computed once per size and its row, or its skip
record, repeated for every lambda_b. A plan whose analytic cells are all
Bayesian builds one kernel.
"""

from dataclasses import asdict, dataclass, field, replace
import csv
import hashlib
import io
import json
import os

import numpy as np

from .errors import IllConditionedError, NtkuqError
from .datasets import DATASET_SETTINGS, dataset_from_spec, read_setting, split_arrays, split_ids
from .kernels import ArchitectureConfig, InputSet, build_kernel_pair
from .infwidth import bayesian_posterior, closed_form_posterior, gd_evolve
from .loss_stats import loss_stats
from .finite_width import TrainConfig, run_ensemble
from .scaling import epsilon_flatness_check, fit_power_law

__all__ = [
    "ExperimentPlan", "RunResult", "run_plan", "emit_plot_data", "load_plan_file", "plan_from_file"
]

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
SUMMARY_COLUMNS = [
    "N_D", "lambda_b", "width", "optimizer", "mu_L", "var_L", "eps_L", "mu_L_se", "sigma_L_se",
    "eps_L_se", "n_ok", "n_diverged",
]
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
        if not sizes or sizes[0] < 1:
            raise ValueError("sizes must be a non-empty list of sizes >= 1")
        if sizes != sorted(sizes):
            raise ValueError("sizes must be sorted ascending")
        if len(set(sizes)) != len(sizes):
            raise ValueError("sizes must be distinct")
        object.__setattr__(self, "sizes", sizes)
        sweep = [float(v) for v in self.lambda_b_sweep]
        if len(set(sweep)) != len(sweep) or not all(0 <= v < np.inf for v in sweep):
            raise ValueError("lambda_b_sweep values must be distinct, >= 0 and finite")
        object.__setattr__(self, "lambda_b_sweep", sweep)
        if self.test_size < 1 or self.val_size < 1:
            raise ValueError("test_size and val_size must be >= 1")
        if not (self.ensemble_size == 0 or self.ensemble_size >= 2):
            raise ValueError("ensemble_size must be 0 or >= 2")
        if self.ensemble_size and self.train_cfg is None:
            raise ValueError("an ensemble plan needs a train_cfg")
        if not (self.infinite_width or self.bayesian or self.ensemble_size):
            raise ValueError("a plan must run infinite_width, bayesian or an ensemble")


@dataclass(frozen=True)
class RunResult:
    output_dir: str
    infwidth_rows: list
    summary_rows: list
    fits: dict
    flatness: object
    skipped: list
    config_hash: str


def _config_hash(plan, dataset):
    """Hash of the plan without output_dir and of the dataset's input and label bytes."""
    digest = hashlib.sha256(repr(replace(plan, output_dir=None)).encode())
    digest.update(dataset.inputs.points.tobytes())
    digest.update(dataset.labels.tobytes())
    return digest.hexdigest()[:16]


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _jsonl_text(records):
    return "".join(json.dumps(rec) + "\n" for rec in records)


def _write_file(path, text):
    """Write text to path whole: to a temporary file, then renamed into place."""
    with open(path + ".tmp", "w", newline="") as f:
        f.write(text)
    os.replace(path + ".tmp", path)


def _fmt(value):
    if isinstance(value, float):
        return _FMT % value
    return value


def _row(columns, **values):
    """One CSV row: values in the order of columns, each float written as _FMT."""
    return [_fmt(values[name]) for name in columns]


def _cell_outcome(kp, labels, n_d, val_ids, test_ids, bayesian):
    """(loss stats, steps_used) of one cell, or the message of the error that skips it.

    The cell trains on kp's first n_d rows. An ill-conditioned train NTK falls back
    from the closed form to the GD map, stopped on val_ids by EarlyStopPolicy's
    defaults; the Bayesian path has no fallback. Returns scalars only, so no
    posterior outlives its cell.
    """
    train_ids = np.arange(n_d)
    y_train = labels[train_ids]
    try:
        if bayesian:
            post = bayesian_posterior(kp, train_ids, test_ids, y_train)
        else:
            try:
                post = closed_form_posterior(kp, train_ids, test_ids, y_train)
            except IllConditionedError:
                post = gd_evolve(kp, train_ids, test_ids, y_train, validation_ids=val_ids,
                                 validation_labels=labels[val_ids])
        return loss_stats(post, labels[test_ids]), post.steps_used
    except NtkuqError as exc:
        return str(exc)


def _cell_groups(infwidth_rows, summary_rows):
    """{label: cells} of the rows, as dicts with sigma_L, under the cell key (series, lambda_b).

    The ensemble summaries are the finite series. A label is the series,
    plus ":lambda_b=<value>" when the rows hold more than one lambda_b.
    """
    cells = [dict(zip(INFWIDTH_COLUMNS, row)) for row in infwidth_rows]
    cells += [dict(zip(SUMMARY_COLUMNS, row), series="finite") for row in summary_rows]
    swept = len({cell["lambda_b"] for cell in cells}) > 1
    groups = {}
    for cell in cells:
        cell["sigma_L"] = np.sqrt(float(cell["var_L"]))
        label = cell["series"] + (":lambda_b=" + cell["lambda_b"] if swept else "")
        groups.setdefault(label, []).append(cell)
    return groups


def _fits(infwidth_rows, summary_rows):
    """Power-law fits of mu_L, sigma_L and eps_L over N_D, one per cell group.

    A quantity is fitted when it has at least three finite, positive points
    at distinct sizes.
    """
    fits = {}
    for label, cells in _cell_groups(infwidth_rows, summary_rows).items():
        for quantity in ("mu_L", "sigma_L", "eps_L"):
            pts = [(c["N_D"], float(c[quantity])) for c in cells]
            pts = [(n, v) for n, v in pts if np.isfinite(v) and v > 0]
            if len(pts) >= 3 and len({n for n, _ in pts}) == len(pts):
                fits["%s:%s" % (label, quantity)] = fit_power_law(pts)
    return fits


def run_plan(plan, dataset):
    """Execute every (size, lambda_b) cell of a plan and persist results.

    Each analytic cell gives one outcome: an infwidth.csv row, or a
    skipped.jsonl record with the message of the NtkuqError that skipped it.
    Rows are built from INFWIDTH_COLUMNS, SUMMARY_COLUMNS and FIT_COLUMNS;
    an ensemble.jsonl record is the cell, width and optimizer, then the
    EnsembleRunRecord's fields, then config_hash.
    """
    dataset.check_shape(input_dim=plan.arch.input_dim, n_out=plan.arch.n_out)
    cfg_hash = _config_hash(plan, dataset)
    test_ids, val_ids, pool = split_ids(
        dataset, plan.master_seed, plan.test_size, plan.val_size, max(plan.sizes)
    )
    lambdas = plan.lambda_b_sweep or [float(plan.arch.lambda_b)]

    infwidth_rows = []
    summary_rows = []
    member_rows = []
    skipped = []

    # Every cell trains on a prefix of pool and shares val/test, so one
    # kernel over [pool[:max N_D], val, test] holds all of a lambda_b's cells.
    n_max = max(plan.sizes)
    kernel_rows = np.concatenate([pool[:n_max], val_ids, test_ids])
    kernel_inputs = InputSet(dataset.inputs.points[kernel_rows])
    kernel_labels = dataset.labels[kernel_rows]
    kernel_val = np.arange(n_max, n_max + val_ids.size)
    kernel_test = np.arange(n_max + val_ids.size, kernel_rows.size)
    # lambda_b enters Theta only, so a Bayesian cell (which uses K alone) is
    # solved once per N_D, at the first lambda_b; bayes[N_D] is its outcome
    # for every lambda_b.
    bayes = {}

    for lam_index, lam_b in enumerate(lambdas):
        arch = replace(plan.arch, lambda_b=lam_b)
        # Release the previous kernel before building the next; after the
        # first lambda_b, only the infinite-width cells need one.
        kp = None
        if plan.infinite_width or (plan.bayesian and lam_index == 0):
            kp = build_kernel_pair(kernel_inputs, arch)
        for size_index, n_d in enumerate(plan.sizes):
            cell = {"N_D": n_d, "lambda_b": lam_b}
            outcomes = {}
            if plan.infinite_width:
                outcomes["infinite"] = _cell_outcome(
                    kp, kernel_labels, n_d, kernel_val, kernel_test, bayesian=False
                )
            if plan.bayesian:
                if n_d not in bayes:
                    bayes[n_d] = _cell_outcome(
                        kp, kernel_labels, n_d, kernel_val, kernel_test, bayesian=True
                    )
                outcomes["bayesian"] = bayes[n_d]
            for name, outcome in outcomes.items():
                if isinstance(outcome, str):
                    skipped.append({"series": name, **cell, "error": outcome})
                    continue
                stats, steps_used = outcome
                infwidth_rows.append(
                    _row(
                        INFWIDTH_COLUMNS, series=name, **cell, mu_L=stats.mu_L,
                        var_L=stats.var_L, eps_L=stats.eps_L, method=stats.method,
                        steps_used=steps_used, config_hash=cfg_hash, master_seed=plan.master_seed,
                    )
                )

            if plan.ensemble_size:
                split = split_arrays(dataset, pool[:n_d], val_ids, test_ids)
                base_seed = plan.master_seed + 10_000 * (size_index + len(plan.sizes) * lam_index)
                summary = run_ensemble(split, arch, plan.train_cfg, plan.ensemble_size, base_seed)
                finite = {**cell, "width": arch.hidden_width, "optimizer": plan.train_cfg.optimizer}
                summary_rows.append(
                    _row(
                        SUMMARY_COLUMNS, **finite, mu_L=summary.mu_L, var_L=summary.var_L,
                        eps_L=summary.eps_L, mu_L_se=summary.mu_se, sigma_L_se=summary.sigma_se,
                        eps_L_se=summary.eps_se, n_ok=summary.n_ok, n_diverged=summary.n_diverged,
                    )
                )
                member_rows += [
                    {**finite, **asdict(rec), "config_hash": cfg_hash} for rec in summary.records
                ]

    fits = _fits(infwidth_rows, summary_rows)
    flatness = epsilon_flatness_check(fits.get("infinite:eps_L"))
    fit_rows = [
        _row(FIT_COLUMNS, quantity=name, **asdict(fit)) for name, fit in sorted(fits.items())
    ]
    # The store is made only now, so a plan that fails leaves none behind. Every
    # file is written whole, so a rerun replaces an earlier run's store.
    os.makedirs(plan.output_dir, exist_ok=True)
    for name, text in {
        "infwidth.csv": _csv_text([INFWIDTH_COLUMNS] + infwidth_rows),
        "ensemble_summary.csv": _csv_text([SUMMARY_COLUMNS] + summary_rows),
        "ensemble.jsonl": _jsonl_text(member_rows),
        "fits.csv": _csv_text([FIT_COLUMNS] + fit_rows),
        "flatness.json": json.dumps(asdict(flatness)),
        "skipped.jsonl": _jsonl_text(skipped),
    }.items():
        _write_file(os.path.join(plan.output_dir, name), text)

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

    The rows are those of infwidth.csv, with zero error bars, and of
    ensemble_summary.csv, with its standard errors; a summary of fewer than
    two members is left out. series is the cell group's label, as in
    fits.csv. A file whose header is not this version's raises ValueError.
    """
    if quantity not in ("mu_L", "sigma_L", "eps_L"):
        raise ValueError("unknown quantity %r" % quantity)
    tables = []
    for name, columns in (
        ("infwidth.csv", INFWIDTH_COLUMNS), ("ensemble_summary.csv", SUMMARY_COLUMNS)
    ):
        path = os.path.join(store_dir, name)
        table = []
        if os.path.exists(path):
            with open(path, newline="") as f:
                table = list(csv.reader(f))
            if table[:1] != [columns]:
                raise ValueError("%s does not have the columns %s" % (path, ", ".join(columns)))
        tables.append(table[1:])
    rows = []
    for label, cells in _cell_groups(*tables).items():
        for c in cells:
            finite = c["series"] == "finite"
            if not finite or int(c["n_ok"]) >= 2:
                y_err = float(c[quantity + "_se"]) if finite else 0.0
                rows.append((float(c["N_D"]), float(c[quantity]), y_err, label))
    if not rows:
        raise ValueError("no rows found for quantity %r in %s" % (quantity, store_dir))
    rows.sort(key=lambda r: (r[3], r[0]))
    if out_path is not None:
        table = [[_fmt(x), _fmt(y), _fmt(y_err), series] for x, y, y_err, series in rows]
        _write_file(out_path, _csv_text([["x", "y", "y_err", "series"]] + table))
    return rows


def load_plan_file(path):
    """Parse a key = value plan file into a {key: value string} dict.

    plan_from_file reads the keys; list values are comma-separated. A key
    given twice raises ValueError.
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


def plan_from_file(path, output_dir=None):
    """(ExperimentPlan, Dataset) from a key = value plan file.

    output_dir, when given, overrides the file's. The DATASET_SETTINGS keys
    build the dataset (n_points defaults to what the plan needs), and the
    architecture takes input_dim and n_out from it. Every key is read and
    removed as it is read, so a key left over is unknown: ValueError. So
    are a value that does not cast, naming its key, and lambda_b given next
    to lambda_b_sweep.
    """
    raw = load_plan_file(path)

    def get(key, cast, default):
        return read_setting(key, cast, raw.pop(key)) if key in raw else default

    def flag(key, default):
        value = raw.pop(key, default)
        if value.lower() not in ("true", "false"):
            raise ValueError("plan key %s must be true or false, not %r" % (key, value))
        return value.lower() == "true"

    if "sizes" not in raw:
        raise ValueError("the plan file sets no sizes")
    sizes = [read_setting("sizes", int, s) for s in raw.pop("sizes").split(",")]
    file_dir = raw.pop("output_dir", None)
    output_dir = output_dir or file_dir
    if not output_dir:
        raise ValueError("the plan file sets no output_dir and none was given")
    data_keys = {name: raw.pop(name) for name, *_ in DATASET_SETTINGS if name in raw}
    if "lambda_b" in raw and "lambda_b_sweep" in raw:
        raise ValueError("plan keys lambda_b and lambda_b_sweep exclude each other")
    network = dict(
        depth=get("depth", int, 3),
        hidden_width=get("width", int, 64),
        lambda_b=get("lambda_b", float, 1.0),
        lambda_w=get("lambda_w", float, 1.0),
    )
    train_cfg = TrainConfig(
        eta=get("eta", float, 1.0),
        optimizer=get("optimizer", str, "full_batch_gd"),
        patience=get("patience", int, 200),
        max_epochs=get("max_epochs", int, 2000),
    )
    ensemble_size = get("ensemble_size", int, 0)
    settings = dict(
        master_seed=get("master_seed", int, 0),
        test_size=get("test_size", int, 64),
        val_size=get("val_size", int, 16),
        ensemble_size=ensemble_size,
        train_cfg=train_cfg if ensemble_size >= 2 else None,
        infinite_width=flag("infinite_width", "true"),
        bayesian=flag("bayesian", "false"),
        lambda_b_sweep=[
            read_setting("lambda_b_sweep", float, v)
            for v in get("lambda_b_sweep", str, "").split(",")
            if v
        ],
    )
    if raw:
        raise ValueError("unknown plan keys: %s" % ", ".join(sorted(raw)))
    n_points = settings["test_size"] + settings["val_size"] + max(sizes)
    dataset = dataset_from_spec(data_keys, n_points=n_points)
    arch = ArchitectureConfig(input_dim=dataset.inputs.input_dim, n_out=dataset.n_out, **network)
    return ExperimentPlan(sizes=sizes, arch=arch, output_dir=output_dir, **settings), dataset
