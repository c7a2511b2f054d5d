"""Command-line interface: kernel build, infwidth predict, ensemble run,
sweep run, fit, emit-plot."""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import NtkuqError
from .kernels import ArchitectureConfig, InputSet, build_kernel_pair, save_kernel_pair
from .infwidth import bayesian_posterior, closed_form_posterior, save_posterior_jsonl
from .loss_stats import loss_stats
from .datasets import DATASET_SETTINGS, dataset_from_spec, read_setting, split_arrays, split_ids
from .finite_width import TrainConfig, run_ensemble
from .scaling import fit_power_law
from .experiment import emit_plot_data, plan_from_file, run_plan


def _add_arch_flags(p):
    # The flags K and Theta depend on; ensemble run adds --width and the dataset flags.
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lambda-b", type=float, default=1.0)
    p.add_argument("--lambda-w", type=float, default=1.0)


def _arch_from_args(args, input_dim, **network):
    return ArchitectureConfig(
        args.depth, input_dim, lambda_b=args.lambda_b, lambda_w=args.lambda_w, **network
    )


def _cmd_kernel_build(args):
    inputs = InputSet(np.load(args.inputs))
    kp = build_kernel_pair(inputs, _arch_from_args(args, inputs.input_dim))
    save_kernel_pair(kp, args.out)
    print(json.dumps({"count": kp.count, "layer": args.depth, "out": args.out}))


def _cmd_infwidth_predict(args):
    inputs = InputSet(np.load(args.inputs))
    y = np.load(args.labels)
    n_train = args.n_train
    if not 0 < n_train < inputs.count:
        raise ValueError("--n-train must split the input rows")
    kp = build_kernel_pair(inputs, _arch_from_args(args, inputs.input_dim))
    train_ids = np.arange(n_train)
    test_ids = np.arange(n_train, inputs.count)
    post_fn = bayesian_posterior if args.bayesian else closed_form_posterior
    post = post_fn(kp, train_ids, test_ids, y[:n_train])
    save_posterior_jsonl(post, args.out, ids=test_ids)
    if args.cov_out:
        # np.save on a path would append ".npy"; an open file keeps the path exact.
        with open(args.cov_out, "wb") as f:
            np.save(f, post.cov)
    if args.test_labels:
        stats = loss_stats(post, np.load(args.test_labels))
        print(json.dumps(dataclasses.asdict(stats)))
    else:
        print(json.dumps({"n_test": post.n_test, "method": post.method, "out": args.out}))


def _cmd_ensemble_run(args):
    dataset = dataset_from_spec({n: getattr(args, n) for n, *_ in DATASET_SETTINGS if n in args})
    arch = _arch_from_args(
        args, dataset.inputs.input_dim, hidden_width=args.width, n_out=dataset.n_out
    )
    test_ids, val_ids, pool = split_ids(
        dataset, args.seed, args.test_size, args.val_size, args.train_size
    )
    split = split_arrays(dataset, pool[: args.train_size], val_ids, test_ids)
    cfg = TrainConfig(
        eta=args.eta,
        optimizer=args.optimizer,
        minibatch=args.minibatch,
        patience=args.patience,
        max_epochs=args.max_epochs,
    )
    summary = run_ensemble(split, arch, cfg, args.members, args.seed)
    fields = (f.name for f in dataclasses.fields(summary) if f.name != "records")
    print(json.dumps({name: getattr(summary, name) for name in fields}))


def _cmd_sweep_run(args):
    plan, dataset = plan_from_file(args.plan, args.out)
    result = run_plan(plan, dataset)
    print(
        json.dumps(
            {
                "output_dir": result.output_dir,
                "rows": len(result.infwidth_rows),
                "ensemble_rows": len(result.summary_rows),
                "fits": sorted(result.fits),
                "flatness": result.flatness.verdict,
                "skipped": len(result.skipped),
                "config_hash": result.config_hash,
            }
        )
    )


def _cmd_fit(args):
    import csv as _csv

    with open(args.input, newline="") as f:
        reader = _csv.DictReader(f)
        columns = reader.fieldnames or []
        missing = [c for c in (args.x_col, args.y_col) if c not in columns]
        if missing:
            raise ValueError(
                "%s has no column %s; its columns are %s"
                % (args.input, ", ".join(missing), ", ".join(columns))
            )

        def value(row, col):
            where = "%s line %d" % (args.input, reader.line_num)
            # DictReader fills a short row's missing fields with None and keeps a
            # long row's extra fields under the key None.
            if None in row or None in row.values():
                raise ValueError("%s does not have the header's %d fields" % (where, len(columns)))
            return read_setting("%s, column %s" % (where, col), float, row[col])

        pts = [(value(r, args.x_col), value(r, args.y_col)) for r in reader]
    print(json.dumps(dataclasses.asdict(fit_power_law(pts))))


def _cmd_emit_plot(args):
    rows = emit_plot_data(args.store, args.quantity, out_path=args.out)
    print(json.dumps({"rows": len(rows), "out": args.out}))


def build_parser():
    parser = argparse.ArgumentParser(prog="ntkuq")
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel").add_subparsers(dest="action", required=True)
    p = kernel.add_parser("build")
    p.add_argument("--inputs", required=True, help=".npy file of input rows")
    p.add_argument("--out", required=True)
    _add_arch_flags(p)
    p.set_defaults(func=_cmd_kernel_build)

    infw = sub.add_parser("infwidth").add_subparsers(dest="action", required=True)
    p = infw.add_parser("predict")
    p.add_argument("--inputs", required=True)
    p.add_argument("--labels", required=True, help=".npy of train labels")
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--test-labels")
    p.add_argument("--bayesian", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--cov-out")
    _add_arch_flags(p)
    p.set_defaults(func=_cmd_infwidth_predict)

    ens = sub.add_parser("ensemble").add_subparsers(dest="action", required=True)
    p = ens.add_parser("run")
    # An unset dataset flag stays out of args, so the spec can tell it from a given one.
    for name, cast, _, _ in DATASET_SETTINGS:
        p.add_argument("--" + name.replace("_", "-"), type=cast, default=argparse.SUPPRESS)
    _add_arch_flags(p)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--train-size", type=int, default=64)
    p.add_argument("--val-size", type=int, default=16)
    p.add_argument("--test-size", type=int, default=64)
    p.add_argument("--members", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--optimizer", default="full_batch_gd", choices=["full_batch_gd", "adam"])
    p.add_argument("--minibatch", type=int, default=1000)
    p.add_argument("--patience", type=int, default=200)
    p.add_argument("--max-epochs", type=int, default=2000)
    p.set_defaults(func=_cmd_ensemble_run)

    sweep = sub.add_parser("sweep").add_subparsers(dest="action", required=True)
    p = sweep.add_parser("run")
    p.add_argument("--plan", required=True, help="key = value plan file")
    p.add_argument("--out", help="override output_dir from the plan file")
    p.set_defaults(func=_cmd_sweep_run)

    p = sub.add_parser("fit")
    p.add_argument("--input", required=True, help="CSV with size/value columns")
    p.add_argument("--x-col", default="N_D")
    p.add_argument("--y-col", default="value")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("emit-plot")
    p.add_argument("--store", required=True, help="run_plan output directory")
    p.add_argument("--quantity", required=True, choices=["mu_L", "sigma_L", "eps_L"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (NtkuqError, ValueError, OSError, KeyError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
