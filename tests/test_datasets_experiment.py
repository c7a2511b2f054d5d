import csv
from dataclasses import asdict, fields, replace
import inspect
import json
import re
import struct
import warnings

import numpy as np
import pytest

from ntkuq import (
    ArchitectureConfig,
    Dataset,
    ExperimentPlan,
    FlatnessVerdict,
    InputSet,
    emit_plot_data,
    energy_from_label,
    load_event_vectors,
    load_idx,
    load_plan_file,
    make_synthetic,
    plan_from_file,
    run_plan,
    save_event_vectors,
)
from ntkuq.cli import main as cli_main
from ntkuq.datasets import DATASET_SETTINGS
from ntkuq.errors import IllConditionedError
from ntkuq.infwidth import EarlyStopPolicy, bayesian_posterior, closed_form_posterior, gd_evolve
from ntkuq.kernels import build_kernel_pair
from ntkuq.loss_stats import loss_stats
from ntkuq.scaling import fit_power_law


# ---------------------------------------------------------------- datasets


def _write_idx(tmp_path, images, digits, tag=""):
    n, r, c = images.shape
    img_path = tmp_path / ("img%s.idx" % tag)
    lab_path = tmp_path / ("lab%s.idx" % tag)
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, r, c))
        f.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(np.asarray(digits, dtype=np.uint8).tobytes())
    return img_path, lab_path


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    digits = [0, 9, 3, 3, 7]
    img_path, lab_path = _write_idx(tmp_path, images, digits)
    ds = load_idx(img_path, lab_path)
    assert ds.count == 5
    assert ds.inputs.input_dim == 12
    assert ds.n_out == 10
    np.testing.assert_allclose(
        ds.inputs.points, images.reshape(5, 12).astype(float) / 255.0
    )
    np.testing.assert_array_equal(np.argmax(ds.labels, axis=1), digits)
    np.testing.assert_allclose(ds.labels.sum(axis=1), 1.0)


def test_idx_bad_magic_and_truncation(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img_path, lab_path = _write_idx(tmp_path, images, [1, 2])
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 2, 2, 2))
    with pytest.raises(ValueError):
        load_idx(bad, lab_path)
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(img_path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        load_idx(trunc, lab_path)
    long_img, long_lab = tmp_path / "long_img.idx", tmp_path / "long_lab.idx"
    long_img.write_bytes(img_path.read_bytes() + b"\x00" * 5)
    long_lab.write_bytes(lab_path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="IDX image file has bytes after"):
        load_idx(long_img, lab_path)
    with pytest.raises(ValueError, match="IDX label file has bytes after"):
        load_idx(img_path, long_lab)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img_path, _ = _write_idx(tmp_path, images, [0, 1, 2])
    _, lab2 = _write_idx(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1], tag="2")
    with pytest.raises(ValueError):
        load_idx(img_path, lab2)


def test_idx_rejects_label_bytes_above_9(tmp_path, capsys):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img_path, lab_path = _write_idx(tmp_path, images, [0, 12, 9])
    with pytest.raises(ValueError, match="label byte 12 is not a digit 0-9"):
        load_idx(img_path, lab_path)
    args = ["ensemble", "run", "--idx-images", str(img_path), "--idx-labels", str(lab_path)]
    assert cli_main(args + ["--depth", "2", "--width", "8", "--members", "2"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "label byte 12 is not a digit 0-9"
    }


def test_event_vectors_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((7, 4))
    energies = rng.uniform(10.0, 100.0, size=7)
    energies[0], energies[1] = 10.0, 100.0
    path = tmp_path / "events.bin"
    save_event_vectors(path, X, energies)
    ds = load_event_vectors(path, 10.0, 100.0)
    np.testing.assert_allclose(ds.inputs.points, X)
    # affine endpoints of the [0.1, 1.0] label map
    assert ds.labels[0, 0] == pytest.approx(0.1)
    assert ds.labels[1, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(energy_from_label(ds, ds.labels[:, 0]), energies)


def test_event_vectors_validation(tmp_path):
    path = tmp_path / "events.bin"
    save_event_vectors(path, np.zeros((2, 3)), [50.0, 60.0])
    with pytest.raises(ValueError):
        load_event_vectors(path, 55.0, 100.0)  # energy below range
    with pytest.raises(ValueError):
        load_event_vectors(path, 100.0, 10.0)  # inverted range
    (tmp_path / "short.bin").write_bytes(path.read_bytes()[:20])
    with pytest.raises(ValueError):
        load_event_vectors(tmp_path / "short.bin", 10.0, 100.0)
    (tmp_path / "long.bin").write_bytes(path.read_bytes() + b"\x00" * 24)
    with pytest.raises(ValueError, match="event file has bytes after"):
        load_event_vectors(tmp_path / "long.bin", 10.0, 100.0)


def test_loaders_reject_headers_promising_more_than_the_file(tmp_path, capsys):
    # Sizes past any index used to raise OverflowError from the read, which
    # the CLI printed as a traceback.
    img_path, lab_path = _write_idx(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [1, 2])
    huge_img, huge_lab = tmp_path / "huge_img.idx", tmp_path / "huge_lab.idx"
    huge_img.write_bytes(struct.pack(">IIII", 0x00000803, 2**32 - 1, 2**32 - 1, 2**32 - 1))
    huge_lab.write_bytes(struct.pack(">II", 0x00000801, 2**32 - 1))
    with pytest.raises(ValueError, match="truncated IDX image file"):
        load_idx(huge_img, lab_path)
    with pytest.raises(ValueError, match="truncated IDX label file"):
        load_idx(img_path, huge_lab)
    events = tmp_path / "events.bin"
    events.write_bytes(struct.pack("<QQ", 2**62, 1))
    with pytest.raises(ValueError, match="truncated event file"):
        load_event_vectors(events, 10.0, 100.0)
    assert cli_main(["ensemble", "run", "--events", str(events), "--depth", "2"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "truncated event file: its header gives %d payload bytes, 0 follow"
        % (2**62 * 2 * 8),
    }


def test_event_vectors_reject_inputs_that_are_not_2d(tmp_path):
    # 40 values are not one 40-feature event: rows are points, and no file is written.
    path = tmp_path / "events.bin"
    with pytest.raises(ValueError, match=r"points shape \(40,\) .* rows are points"):
        save_event_vectors(path, np.linspace(-1, 1, 40), [50.0])
    assert not path.exists()


def test_event_vectors_check_the_energies_before_writing(tmp_path):
    # One energy per event, as one column: no header-only file is left behind,
    # and a (1, n) row is not flattened into a column.
    path = tmp_path / "events.bin"
    for energies in ([50.0, 60.0], [[50.0, 60.0, 70.0]]):
        with pytest.raises(ValueError, match=r"does not match 3 points x 1 outputs"):
            save_event_vectors(path, np.zeros((3, 2)), energies)
        assert not path.exists()


def test_make_synthetic_deterministic():
    arch = ArchitectureConfig(depth=2, input_dim=3, hidden_width=8)
    a = make_synthetic("teacher", 10, 3, seed=5, teacher_arch=arch)
    b = make_synthetic("teacher", 10, 3, seed=5, teacher_arch=arch)
    np.testing.assert_array_equal(a.inputs.points, b.inputs.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = make_synthetic("teacher", 10, 3, seed=6, teacher_arch=arch)
    assert not np.array_equal(a.labels, c.labels)


def test_make_synthetic_sinusoid_values():
    ds = make_synthetic("sinusoid", 20, 2, seed=0)
    expected = np.prod(np.sin(np.pi * ds.inputs.points), axis=1)
    np.testing.assert_allclose(ds.labels[:, 0], expected)
    assert np.all(np.abs(ds.inputs.points) <= 1.0)
    with pytest.raises(ValueError):
        make_synthetic("unknown", 10, 2, seed=0)
    with pytest.raises(ValueError):
        make_synthetic("teacher", 10, 2, seed=0)  # missing teacher_arch


def test_dataset_label_validation():
    X = InputSet(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Dataset(inputs=X, labels=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Dataset(inputs=X, labels=np.array([[np.nan], [0.0], [0.0]]))


# -------------------------------------------------------------- experiment


def _small_plan(tmp_path, **kw):
    defaults = dict(
        sizes=[4, 8, 16],
        arch=ArchitectureConfig(depth=2, input_dim=3),
        output_dir=str(tmp_path / "store"),
        master_seed=3,
        test_size=8,
        val_size=4,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def _small_dataset(n=40, d=3, seed=2):
    arch = ArchitectureConfig(depth=2, input_dim=d, hidden_width=16)
    return make_synthetic("teacher", n, d, seed=seed, teacher_arch=arch)


def test_run_plan_rows_and_files(tmp_path):
    plan = _small_plan(tmp_path)
    result = run_plan(plan, _small_dataset())
    assert len(result.infwidth_rows) == 3
    for path in ("infwidth.csv", "fits.csv", "flatness.json"):
        assert (tmp_path / "store" / path).exists()
    assert (tmp_path / "store" / "skipped.jsonl").read_text() == ""
    with open(tmp_path / "store" / "infwidth.csv", newline="") as f:
        recs = list(csv.DictReader(f))
    assert [int(r["N_D"]) for r in recs] == [4, 8, 16]
    assert all(r["series"] == "infinite" for r in recs)
    assert "infinite:mu_L" in result.fits
    assert result.flatness.verdict in ("pass", "fail", "indeterminate")


def test_flatness_json_is_the_verdict(tmp_path):
    # The store-format guard: flatness.json is FlatnessVerdict, field for field, in order.
    result = run_plan(_small_plan(tmp_path, sizes=[4, 8, 12, 16]), _small_dataset())
    text = (tmp_path / "store" / "flatness.json").read_text()
    assert text == json.dumps(asdict(result.flatness))
    assert list(json.loads(text)) == ["verdict", "exponent", "slope_sigma", "threshold"]
    assert list(json.loads(text)) == [f.name for f in fields(FlatnessVerdict)]


def test_dataset_holds_only_what_is_read():
    # normalization holds only the energy map that energy_from_label inverts.
    assert [f.name for f in fields(Dataset)] == ["inputs", "labels", "normalization"]
    assert _small_dataset().normalization == {}


def test_run_plan_too_big_makes_no_store(tmp_path):
    # The plan needs 8 test + 4 validation + 16 training points.
    plan = _small_plan(tmp_path)
    with pytest.raises(ValueError, match="split needs 28 points but dataset has 10"):
        run_plan(plan, _small_dataset(n=10))
    assert not (tmp_path / "store").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("via", ["run_plan", "sweep run"])
def test_failed_plan_leaves_no_store_and_an_old_store_untouched(tmp_path, capsys, via):
    # lambda_w = 1e308 is finite, so the plan is accepted, and the kernel build
    # overflows only after the plan has been checked against the data.
    plan = tmp_path / "plan.txt"
    store = tmp_path / "store"

    def run(lambda_w):
        plan.write_text(
            "sizes = 4,8,16\ndepth = 2\ninput_dim = 3\ntest_size = 8\nval_size = 4\n"
            "lambda_w = %r\noutput_dir = %s\n" % (lambda_w, store)
        )
        if via == "sweep run":
            return cli_main(["sweep", "run", "--plan", str(plan)]), capsys.readouterr().err
        try:
            run_plan(*plan_from_file(str(plan)))
        except ValueError as exc:
            return 1, json.dumps({"error": "ValueError", "message": str(exc)}) + "\n"
        return 0, ""

    failed = (1, '{"error": "ValueError", "message": "K or Theta contains non-finite entries"}\n')
    assert run(1e308) == failed
    assert not store.exists()
    assert run(1.0) == (0, "")
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    assert run(1e308) == failed
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before


@pytest.mark.parametrize(
    "network, ensemble_size, message",
    [
        (dict(input_dim=3), 2, "input_dim 3 given but the data has 4"),
        (dict(input_dim=4, n_out=5), 0, "n_out 5 given but the data has 1"),
    ],
    ids=["input_dim", "n_out"],
)
def test_run_plan_checks_arch_against_data(tmp_path, network, ensemble_size, message):
    from ntkuq.finite_width import TrainConfig

    plan = _small_plan(
        tmp_path,
        arch=ArchitectureConfig(depth=2, **network),
        ensemble_size=ensemble_size,
        train_cfg=TrainConfig(eta=0.5, max_epochs=5),
    )
    with pytest.raises(ValueError, match=message):
        run_plan(plan, _small_dataset(d=4))
    assert not (tmp_path / "store").exists()


def test_run_plan_deterministic(tmp_path):
    ds = _small_dataset()
    r1 = run_plan(_small_plan(tmp_path / "a"), ds)
    r2 = run_plan(_small_plan(tmp_path / "b"), ds)
    # the config hash covers the plan without output_dir, and the dataset
    assert r1.infwidth_rows == r2.infwidth_rows
    assert r1.config_hash != run_plan(_small_plan(tmp_path / "c"), _small_dataset(seed=3)).config_hash
    assert r1.config_hash != run_plan(_small_plan(tmp_path / "d", master_seed=4), ds).config_hash


def test_run_plan_rerun_replaces_store(tmp_path, monkeypatch):
    from ntkuq import experiment
    from ntkuq.finite_width import TrainConfig

    def failing_bayes(kp, train_ids, test_ids, labels):
        if train_ids.size == 16:
            raise IllConditionedError("K_A is singular")
        return bayesian_posterior(kp, train_ids, test_ids, labels)

    # a skipped cell, so skipped.jsonl has records to duplicate
    monkeypatch.setattr(experiment, "bayesian_posterior", failing_bayes)
    ds = _small_dataset()
    kw = dict(
        bayesian=True,
        lambda_b_sweep=[0.5, 2.0],
        ensemble_size=2,
        train_cfg=TrainConfig(eta=0.5, patience=5, max_epochs=10),
    )
    once = run_plan(_small_plan(tmp_path / "once", **kw), ds)
    assert once.skipped
    for _ in range(2):
        run_plan(_small_plan(tmp_path / "twice", **kw), ds)
    names = sorted(p.name for p in (tmp_path / "once" / "store").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "twice" / "store").iterdir())
    assert names == [
        "ensemble.jsonl", "ensemble_summary.csv", "fits.csv", "flatness.json", "infwidth.csv",
        "skipped.jsonl",
    ]
    for name in names:
        once_bytes = (tmp_path / "once" / "store" / name).read_bytes()
        assert once_bytes == (tmp_path / "twice" / "store" / name).read_bytes(), name


def _member_plot_stats(losses, quantity):
    # (y, y_err) of one quantity, straight from an ensemble cell's member losses.
    def eps(a):
        return float(np.sqrt(a.var(ddof=1)) / a.mean()) if a.mean() > 0 else float("nan")

    def jackknife(a, stat):
        loo = np.array([stat(np.delete(a, i)) for i in range(a.size)])
        return float(np.sqrt((a.size - 1) / a.size * np.sum((loo - loo.mean()) ** 2)))

    arr = np.asarray(losses)
    if quantity == "mu_L":
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
    if quantity == "sigma_L":
        return float(arr.std(ddof=1)), jackknife(arr, lambda a: a.std(ddof=1))
    return eps(arr), jackknife(arr, eps)


def _check_fits_and_plot_data_come_from_rows(tmp_path, sweep):
    from ntkuq.finite_width import TrainConfig

    plan = _small_plan(
        tmp_path,
        bayesian=True,
        ensemble_size=3,
        train_cfg=TrainConfig(eta=0.5, patience=10, max_epochs=30),
        arch=ArchitectureConfig(depth=2, input_dim=3, hidden_width=16),
        lambda_b_sweep=sweep,
    )
    result = run_plan(plan, _small_dataset())
    # one cell group per (series, lambda_b); the label names lambda_b only in a sweep
    expected = {}
    labels = {}
    for lam in sweep or [1.0]:
        for series, rows, (n_col, lam_col, mu_col, var_col, eps_col) in (
            ("infinite", [r for r in result.infwidth_rows if r[0] == "infinite"], (1, 2, 3, 4, 5)),
            ("bayesian", [r for r in result.infwidth_rows if r[0] == "bayesian"], (1, 2, 3, 4, 5)),
            ("finite", result.summary_rows, (0, 1, 4, 5, 6)),
        ):
            label = series + (":lambda_b=%.17g" % lam if sweep else "")
            labels[series, lam] = label
            rows = [r for r in rows if float(r[lam_col]) == lam]
            for quantity, value in (
                ("mu_L", lambda r: float(r[mu_col])),
                ("sigma_L", lambda r: np.sqrt(float(r[var_col]))),
                ("eps_L", lambda r: float(r[eps_col])),
            ):
                pts = [(r[n_col], value(r)) for r in rows]
                expected["%s:%s" % (label, quantity)] = fit_power_law(pts)
    assert len(expected) == 9 * max(1, len(sweep))
    assert result.fits == expected

    # The plot data reads the same cell groups, and the finite rows carry the
    # statistics of exactly their own cell's members.
    store = str(tmp_path / "store")
    with open(tmp_path / "store" / "ensemble.jsonl") as f:
        members = [json.loads(line) for line in f]
    for quantity in ("mu_L", "sigma_L", "eps_L"):
        rows = emit_plot_data(store, quantity)
        assert len(rows) == 9 * max(1, len(sweep))
        assert len({(x, label) for x, _, _, label in rows}) == len(rows)
        assert {label for *_, label in rows} == set(labels.values())
        for lam in sweep or [1.0]:
            for n_d in plan.sizes:
                losses = [
                    m["final_test_loss"]
                    for m in members
                    if (m["N_D"], m["lambda_b"]) == (n_d, lam) and m["stop_reason"] != "divergence"
                ]
                assert len(losses) == 3
                label = labels["finite", lam]
                finite = [r for r in rows if r[0] == n_d and r[3] == label]
                assert finite == [(float(n_d), *_member_plot_stats(losses, quantity), label)]


def test_run_plan_fits_come_from_rows(tmp_path):
    _check_fits_and_plot_data_come_from_rows(tmp_path, [])


def test_run_plan_fits_come_from_rows_of_each_lambda_b(tmp_path):
    # 3 series x 3 lambda_b x 3 quantities: 27 fits
    _check_fits_and_plot_data_come_from_rows(tmp_path, [0.5, 1.0, 2.0])


def test_run_plan_lambda_sweep(tmp_path):
    plan = _small_plan(tmp_path, lambda_b_sweep=[0.5, 2.0])
    result = run_plan(plan, _small_dataset())
    assert len(result.infwidth_rows) == 6
    lams = sorted({float(r[2]) for r in result.infwidth_rows})
    assert lams == [0.5, 2.0]


def test_run_plan_bayesian_series(tmp_path):
    plan = _small_plan(tmp_path, bayesian=True)
    result = run_plan(plan, _small_dataset())
    series = {r[0] for r in result.infwidth_rows}
    assert series == {"infinite", "bayesian"}
    assert len(result.infwidth_rows) == 6


def test_run_plan_nested_subsets():
    # training subsets must be nested and the test split identical per size
    from ntkuq.datasets import split_ids

    ds = _small_dataset()
    plan = ExperimentPlan(
        sizes=[4, 8, 16],
        arch=ArchitectureConfig(depth=2, input_dim=3),
        output_dir="unused",
        master_seed=3,
        test_size=8,
        val_size=4,
    )
    test_ids, val_ids, pool = split_ids(
        ds, plan.master_seed, plan.test_size, plan.val_size, max(plan.sizes)
    )
    assert test_ids.size == 8 and val_ids.size == 4
    np.testing.assert_array_equal(pool[:4], pool[:8][:4])
    all_ids = np.concatenate([test_ids, val_ids, pool])
    assert np.array_equal(np.sort(all_ids), np.arange(ds.count))


def test_run_plan_builds_one_kernel_per_lambda_b(tmp_path, monkeypatch):
    from ntkuq import experiment
    from ntkuq.finite_width import TrainConfig

    calls = []

    def counting_build(inputs, arch):
        calls.append(arch.lambda_b)
        return build_kernel_pair(inputs, arch)

    monkeypatch.setattr(experiment, "build_kernel_pair", counting_build)
    plan = _small_plan(tmp_path / "a", lambda_b_sweep=[0.5, 1.0, 2.0], bayesian=True)
    result = run_plan(plan, _small_dataset())
    assert calls == [0.5, 1.0, 2.0]
    assert len(result.infwidth_rows) == 18

    # Bayesian cells use K alone, which the first lambda_b's kernel holds.
    calls.clear()
    plan = _small_plan(
        tmp_path / "c", lambda_b_sweep=[0.5, 1.0, 2.0], bayesian=True, infinite_width=False
    )
    result = run_plan(plan, _small_dataset())
    assert calls == [0.5]
    assert len(result.infwidth_rows) == 9

    calls.clear()
    plan = _small_plan(
        tmp_path / "b",
        sizes=[4, 8],
        infinite_width=False,
        ensemble_size=2,
        train_cfg=TrainConfig(eta=0.5, patience=5, max_epochs=10),
    )
    result = run_plan(plan, _small_dataset())
    assert calls == []
    assert result.infwidth_rows == [] and len(result.summary_rows) == 2


def test_run_plan_solves_each_bayesian_cell_once(tmp_path, monkeypatch):
    # K does not depend on lambda_b, so neither does a Bayesian cell.
    from ntkuq import experiment
    from ntkuq.finite_width import EnsembleRunRecord, TrainConfig

    calls = []

    def counting_bayes(kp, train_ids, test_ids, labels):
        calls.append(train_ids.size)
        if train_ids.size == 16:
            raise IllConditionedError("K_A is singular")
        return bayesian_posterior(kp, train_ids, test_ids, labels)

    monkeypatch.setattr(experiment, "bayesian_posterior", counting_bayes)
    lambdas = [0.5, 1.0, 2.0]
    plan = _small_plan(
        tmp_path,
        lambda_b_sweep=lambdas,
        bayesian=True,
        ensemble_size=2,
        train_cfg=TrainConfig(eta=0.5, patience=5, max_epochs=10),
    )
    result = run_plan(plan, _small_dataset())
    assert calls == [4, 8, 16]
    bayes = [r for r in result.infwidth_rows if r[0] == "bayesian"]
    assert [(r[1], float(r[2])) for r in bayes] == [
        (n, lam) for lam in lambdas for n in (4, 8)
    ]
    # every column but lambda_b repeats the first lambda_b's row
    first = {r[1]: r[:2] + r[3:] for r in bayes[:2]}
    assert all(r[:2] + r[3:] == first[r[1]] for r in bayes)
    assert [(s["series"], s["N_D"], s["lambda_b"]) for s in result.skipped] == [
        ("bayesian", 16, lam) for lam in lambdas
    ]

    # The store holds exactly the returned rows, under their headers; a
    # member record is the cell, then the EnsembleRunRecord, then the hash.
    store = tmp_path / "store"
    for name, columns, rows in (
        ("infwidth.csv", experiment.INFWIDTH_COLUMNS, result.infwidth_rows),
        ("ensemble_summary.csv", experiment.SUMMARY_COLUMNS, result.summary_rows),
    ):
        with open(store / name, newline="") as f:
            header, *table = csv.reader(f)
        assert header == columns and len(rows) > 0
        assert table == [[str(v) for v in row] for row in rows]
    with open(store / "ensemble.jsonl") as f:
        members = [json.loads(line) for line in f]
    fields = list(EnsembleRunRecord.__dataclass_fields__)
    assert len(members) == 2 * len(plan.sizes) * len(lambdas)
    for m in members:
        assert list(m) == ["N_D", "lambda_b", "width", "optimizer", *fields, "config_hash"]
        assert m["config_hash"] == result.config_hash


def _per_cell_kernel_rows(plan, ds):
    """Every analytic cell the long way: stack its own [train, val, test]
    points, build their kernel and run the closed-form, Bayesian or GD-map
    route with the sweep's fallback policy."""
    from ntkuq.datasets import split_ids

    test_ids, val_ids, pool = split_ids(
        ds, plan.master_seed, plan.test_size, plan.val_size, max(plan.sizes)
    )
    n_val, n_te = val_ids.size, test_ids.size
    rows, skipped = [], []
    for lam_b in plan.lambda_b_sweep or [plan.arch.lambda_b]:
        arch = replace(plan.arch, lambda_b=float(lam_b))
        for n_d in plan.sizes:
            tr = pool[:n_d]
            X = ds.inputs.points
            X = np.vstack([X[tr], X[val_ids], X[test_ids]])
            kp = build_kernel_pair(InputSet(X), arch)
            train = np.arange(n_d)
            val = np.arange(n_d, n_d + n_val)
            test = np.arange(n_d + n_val, n_d + n_val + n_te)
            y = ds.labels[tr]
            for name in ("infinite", "bayesian"):
                try:
                    if name == "bayesian":
                        post = bayesian_posterior(kp, train, test, y)
                    else:
                        try:
                            post = closed_form_posterior(kp, train, test, y)
                        except IllConditionedError:
                            policy = EarlyStopPolicy(
                                patience=20,
                                check_every=100,
                                max_steps=1_000_000,
                            )
                            post = gd_evolve(
                                kp, train, test, y, eta=None, validation_ids=val,
                                validation_labels=ds.labels[val_ids], stop=policy,
                            )
                except IllConditionedError:
                    skipped.append((name, n_d, float(lam_b)))
                    continue
                stats = loss_stats(post, ds.labels[test_ids])
                rows.append(
                    [name, n_d, float(lam_b), stats.mu_L, stats.var_L, stats.eps_L]
                    + [post.method, post.steps_used]
                )
    return rows, skipped


@pytest.mark.parametrize(
    "sizes, val_size, exact",
    [
        # numpy computes X X^T with BLAS syrk, whose rounding of an entry
        # depends on where its rows fall in the 8-row blocks. With every
        # split a multiple of 8, a per-cell kernel rounds exactly like the
        # shared one, so the rows must match bit for bit.
        ([8, 16, 24], 8, True),
        ([4, 8, 16], 4, False),
    ],
)
def test_run_plan_rows_match_per_cell_kernels(tmp_path, sizes, val_size, exact):
    from ntkuq.datasets import split_ids

    plan = _small_plan(
        tmp_path, sizes=sizes, val_size=val_size, lambda_b_sweep=[0.5, 2.0], bayesian=True
    )
    ds = _small_dataset()
    # Repeat a training point that only the largest cell uses: its train
    # block is then singular, so the closed form falls back to the GD map
    # and the Bayesian cell is skipped, while the smaller cells solve.
    _, _, pool = split_ids(ds, plan.master_seed, plan.test_size, plan.val_size, max(sizes))
    X, Y = ds.inputs.points.copy(), ds.labels.copy()
    X[pool[sizes[1] + 2]], Y[pool[sizes[1] + 2]] = X[pool[1]], Y[pool[1]]
    ds = Dataset(inputs=InputSet(X), labels=Y)

    result = run_plan(plan, ds)
    want_rows, want_skipped = _per_cell_kernel_rows(plan, ds)
    got = [
        [r[0], r[1], float(r[2]), float(r[3]), float(r[4]), float(r[5]), r[6], r[7]]
        for r in result.infwidth_rows
    ]
    assert {r[6] for r in got} == {"closed_form", "bayesian", "iterative"}
    assert want_skipped == [("bayesian", sizes[-1], 0.5), ("bayesian", sizes[-1], 2.0)]
    assert [(s["series"], s["N_D"], s["lambda_b"]) for s in result.skipped] == want_skipped
    if exact:
        assert got == want_rows
    else:
        # Otherwise only the last bits of the kernel may move.
        assert [r[:3] + r[6:] for r in got] == [r[:3] + r[6:] for r in want_rows]
        np.testing.assert_allclose(
            [r[3:6] for r in got], [r[3:6] for r in want_rows], rtol=1e-12, atol=0
        )


def test_run_plan_too_small_dataset(tmp_path):
    plan = _small_plan(tmp_path)
    with pytest.raises(ValueError):
        run_plan(plan, _small_dataset(n=10))


def test_run_plan_with_ensemble(tmp_path):
    from ntkuq.finite_width import TrainConfig

    plan = _small_plan(
        tmp_path,
        sizes=[4, 8],
        ensemble_size=3,
        train_cfg=TrainConfig(eta=0.5, patience=20, max_epochs=50),
        arch=ArchitectureConfig(depth=2, input_dim=3, hidden_width=16),
        lambda_b_sweep=[0.5, 2.0],
    )
    result = run_plan(plan, _small_dataset())
    assert len(result.summary_rows) == 4
    with open(tmp_path / "store" / "ensemble.jsonl") as f:
        members = [json.loads(line) for line in f]
    assert len(members) == 12
    assert {(m["N_D"], m["lambda_b"]) for m in members} == {(4, 0.5), (8, 0.5), (4, 2.0), (8, 2.0)}
    # a summary row names its lambda_b, so a lambda_b sweep's rows differ
    with open(tmp_path / "store" / "ensemble_summary.csv", newline="") as f:
        recs = list(csv.DictReader(f))
    assert list(recs[0])[:2] == ["N_D", "lambda_b"]
    assert {(int(r["N_D"]), float(r["lambda_b"])) for r in recs} == {
        (4, 0.5), (8, 0.5), (4, 2.0), (8, 2.0)
    }


def test_emit_plot_data(tmp_path):
    from ntkuq.finite_width import TrainConfig

    plan = _small_plan(
        tmp_path,
        sizes=[4, 8, 16],
        ensemble_size=4,
        train_cfg=TrainConfig(eta=0.5, patience=20, max_epochs=50),
        arch=ArchitectureConfig(depth=2, input_dim=3, hidden_width=16),
    )
    run_plan(plan, _small_dataset())
    out = tmp_path / "plot.csv"
    rows = emit_plot_data(str(tmp_path / "store"), "mu_L", out_path=str(out))
    series = sorted({r[3] for r in rows})
    assert series == ["finite", "infinite"]
    # rows sorted by (series, x)
    assert rows == sorted(rows, key=lambda r: (r[3], r[0]))
    finite = [r for r in rows if r[3] == "finite"]
    assert all(r[2] > 0 for r in finite)  # SE of the mean
    infinite = [r for r in rows if r[3] == "infinite"]
    assert all(r[2] == 0.0 for r in infinite)
    with open(out, newline="") as f:
        recs = list(csv.DictReader(f))
    assert len(recs) == len(rows)
    eps_rows = emit_plot_data(str(tmp_path / "store"), "eps_L")
    assert all(np.isfinite(r[1]) for r in eps_rows)
    with pytest.raises(ValueError):
        emit_plot_data(str(tmp_path / "store"), "nonsense")



def test_emit_plot_data_zero_loss_ensemble(tmp_path):
    # Members that all report 0 loss have mu_L = 0, where eps_L is undefined:
    # the summary row is NaN, and the plot data reads it without a warning.
    store = tmp_path / "store"
    store.mkdir()
    (store / "ensemble_summary.csv").write_text(
        "N_D,lambda_b,width,optimizer,mu_L,var_L,eps_L,mu_L_se,sigma_L_se,eps_L_se,n_ok,n_diverged\n"
        "8,1,16,full_batch_gd,0,0,nan,0,0,nan,3,0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = emit_plot_data(str(store), "eps_L")
    assert len(rows) == 1 and rows[0][0] == 8.0 and rows[0][3] == "finite"
    assert np.isnan(rows[0][1]) and np.isnan(rows[0][2])


def test_emit_plot_data_rejects_a_store_of_other_columns(tmp_path):
    # A summary without the SE columns would be read out of place.
    store = tmp_path / "store"
    store.mkdir()
    (store / "ensemble_summary.csv").write_text(
        "N_D,lambda_b,width,optimizer,mu_L,var_L,eps_L,n_ok,n_diverged\n"
        "8,1,16,full_batch_gd,0.5,0.01,0.2,3,0\n"
    )
    with pytest.raises(ValueError, match="ensemble_summary.csv does not have the columns"):
        emit_plot_data(str(store), "mu_L")


def test_load_plan_file(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text(
        "sizes = 8,16,32\n"
        "# a comment\n"
        "depth = 2   # trailing comment\n"
        "master_seed = 7\n"
    )
    raw = load_plan_file(path)
    assert raw == {"sizes": "8,16,32", "depth": "2", "master_seed": "7"}
    bad = tmp_path / "bad.txt"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_plan_file(bad)


def test_load_plan_file_rejects_repeated_key(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("sizes = 8,16,32\ndepth = 2\nsizes = 64\n")
    with pytest.raises(ValueError, match="sizes"):
        load_plan_file(path)


def test_plan_validation(tmp_path):
    from ntkuq.finite_width import TrainConfig

    arch = ArchitectureConfig(depth=2, input_dim=3)
    with pytest.raises(ValueError):
        ExperimentPlan(sizes=[16, 8], arch=arch, output_dir="x")
    with pytest.raises(ValueError):
        ExperimentPlan(sizes=[8, 8], arch=arch, output_dir="x")
    nan, inf = float("nan"), float("inf")
    for sweep in ([0.5, 0.5], [1.0, -1.0], [1.0, nan], [1.0, inf]):
        with pytest.raises(ValueError, match="lambda_b_sweep"):
            ExperimentPlan(sizes=[8], arch=arch, output_dir="x", lambda_b_sweep=sweep)
    for bad in (
        dict(lambda_b=nan), dict(lambda_w=nan), dict(lambda_b=-1.0), dict(lambda_w=0.0),
        dict(lambda_b=inf), dict(lambda_w=inf),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ArchitectureConfig(depth=2, **bad)
    for eta in (nan, 0.0, -0.1, inf):
        with pytest.raises(ValueError, match="eta must be > 0"):
            TrainConfig(eta=eta)
    # An infinite sweep value is refused before the store is made, not blamed on the kernel.
    with pytest.raises(ValueError, match="lambda_b_sweep"):
        run_plan(_small_plan(tmp_path, lambda_b_sweep=[1.0, inf]), _small_dataset())
    assert not (tmp_path / "store").exists()
    for bad, message in ((dict(minibatch=0), "minibatch"), (dict(max_epochs=-1), "max_epochs")):
        with pytest.raises(ValueError, match=message):
            TrainConfig(eta=0.1, **bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(sizes=[]), "sizes must be a non-empty list"),
        (dict(sizes=[0, 8]), "sizes must be a non-empty list of sizes >= 1"),
        (dict(ensemble_size=1), "ensemble_size must be 0 or >= 2"),
        (dict(ensemble_size=-3), "ensemble_size must be 0 or >= 2"),
        (dict(infinite_width=False), "a plan must run infinite_width, bayesian or an ensemble"),
    ],
    ids=["no_sizes", "size_0", "ensemble_1", "ensemble_negative", "no_series"],
)
def test_plan_rejects_plans_that_run_nothing(tmp_path, bad, message):
    # Each would otherwise write no rows, or fail after making the store.
    from ntkuq.finite_width import TrainConfig

    with pytest.raises(ValueError, match=message):
        plan = _small_plan(tmp_path, train_cfg=TrainConfig(eta=0.5, max_epochs=5), **bad)
        run_plan(plan, _small_dataset())
    assert not (tmp_path / "store").exists()


def test_ensemble_plan_needs_train_cfg(tmp_path):
    # No fallback TrainConfig: an ensemble plan states its own training settings.
    arch = ArchitectureConfig(depth=2, input_dim=3)
    store = tmp_path / "store"
    with pytest.raises(ValueError, match="train_cfg"):
        ExperimentPlan(sizes=[8], arch=arch, output_dir=str(store), ensemble_size=2)
    assert not store.exists()


# --------------------------------------------------------------------- cli


def test_cli_kernel_build(tmp_path, capsys):
    X = np.random.default_rng(0).standard_normal((6, 3))
    np.save(tmp_path / "x.npy", X)
    out = tmp_path / "kp.bin"
    rc = cli_main(
        [
            "kernel",
            "build",
            "--inputs",
            str(tmp_path / "x.npy"),
            "--out",
            str(out),
            "--depth",
            "2",
        ]
    )
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["count"] == 6 and rec["layer"] == 2
    from ntkuq import load_kernel_pair

    kp = load_kernel_pair(out)
    assert kp.K.shape == (6, 6)


def test_cli_infwidth_predict(tmp_path, capsys):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal((8, 1))
    y_test = rng.standard_normal((2, 1))
    np.save(tmp_path / "x.npy", X)
    np.save(tmp_path / "y.npy", y)
    np.save(tmp_path / "yt.npy", y_test)
    rc = cli_main(
        [
            "infwidth",
            "predict",
            "--inputs",
            str(tmp_path / "x.npy"),
            "--labels",
            str(tmp_path / "y.npy"),
            "--n-train",
            "8",
            "--depth",
            "2",
            "--test-labels",
            str(tmp_path / "yt.npy"),
            "--out",
            str(tmp_path / "post.jsonl"),
            "--cov-out",
            str(tmp_path / "cov.bin"),
        ]
    )
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert list(rec) == ["mu_L", "var_L", "eps_L", "n_test", "n_out", "method"]
    assert rec["n_test"] == 2
    assert rec["mu_L"] > 0
    assert (tmp_path / "post.jsonl").exists()
    # the covariance lands at exactly the given path, as one .npy matrix
    assert not (tmp_path / "cov.bin.npy").exists()
    kp = build_kernel_pair(InputSet(X), ArchitectureConfig(depth=2, input_dim=3))
    post = closed_form_posterior(kp, np.arange(8), np.arange(8, 10), y)
    np.testing.assert_array_equal(np.load(tmp_path / "cov.bin"), post.cov)


def test_cli_ensemble_run(capsys):
    rc = cli_main(
        [
            "ensemble",
            "run",
            "--n-points",
            "40",
            "--input-dim",
            "3",
            "--depth",
            "2",
            "--width",
            "16",
            "--train-size",
            "8",
            "--val-size",
            "4",
            "--test-size",
            "8",
            "--members",
            "3",
            "--eta",
            "0.5",
            "--patience",
            "20",
            "--max-epochs",
            "50",
        ]
    )
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n_ok"] == 3
    assert rec["mu_L"] > 0
    # Every EnsembleSummary field but the member records, the SEs included.
    assert list(rec) == [
        "mu_L", "var_L", "eps_L", "eps_se", "mu_se", "sigma_se", "n_ok", "n_diverged"
    ]


@pytest.mark.parametrize(
    "flag, value",
    [("--train-size", "0"), ("--val-size", "0"), ("--test-size", "0"), ("--test-size", "-5")],
)
def test_cli_ensemble_run_rejects_split_sizes_below_1(capsys, flag, value):
    # Before, these ran: NaN statistics, NaN validation losses, or (at -5) test
    # rows overlapping the validation and training rows.
    args = ["ensemble", "run", "--n-points", "40", "--input-dim", "3", "--depth", "2",
            "--width", "8", "--members", "2", "--max-epochs", "5", "--train-size", "8",
            "--val-size", "4", "--test-size", "8"]
    assert cli_main(args + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": "n_test, n_val and n_train must be >= 1"
    }


def _cli_idx_ensemble(tmp_path, *extra):
    images = np.random.default_rng(5).integers(0, 256, size=(60, 2, 2), dtype=np.uint8)
    img_path, lab_path = _write_idx(tmp_path, images, np.arange(60) % 10)
    return cli_main(
        ["ensemble", "run", "--idx-images", str(img_path), "--idx-labels", str(lab_path)]
        + ["--depth", "2", "--width", "8", "--train-size", "16", "--val-size", "8"]
        + ["--test-size", "16", "--members", "2", "--eta", "0.5", "--max-epochs", "5"]
        + list(extra)
    )


def test_cli_ensemble_run_takes_n_out_from_idx_data(tmp_path, capsys):
    assert _cli_idx_ensemble(tmp_path) == 0
    assert json.loads(capsys.readouterr().out)["n_ok"] == 2
    assert _cli_idx_ensemble(tmp_path, "--n-out", "10") == 0
    capsys.readouterr()
    assert _cli_idx_ensemble(tmp_path, "--n-out", "3") == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == "n_out 3 given but the data has 10"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--idx-images", "img.idx"], "idx_images and idx_labels must be given together"),
        (["--idx-labels", "lab.idx"], "idx_images and idx_labels must be given together"),
        (
            ["--idx-images", "img.idx", "--idx-labels", "lab.idx", "--events", "nope.bin"],
            "idx data does not read events",
        ),
    ],
    ids=["images_alone", "labels_alone", "events_beside_idx"],
)
def test_cli_ensemble_run_takes_one_data_source(tmp_path, capsys, monkeypatch, flags, message):
    images = np.random.default_rng(5).integers(0, 256, size=(60, 2, 2), dtype=np.uint8)
    _write_idx(tmp_path, images, np.arange(60) % 10)
    monkeypatch.chdir(tmp_path)  # file paths are read relative to the working directory
    args = ["ensemble", "run", "--depth", "2", "--width", "8", "--members", "2"]
    assert cli_main(args + ["--max-epochs", "5"] + flags) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("flag", ["--width", "--n-out"])
@pytest.mark.parametrize("command", ["kernel", "infwidth"])
def test_cli_analytic_commands_reject_network_flags(tmp_path, capsys, command, flag):
    # K and Theta depend on neither the hidden width nor the output width.
    X = np.random.default_rng(0).standard_normal((6, 3))
    np.save(tmp_path / "x.npy", X)
    np.save(tmp_path / "y.npy", np.zeros((4, 1)))
    args = {
        "kernel": ["kernel", "build"],
        "infwidth": ["infwidth", "predict", "--labels", str(tmp_path / "y.npy"), "--n-train", "4"],
    }[command]
    args += ["--inputs", str(tmp_path / "x.npy"), "--out", str(tmp_path / "out")]
    assert cli_main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(args + [flag, "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 7" % flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kernel", "infwidth"])
def test_cli_analytic_commands_reject_1d_inputs(tmp_path, capsys, command):
    # 40 values are not guessed to be 40 points or 40 features: rows are points.
    np.save(tmp_path / "x.npy", np.linspace(-1.0, 1.0, 40))
    np.save(tmp_path / "y.npy", np.zeros((30, 1)))
    args = {
        "kernel": ["kernel", "build"],
        "infwidth": ["infwidth", "predict", "--labels", str(tmp_path / "y.npy"), "--n-train", "30"],
    }[command]
    assert cli_main(args + ["--inputs", str(tmp_path / "x.npy"), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "points shape (40,)" in err["message"]


def test_cli_ensemble_run_divides_eta_by_lambda_b(capsys):
    # At lambda_b = 4 the default eta = 1 diverges; every ensemble steps with eta / 4.
    args = ["ensemble", "run", "--n-points", "32", "--depth", "3", "--lambda-b", "4",
            "--members", "2", "--max-epochs", "20", "--train-size", "16", "--val-size", "8",
            "--test-size", "8"]
    assert cli_main(args) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["n_ok"], rec["n_diverged"]) == (2, 0)


def test_cli_fit_names_the_bad_cell(tmp_path, capsys):
    fit_csv = tmp_path / "fitme.csv"
    fit_csv.write_text("N_D,value\n10,1.0\n100,x\n1000,0.1\n")
    assert cli_main(["fit", "--input", str(fit_csv)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "%s line 3, column value: 'x' is not a valid float" % fit_csv,
    }


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_fit_rejects_non_finite_values(tmp_path, capsys, bad):
    # Before, the fit printed NaN (not JSON) with r_squared 1.0 and exited 0.
    fit_csv = tmp_path / "fitme.csv"
    fit_csv.write_text("N_D,value\n10,1.0\n100,%s\n1000,0.1\n" % bad)
    assert cli_main(["fit", "--input", str(fit_csv)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "power-law fit requires finite, strictly positive sizes and values",
    }


def test_cli_sweep_fit_emit(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "sizes = 4,8,16\n"
        "depth = 2\n"
        "input_dim = 3\n"
        "test_size = 8\n"
        "val_size = 4\n"
        "master_seed = 3\n"
        "n_points = 40\n"
        "output_dir = %s\n" % (tmp_path / "store")
    )
    rc = cli_main(["sweep", "run", "--plan", str(plan)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["rows"] == 3
    assert rec["flatness"] in ("pass", "fail", "indeterminate")

    fit_csv = tmp_path / "fitme.csv"
    with open(fit_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["N_D", "value"])
        for n in (10, 100, 1000):
            w.writerow([n, 2.0 * n**-0.5])
    rc = cli_main(["fit", "--input", str(fit_csv)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert list(rec) == ["exponent", "intercept", "slope_sigma", "n_points", "r_squared"]
    assert rec["exponent"] == pytest.approx(-0.5, abs=1e-10)
    # a column the file does not have is named, next to the ones it has
    assert cli_main(["fit", "--input", str(fit_csv), "--y-col", "mu_L"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "%s has no column mu_L; its columns are N_D, value" % fit_csv,
    }

    rc = cli_main(
        [
            "emit-plot",
            "--store",
            str(tmp_path / "store"),
            "--quantity",
            "mu_L",
            "--out",
            str(tmp_path / "plot.csv"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "plot.csv").exists()


def test_cli_sweep_rejects_unknown_keys_and_flags(tmp_path, capsys):
    base = "sizes = 4,8,16\ndepth = 2\ninput_dim = 3\ntest_size = 8\nval_size = 4\n"
    store = tmp_path / "store"
    plan = tmp_path / "plan.txt"
    for line, named in (
        ("ensemble_sise = 3", ["ensemble_sise"]),
        ("bayesian = yes", ["bayesian", "yes"]),
        ("infinite_width = no", ["infinite_width", "no"]),
        ("lambda_b_sweep = 0.5,0.5", ["lambda_b_sweep"]),
        ("lambda_b_sweep = 1.0,-1.0", ["lambda_b_sweep"]),
        # a value that does not cast names its key
        ("depth = three", ["depth", "three"]),
        ("noise = x", ["noise", "'x'"]),
        ("sizes = 8,x", ["sizes", "'x'"]),
        ("lambda_b_sweep = 0.5,y", ["lambda_b_sweep", "'y'"]),
        # a sweep replaces lambda_b, so the two are not given together
        ("lambda_b = 3\nlambda_b_sweep = 0.5,1", ["lambda_b", "lambda_b_sweep"]),
    ):
        # the case's value replaces the base plan's, so no key is given twice
        key = line.split(" = ")[0]
        body = "".join(kept + "\n" for kept in base.splitlines() if kept.split(" = ")[0] != key)
        plan.write_text(body + line + "\n")
        rc = cli_main(["sweep", "run", "--plan", str(plan), "--out", str(store)])
        assert rc == 1, line
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert all(word in err["message"] for word in named), err
        assert not store.exists(), line
    # a plan file without sizes names the missing key
    plan.write_text(base.replace("sizes = 4,8,16\n", ""))
    assert cli_main(["sweep", "run", "--plan", str(plan), "--out", str(store)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "the plan file sets no sizes"}
    assert not store.exists()
    # with neither --out nor an output_dir key there is nowhere to write
    plan.write_text(base)
    assert cli_main(["sweep", "run", "--plan", str(plan)]) == 1
    assert "output_dir" in json.loads(capsys.readouterr().err)["message"]
    # flags take true or false in any case; training keys and output_dir are
    # accepted without an ensemble and with --out, which wins
    elsewhere = tmp_path / "elsewhere"
    plan.write_text(
        base + "infinite_width = FALSE\nbayesian = True\neta = 0.5\noutput_dir = %s\n" % elsewhere
    )
    assert cli_main(["sweep", "run", "--plan", str(plan), "--out", str(store)]) == 0
    assert not elsewhere.exists()
    with open(store / "infwidth.csv", newline="") as f:
        assert {r["series"] for r in csv.DictReader(f)} == {"bayesian"}


def test_cli_sweep_rejects_repeated_plan_key(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "sizes = 4,8,16\ndepth = 2\ninput_dim = 3\ntest_size = 8\nval_size = 4\nsizes = 32\n"
    )
    store = tmp_path / "store"
    assert cli_main(["sweep", "run", "--plan", str(plan), "--out", str(store)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "sizes" in err["message"], err
    assert not store.exists()


def _sweep_idx_plan(tmp_path, monkeypatch, extra=""):
    images = np.random.default_rng(5).integers(0, 256, size=(60, 2, 2), dtype=np.uint8)
    _write_idx(tmp_path, images, np.arange(60) % 10)
    monkeypatch.chdir(tmp_path)
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "idx_images = img.idx\nidx_labels = lab.idx\nsizes = 8,16,24\ndepth = 2\n"
        "test_size = 16\nval_size = 8\noutput_dir = store\n" + extra
    )
    return cli_main(["sweep", "run", "--plan", "plan.txt"])


def test_cli_sweep_run_on_idx_files(tmp_path, capsys, monkeypatch):
    extra = "bayesian = true\nensemble_size = 2\nwidth = 8\neta = 0.5\nmax_epochs = 20\n"
    assert _sweep_idx_plan(tmp_path, monkeypatch, extra) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["rows"], rec["ensemble_rows"], len(rec["fits"])) == (6, 3, 9)
    plan, ds = plan_from_file("plan.txt")
    assert (plan.arch.input_dim, plan.arch.n_out) == (4, 10) == (ds.inputs.input_dim, ds.n_out)
    np.testing.assert_array_equal(ds.labels, load_idx("img.idx", "lab.idx").labels)


@pytest.mark.parametrize(
    "line, message",
    [
        ("input_dim = 16", "input_dim 16 given but the data has 4"),
        ("n_out = 3", "n_out 3 given but the data has 10"),
        ("noise = 0.1", "idx data does not read noise"),
    ],
    ids=["input_dim", "n_out", "noise"],
)
def test_cli_sweep_rejects_settings_idx_data_contradicts(
    tmp_path, capsys, monkeypatch, line, message
):
    assert _sweep_idx_plan(tmp_path, monkeypatch, line + "\n") == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "store").exists()


def test_teacher_settings_need_the_teacher_generator(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "sizes = 4,8,16\ndepth = 2\ninput_dim = 3\ntest_size = 8\nval_size = 4\n"
        "generator = sinusoid\nteacher_depth = 7\nteacher_width = 5\n"
    )
    store = tmp_path / "store"
    assert cli_main(["sweep", "run", "--plan", str(plan), "--out", str(store)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "sinusoid data does not read teacher_depth, teacher_width"
    }
    assert not store.exists()
    # a misspelt generator is named as such, not as a generator that reads no teacher settings
    plan.write_text(plan.read_text().replace("sinusoid", "teachr"))
    assert cli_main(["sweep", "run", "--plan", str(plan), "--out", str(store)]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == "unknown synthetic generator 'teachr'"
    args = ["ensemble", "run", "--generator", "sinusoid", "--teacher-width", "5", "--members", "2"]
    assert cli_main(args) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "sinusoid data does not read teacher_width"
    }


def test_cli_sweep_run_on_event_file(tmp_path, capsys):
    rng = np.random.default_rng(7)
    events = tmp_path / "events.bin"
    save_event_vectors(events, rng.standard_normal((40, 3)), rng.uniform(20.0, 80.0, 40))
    body = "sizes = 4,8,16\ndepth = 2\ntest_size = 8\nval_size = 4\nmaster_seed = 3\n"
    hashes = []
    for name, data in (("events", "events = %s\n" % events), ("synthetic", "input_dim = 3\n")):
        plan = tmp_path / ("%s.txt" % name)
        plan.write_text(body + data + "output_dir = %s\n" % (tmp_path / name))
        assert cli_main(["sweep", "run", "--plan", str(plan)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["rows"] == 3 and rec["skipped"] == 0
        with open(tmp_path / name / "infwidth.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["N_D"]) for r in rows] == [4, 8, 16]
        assert {r["config_hash"] for r in rows} == {rec["config_hash"]}
        assert all(float(r["mu_L"]) > 0 for r in rows)
        hashes.append(rec["config_hash"])
    assert hashes[0] != hashes[1]


def test_synthetic_plan_file_matches_python_plan(tmp_path):
    # perfbench builds its plans in Python, next to a make_synthetic call.
    path = tmp_path / "plan.txt"
    path.write_text(
        "sizes = 4,8,16\ndepth = 2\ninput_dim = 3\ntest_size = 8\nval_size = 4\n"
        "master_seed = 3\nn_points = 40\ndata_seed = 2\nteacher_depth = 2\n"
        "teacher_width = 16\nbayesian = true\noutput_dir = %s\n" % (tmp_path / "file")
    )
    from_file = run_plan(*plan_from_file(path))
    direct = run_plan(_small_plan(tmp_path, bayesian=True), _small_dataset())
    assert from_file.infwidth_rows == direct.infwidth_rows
    assert from_file.config_hash == direct.config_hash


def test_dataset_settings_are_one_list(tmp_path, capsys):
    names = {name for name, *_ in DATASET_SETTINGS}
    assert len(names) == 13
    # The flags and plan keys that set the network, the training or the sweep.
    shared = {"depth", "width", "lambda_b", "lambda_w", "eta", "optimizer", "patience"}
    shared |= {"max_epochs", "test_size", "val_size"}
    ensemble_only = {"train_size", "members", "seed", "minibatch"}
    plan_only = {"sizes", "output_dir", "master_seed", "ensemble_size", "infinite_width"}
    plan_only |= {"bayesian", "lambda_b_sweep"}
    with pytest.raises(SystemExit):
        cli_main(["ensemble", "run", "--help"])
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help"}
    assert {f.replace("-", "_") for f in flags} == names | shared | ensemble_only
    # plan_from_file names only its own keys; the dataset keys are the list's
    source = inspect.getsource(plan_from_file)
    assert set(re.findall(r'(?:get|flag|pop)\("(\w+)"', source)) == shared | plan_only
    base = "sizes = 8\ntest_size = 4\nval_size = 4\noutput_dir = x\n"
    for name in names | {"not_a_key"}:
        path = tmp_path / "plan.txt"
        path.write_text(base + "%s = 1\n" % name)
        try:
            plan_from_file(path)
            error = ""
        except (ValueError, OSError) as exc:
            error = str(exc)
        assert ("unknown plan keys" in error) == (name == "not_a_key"), (name, error)


def test_cli_errors_as_json(tmp_path, capsys):
    rc = cli_main(
        [
            "kernel",
            "build",
            "--inputs",
            str(tmp_path / "missing.npy"),
            "--out",
            str(tmp_path / "kp.bin"),
        ]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err
