import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import gradbound
from gradbound import bounds as bd
from gradbound import cli as cli_module
from gradbound import gaussians, nets, training
from gradbound.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    ConfigError,
    SweepSpec,
    _spec_from_sources,
    main,
    parse_synthetic_spec,
    resolve_dataset,
    run,
)
from gradbound.datasets import DataSourceError, write_idx
from gradbound.nets import arch_for_depth
from gradbound.training import TrainConfig

SYNTH = "k=2,d=16,sigma=1.0,n_per_class=640,sep=3.0"


def small_spec(experiment, tmp_path, **kw):
    defaults = dict(
        experiment=experiment,
        synthetic=SYNTH,
        train_size=1024, heldout_size=256,
        variance_grid=(0.05, 0.1), depth_grid=(1, 2),
        estimator=bd.EstimatorConfig(n_weight_samples=4, seed=5),
        train=TrainConfig(epochs=2, seed=5),
        out=str(tmp_path / f"{experiment}.csv"),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def read_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = lines[len(comments)].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[len(comments) + 1 :]]
    return comments, header, rows


# ----------------------------------------------------------- config parsing


def test_synthetic_spec_parsing():
    p = parse_synthetic_spec("k=3,d=5,n_per_class=7")
    assert p == {"k": 3, "d": 5, "n_per_class": 7, "sigma": 1.0, "sep": 3.0}
    with pytest.raises(ConfigError):
        parse_synthetic_spec("k=3,d=2,n_per_class=7")  # d < k
    with pytest.raises(ConfigError):
        parse_synthetic_spec("k=3,bogus=1")
    with pytest.raises(ConfigError):
        parse_synthetic_spec("k=3")
    with pytest.raises(ConfigError, match="'k' is given twice"):
        parse_synthetic_spec("k=2,d=4,n_per_class=7,k=3")
    for empty in ("k=0,d=4,n_per_class=7", "k=0,d=0,n_per_class=7"):
        with pytest.raises(ConfigError):
            parse_synthetic_spec(empty)


def test_spec_merge_precedence():
    file_config = {"variance_grid": [0.1], "out": "file.json", "seed": 1,
                   "estimator": {"n_weight_samples": 3}}
    flags = {"seed": 9, "out": "flag.csv", "synthetic": None}
    spec = _spec_from_sources("loss-vs-variance", file_config, flags)
    assert spec.out == "flag.csv"  # flag beats file
    assert spec.variance_grid == (0.1,)
    assert spec.estimator.seed == 9 and spec.train.seed == 9 and spec.data_seed == 9
    assert spec.estimator.n_weight_samples == 3


@pytest.mark.parametrize("specific_first", [False, True])
def test_a_specific_seed_beats_the_files_seed_in_either_key_order(specific_first):
    items = [("seed", 3), ("estimator", {"seed": 5}), ("data_seed", 7)]
    file_config = dict(items[::-1] if specific_first else items)
    spec = _spec_from_sources("loss-vs-variance", file_config, {})
    assert (spec.estimator.seed, spec.data_seed, spec.train.seed) == (5, 7, 3)
    flagged = _spec_from_sources("loss-vs-variance", file_config, {"seed": 9})
    assert (flagged.estimator.seed, flagged.data_seed, flagged.train.seed) == (9, 9, 9)


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        SweepSpec(experiment="nope")
    with pytest.raises(ConfigError):
        SweepSpec(experiment="loss-vs-variance", variance_grid=())
    with pytest.raises(ConfigError):
        _spec_from_sources("loss-vs-variance", {"bogus_key": 1}, {})
    # a JSON number such as 1e999 parses to inf: the checks refuse it too
    for infinite in ({"variance_grid": [math.inf]}, {"sigma_q": math.inf},
                     {"estimator": {"loss_bound_slack": math.inf}},
                     {"train": {"learning_rate": math.inf}}):
        with pytest.raises(ConfigError):
            _spec_from_sources("loss-vs-variance", infinite, {})
    # a bool compares as 0 or 1, but it is not a real
    for flag in ({"variance_grid": (True,)}, {"lambda_grid": (True,)}, {"sigma_q": True}):
        with pytest.raises(ConfigError):
            SweepSpec(experiment="loss-vs-variance", **flag)
    with pytest.raises(ValueError):
        bd.EstimatorConfig(loss_bound_slack=False)
    # a seed keys Philox as one uint64, so it must lie in [0, 2**64)
    for bad_seed in (-1, 2**64):
        with pytest.raises(ValueError):
            bd.EstimatorConfig(seed=bad_seed)
        with pytest.raises(ConfigError):
            SweepSpec(experiment="loss-vs-variance", data_seed=bad_seed)
        with pytest.raises(ConfigError):
            _spec_from_sources("loss-vs-variance", {}, {"seed": bad_seed})
    top = _spec_from_sources("loss-vs-variance", {}, {"seed": 2**64 - 1})
    assert top.data_seed == top.estimator.seed == top.train.seed == 2**64 - 1
    spec = SweepSpec(experiment="loss-vs-variance", variance_grid=(1, np.float64(0.5)),
                     lambda_grid=(2,), sigma_q=np.float64(0.1),
                     estimator=bd.EstimatorConfig(loss_bound_slack=1))
    assert spec.variance_grid == (1, 0.5) and spec.estimator.loss_bound_slack == 1


def test_experiment_key_is_refused_with_its_reason():
    with pytest.raises(ConfigError, match="command's first argument"):
        _spec_from_sources("loss-vs-variance", {"experiment": "loss-vs-variance"}, {})


def test_per_experiment_defaults():
    spec = _spec_from_sources("naive-vs-lambda", {}, {})
    assert spec.lambda_grid and spec.variance_grid == (0.1,)
    spec = _spec_from_sources("train-report", {}, {})
    assert spec.depth_grid == (1,)


# ------------------------------------------------------------- data source


def test_resolve_synthetic_dataset():
    spec = SweepSpec(experiment="loss-vs-variance", synthetic=SYNTH,
                     train_size=1024, heldout_size=256)
    train, held = resolve_dataset(spec)
    assert train.m == 1024 and held.m == 256
    assert train.class_count == 2 and train.dim == 16
    assert [side is None for side in resolve_dataset(spec, (False, True))] == [True, False]


def test_resolve_dataset_errors(tmp_path):
    with pytest.raises(DataSourceError, match="no dataset source"):
        resolve_dataset(SweepSpec(experiment="loss-vs-variance"))
    spec = SweepSpec(experiment="loss-vs-variance",
                     images_path=str(tmp_path / "missing-img"),
                     labels_path=str(tmp_path / "missing-lab"))
    with pytest.raises(DataSourceError):
        resolve_dataset(spec)
    with pytest.raises(DataSourceError):
        resolve_dataset(SweepSpec(experiment="loss-vs-variance", synthetic=SYNTH,
                                  train_size=10_000, heldout_size=1))


def test_arch_for_depth():
    lin = arch_for_depth(1, 784, 10, 20_000)
    assert lin.hidden_widths == () and lin.bias is False
    deep = arch_for_depth(3, 784, 10, 20_000)
    assert deep.depth == 3 and deep.bias is True
    with pytest.raises(ValueError):
        arch_for_depth(0, 784, 10, 20_000)


# ---------------------------------------------------------------- sweeps


def test_loss_vs_variance_schema_and_rows(tmp_path):
    spec = small_spec("loss-vs-variance", tmp_path)
    assert run(spec) == 0
    comments, header, rows = read_rows(tmp_path / "loss-vs-variance.csv")
    assert header == ["depth", "sigma_p", "avg_prior_loss", "loss_bound"]
    assert len(rows) == 4  # 2 depths x 2 variances
    assert any(l.startswith("# config: ") for l in comments)
    cfg = json.loads(comments[0].removeprefix("# config: "))
    assert cfg["experiment"] == "loss-vs-variance"
    assert cfg["estimator"]["seed"] == 5


def test_naive_vs_lambda_overflow_column(tmp_path):
    spec = small_spec("naive-vs-lambda", tmp_path,
                      variance_grid=(3.0,), depth_grid=(1,),
                      lambda_grid=(0.5, 2000.0))
    assert run(spec) == 0
    _, header, rows = read_rows(tmp_path / "naive-vs-lambda.csv")
    assert header[:4] == ["depth", "sigma_p", "lam", "value"]
    flags = {r["lam"]: r["overflowed"] for r in rows}
    assert flags["0.5"] == "false"
    assert flags["2000.0"] == "true"
    inf_rows = [r for r in rows if r["overflowed"] == "true"]
    assert all(r["value"] == "inf" for r in inf_rows)
    assert all(math.isfinite(float(r["log_space_value"])) for r in rows)


def test_bound_vs_variance_and_gradnorm_run(tmp_path):
    for exp in ("bound-vs-variance", "gradnorm-vs-variance", "fit-subgamma"):
        spec = small_spec(exp, tmp_path, variance_grid=(0.1,), depth_grid=(1, 2))
        assert run(spec) == 0
    _, header, rows = read_rows(tmp_path / "bound-vs-variance.csv")
    assert {r["lam_label"] for r in rows} == {"sqrt_m", "m"}
    _, header, rows = read_rows(tmp_path / "gradnorm-vs-variance.csv")
    assert rows[0]["linear_worst_case"] != ""
    assert rows[1]["linear_worst_case"] == ""  # depth 2 has no closed form


def test_train_report_schema(tmp_path):
    spec = small_spec("train-report", tmp_path, depth_grid=(1,),
                      variance_grid=(0.05,))
    assert run(spec) == 0
    _, header, rows = read_rows(tmp_path / "train-report.csv")
    for col in ("train_loss", "test_loss", "bound_sqrt_m", "bound_m", "kl",
                "prior_variance", "sigma_q", "l_d_proxy"):
        assert col in header
    assert rows[0]["l_d_proxy"] == "heldout"
    assert float(rows[0]["sigma_p"]) == pytest.approx(math.sqrt(0.05))


def test_identity_checks_exit_status(tmp_path):
    spec = SweepSpec(experiment="identity-checks",
                     estimator=bd.EstimatorConfig(n_weight_samples=4, seed=5),
                     out=str(tmp_path / "checks.csv"))
    assert run(spec) == 0
    _, header, rows = read_rows(tmp_path / "checks.csv")
    assert header == ["check", "case", "lhs", "rhs", "gap", "passed"]
    assert len(rows) == 120
    assert all(r["passed"] == "true" for r in rows)


def test_rerun_is_byte_identical_modulo_timestamp(tmp_path):
    spec = small_spec("loss-vs-variance", tmp_path, out=str(tmp_path / "a.csv"))
    path = tmp_path / "a.csv"
    strip = lambda: [l for l in path.read_text().splitlines()
                     if not l.startswith("# timestamp")]
    run(spec)
    first = strip()
    run(spec)
    assert strip() == first


def test_json_output_tags_infinities(tmp_path):
    spec = small_spec("naive-vs-lambda", tmp_path, variance_grid=(3.0,),
                      depth_grid=(1,), lambda_grid=(2000.0,),
                      out=str(tmp_path / "out.json"))
    assert run(spec) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["rows"][0]["value"] == "inf"
    assert isinstance(doc["rows"][0]["log_space_value"], float)
    assert doc["config"]["experiment"] == "naive-vs-lambda"
    assert "timestamp" in doc


def test_output_format_follows_the_out_suffix(tmp_path, capsys):
    # JSON exactly when the path ends in .json; the bench writes suffix-less outs
    for name, is_json in (("x.json", True), ("x.csv", False), ("x", False)):
        out = tmp_path / name
        spec = small_spec("loss-vs-variance", tmp_path, depth_grid=(1,),
                          variance_grid=(0.1,), out=str(out))
        assert run(spec) == 0
        if is_json:
            assert json.loads(out.read_text())["columns"] == GOLDEN_HEADERS["loss-vs-variance"]
        else:
            comments, header, rows = read_rows(out)
            assert comments[0].startswith("# config: ") and len(rows) == 1
            assert header == GOLDEN_HEADERS["loss-vs-variance"]
    # the retired flag is refused by the parser, as a config error
    assert main(["loss-vs-variance", "--format", "json"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "--format" in err["message"]


GOLDEN_HEADERS = {
    "naive-vs-lambda": ["depth", "sigma_p", "lam", "value", "log_space_value",
                        "std_error", "overflowed", "n_weight_samples",
                        "n_data_points"],
    "gradnorm-vs-variance": ["depth", "sigma_p", "grad_norm_sq_mean",
                             "grad_norm_sq_std_error", "linear_worst_case"],
    "loss-vs-variance": ["depth", "sigma_p", "avg_prior_loss", "loss_bound"],
    "bound-vs-variance": ["depth", "sigma_p", "lam_label", "lam", "value",
                          "log_space_value", "std_error", "overflowed",
                          "loss_bound"],
    "fit-subgamma": ["depth", "sigma_p", "v", "c", "lambda_max", "residual",
                     "n_finite_points", "n_grid_points", "dominates"],
    "train-report": ["depth", "prior_variance", "sigma_p", "sigma_q", "m",
                     "train_loss", "test_loss", "train_accuracy",
                     "test_accuracy", "bound_sqrt_m", "bound_sqrt_m_log",
                     "bound_m", "bound_m_log", "kl", "loss_bound", "l_d_proxy"],
    "identity-checks": ["check", "case", "lhs", "rhs", "gap", "passed"],
}


def test_golden_column_schemas(tmp_path):
    for experiment, expected in GOLDEN_HEADERS.items():
        kw = {}
        if experiment == "naive-vs-lambda":
            kw["lambda_grid"] = (1.0,)
        spec = small_spec(experiment, tmp_path, variance_grid=(0.1,),
                          depth_grid=(1,), **kw)
        run(spec)
        _, header, _ = read_rows(tmp_path / f"{experiment}.csv")
        assert header == expected, experiment


@pytest.mark.parametrize("experiment", GOLDEN_HEADERS)
def test_every_row_has_exactly_the_columns(experiment, tmp_path):
    # The columns are the first row's keys, and a CSV would drop any other.
    out = tmp_path / "out.json"
    spec = small_spec(experiment, tmp_path, variance_grid=(0.1, 3.0),
                      lambda_grid=(1.0, 2000.0) if experiment == "naive-vs-lambda" else (),
                      out=str(out))
    assert run(spec) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == GOLDEN_HEADERS[experiment]
    assert all(set(row) == set(doc["columns"]) for row in doc["rows"])


@pytest.mark.parametrize("synthetic,sizes,depths,variances,target,seed", [
    # d = 784 under 25-wide first layers, and the k-wide linear model
    ("k=3,d=784,n_per_class=120,sep=2.5", (200, 160), (1, 2, 3), (0.01, 0.1, 0.5), 20_000, 3),
    # d = 16 under 158- and 46-wide hidden layers
    ("k=2,d=16,n_per_class=100,sep=3.0", (100, 100), (2, 3), (0.05, 0.3, 0.7), 3000, 5),
], ids=["narrowing", "widening"])
def test_loss_bound_of_loss_vs_variance_is_bound_vs_variances(
        synthetic, sizes, depths, variances, target, seed, tmp_path):
    """loss-vs-variance's priors take draw_stats's scale path, as the
    gradient sweeps' do, and the loss kernel gives a forward-only pass the
    losses of a gradient pass: its loss_bound is bound-vs-variance's bit
    for bit at every (depth, sigma)."""
    loss_bounds = []
    for experiment in ("loss-vs-variance", "bound-vs-variance"):
        spec = small_spec(experiment, tmp_path, synthetic=synthetic, train_size=sizes[0],
                          heldout_size=sizes[1], depth_grid=depths, variance_grid=variances,
                          mlp_target_params=target, data_seed=seed,
                          estimator=bd.EstimatorConfig(n_weight_samples=6, seed=seed))
        assert run(spec) == 0
        rows = read_rows(tmp_path / f"{experiment}.csv")[2]
        loss_bounds.append({(r["depth"], r["sigma_p"]): r["loss_bound"] for r in rows})
    loss_rows, bound_rows = loss_bounds
    assert len(loss_rows) == len(depths) * len(variances)
    assert bound_rows == loss_rows


def test_a_sweep_gathers_only_the_splits_it_reads(monkeypatch, tmp_path):
    """Held-out sweeps gather no train rows, naive-vs-lambda no held-out
    rows and train-report both; m is the train split's size throughout."""
    gathered = []
    take = cli_module.take

    def counted(rows, labels, k, idx):
        gathered.append(idx.size)
        return take(rows, labels, k, idx)

    monkeypatch.setattr(cli_module, "take", counted)
    for experiment, sides in [("loss-vs-variance", [256]), ("gradnorm-vs-variance", [256]),
                              ("bound-vs-variance", [256]), ("fit-subgamma", [256]),
                              ("naive-vs-lambda", [1024]), ("train-report", [1024, 256])]:
        gathered.clear()
        spec = small_spec(experiment, tmp_path, depth_grid=(1,), variance_grid=(0.1,),
                          lambda_grid=(1.0,), train=TrainConfig(epochs=1, seed=5))
        assert run(spec) == 0
        assert gathered == sides, experiment
    rows = read_rows(tmp_path / "bound-vs-variance.csv")[2]
    assert [r["lam"] for r in rows] == [repr(math.sqrt(1024)), "1024.0"]
    assert read_rows(tmp_path / "naive-vs-lambda.csv")[2][0]["n_data_points"] == "1024"


# ------------------------------------------------------- passes per draw


def count_calls(monkeypatch, module, name, counts, key):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def passes(monkeypatch):
    """Counts of standard-normal streams, forward passes and backward passes.

    Weight streams (below ``RESERVED_STREAM_BASE``) count as "streams", and
    the reserved ones that make data as "reserved_streams".
    """
    counts = {}
    original = gaussians.standard_normal

    def counted(seed, stream, n):
        key = "streams" if stream < gaussians.RESERVED_STREAM_BASE else "reserved_streams"
        counts[key] = counts.get(key, 0) + 1
        return original(seed, stream, n)

    # Counted at every module of the package that binds it (cli included,
    # should it ever import it): ``from .gaussians import`` copies the
    # binding, so patching gaussians alone would miss those callers.
    bound = []
    for info in pkgutil.iter_modules(gradbound.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gradbound.{info.name}")
        if getattr(module, "standard_normal", None) is original:
            monkeypatch.setattr(module, "standard_normal", counted)
            bound.append(module)
    assert gaussians in bound and training in bound
    count_calls(monkeypatch, nets, "_forward_cached", counts, "forward")
    count_calls(monkeypatch, bd, "loss_and_sq_grad_norms", counts, "backward")
    count_calls(monkeypatch, training, "loss_and_param_grads", counts, "sgd_step")
    return counts


@pytest.mark.parametrize("experiment,grads", [
    ("bound-vs-variance", True), ("fit-subgamma", True),
    ("gradnorm-vs-variance", True),
    ("naive-vs-lambda", False), ("loss-vs-variance", False),
])
def test_sweeps_sample_once_and_pass_once_per_draw(experiment, grads, passes, tmp_path):
    spec = small_spec(experiment, tmp_path, lambda_grid=(1.0, 2.0))
    assert len(spec.variance_grid) > 1
    assert run(spec) == 0
    points = len(spec.depth_grid) * len(spec.variance_grid)
    draws = points * spec.estimator.n_weight_samples
    # one stream per draw index, shared by every depth and prior scale
    assert passes.get("streams") == spec.estimator.n_weight_samples
    # and the data's: one per synthetic class
    assert passes.get("reserved_streams") == 2
    assert passes.get("forward") == draws
    assert passes.get("backward", 0) == (draws if grads else 0)


def test_train_report_passes(passes, tmp_path):
    spec = small_spec("train-report", tmp_path, depth_grid=(1, 2))
    assert run(spec) == 0
    depths = len(spec.depth_grid)
    points = depths * len(spec.variance_grid)
    draws = points * spec.estimator.n_weight_samples
    # one stacked SGD pass per (depth, step), shared by the depth's variances
    steps = depths * spec.train.epochs * math.ceil(spec.train_size / spec.train.batch_size)
    # one stream per draw index, shared by every depth and posterior, plus
    # one initialization stream per depth, shared by its variances
    assert passes.get("streams") == spec.estimator.n_weight_samples + depths
    assert passes.get("backward") == draws
    assert passes.get("sgd_step") == steps
    # one forward per stacked SGD step and per posterior draw, plus two
    # evaluations per grid point
    assert passes.get("forward") == steps + draws + 2 * points


def test_sgd_makes_one_forward_per_step(passes):
    data = gradbound.synth_gaussian(2, 4, [[2.0, 0, 0, 0], [0, 2.0, 0, 0]], 1.0, 50, seed=1)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=2)
    training.train(gradbound.MlpArchitecture(4, 2, (3,)), data, cfg, [0.1])
    steps = cfg.epochs * math.ceil(data.m / cfg.batch_size)
    assert passes.get("sgd_step") == passes.get("forward") == steps


# ----------------------------------------------------------- atomic output


def _csv_writer_fails(f, *args, **kwargs):
    f.write("depth,")
    raise OSError("disk full")


def _json_dump_fails(doc, f, *args, **kwargs):
    f.write('{"columns": ')
    raise OSError("disk full")


@pytest.mark.parametrize("fmt,module,name,failing", [
    ("csv", cli_module.csv, "writer", _csv_writer_fails),
    ("json", cli_module.json, "dump", _json_dump_fails),
])
def test_failed_write_leaves_no_partial_output(fmt, module, name, failing, tmp_path,
                                               monkeypatch):
    out = tmp_path / f"out.{fmt}"
    spec = small_spec("loss-vs-variance", tmp_path, depth_grid=(1,),
                      variance_grid=(0.1,), out=str(out))
    with monkeypatch.context() as patch:
        patch.setattr(module, name, failing)
        with pytest.raises(OSError):
            run(spec)
    assert os.listdir(tmp_path) == []

    assert run(spec) == 0
    before = out.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(module, name, failing)
        with pytest.raises(OSError):
            run(spec)
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == [out.name]

    # a name the file system refuses is found only when the output is written
    too_long = str(tmp_path / f"{'a' * 300}.{fmt}")
    with pytest.raises(ConfigError, match=f"cannot create output file {too_long}"):
        run(dataclasses.replace(spec, out=too_long))
    assert os.listdir(tmp_path) == [out.name]


# ------------------------------------------------------------ entry point


def test_main_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # a file that is not JSON, and a path that names a directory
    for config in (bad, tmp_path):
        assert main(["loss-vs-variance", "--config", str(config)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"


def test_main_missing_data_exit(tmp_path, capsys):
    no_pixels = tmp_path / "no-pixels"
    write_idx(no_pixels, tmp_path / "labels", np.zeros((5120, 0, 28)), np.arange(5120) % 2)
    # missing files, an images path that names a directory, and images of 0 rows
    for images, labels in ((tmp_path / "x", tmp_path / "y"), (tmp_path, tmp_path / "labels"),
                           (no_pixels, tmp_path / "labels")):
        code = main(["loss-vs-variance", "--data-images", str(images),
                     "--data-labels", str(labels), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data"
        assert sorted(os.listdir(tmp_path)) == ["labels", "no-pixels"]


@pytest.mark.parametrize("experiment", ["loss-vs-variance", "identity-checks"])
def test_missing_output_directory_fails_before_any_work(experiment, passes, tmp_path,
                                                        capsys):
    # the data files are missing too: the output check comes first
    code = main([experiment, "--data-images", str(tmp_path / "x"),
                 "--data-labels", str(tmp_path / "y"),
                 "--out", str(tmp_path / "missing" / "o.csv")])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "output directory does not exist" in err["message"]
    assert passes == {}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("experiment", ["loss-vs-variance", "identity-checks"])
def test_output_path_naming_a_directory_fails_before_any_work(experiment, passes, tmp_path,
                                                             capsys):
    out = tmp_path / "o.csv"
    out.mkdir()
    code = main([experiment, "--data-images", str(tmp_path / "x"),
                 "--data-labels", str(tmp_path / "y"), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "output path is a directory" in err["message"]
    assert passes == {}
    assert os.listdir(tmp_path) == ["o.csv"] and os.listdir(out) == []


# experiment, config file, --synthetic spec (the data files are missing too:
# the spec checks come first)
BAD_CONFIGS = {
    "fit-subgamma lambda above m": ("fit-subgamma", {"lambda_grid": [1e9]}, None),
    "naive-vs-lambda negative lambda": ("naive-vs-lambda", {"lambda_grid": [-1]}, None),
    "naive-vs-lambda empty lambda grid": ("naive-vs-lambda", {"lambda_grid": []}, None),
    "fit-subgamma negative lambda": ("fit-subgamma", {"lambda_grid": [-1]}, None),
    "train_size 0": ("loss-vs-variance", {"train_size": 0}, None),
    "heldout_size 0": ("loss-vs-variance", {"heldout_size": 0}, None),
    "sigma_q 0": ("train-report", {"sigma_q": 0}, None),
    "removed loss_kind": ("loss-vs-variance", {"loss_kind": "nll"}, None),
    "removed format": ("loss-vs-variance", {"format": "json"}, None),
    "fractional depth": ("loss-vs-variance", {"depth_grid": [1.5]}, None),
    "synthetic n_per_class 0": ("loss-vs-variance", {}, "k=2,d=4,n_per_class=0"),
    "synthetic sigma 0": ("loss-vs-variance", {}, "k=2,d=4,sigma=0,n_per_class=64"),
    "synthetic k 0": ("loss-vs-variance", {}, "k=0,d=4,n_per_class=64"),
    "synthetic sigma inf": ("loss-vs-variance", {}, "k=2,d=4,n_per_class=64,sigma=inf"),
    "synthetic sep nan": ("loss-vs-variance", {}, "k=2,d=4,n_per_class=64,sep=nan"),
    "synthetic sep inf": ("loss-vs-variance", {}, "k=2,d=4,n_per_class=64,sep=inf"),
    "fractional train_size": ("loss-vs-variance", {"train_size": 2.5}, None),
    "removed subgamma_c_max": ("fit-subgamma", {"subgamma_c_max": 1e-3}, None),
    # json.dumps writes NaN and Infinity, which JSON itself does not have
    "NaN variance": ("loss-vs-variance", {"variance_grid": [math.nan]}, None),
    "infinite lambda": ("naive-vs-lambda", {"lambda_grid": [math.inf]}, None),
    "infinite loss_bound_slack": ("loss-vs-variance",
                                  {"estimator": {"loss_bound_slack": math.inf}}, None),
    "NaN learning_rate": ("train-report", {"train": {"learning_rate": math.nan}}, None),
    "fractional n_weight_samples": ("loss-vs-variance",
                                    {"estimator": {"n_weight_samples": 2.5}}, None),
    "bool epochs": ("train-report", {"train": {"epochs": True}}, None),
    "fractional batch_size": ("train-report", {"train": {"batch_size": 16.5}}, None),
    "bool depth": ("loss-vs-variance", {"depth_grid": [True]}, None),
    "bool heldout_size": ("loss-vs-variance", {"heldout_size": True}, None),
    "fractional mlp_target_params": ("loss-vs-variance", {"mlp_target_params": 400.5}, None),
    "fractional estimator seed": ("loss-vs-variance", {"estimator": {"seed": 2.5}}, None),
    "bool train seed": ("train-report", {"train": {"seed": True}}, None),
    "fractional data_seed": ("loss-vs-variance", {"data_seed": 1.5}, None),
    "fractional seed": ("loss-vs-variance", {"seed": 2.5}, None),
    "bool seed": ("loss-vs-variance", {"seed": True}, None),
    "string seed": ("loss-vs-variance", {"seed": "abc"}, None),
    "config file a list": ("loss-vs-variance", [{"variance_grid": [0.1]}], None),
    "estimator not an object": ("loss-vs-variance", {"estimator": 3}, None),
    "scalar variance_grid": ("loss-vs-variance", {"variance_grid": 0.1}, None),
    "numeric synthetic": ("loss-vs-variance", {"synthetic": 3}, None),
    "removed alpha_quadrature_nodes": ("loss-vs-variance",
                                       {"estimator": {"alpha_quadrature_nodes": 64}}, None),
    "removed init_stddev": ("train-report", {"train": {"init_stddev": 0.1}}, None),
    "bool sigma_q": ("train-report", {"sigma_q": True}, None),
    "bool variance": ("loss-vs-variance", {"variance_grid": [True]}, None),
    "bool lambda": ("naive-vs-lambda", {"lambda_grid": [True]}, None),
    "bool loss_bound_slack": ("loss-vs-variance",
                              {"estimator": {"loss_bound_slack": True}}, None),
    "bool learning_rate": ("train-report", {"train": {"learning_rate": True}}, None),
    "bool momentum": ("train-report", {"train": {"momentum": False}}, None),
    "experiment key": ("loss-vs-variance", {"experiment": "bogus"}, None),
    "synthetic k 13": ("loss-vs-variance", {}, "k=13,d=13,n_per_class=64"),
    "synthetic k repeated": ("loss-vs-variance", {}, "k=2,d=4,n_per_class=64,k=3"),
    "epochs 67": ("train-report", {"train": {"epochs": 67}}, None),
    # a seed keys Philox as one uint64: -1 would alias 2**64 - 1
    "negative seed": ("loss-vs-variance", {"seed": -1}, None),
    "seed 2**64 + 7": ("loss-vs-variance", {"seed": 2**64 + 7}, None),
    "negative estimator seed": ("loss-vs-variance", {"estimator": {"seed": -1}}, None),
    "train seed 2**64": ("train-report", {"train": {"seed": 2**64}}, None),
    "negative data_seed": ("loss-vs-variance", {"data_seed": -1}, None),
    # sigma * z overflows for the largest normals, |z| = 8.2095
    "variance whose draws overflow": ("loss-vs-variance", {"variance_grid": [1e308]}, None),
    "sigma_q whose draws overflow": ("train-report", {"sigma_q": 3e307}, None),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_config_fails_before_any_work(case, passes, tmp_path, capsys):
    experiment, config, synthetic = BAD_CONFIGS[case]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [experiment, "--config", str(config_path),
            "--data-images", str(tmp_path / "x"), "--data-labels", str(tmp_path / "y"),
            "--out", str(out_dir / "o.csv")]
    if synthetic:
        argv += ["--synthetic", synthetic]
    assert main(argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert passes == {}
    assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]
    assert os.listdir(out_dir) == []


def test_synthetic_spec_whose_draws_overflow_is_a_config_error(passes, tmp_path, capsys):
    # sigma is finite, but sigma * z overflows, so the dataset is refused
    out = tmp_path / "o.csv"
    code = main(["loss-vs-variance", "--synthetic", "k=2,d=4,n_per_class=64,sigma=1e308",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "non-finite" in err["message"]
    assert "forward" not in passes
    assert os.listdir(tmp_path) == []


# ------------------------------------------------------ every knob is read

_KNOB_BASE = {"synthetic": "k=2,d=4,n_per_class=64", "train_size": 64,
              "heldout_size": 32, "variance_grid": [0.1],
              "estimator": {"n_weight_samples": 2}, "train": {"epochs": 2, "batch_size": 32}}
# (section, field) -> a value other than the base run's; a field missing
# here fails the guard below until it is given one.
_KNOB_VALUES = {
    ("estimator", "n_weight_samples"): 3, ("estimator", "seed"): 1,
    ("estimator", "loss_bound_slack"): 0.25,
    ("train", "learning_rate"): 0.02, ("train", "momentum"): 0.5, ("train", "epochs"): 3,
    ("train", "batch_size"): 16, ("train", "seed"): 1,
}


def _train_report_lines(config, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["train-report", "--config", str(path), "--out", str(out)]) == 0
    return [l for l in out.read_text().splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("section,name", [
    (section, f.name)
    for section, cls in (("estimator", bd.EstimatorConfig), ("train", TrainConfig))
    for f in dataclasses.fields(cls)])
def test_every_echoed_knob_is_read(section, name, tmp_path):
    """Every output echoes each estimator and train field; each must move the rows."""
    base = _train_report_lines(_KNOB_BASE, tmp_path)
    changed = {**_KNOB_BASE[section], name: _KNOB_VALUES[section, name]}
    assert _train_report_lines({**_KNOB_BASE, section: changed}, tmp_path) != base


def test_main_happy_path_with_config_file(tmp_path):
    cfg = {"synthetic": SYNTH, "train_size": 1024, "heldout_size": 256,
           "variance_grid": [0.1], "depth_grid": [1],
           "estimator": {"n_weight_samples": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["loss-vs-variance", "--config", str(path), "--seed", "3",
                 "--out", str(out)]) == 0
    comments, _, rows = read_rows(out)
    assert len(rows) == 1
    embedded = json.loads(comments[0].removeprefix("# config: "))
    assert embedded["estimator"]["seed"] == 3


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gradbound.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gradbound", "loss-vs-variance",
         "--synthetic", "k=2,d=4,sigma=1.0,n_per_class=64,sep=3.0",
         "--out", str(out), "--seed", "2"],
        capture_output=True, text=True, timeout=300,
        # Hermetic environment, but the child imports the package under test.
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == EXIT_DATA  # 128 examples < default 4096+1024
    err = json.loads(proc.stderr)
    assert err["error"] == "data"


def test_readme_library_imports_resolve():
    # README's first python block lists the library API; a name deleted
    # from the package must leave that list too.
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme) as f:
        block = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from gradbound import (")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gradbound.__file__)))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          timeout=300,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr


def test_train_report_with_huge_trained_weights_writes_no_nan(tmp_path):
    # One step at this rate leaves finite weights near 1e305, whose Gram
    # matrix W1 W1^T overflows; the squared norms are then 0 or inf.
    config = {"train_size": 64, "heldout_size": 32,
              "train": {"epochs": 1, "learning_rate": 1e307}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    assert main(["train-report", "--config", str(config_path),
                 "--synthetic", "k=2,d=4,n_per_class=64", "--out", str(out)]) == 0
    _, _, rows = read_rows(out)
    for row in rows:
        for lam in ("sqrt_m", "m"):
            value, log_value = float(row[f"bound_{lam}"]), float(row[f"bound_{lam}_log"])
            # value is inf exactly when the estimate overflowed
            assert (value, log_value) in {(0.0, 0.0), (math.inf, math.inf)}, row


def _huge_prior_scale_rows(tmp_path, experiment="gradnorm-vs-variance"):
    # At depth 1 the squared norms reach inf; at depth 2 the logits overflow.
    config = {"depth_grid": [1, 2], "variance_grid": [1e200], "train_size": 64,
              "heldout_size": 32, "estimator": {"n_weight_samples": 4}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    assert main([experiment, "--config", str(config_path),
                 "--synthetic", "k=2,d=4,n_per_class=64", "--out", str(out)]) == 0
    return read_rows(out)[2]


def test_linear_worst_case_of_a_huge_prior_scale_is_inf(tmp_path):
    # sigma_p**2 on a Python float raises OverflowError past ~1.3e154;
    # the worst case L^2 sigma_p^2 P rounds to +inf instead.
    rows = _huge_prior_scale_rows(tmp_path)
    assert [row["linear_worst_case"] for row in rows] == ["inf", ""]


def test_std_error_of_an_infinite_gradient_norm_is_inf(tmp_path):
    # At depth 1 the squared norms reach inf; inf - inf in std gave nan.
    depth_1 = _huge_prior_scale_rows(tmp_path)[0]
    assert (depth_1["grad_norm_sq_mean"], depth_1["grad_norm_sq_std_error"]) == ("inf", "inf")


@pytest.mark.parametrize("experiment,columns", [
    ("loss-vs-variance", ["avg_prior_loss", "loss_bound"]),
    ("gradnorm-vs-variance", ["grad_norm_sq_mean", "grad_norm_sq_std_error"]),
    ("bound-vs-variance", ["value", "log_space_value", "std_error", "loss_bound"]),
])
def test_overflowing_logits_give_inf_not_nan(experiment, columns, tmp_path):
    # Depth 2's logits overflow, so each draw's losses and squared norms
    # are +inf; inf - inf in the loss gave nan.
    rows = _huge_prior_scale_rows(tmp_path, experiment)
    depth_2 = [row for row in rows if row["depth"] == "2"]
    assert depth_2 and all(row[c] == "inf" for row in depth_2 for c in columns), depth_2
    assert all(row.get("overflowed", "true") == "true" for row in depth_2)


def test_saturated_loss_bound_with_zero_gradient_draws_gives_inf_not_nan(tmp_path):
    # sigma 300 saturates the one held-out example's softmax: a draw's
    # squared norm is 0 (true class) or huge, and the loss bound b is
    # past 700, where e^b saturates to inf; inf * 0 gave nan.
    config = {"variance_grid": [300.0], "depth_grid": [1], "train_size": 64,
              "heldout_size": 1, "estimator": {"n_weight_samples": 8}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    assert main(["bound-vs-variance", "--config", str(config_path), "--seed", "1",
                 "--synthetic", "k=2,d=4,n_per_class=64", "--out", str(out)]) == 0
    rows = read_rows(out)[2]
    assert [float(row["loss_bound"]) > 700 for row in rows] == [True, True]
    assert all(row[c] == "inf" for row in rows for c in ("value", "log_space_value")), rows


def test_usage_errors_exit_2_with_a_json_record(capsys):
    for argv, needle in ((["naive-vs-lambda", "--seed", "abc"], "--seed"),
                         (["naive-vs-lambda", "--bogus"], "--bogus"),
                         (["no-such-experiment"], "no-such-experiment")):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and needle in err["message"]
        assert captured.out == ""


_SMALL = {"train_size": 64, "heldout_size": 32, "train": {"epochs": 1}}
# experiment, config, --synthetic spec, exit status, error kind (None: no error)
NOISY_RUNS = {
    # logits overflow in the forward passes; the rows report it
    "sweep with overflowing logits": (
        "loss-vs-variance", _SMALL, "k=2,d=4,n_per_class=64,sigma=1e306", 0, None),
    # the weights after the last update are finite, their logits are not
    "train-report whose last update overflows": (
        "train-report", _SMALL, "k=2,d=4,n_per_class=64,sigma=1e200", 4, "diverged"),
    "train-report diverging in SGD": (
        "train-report", {**_SMALL, "depth_grid": [2],
                         "train": {"epochs": 3, "learning_rate": 1e200}},
        "k=2,d=4,n_per_class=64", 4, "diverged"),
    "synthetic draws overflow": (
        "loss-vs-variance", _SMALL, "k=2,d=4,n_per_class=64,sigma=1e308", EXIT_CONFIG, "config"),
}


@pytest.mark.parametrize("case", NOISY_RUNS)
def test_stderr_holds_at_most_one_json_record(case, tmp_path):
    """Floating-point overflow prints no numpy warning: a run that succeeds
    leaves stderr empty, and a failed one writes one JSON line and no output."""
    experiment, config, synthetic, code, kind = NOISY_RUNS[case]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gradbound.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "gradbound", experiment, "--config", str(config_path),
         "--synthetic", synthetic, "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        # Warnings shown as a plain interpreter shows them.
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
             "PYTHONWARNINGS": "default", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == code, proc.stderr
    if kind is None:
        assert proc.stderr == ""
        assert out.exists()
    else:
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == kind
        assert not out.exists()
