"""Command-line sweeps over the bound estimators, with CSV/JSON output.

Experiments
-----------
naive-vs-lambda      naive complexity estimates over a lambda grid, showing
                     where the direct evaluation overflows while the
                     log-space column stays finite
gradnorm-vs-variance MC expected squared input-gradient norm per prior scale
                     and depth (plus the linear worst case)
loss-vs-variance     prior-averaged loss and the on-average loss bound b
bound-vs-variance    gradient-norm complexity bound at lambda = sqrt(m), m
fit-subgamma         measured bound curve over lambda plus its sub-gamma fit
train-report         SGD training, losses, bounds at lambda = sqrt(m), m,
                     and KL(posterior || prior), one row per grid point
identity-checks      exact MGF factorization, cumulant reconstruction, and
                     entropy-inequality suites; exit 0 iff all pass

Every experiment but identity-checks is one depth x variance loop: each
depth builds one weight family per grid point (the priors, or for
train-report the posteriors around the SGD-trained weights).
train-report's SGD runs before the loop reads a depth: one
``training.train_depths`` call trains every depth's variances in a
thread pool: on every usable core with numpy's bundled OpenBLAS pinned
to one thread, or on one thread under another BLAS.  The loop evaluates
the results depth by depth, so a failure is the one that training and
evaluating the depths one after another meets first.  The loop
samples the weight draws' standard normals once for all its depths:
row i of one (draws, largest parameter count) matrix is stream i, and a
depth of P parameters reads the first P entries of each row, which are
that depth's own stream i.  One ``bounds.draw_stats`` call computes the
per-draw losses and squared input-gradient norms of every depth's
families from the matrix (its docstring says which first-layer products
the depths share), and each grid point's matrices go, in depth order, to
the experiment's row builder, which applies the estimator reductions the
experiment reports.  A sweep gathers only the data split it reads (see
``_SWEEPS``); m is ``train_size``, the train split's size whether or not
it is gathered.

``run`` is the one path of every experiment: it makes the rows, of
identity-checks or of the sweep loop, writes them, and returns exit
status 5 if and only if a row's ``passed`` is false (only identity-checks
rows have one), else 0.

Every output embeds the fully resolved configuration and seed.  Reruns
with the same config are byte-identical apart from the timestamp line.
The output is JSON when its path ends in ".json" and CSV otherwise
(default <experiment>.csv); it is written to a temporary file beside it
and renamed into place, so a failed run leaves no partial file.
Grids and sizes come from the JSON config file; the command-line flags
--seed/--out/--data-images/--data-labels/--synthetic override it
(flags > file > defaults).  A source that sets a value the experiment
does not read (``_READS``) is refused.  Infinities are serialized as the
string "inf".
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import bounds as bd
from .datasets import (DataSourceError, LabeledDataset, load_idx, split, stratified_sample,
                       synth_gaussian, take)
from .gaussians import (CHECK_STREAM, MAX_ABS_NORMAL, MAX_SYNTH_CLASSES, kl_divergence,
                        normal_rows, posterior_family, prior_family, sample, stream_rng)
from .nets import LIPSCHITZ_BOUND, MlpArchitecture, arch_for_depth
from .settings import (COUNT, FINITE, POSITIVE, SEED, STRING, ConfigError, check_settings,
                       grid, setting)
from .subgamma import fit as subgamma_fit, check as subgamma_check
from .training import TrainConfig, TrainingDiverged, evaluate, train_depths

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_CHECK_FAILED = 5
_MAX_SCALE = sys.float_info.max / MAX_ABS_NORMAL


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved description of one experiment run."""

    experiment: str
    lambda_grid: tuple[float, ...] = setting(grid(POSITIVE), ())
    variance_grid: tuple[float, ...] = setting(grid(POSITIVE, nonempty=True),
                                               (0.0004, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7))
    depth_grid: tuple[int, ...] = setting(grid(COUNT, nonempty=True), (1, 2, 3, 4, 5))
    images_path: str | None = setting(STRING, None)
    labels_path: str | None = setting(STRING, None)
    synthetic: str | None = setting(STRING, None)
    train_size: int = setting(COUNT, 4096)
    heldout_size: int = setting(COUNT, 1024)
    data_seed: int = setting(SEED, 0)
    sigma_q: float = setting(POSITIVE, 0.05)
    mlp_target_params: int = setting(COUNT, 20_000)
    estimator: bd.EstimatorConfig = field(default_factory=bd.EstimatorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    out: str | None = setting(STRING, None)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENTS)}")
        check_settings(self)
        if self.experiment == "naive-vs-lambda" and not self.lambda_grid:
            raise ConfigError("naive-vs-lambda needs a nonempty lambda_grid")
        if (self.experiment == "fit-subgamma"
                and any(lam > self.train_size for lam in self.lambda_grid)):
            raise ConfigError("fit-subgamma lambda_grid entries must not exceed "
                              "train_size (m)")
        # A weight draw scales standard normals, |z| <= MAX_ABS_NORMAL: the
        # sweeps' by each sigma_p, train-report's posteriors by sigma_q.
        scales = {"train-report": (self.sigma_q,), "identity-checks": ()}.get(
            self.experiment, self.variance_grid)
        if not all(math.isfinite(s * MAX_ABS_NORMAL) for s in scales):
            raise ConfigError(f"a prior or posterior scale above {_MAX_SCALE:.6g} "
                              "overflows its weight draws")
        if self.synthetic:
            parse_synthetic_spec(self.synthetic)


# Per-experiment grid defaults, applied when the config leaves them empty.
_DEFAULTS = {
    "naive-vs-lambda": {"lambda_grid": (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0),
                        "variance_grid": (0.1,)},
    "fit-subgamma": {"variance_grid": (0.1,)},
    "train-report": {"depth_grid": (1,)},
}


def parse_synthetic_spec(text: str) -> dict:
    """Parse "k=2,d=16,sigma=1.0,n_per_class=2560,sep=3.0" style specs."""
    fields = {"k": (int, COUNT), "d": (int, COUNT), "sigma": (float, POSITIVE),
              "n_per_class": (int, COUNT), "sep": (float, FINITE)}
    out = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"unknown synthetic field {key!r}")
        if key in out:
            raise ConfigError(f"synthetic field {key!r} is given twice")
        try:
            out[key] = fields[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"bad synthetic value for {key}: {value!r}") from exc
    out = {"sigma": 1.0, "sep": 3.0, **out}
    missing = {"k", "d", "n_per_class"} - out.keys()
    if missing:
        raise ConfigError(f"synthetic spec is missing {sorted(missing)}")
    for key, (_, kind) in fields.items():
        if not kind.holds(out[key]):
            raise ConfigError(f"synthetic {key} must be {kind.text}")
    if out["k"] > min(out["d"], MAX_SYNTH_CLASSES):
        raise ConfigError("synthetic spec needs k <= d (class means are sep * e_y) "
                          f"and k <= {MAX_SYNTH_CLASSES}")
    return out


def build_synthetic(spec_text: str, seed: int) -> LabeledDataset:
    p = parse_synthetic_spec(spec_text)
    means = np.zeros((p["k"], p["d"]))
    means[np.arange(p["k"]), np.arange(p["k"])] = p["sep"]
    # A finite spec can still overflow its draws (sigma=1e308, say), which
    # the dataset refuses as non-finite inputs.
    try:
        return synth_gaussian(p["k"], p["d"], means, p["sigma"], p["n_per_class"], seed)
    except ValueError as exc:
        raise ConfigError(f"synthetic spec {spec_text!r}: {exc}") from exc


def resolve_dataset(spec: SweepSpec, reads: tuple[bool, bool] = (True, True)
                    ) -> tuple[LabeledDataset | None, LabeledDataset | None]:
    """(train, heldout) splits of the configured source.

    Both sources take one path: the subset and the split are picked from
    the labels alone, and each side's rows are gathered once from the
    source's rows (u8 pixels for IDX files) by ``take``.  A side whose
    ``reads`` flag is false is not gathered: its place holds None.  The
    train side has ``spec.train_size`` rows.
    """
    if spec.images_path or spec.labels_path:
        if not (spec.images_path and spec.labels_path):
            raise DataSourceError("both --data-images and --data-labels are required")
        rows, labels, k = load_idx(spec.images_path, spec.labels_path)
    elif spec.synthetic:
        data = build_synthetic(spec.synthetic, spec.data_seed)
        rows, labels, k = data.inputs, data.labels, data.class_count
    else:
        raise DataSourceError(
            "no dataset source: pass --data-images/--data-labels or --synthetic")

    n_need = spec.train_size + spec.heldout_size
    if labels.size < n_need:
        raise DataSourceError(
            f"dataset has {labels.size} examples, need {n_need} (train + heldout)")
    keep = stratified_sample(labels, n_need, spec.data_seed)
    sides = split(labels[keep], spec.train_size / n_need, spec.data_seed)
    return tuple(take(rows, labels, k, keep[idx]) if read else None
                 for read, idx in zip(reads, sides))


def _bound_cells(est: bd.BoundEstimate) -> dict:
    return {"value": est.value, "log_space_value": est.log_space_value,
            "std_error": est.std_error, "overflowed": est.overflowed}


def _priors(spec, archs, train_set, heldout):
    for arch in archs:
        yield [(prior_family(arch, sigma), {"sigma_p": sigma}) for sigma in spec.variance_grid]


def _trained_posteriors(spec, archs, train_set, heldout):
    """Train every depth from N(0, v) for every prior variance v, and center
    each posterior on its result; yields each depth's points in order."""
    sigmas = [math.sqrt(v) for v in spec.variance_grid]
    for arch, trained in zip(archs, train_depths(archs, train_set, spec.train, sigmas)):
        points = []
        for variance, sigma_p, weights in zip(spec.variance_grid, sigmas, trained):
            train_loss, train_acc = evaluate(weights, train_set)
            test_loss, test_acc = evaluate(weights, heldout)
            if not (math.isfinite(train_loss) and math.isfinite(test_loss)):
                # The last update left finite weights whose logits overflow.
                last_batch = math.ceil(train_set.m / spec.train.batch_size) - 1
                raise TrainingDiverged(spec.train.epochs - 1, last_batch, sigma_p)
            posterior = posterior_family(weights, spec.sigma_q)
            kl = kl_divergence(posterior, prior_family(arch, sigma_p))
            points.append((posterior, {
                "prior_variance": variance, "sigma_p": sigma_p, "sigma_q": spec.sigma_q,
                "m": train_set.m, "train_loss": train_loss, "test_loss": test_loss,
                "train_accuracy": train_acc, "test_accuracy": test_acc, "kl": kl}))
        yield points


def _bound_curve(spec, losses, sq_norms, lambdas):
    """The loss bound b and the gradient-norm bound curve it prices, at
    m = ``spec.train_size``."""
    b = bd.estimate_loss_bound(losses, spec.estimator.loss_bound_slack)
    return b, bd.gradnorm_bound_curve(sq_norms, lambdas, spec.train_size, b)


# Row builders: (spec, arch, point cells, losses, sq_norms) -> rows, each
# row a dict whose keys are the output's columns, in order.

def _naive_rows(spec, arch, point, losses, sq_norms):
    ests = bd.naive_complexity_curve(losses, spec.lambda_grid)
    return [{**point, "lam": lam, **_bound_cells(est),
             "n_weight_samples": est.n_weight_samples,
             "n_data_points": est.n_data_points}
            for lam, est in zip(spec.lambda_grid, ests)]


def _gradnorm_rows(spec, arch, point, losses, sq_norms):
    mean, se = bd.expected_grad_norm_mc(sq_norms)
    sigma = point["sigma_p"]  # sigma**2 would raise OverflowError, not give inf
    worst = (LIPSCHITZ_BOUND**2 * (sigma * sigma) * arch.param_count()
             if arch.depth == 1 else None)
    return [{**point, "grad_norm_sq_mean": mean, "grad_norm_sq_std_error": se,
             "linear_worst_case": worst}]


def _loss_rows(spec, arch, point, losses, sq_norms):
    slack = spec.estimator.loss_bound_slack
    b = bd.estimate_loss_bound(losses, slack)
    return [{**point, "avg_prior_loss": b - slack, "loss_bound": b}]


def _bound_rows(spec, arch, point, losses, sq_norms):
    lam_points = [("sqrt_m", math.sqrt(spec.train_size)), ("m", float(spec.train_size))]
    b, ests = _bound_curve(spec, losses, sq_norms, [lam for _, lam in lam_points])
    return [{**point, "lam_label": label, "lam": lam, **_bound_cells(est),
             "loss_bound": b}
            for (label, lam), est in zip(lam_points, ests)]


def _fit_subgamma_rows(spec, arch, point, losses, sq_norms):
    lambdas = spec.lambda_grid or tuple(np.geomspace(1.0, spec.train_size, 12))
    _, ests = _bound_curve(spec, losses, sq_norms, lambdas)
    grid = [(lam, est.log_space_value) for lam, est in zip(lambdas, ests)
            if not est.overflowed]
    counts = {"n_finite_points": len(grid), "n_grid_points": len(lambdas)}
    if not grid:
        return [{**point, "v": None, "c": None, "lambda_max": None,
                 "residual": None, **counts, "dominates": False}]
    fitted = subgamma_fit(grid)
    return [{**point, "v": fitted.v, "c": fitted.c, "lambda_max": fitted.lambda_max,
             "residual": fitted.residual, **counts,
             "dominates": subgamma_check(fitted, grid)}]


def _train_report_rows(spec, arch, point, losses, sq_norms):
    m = spec.train_size
    b, (sqrt_m, at_m) = _bound_curve(spec, losses, sq_norms, [math.sqrt(m), float(m)])
    row = {**point, "bound_sqrt_m": sqrt_m.value,
           "bound_sqrt_m_log": sqrt_m.log_space_value,
           "bound_m": at_m.value, "bound_m_log": at_m.log_space_value}
    kl = row.pop("kl")
    return [{**row, "kl": kl, "loss_bound": b, "l_d_proxy": "heldout"}]


# experiment -> (each depth's (family, cells) per grid point, the (train,
# heldout) splits it reads, squared gradient norms needed, zero-mean
# families on draw_stats's scale path, row builder).  The stats are on the
# held-out split wherever it is read.  naive-vs-lambda alone keeps one
# first-layer column per sigma: its exponent amplifies last-bit loss
# changes 1e5-1e6 times.
_SWEEPS = {
    "naive-vs-lambda": (_priors, (True, False), False, False, _naive_rows),
    "gradnorm-vs-variance": (_priors, (False, True), True, True, _gradnorm_rows),
    "loss-vs-variance": (_priors, (False, True), False, True, _loss_rows),
    "bound-vs-variance": (_priors, (False, True), True, True, _bound_rows),
    "fit-subgamma": (_priors, (False, True), True, True, _fit_subgamma_rows),
    "train-report": (_trained_posteriors, (True, True), True, True, _train_report_rows),
}

EXPERIMENTS = (*_SWEEPS, "identity-checks")

# experiment -> the settings it reads, a section's fields named
# "section.field".  A config file or flag that sets any other is refused,
# as a value that would change nothing; ``seed`` sets three seeds and
# every experiment reads one of them.
_EVERY_READS = ("out", "seed", "estimator.seed")
_SWEEP_READS = (*_EVERY_READS, "images_path", "labels_path", "synthetic", "train_size",
                "heldout_size", "data_seed", "depth_grid", "variance_grid",
                "mlp_target_params", "estimator.n_weight_samples")
_BOUND_READS = (*_SWEEP_READS, "estimator.loss_bound_slack")
_READS = {
    "naive-vs-lambda": (*_SWEEP_READS, "lambda_grid"),
    "gradnorm-vs-variance": _SWEEP_READS,
    "loss-vs-variance": _BOUND_READS,
    "bound-vs-variance": _BOUND_READS,
    "fit-subgamma": (*_BOUND_READS, "lambda_grid"),
    "train-report": (*_BOUND_READS, "sigma_q", "train.learning_rate", "train.momentum",
                     "train.epochs", "train.batch_size", "train.seed"),
    "identity-checks": _EVERY_READS,
}
_SETTINGS = set().union(*_READS.values())
_SEEDS = ("data_seed", "estimator.seed", "train.seed")  # what ``seed`` sets


def _sweep(spec):
    """The depth x variance grid: one family per point, and one draw_stats
    call and one matrix of standard normals for every depth.  It gathers
    the splits its ``_SWEEPS`` row reads; an unread split is None."""
    families_at, reads, grads, scale, rows_at = _SWEEPS[spec.experiment]
    train_set, heldout = resolve_dataset(spec, reads)
    data = heldout if reads[1] else train_set
    archs = [arch_for_depth(depth, data.dim, data.class_count, spec.mlp_target_params)
             for depth in spec.depth_grid]
    normals = normal_rows(spec.estimator.seed, spec.estimator.n_weight_samples,
                          max(arch.param_count() for arch in archs))
    points = [(depth, arch, point) for depth, arch, at_depth
              in zip(spec.depth_grid, archs, families_at(spec, archs, train_set, heldout))
              for point in at_depth]
    stats = bd.draw_stats([family for _, _, (family, _) in points], data, normals, grads,
                          scale)
    rows = []
    for (depth, arch, (_, cells)), (losses, sq_norms) in zip(points, stats):
        rows += rows_at(spec, arch, {"depth": depth, **cells}, losses, sq_norms)
    return rows


def _identity_check_rows(spec):
    rng = stream_rng(spec.estimator.seed, CHECK_STREAM)
    rows = []

    # (check, identity, upper end of its random lambda, relative gap it
    # passes at); the functions are looked up per run, so a wrapper
    # installed on ``bounds`` after import still sees every call.
    identities = (("mgf-decomposition", bd.mgf_decomposition_check, 3.0, 1e-12),
                  ("herbst-identity", bd.herbst_identity_check, 2.0, 1e-6))
    for name, identity, lam_max, tol in identities:
        for i in range(50):
            losses = rng.uniform(0.0, 3.0, size=rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            lhs, rhs = identity(losses, float(rng.uniform(0.0, lam_max)), m)
            gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
            rows.append({"check": name, "case": i, "lhs": lhs, "rhs": rhs,
                         "gap": gap, "passed": gap <= tol})

    for i in range(20):
        d = int(rng.integers(4, 17))
        k = int(rng.integers(2, 4))
        means = rng.normal(0.0, 0.7, size=(k, d))
        data = synth_gaussian(k, d, means, 1.0, 20_000,
                              seed=int(rng.integers(0, 2**31)))
        arch = MlpArchitecture(d, k)
        w = sample(prior_family(arch, float(rng.uniform(0.05, 0.3))),
                   int(rng.integers(0, 2**31)), 1)[0]
        alpha = float(rng.uniform(0.05, 0.8))
        res = bd.log_sobolev_check(w, data, alpha)
        rows.append({"check": "log-sobolev", "case": i, "lhs": res.lhs,
                     "rhs": res.rhs, "gap": res.margin, "passed": res.margin >= 0.0})
    return rows


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else _json_safe(value)
    return str(value)


def write_output(path: str, spec: SweepSpec, rows) -> None:
    """Write beside ``path`` and rename over it: a failed write leaves no output.

    JSON when ``path`` ends in ".json", else CSV.  The first row's keys are
    the columns; every row has the same keys.  The temporary file has a
    short name of fixed length, so any name that ``path`` may have fits,
    and it is created as ``open(path, "w")`` would create ``path``, with
    the same mode.  A file that cannot be created there (a name too long,
    say) is a ConfigError."""
    columns = list(rows[0])
    config = dataclasses.asdict(spec)
    stamp = datetime.now(timezone.utc).isoformat()
    tmp = os.path.join(os.path.dirname(path), f"gradbound-{os.urandom(8).hex()}.tmp")
    try:
        f = open(tmp, "x", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot create output file {path}: {exc.strerror}") from exc
    try:
        with f:
            if path.endswith(".json"):
                doc = {"config": config, "timestamp": stamp, "columns": columns,
                       "rows": [{k: _json_safe(v) for k, v in row.items()}
                                for row in rows]}
                json.dump(doc, f, indent=2, sort_keys=True)
                f.write("\n")
            else:
                f.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
                f.write("# timestamp: " + stamp + "\n")
                writer = csv.writer(f)
                writer.writerow(columns)
                for row in rows:
                    writer.writerow([_csv_cell(row[c]) for c in columns])
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot create output file {path}: {exc.strerror}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def run(spec: SweepSpec) -> int:
    """Execute one experiment and write its output; returns the exit status:
    5 if a row has ``passed`` false, else 0."""
    out = spec.out or f"{spec.experiment}.csv"
    out_dir = os.path.dirname(out) or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    if os.path.isdir(out):
        raise ConfigError(f"output path is a directory: {out}")
    rows = (_identity_check_rows if spec.experiment == "identity-checks" else _sweep)(spec)
    write_output(out, spec, rows)
    return EXIT_CHECK_FAILED if any(not row.get("passed", True) for row in rows) else EXIT_OK


def _read_config(path: str) -> dict:
    """The JSON object in the config file.

    The merge (``_spec_from_sources``) refuses a ``null``, an unknown key
    and a value the experiment does not read, and the dataclasses a value
    not of its setting's kind (``settings``): every kind is finite, so a
    ``NaN`` or ``Infinity`` (or 1e999) is refused, and none is boolean,
    so a ``true`` or ``false`` is.
    """
    try:
        with open(path) as f:
            config = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


def _spec_from_sources(experiment: str, file_config: dict, flags: dict) -> SweepSpec:
    """Merge defaults < per-experiment defaults < config file < flags.

    A flag of None is not given.  A null, an unknown setting and a setting
    that ``_READS`` does not list for the experiment are refused.  Within
    a source, ``seed`` is applied first, so a specific seed in the same
    source wins over it whatever the key order.  A value not of its kind
    is refused under the name the source gave it (``seed``,
    ``estimator.seed``).
    """
    given = {"": dict(_DEFAULTS.get(experiment, {})), "estimator": {}, "train": {}}
    for src in (file_config, {key: v for key, v in flags.items() if v is not None}):
        for key, value in sorted(src.items(), key=lambda kv: kv[0] != "seed"):
            if key == "experiment":
                raise ConfigError("the experiment is the command's first argument")
            if key in ("estimator", "train") and not isinstance(value, dict):
                raise ConfigError(f"{key} must be a JSON object")
            items = ([(f"{key}.{name}", v) for name, v in value.items()]
                     if key in ("estimator", "train") else [(key, value)])
            for name, v in items:
                if name not in _READS.get(experiment, ()):
                    raise ConfigError(f"{experiment} does not read {name}" if name in _SETTINGS
                                      else f"unknown setting {name!r}")
                if v is None:
                    raise ConfigError(f"{name} is null; leave it out to take its default")
                if name == "seed" and not SEED.holds(v):
                    raise ConfigError(f"seed must be {SEED.text}")
                for target in _SEEDS if name == "seed" else (name,):
                    section, _, field_name = target.rpartition(".")
                    given[section][field_name] = tuple(v) if isinstance(v, list) else v
    return SweepSpec(experiment=experiment, estimator=bd.EstimatorConfig(**given["estimator"]),
                     train=TrainConfig(**given["train"]), **given[""])


def _error_record(kind: str, message: str) -> None:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 2 with a JSON record)
    rather than printing the usage text."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="gradbound",
        description="Generalization-bound experiments over linear models and MLPs")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file with grids and settings")
    parser.add_argument("--seed", type=int, help="override every seed in the run")
    parser.add_argument("--out", help="output path, JSON if it ends in .json, else CSV "
                                      "(default <experiment>.csv)")
    parser.add_argument("--data-images", dest="images_path", help="IDX image file")
    parser.add_argument("--data-labels", dest="labels_path", help="IDX label file")
    parser.add_argument("--synthetic",
                        help="inline synthetic source, e.g. k=2,d=16,n_per_class=2560")
    try:
        args = parser.parse_args(argv)
        flags = {k: v for k, v in vars(args).items() if k not in ("experiment", "config")}
        file_config = _read_config(args.config) if args.config else {}
        spec = _spec_from_sources(args.experiment, file_config, flags)
        # Overflow is reported in the rows (overflowed, inf) or as an exit
        # status, so stderr carries at most the one JSON error record.
        with np.errstate(all="ignore"):
            return run(spec)
    except ConfigError as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG
    except DataSourceError as exc:
        _error_record("data", str(exc))
        return EXIT_DATA
    except TrainingDiverged as exc:
        _error_record("diverged", str(exc))
        return EXIT_DIVERGED
    except Exception as exc:  # pragma: no cover - defensive
        _error_record("internal", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
