"""Output checks for the benchmark's experiments.

None of these compares against a stored copy of an earlier output.  They
test properties the method must have (overflow flags, monotone curves,
dominating fits, KL lower bounds) and values the benchmark recomputes on
its own (``reference``): its own Philox + ndtri draws, following the
sampling rule in the ``gradbound.gaussians`` docstring, its own linear
forward pass and its own input gradient W^T (softmax - e_y).

Each check function returns a list of error strings; empty means passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.special import ndtri

from workloads import (FIT_SUBGAMMA_POINTS, REFERENCE_LAMBDA, REFERENCE_SIGMA,
                       expected_rows)

COLUMNS = {
    "naive-vs-lambda": ["depth", "sigma_p", "lam", "value", "log_space_value",
                        "std_error", "overflowed", "n_weight_samples", "n_data_points"],
    "gradnorm-vs-variance": ["depth", "sigma_p", "grad_norm_sq_mean",
                             "grad_norm_sq_std_error", "linear_worst_case"],
    "loss-vs-variance": ["depth", "sigma_p", "avg_prior_loss", "loss_bound"],
    "bound-vs-variance": ["depth", "sigma_p", "lam_label", "lam", "value",
                          "log_space_value", "std_error", "overflowed", "loss_bound"],
    "fit-subgamma": ["depth", "sigma_p", "v", "c", "lambda_max", "residual",
                     "n_finite_points", "n_grid_points", "dominates"],
    "train-report": ["depth", "prior_variance", "sigma_p", "sigma_q", "m",
                     "train_loss", "test_loss", "train_accuracy", "test_accuracy",
                     "bound_sqrt_m", "bound_sqrt_m_log", "bound_m", "bound_m_log",
                     "kl", "loss_bound", "l_d_proxy"],
    "identity-checks": ["check", "case", "lhs", "rhs", "gap", "passed"],
}

# A direct value and its log-space twin agree to rounding.  The direct
# naive chain is log(mean(exp(lam * mean loss) * M^m)); raising M to the
# power m = 4096 multiplies its relative rounding error by m, so the two
# differ by up to ~1e-11 absolute near 0 (3e-12 seen on the desk data).
ROUNDING = 1e-9
# The reference recomputation agrees far more closely than this in
# practice, and far more loosely than the 1e-12 moves a refactor is allowed.
REFERENCE_RTOL = 1e-8
SIGMA_Q = 0.05  # the program's default posterior scale
LOSS_BOUND_SLACK = 0.5  # the program's default estimator slack
F32_LOG_MAX = math.log(float(np.finfo(np.float32).max))


def strip_timestamp(text: str) -> str:
    """The output with its ``# timestamp:`` line removed."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp:"))


def parse(text: str) -> dict:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(body)))
    columns = next(reader, [])
    return {"columns": columns, "rows": [dict(zip(columns, r)) for r in reader]}


def num(cell: str) -> float:
    return float(cell)  # "inf" parses too


def flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"not a boolean cell: {cell!r}")
    return cell == "true"


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _check_overflow_cells(row, where) -> list[str]:
    value, lsv = num(row["value"]), num(row["log_space_value"])
    over = flag(row["overflowed"])
    if over != math.isinf(value):
        return [f"{where}: overflowed={row['overflowed']} but value={row['value']}"]
    if not over and not close(value, lsv, ROUNDING, ROUNDING):
        return [f"{where}: value {value!r} != log_space_value {lsv!r}"]
    return []


def _cells(rows, *keys):
    """Rows grouped by their values in ``keys``, in order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(num(row[k]) for k in keys), []).append(row)
    return groups


def check_table(experiment: str, table: dict, cfg: dict, classes: int, dim: int) -> list[str]:
    """Schema, row count and the experiment's own properties."""
    errors = []
    if table["columns"] != COLUMNS[experiment]:
        return [f"columns {table['columns']} != {COLUMNS[experiment]}"]
    rows = table["rows"]
    want = expected_rows(experiment, cfg)
    if len(rows) != want:
        errors.append(f"{len(rows)} rows, expected {want}")
    try:
        errors += _PROPERTIES[experiment](rows, cfg, classes, dim)
    except (KeyError, ValueError) as exc:
        errors.append(f"unparsable output: {type(exc).__name__}: {exc}")
    return errors


def _naive(rows, cfg, classes, dim):
    errors = []
    for i, row in enumerate(rows):
        errors += _check_overflow_cells(row, f"row {i}")
    for (depth, sigma), group in _cells(rows, "depth", "sigma_p").items():
        group = sorted(group, key=lambda r: num(r["lam"]))
        seen = False
        for row in group:
            over = flag(row["overflowed"])
            if seen and not over:
                errors.append(f"depth {depth:g} sigma {sigma:g}: lam {row['lam']} "
                              "is finite after a smaller lam overflowed")
            seen = seen or over
    return errors


def _gradnorm(rows, cfg, classes, dim):
    errors = []
    for i, row in enumerate(rows):
        mean, sigma = num(row["grad_norm_sq_mean"]), num(row["sigma_p"])
        if not mean > 0:
            errors.append(f"row {i}: grad_norm_sq_mean {mean!r} is not positive")
        if num(row["grad_norm_sq_std_error"]) < 0:
            errors.append(f"row {i}: negative standard error")
        if num(row["depth"]) == 1:
            worst = num(row["linear_worst_case"])
            if not close(worst, 2.0 * sigma**2 * classes * dim, 1e-12):
                errors.append(f"row {i}: linear_worst_case {worst!r} != 2 sigma^2 k d")
            if mean > worst:
                errors.append(f"row {i}: grad_norm_sq_mean {mean!r} > linear worst case {worst!r}")
        elif row["linear_worst_case"] != "":
            errors.append(f"row {i}: linear_worst_case set at depth {row['depth']}")
    return errors


def _loss(rows, cfg, classes, dim):
    errors = []
    for i, row in enumerate(rows):
        gap = num(row["loss_bound"]) - num(row["avg_prior_loss"])
        if not close(gap, LOSS_BOUND_SLACK, ROUNDING, ROUNDING):
            errors.append(f"row {i}: loss_bound - avg_prior_loss = {gap!r}, "
                          f"slack is {LOSS_BOUND_SLACK}")
    return errors


def _bound(rows, cfg, classes, dim):
    errors = []
    for i, row in enumerate(rows):
        errors += _check_overflow_cells(row, f"row {i}")
    for (depth, sigma), group in _cells(rows, "depth", "sigma_p").items():
        by_label = {r["lam_label"]: r for r in group}
        if set(by_label) != {"sqrt_m", "m"}:
            errors.append(f"depth {depth:g} sigma {sigma:g}: lam labels {sorted(by_label)}")
            continue
        if num(by_label["m"]["log_space_value"]) < num(by_label["sqrt_m"]["log_space_value"]):
            errors.append(f"depth {depth:g} sigma {sigma:g}: bound at lam=m below lam=sqrt(m)")
    return errors


def _fit(rows, cfg, classes, dim):
    errors = []
    for i, row in enumerate(rows):
        if num(row["n_grid_points"]) != FIT_SUBGAMMA_POINTS:
            errors.append(f"row {i}: {row['n_grid_points']} grid points")
        if int(row["n_finite_points"]) == 0:
            if any(row[k] != "" for k in ("v", "c", "lambda_max", "residual")) \
                    or flag(row["dominates"]):
                errors.append(f"row {i}: no finite point but a fit is reported")
            continue
        c = num(row["c"])
        if not flag(row["dominates"]):
            errors.append(f"row {i}: fit does not dominate")
        if num(row["residual"]) != 0.0:
            errors.append(f"row {i}: residual {row['residual']} != 0")
        if not (c > 0 and num(row["v"]) >= 0 and close(num(row["lambda_max"]), 1.0 / c, 1e-12)):
            errors.append(f"row {i}: lambda_max {row['lambda_max']} != 1/c for c={row['c']}")
    return errors


def param_count(depth: int, dim: int, classes: int, target: int = 20_000) -> int:
    """Parameters of the depth's net: k*d for the linear model, else the
    equal-parameter rule: the smallest hidden width h whose net reaches
    ``target`` parameters, or h - 1 when that lands at least as close."""
    if depth == 1:
        return classes * dim

    def count(h):
        return (dim + 1) * h + (depth - 2) * (h + 1) * h + (h + 1) * classes

    h = 1
    while count(h) < target:
        h += 1
    if h > 1 and abs(count(h - 1) - target) <= abs(count(h) - target):
        h -= 1
    return count(h)


def _train(rows, cfg, classes, dim):
    errors = []
    for i, row in enumerate(rows):
        for k in ("train_accuracy", "test_accuracy"):
            if not 0.0 <= num(row[k]) <= 1.0:
                errors.append(f"row {i}: {k} {row[k]} outside [0, 1]")
        sp, sq = num(row["sigma_p"]), num(row["sigma_q"])
        if not close(sp, math.sqrt(num(row["prior_variance"])), 1e-12):
            errors.append(f"row {i}: sigma_p {sp!r} != sqrt(prior_variance)")
        if sq != SIGMA_Q or int(row["m"]) != cfg["train_size"] or row["l_d_proxy"] != "heldout":
            errors.append(f"row {i}: sigma_q/m/l_d_proxy are {sq}/{row['m']}/{row['l_d_proxy']}")
        if num(row["bound_m_log"]) < num(row["bound_sqrt_m_log"]):
            errors.append(f"row {i}: bound_m_log < bound_sqrt_m_log")
        p = param_count(int(row["depth"]), dim, classes)
        floor = p * (math.log(sp / sq) + sq**2 / (2 * sp**2) - 0.5)
        if num(row["kl"]) < floor * (1 - 1e-12):
            errors.append(f"row {i}: kl {row['kl']} below the isotropic floor {floor!r}")
    return errors


def _identity(rows, cfg, classes, dim):
    return [f"row {i}: {row['check']} case {row['case']} failed"
            for i, row in enumerate(rows) if not flag(row["passed"])]


_PROPERTIES = {
    "naive-vs-lambda": _naive, "gradnorm-vs-variance": _gradnorm,
    "loss-vs-variance": _loss, "bound-vs-variance": _bound,
    "fit-subgamma": _fit, "train-report": _train, "identity-checks": _identity,
}


def check_cross(tables: dict) -> dict:
    """loss-vs-variance and bound-vs-variance share their draws, so their
    loss bounds agree cell by cell.  Returns errors keyed by experiment."""
    if not {"loss-vs-variance", "bound-vs-variance"} <= tables.keys():
        return {}
    bound = {(num(r["depth"]), num(r["sigma_p"])): num(r["loss_bound"])
             for r in tables["bound-vs-variance"]["rows"]}
    errors = []
    for row in tables["loss-vs-variance"]["rows"]:
        key = (num(row["depth"]), num(row["sigma_p"]))
        if key not in bound or not close(num(row["loss_bound"]), bound[key], 1e-12):
            errors.append(f"depth {key[0]:g} sigma {key[1]:g}: loss_bound {row['loss_bound']} "
                          f"!= bound-vs-variance's {bound.get(key)!r}")
    return {"loss-vs-variance": errors}


# --- independent recomputation -------------------------------------------

def philox_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """N(0,1) draws: 52-bit Philox integers r -> ndtri((r + 1/2) / 2^52)."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    r = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    return ndtri((r.astype(np.float64) + 0.5) / 2.0**52)


def _linear_stats(w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Per-example NLL loss and squared input-gradient norm of logits x W^T."""
    logits = x @ w.T
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=1)
    rows = np.arange(x.shape[0])
    losses = np.log(total) + top[:, 0] - logits[rows, y - 1]
    g = e / total[:, None]
    g[rows, y - 1] -= 1.0
    grad_x = g @ w
    return losses, np.einsum("ij,ij->i", grad_x, grad_x)


def _log_mean_exp(a: np.ndarray) -> float:
    top = float(a.max())
    return top + math.log(float(np.mean(np.exp(a - top))))


def _estimate(exponents: np.ndarray, overflowed: bool, direct_values: np.ndarray) -> dict:
    """A bound estimate as ``bounds.BoundEstimate`` defines its fields."""
    y = np.exp(exponents - exponents.max())
    se = float(np.std(y, ddof=1) / (y.mean() * math.sqrt(y.size)))
    value = math.inf if overflowed else math.log(float(np.mean(direct_values)))
    return {"value": value, "log_space_value": _log_mean_exp(exponents),
            "std_error": se, "overflowed": overflowed}


def reference(train, heldout, classes: int, dim: int, seed: int, draws: int) -> dict:
    """Depth-1 rows at REFERENCE_SIGMA of the gradnorm, loss and bound
    sweeps, and the naive-vs-lambda row at REFERENCE_LAMBDA, recomputed.

    ``train`` and ``heldout`` are (inputs, 1-based labels) pairs.
    """
    ws = [(REFERENCE_SIGMA * philox_normals(seed, i, classes * dim)).reshape(classes, dim)
          for i in range(draws)]
    held = [_linear_stats(w, *heldout) for w in ws]
    mean_loss = np.array([lo.mean() for lo, _ in held])
    mean_sq = np.array([sq.mean() for _, sq in held])
    b = float(mean_loss.mean()) + LOSS_BOUND_SLACK
    m = train[0].shape[0]
    out = {
        "gradnorm-vs-variance": {"grad_norm_sq_mean": float(mean_sq.mean()),
                                 "grad_norm_sq_std_error":
                                     float(mean_sq.std(ddof=1) / math.sqrt(draws))},
        "loss-vs-variance": {"avg_prior_loss": b - LOSS_BOUND_SLACK, "loss_bound": b},
        "bound-vs-variance": {},
    }
    for label, lam in (("sqrt_m", math.sqrt(m)), ("m", float(m))):
        exponents = (2.0 * lam**2 * math.exp(b) / m) * mean_sq
        with np.errstate(over="ignore"):
            est = _estimate(exponents, bool(exponents.max() > F32_LOG_MAX), np.exp(exponents))
        out["bound-vs-variance"][label] = {**est, "loss_bound": b}

    lam = REFERENCE_LAMBDA
    train_losses = [_linear_stats(w, *train)[0] for w in ws]
    gap_exp = np.array([lam * lo.mean() for lo in train_losses])
    log_mgf = np.array([_log_mean_exp(-(lam / m) * lo) for lo in train_losses])
    with np.errstate(over="ignore", under="ignore"):
        direct = np.exp(gap_exp) * np.array(
            [np.mean(np.exp(-(lam / m) * lo)) for lo in train_losses]) ** m
    exponents = gap_exp + m * log_mgf
    # The direct chain exponentiates lam * mean loss first, so that factor
    # decides overflow too.
    over = bool(max(exponents.max(), gap_exp.max()) > F32_LOG_MAX)
    out["naive-vs-lambda"] = _estimate(exponents, over, direct)
    return out


def _reference_row(experiment, rows):
    want = {"depth": 1.0, "sigma_p": REFERENCE_SIGMA}
    if experiment == "naive-vs-lambda":
        want["lam"] = REFERENCE_LAMBDA
    return [r for r in rows if all(num(r[k]) == v for k, v in want.items())]


def check_reference(tables: dict, ref: dict) -> dict:
    """Compare the program's rows with the recomputation; errors by experiment."""
    errors: dict = {}
    for experiment, expected in ref.items():
        if experiment not in tables:
            continue
        rows = _reference_row(experiment, tables[experiment]["rows"])
        if experiment == "bound-vs-variance":
            pairs = [(r, expected.get(r["lam_label"], {})) for r in rows]
        else:
            pairs = [(r, expected) for r in rows]
        want_rows = 2 if experiment == "bound-vs-variance" else 1
        errs = [] if len(rows) == want_rows else [f"reference row missing ({len(rows)} found)"]
        for row, fields in pairs:
            for key, value in fields.items():
                got = flag(row[key]) if isinstance(value, bool) else num(row[key])
                ok = got == value if isinstance(value, bool) or math.isinf(value) \
                    else close(got, value, REFERENCE_RTOL)
                if not ok:
                    errs.append(f"reference: {key} is {row[key]}, recomputed {value!r}")
        errors[experiment] = errs
    return errors
