"""The benchmark's workloads: their data, experiments and grids.

Every experiment gets a complete config file (grids written out, nothing
left to the program's per-experiment defaults except the fit-subgamma
lambda grid), and the run's seed is passed as ``--seed``, which sets the
estimator, training and data seeds.  The desk workloads also build their
digit files from that seed.
"""

from __future__ import annotations

DEPTHS = [1, 2, 3, 4, 5]
SWEEP_SIGMAS = [0.01, 0.1, 0.5]
NAIVE_LAMBDAS = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0]
FIT_SUBGAMMA_POINTS = 12  # geomspace(1, m, 12) when lambda_grid is empty
TRAIN_SIZE, HELDOUT_SIZE = 4096, 1024
GAUSS_SPEC = "k=2,d=16,sigma=1.0,n_per_class=2560,sep=3.0"

# The reference recomputation's row picks: depth 1 at this prior scale,
# and one naive-vs-lambda row.
REFERENCE_SIGMA = 0.1
REFERENCE_LAMBDA = 10.0


def sweep_configs(draws: int) -> dict:
    est = {"n_weight_samples": draws}
    base = {"depth_grid": DEPTHS, "train_size": TRAIN_SIZE,
            "heldout_size": HELDOUT_SIZE, "estimator": est}
    return {
        "naive-vs-lambda": {**base, "variance_grid": [REFERENCE_SIGMA],
                            "lambda_grid": NAIVE_LAMBDAS},
        "gradnorm-vs-variance": {**base, "variance_grid": SWEEP_SIGMAS},
        "loss-vs-variance": {**base, "variance_grid": SWEEP_SIGMAS},
        "bound-vs-variance": {**base, "variance_grid": SWEEP_SIGMAS},
        "fit-subgamma": {**base, "variance_grid": [0.05, REFERENCE_SIGMA]},
    }


WORKLOADS = {
    "desk-sweep": {
        "data": "desk", "classes": 10, "dim": 784,
        "experiments": sweep_configs(draws=16),
    },
    "desk-train": {
        "data": "desk", "classes": 10, "dim": 784,
        "experiments": {
            "train-report": {
                "depth_grid": DEPTHS, "variance_grid": [0.01, 0.1, 0.3],
                "train_size": TRAIN_SIZE, "heldout_size": HELDOUT_SIZE,
                "estimator": {"n_weight_samples": 4},
                "train": {"epochs": 8},
            },
        },
    },
    "gauss-wide": {
        "data": "synthetic", "classes": 2, "dim": 16,
        "experiments": {**sweep_configs(draws=8), "identity-checks": {}},
    },
}


def expected_rows(experiment: str, cfg: dict) -> int:
    if experiment == "identity-checks":
        return 50 + 50 + 20
    cells = len(cfg["depth_grid"]) * len(cfg["variance_grid"])
    if experiment == "naive-vs-lambda":
        return cells * len(cfg["lambda_grid"])
    if experiment == "bound-vs-variance":
        return cells * 2
    return cells
