#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the root of a gradbound source tree.  Runs the five sweeps, a
small train-report and the identity checks on a small synthetic problem,
shows that every check passes on the real outputs, then corrupts one output
at a time and shows that a check rejects each corruption.  Exits 1 if a
real output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

SPEC = "k=2,d=16,sigma=1.0,n_per_class=320,sep=3.0"
SEED = 3


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from gradbound.cli import SweepSpec, main as cli_main, resolve_dataset

    from checks import check_cross, check_reference, check_table, parse, reference
    from workloads import sweep_configs

    experiments = sweep_configs(draws=4)
    for cfg in experiments.values():
        cfg.update(depth_grid=[1, 2], train_size=512, heldout_size=128)
    experiments["train-report"] = {"depth_grid": [1, 2], "variance_grid": [0.01, 0.1],
                                   "train_size": 512, "heldout_size": 128,
                                   "estimator": {"n_weight_samples": 2}, "train": {"epochs": 1}}
    experiments["identity-checks"] = {}

    work = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        tables = {}
        for experiment, cfg in experiments.items():
            config, out = os.path.join(work, f"{experiment}.json"), os.path.join(work, experiment)
            with open(config, "w") as f:
                json.dump(cfg, f)
            argv = [experiment, "--config", config, "--seed", str(SEED), "--out", out]
            if experiment != "identity-checks":
                argv += ["--synthetic", SPEC]
            if cli_main(argv) != 0:
                print(f"{experiment} exited nonzero")
                return 1
            with open(out) as f:
                tables[experiment] = parse(f.read())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sweep = experiments["gradnorm-vs-variance"]
    train, heldout = resolve_dataset(SweepSpec(
        experiment="gradnorm-vs-variance", synthetic=SPEC, train_size=512,
        heldout_size=128, data_seed=SEED))
    ref = reference((train.inputs, train.labels), (heldout.inputs, heldout.labels),
                    2, 16, SEED, sweep["estimator"]["n_weight_samples"])

    def errors(tabs) -> list[str]:
        found = []
        for experiment, table in tabs.items():
            found += check_table(experiment, table, experiments[experiment], 2, 16)
        for more in (check_cross(tabs), check_reference(tabs, ref)):
            for errs in more.values():
                found += errs
        return found

    clean = errors(tables)
    print(f"real outputs: {'pass' if not clean else clean}")
    failures = bool(clean)

    def corrupt(experiment, edit):
        tabs = copy.deepcopy(tables)
        edit(tabs[experiment]["rows"])
        return tabs

    def set_cell(rows, pick, key, value):
        for row in rows:
            if pick(row):
                row[key] = value(row[key])
                return

    flip = {"true": "false", "false": "true"}
    cases = {
        "flipped overflowed flag (naive-vs-lambda)": corrupt(
            "naive-vs-lambda",
            lambda rows: set_cell(rows, lambda r: True, "overflowed", flip.get)),
        "flipped overflowed flag (bound-vs-variance)": corrupt(
            "bound-vs-variance",
            lambda rows: set_cell(rows, lambda r: True, "overflowed", flip.get)),
        "grad_norm_sq_mean perturbed by 1e-6 (depth-1 reference row)": corrupt(
            "gradnorm-vs-variance",
            lambda rows: set_cell(rows, lambda r: r["depth"] == "1" and r["sigma_p"] == "0.1",
                                  "grad_norm_sq_mean", lambda v: repr(float(v) * (1 + 1e-6)))),
        "dropped row (bound-vs-variance)": corrupt("bound-vs-variance", lambda rows: rows.pop()),
        "dropped row (identity-checks)": corrupt("identity-checks", lambda rows: rows.pop(0)),
        "dominates=false (fit-subgamma)": corrupt(
            "fit-subgamma",
            lambda rows: set_cell(rows, lambda r: r["dominates"] == "true", "dominates",
                                  lambda v: "false")),
        "loss_bound and avg_prior_loss shifted by 1e-6 (loss-vs-variance)": corrupt(
            "loss-vs-variance",
            lambda rows: [set_cell(rows, lambda r: r["depth"] == "2", key,
                                   lambda v: repr(float(v) + 1e-6))
                          for key in ("loss_bound", "avg_prior_loss")]),
        "test_accuracy above 1 (train-report)": corrupt(
            "train-report",
            lambda rows: set_cell(rows, lambda r: True, "test_accuracy", lambda v: "1.0625")),
    }
    for name, tabs in cases.items():
        found = errors(tabs)
        print(f"{name}: {'rejected: ' + found[0] if found else 'NOT REJECTED'}")
        failures = failures or not found
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
