"""Byte-for-byte regression of every experiment's output.

Each case runs ``gradbound.cli.main`` on a tiny synthetic config and diffs
the output line for line against ``tests/golden/<name>``, skipping only
the timestamp line.  The output is relative to the working directory, so
the embedded config line is the same on every machine.  Float bits depend
on the BLAS set-up: the files were written with numpy 2.4 and its bundled
OpenBLAS on x86-64, with 2 threads and the SkylakeX kernel.
``identity-checks.csv`` depends on neither the thread count nor the
kernel: its only BLAS products are small linear-model GEMMs, which round
the same under each (``tests/test_blas_setups.py`` checks it).  The GEMMs of
``gradnorm-vs-variance.csv`` and ``train-report.csv`` round differently
under the Haswell kernel, and most sweeps move with the thread count.

A change that is meant to move output bits must say why and regenerate
the files that moved with ``PYTHONPATH=src python tests/test_golden.py
NAME...`` (no names: all of them), so the others keep their timestamps.
"""

import json
import os
import sys

import pytest

from gradbound.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_SYNTH = "k=3,d=12,sigma=1.0,n_per_class=120,sep=2.5"
_BASE = {"synthetic": _SYNTH, "train_size": 256, "heldout_size": 96,
         "mlp_target_params": 400, "estimator": {"n_weight_samples": 4}}
_BASE_D64 = {**_BASE, "synthetic": "k=3,d=64,sigma=1.0,n_per_class=120,sep=2.5"}

# name -> (experiment, config file contents)
CASES = {
    "naive-vs-lambda.csv": ("naive-vs-lambda", {
        **_BASE, "depth_grid": [1, 2], "variance_grid": [0.1, 2.0],
        "lambda_grid": [0.5, 10.0, 200.0, 5000.0]}),
    "gradnorm-vs-variance.csv": ("gradnorm-vs-variance", {
        **_BASE, "depth_grid": [1, 2, 3], "variance_grid": [0.01, 0.1, 0.5]}),
    "loss-vs-variance.csv": ("loss-vs-variance", {
        **_BASE, "depth_grid": [1, 2, 3], "variance_grid": [0.01, 0.1, 0.5]}),
    "bound-vs-variance.csv": ("bound-vs-variance", {
        **_BASE, "depth_grid": [1, 2, 3], "variance_grid": [0.01, 0.1, 0.5]}),
    "bound-vs-variance.json": ("bound-vs-variance", {
        **_BASE, "depth_grid": [1, 2], "variance_grid": [0.05, 0.7]}),
    "fit-subgamma.csv": ("fit-subgamma", {
        **_BASE, "depth_grid": [1, 2, 3], "variance_grid": [0.05, 0.1, 3.0]}),
    "train-report.csv": ("train-report", {
        **_BASE, "depth_grid": [1, 2], "variance_grid": [0.01, 0.1],
        "train": {"epochs": 2, "batch_size": 32}}),
    "identity-checks.csv": ("identity-checks", {}),
    # d = 64: every depth's first layer is narrower than the input (3, 6 and
    # 5 wide), so the depths share draw_stats's first-layer columns: the
    # scale path with and without gradients, and naive's per-sigma columns.
    "bound-vs-variance-d64.csv": ("bound-vs-variance", {
        **_BASE_D64, "depth_grid": [1, 2, 3], "variance_grid": [0.01, 0.1, 0.5]}),
    "loss-vs-variance-d64.csv": ("loss-vs-variance", {
        **_BASE_D64, "depth_grid": [1, 2, 3], "variance_grid": [0.01, 0.1, 0.5]}),
    "naive-vs-lambda-d64.csv": ("naive-vs-lambda", {
        **_BASE_D64, "depth_grid": [1, 2, 3], "variance_grid": [0.1, 2.0],
        "lambda_grid": [0.5, 10.0, 200.0, 5000.0]}),
}
_SEED = 7


def _run_case(name: str) -> int:
    experiment, config = CASES[name]
    with open("config.json", "w") as f:
        json.dump(config, f)
    return main([experiment, "--config", "config.json", "--seed", str(_SEED),
                 "--out", name])


def _stable_lines(path: str) -> list[str]:
    # newline="" keeps each line's terminator: CSV rows end in \r\n.
    with open(path, newline="") as f:
        lines = f.read().split("\n")
    return [line for line in lines
            if not line.lstrip().startswith(("# timestamp:", '"timestamp":'))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_case(name) == 0
    got = _stable_lines(name)
    want = _stable_lines(os.path.join(GOLDEN_DIR, name))
    assert len(got) == len(want), name
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (f"{name} line {i}; the golden files were written with 2 "
                        "OpenBLAS threads on the SkylakeX kernel, and only "
                        "identity-checks.csv depends on neither")


def _regenerate(names: list[str]) -> None:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown golden files: {', '.join(unknown)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for name in names or sorted(CASES):
        if _run_case(name) != 0:
            sys.exit(f"{name}: nonzero exit")
    os.remove("config.json")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
