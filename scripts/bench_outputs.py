#!/usr/bin/env python3
"""Usage: bench_outputs.py OUT_DIR [--seed N]

Writes the output of every experiment of every benchmark workload
(``bench/workloads.py``) for the source tree this script sits in, one file
per (workload, experiment), as OUT_DIR/<workload>.<experiment>.csv.  The
experiments get the configs, ``--seed`` and data that ``bench/run.py``
gives them: the desk digit files are built from the seed with
``build_desk_idx``.  Data and configs go to a temporary directory that the
experiments run from, with the data paths relative to it, so the embedded
configs of two trees' outputs compare equal.  Compare two trees with

    scripts/compare_outputs.py PARENT_OUT_DIR NEW_OUT_DIR

Exits 1 if any experiment exits nonzero.
"""

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # bench/ is only read
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from gradbound.cli import main as cli_main  # noqa: E402
from gradbound.deskdata import build_desk_idx  # noqa: E402
from workloads import GAUSS_SPEC, WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    failures = 0
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        desk = None
        for workload, spec in WORKLOADS.items():
            if spec["data"] == "desk":
                desk = desk or build_desk_idx("data", seed=args.seed)
                data_args = ["--data-images", desk[0], "--data-labels", desk[1]]
            else:
                data_args = ["--synthetic", GAUSS_SPEC]
            for experiment, cfg in spec["experiments"].items():
                config = f"{workload}.{experiment}.json"
                with open(config, "w") as f:
                    json.dump(cfg, f)
                out = os.path.join(out_dir, f"{workload}.{experiment}.csv")
                argv = [experiment, "--config", config, "--seed", str(args.seed),
                        "--out", out]
                if experiment != "identity-checks":
                    argv += data_args
                t0 = time.perf_counter()
                code = cli_main(argv)
                print(f"{workload} {experiment}: exit {code} in "
                      f"{time.perf_counter() - t0:.1f} s -> {out}")
                failures += code != 0
        os.chdir(ROOT)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
