#!/usr/bin/env python3
"""Benchmark of the paper's experiments, run as the CLI's users run them.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a gradbound source tree.  The run builds its inputs
from ``--seed`` under ``.bench_work/``, checks that gradbound imports from
``src/``, then makes rounds for about ``--seconds`` (at least one).  A
round is one fresh interpreter (``round.py``) that imports gradbound and
calls ``gradbound.cli.main`` once per experiment of the workload, in a
fixed order.  One experiment call is one operation; it fails
on a nonzero exit or a failed output check (``checks.py``).

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the rounds: ``wall_s`` (first experiment start to last experiment end),
``setup_s`` (process start until gradbound, numpy and scipy are imported;
three extra set-up-only interpreters join the rounds' samples) and
``peak_rss_mb``.  Per-experiment seconds are printed above the result.
With ``--trace 1`` the rounds run under ``tracer.py`` and the result holds
the per-layer metrics.  The last line of standard output is the result as
one JSON object.  See README.md for the workloads and the figures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
ROUND_TIMEOUT_S = 170.0
EXPERIMENT_METRICS = {
    "naive-vs-lambda": "naive_s", "gradnorm-vs-variance": "gradnorm_s",
    "loss-vs-variance": "loss_s", "bound-vs-variance": "bound_s",
    "fit-subgamma": "fit_s", "train-report": "train_s", "identity-checks": "identity_s",
}
BREAKDOWN = ("gaussians.draws", "gaussians.redraw_ratio", "nets.passes_per_draw",
             "training.forwards_per_step", "gaussians.sample_s", "nets.forward_s",
             "nets.input_grad_s", "nets.param_grad_s", "bounds.self_s", "training.self_s")
COUNT_METRICS = ("gaussians.draws", "nets.forward_calls", "nets.forward_rows",
                 "nets.input_grad_calls", "nets.param_grad_calls", "training.sgd_steps",
                 "bounds.estimator_calls", "subgamma.fit_calls", "datasets.loads")


def blas_threads() -> str:
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return str(getattr(lib, sym)())
    return "unknown"


def environment() -> str:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {os.cpu_count()} cores, "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '')} "
            f"with {blas_threads()} threads "
            f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")


class Run:
    def __init__(self, root: str, workload: str, seed: int, trace: bool):
        from workloads import GAUSS_SPEC, WORKLOADS

        self.root, self.src = root, os.path.join(root, "src")
        self.name, self.seed, self.trace = workload, seed, trace
        self.spec = WORKLOADS[workload]
        self.work = os.path.join(root, ".bench_work", f"{workload}-s{seed}-{os.getpid()}")
        os.makedirs(os.path.join(self.work, "out"))
        self.env = {**os.environ, "PYTHONPATH": self.src}
        self.images = self.labels = self.synthetic = None
        if self.spec["data"] == "desk":
            from gradbound.deskdata import build_desk_idx

            self.images, self.labels = build_desk_idx(os.path.join(self.work, "data"), seed=seed)
            self.data_args = ["--data-images", self.images, "--data-labels", self.labels]
        else:
            self.synthetic = GAUSS_SPEC
            self.data_args = ["--synthetic", GAUSS_SPEC]
        self.configs = {}
        for experiment, cfg in self.spec["experiments"].items():
            path = os.path.join(self.work, f"{experiment}.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            self.configs[experiment] = path

    def output(self, experiment: str) -> str:
        # Every round writes the same path: the path is part of the
        # output's embedded config, and rounds must agree byte for byte.
        return os.path.join(self.work, "out", f"{experiment}.csv")

    def argv(self, experiment: str) -> list[str]:
        argv = [experiment, "--config", self.configs[experiment], "--seed", str(self.seed),
                "--out", self.output(experiment)]
        return argv if experiment == "identity-checks" else argv + self.data_args

    def spawn(self, tag: str, experiments: list[str]) -> tuple[float, dict | None]:
        """Start one interpreter; returns (its start time, its result)."""
        plan_path = os.path.join(self.work, f"{tag}.plan.json")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        with open(plan_path, "w") as f:
            json.dump({"src": self.src, "trace": self.trace,
                       "experiments": [self.argv(e) for e in experiments]}, f)
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "round.py"), plan_path, result_path],
                env=self.env, cwd=self.root, timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return started, None
        if proc.returncode != 0 or not os.path.exists(result_path):
            return started, None
        with open(result_path) as f:
            return started, json.load(f)

    def reference(self) -> dict:
        """The recomputed rows (sweep workloads only), from the program's split."""
        from checks import reference
        from gradbound.cli import SweepSpec, resolve_dataset

        sweep = self.spec["experiments"].get("gradnorm-vs-variance")
        if sweep is None:
            return {}
        spec = SweepSpec(experiment="gradnorm-vs-variance", images_path=self.images,
                         labels_path=self.labels, synthetic=self.synthetic,
                         train_size=sweep["train_size"], heldout_size=sweep["heldout_size"],
                         data_seed=self.seed)
        train, heldout = resolve_dataset(spec)
        return reference((train.inputs, train.labels), (heldout.inputs, heldout.labels),
                         self.spec["classes"], self.spec["dim"], self.seed,
                         sweep["estimator"]["n_weight_samples"])


def take_outputs(run: Run, experiments) -> dict:
    """Read and remove the outputs a round wrote."""
    texts = {}
    for experiment in experiments:
        path = run.output(experiment)
        if os.path.exists(path):
            with open(path) as f:
                texts[experiment] = f.read()
            os.remove(path)
    return texts


def check_first_round(run: Run, texts: dict, ref: dict) -> dict:
    """Errors per experiment for the first round's outputs."""
    from checks import check_cross, check_reference, check_table, parse, strip_timestamp

    tables = {e: parse(strip_timestamp(t)) for e, t in texts.items()}
    errors = {e: check_table(e, tables[e], run.spec["experiments"][e],
                             run.spec["classes"], run.spec["dim"]) for e in tables}
    try:
        extra = [check_cross(tables), check_reference(tables, ref)]
    except (KeyError, ValueError) as exc:
        extra = [{e: [f"unparsable output: {exc}"] for e in tables}]
    for more in extra:
        for e, errs in more.items():
            errors[e] = errors.get(e, []) + errs
    return errors


def execute(run: Run, seconds: float) -> int:
    from checks import strip_timestamp

    experiments = list(run.spec["experiments"])
    ref = run.reference()
    setups = []
    for i in range(SETUP_PROBES):
        started, result = run.spawn(f"setup{i}", [])
        if result is None:
            print(f"set-up probe {i} failed", file=sys.stderr)
            return 1
        setups.append(result["ready"] - started)

    rounds = []  # (start, result or None, output texts)
    t_begin = time.perf_counter()
    while True:
        tag = f"round{len(rounds)}"
        started, result = run.spawn(tag, experiments)
        rounds.append((started, result, take_outputs(run, experiments)))
        elapsed = time.perf_counter() - t_begin
        # Stop where the run ends nearest to ``seconds`` on average.
        if result is None or elapsed + 0.5 * elapsed / len(rounds) > seconds:
            break

    first_texts = rounds[0][2]
    errors = check_first_round(run, first_texts, ref)
    first_stripped = {e: strip_timestamp(t) for e, t in first_texts.items()}
    attempted = failed = 0
    correct = not any(errors.values())
    for index, (_, result, texts) in enumerate(rounds):
        exits = {r["experiment"]: r["exit"] for r in (result or {}).get("runs", [])}
        for experiment in experiments:
            attempted += 1
            problems = list(errors.get(experiment, []))
            if exits.get(experiment) != 0:
                problems.append(f"exit status {exits.get(experiment)}")
            elif experiment not in texts:
                problems.append("no output file")
            elif strip_timestamp(texts[experiment]) != first_stripped.get(experiment):
                problems.append("output differs from round 0 beyond the timestamp line")
                correct = False
            if problems:
                failed += 1
                for p in problems[:5]:
                    print(f"round {index} {experiment}: {p}", file=sys.stderr)
    good = [(s, r) for s, r, _ in rounds if r is not None]
    if not good:
        print("no round completed", file=sys.stderr)
        return 1

    walls = [r["runs"][-1]["end"] - r["runs"][0]["start"] for _, r in good]
    print(f"workload {run.name}: seed {run.seed}, {len(rounds)} rounds of "
          f"{len(experiments)} experiments in {time.perf_counter() - t_begin:.1f} s")
    print(environment())
    print("round wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    if run.trace:
        from tracer import UNITS, layer_metrics, per_experiment

        per_round = [layer_metrics(r["spans"], r["output_bytes"]) for _, r in good]
        metrics = {k: statistics.median([m[k] for m in per_round]) for k in per_round[0]}
        repeat = all(m[k] == per_round[0][k] for m in per_round for k in COUNT_METRICS)
        print(f"traced wall_s {statistics.median(walls):.4f} s; "
              f"counts repeat across rounds: {repeat}")
        for experiment, spans in zip(experiments, per_experiment(good[0][1]["spans"])):
            m = layer_metrics(spans, 0)
            print(f"  {experiment}: " + ", ".join(f"{k} {m[k]:.4g}" for k in BREAKDOWN))
        out_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    else:
        for experiment in experiments:
            times = [next(x for x in r["runs"] if x["experiment"] == experiment)
                     for _, r in good]
            print(f"{EXPERIMENT_METRICS[experiment]} "
                  f"{statistics.median([t['end'] - t['start'] for t in times]):.4f} s")
        setups += [r["ready"] - s for s, r in good]
        print("setup_s samples: " + " ".join(f"{x:.3f}" for x in setups))
        rss = [r["peak_rss_kb"] / 1024.0 for _, r in good]
        out_metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    for name, m in out_metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {attempted}, failed {failed}; checks "
          f"{'passed' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


def run_all(workloads: list[str], args) -> int:
    """Each workload in its own run; the last line maps workload -> result."""
    results = {}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind like an exception, so subprocess.run kills and
    # reaps the child in flight and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gradbound", "cli.py")):
        print(f"no gradbound sources under {src}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gradbound
    from workloads import WORKLOADS

    if os.path.dirname(os.path.dirname(os.path.abspath(gradbound.__file__))) != src:
        print(f"gradbound imports from {gradbound.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, bool(args.trace))
    try:
        return execute(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
