"""The benchmark's tracer patches functions by name: every name it lists
must still resolve in the package, or every traced round crashes."""

import json
import os
import subprocess
import sys

import gradbound

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _run_bench_code(code, *args, cwd=None):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gradbound.__file__)))
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {_BENCH!r}); {code}", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        # Only reads bench/: no bytecode is written beside it.
        env={**os.environ, "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
    )


def test_tracer_installs_on_the_package():
    proc = _run_bench_code("from tracer import Tracer; Tracer().install()")
    assert proc.returncode == 0, proc.stderr


_SMALL = {"train_size": 64, "heldout_size": 32, "depth_grid": [1, 2], "variance_grid": [0.1],
          "mlp_target_params": 40, "estimator": {"n_weight_samples": 2}}
# experiment -> its config; each runs through cli.main with the tracer installed
_TRACED_RUNS = {
    "bound-vs-variance": _SMALL,
    "train-report": {**_SMALL, "train": {"epochs": 1, "batch_size": 32}},
    "identity-checks": {},
}
_TRACED_SCRIPT = """
import json
from tracer import Tracer, per_experiment
tracer = Tracer()
tracer.install()
from gradbound.cli import main
codes = []
for experiment, config in json.loads(sys.argv[1]).items():
    with open("config.json", "w") as f:
        json.dump(config, f)
    argv = [experiment, "--config", "config.json", "--out", experiment + ".csv"]
    if experiment != "identity-checks":
        argv += ["--synthetic", "k=2,d=4,n_per_class=64"]
    codes.append(main(argv))
names = [sorted({span[0] for span in spans}) for spans in per_experiment(tracer.spans)]
print(json.dumps([codes, names]))
"""


def test_a_traced_run_still_runs(tmp_path):
    """A run with the tracer's wrappers in place exits 0, and each sweep's
    spans name the CLI steps the tracer rebinds."""
    proc = _run_bench_code(_TRACED_SCRIPT, json.dumps(_TRACED_RUNS), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, names = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert len(names) == 3  # one root span, cli.run, per experiment
    for experiment, spans in zip(_TRACED_RUNS, names):
        assert "cli.run" in spans and "cli.write_output" in spans, experiment
        if experiment != "identity-checks":
            assert "cli.resolve_dataset" in spans, experiment
