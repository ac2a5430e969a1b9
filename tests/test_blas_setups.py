"""Bits that must not depend on the BLAS set-up, checked in subprocesses.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` and ``OPENBLAS_CORETYPE`` only
when it loads, so each case runs in a fresh interpreter whose environment
differs from this one in that variable alone (or lacks
``OPENBLAS_NUM_THREADS``, for the default thread count).  Forcing a kernel needs
x86-64 and numpy's bundled OpenBLAS; the Haswell kernel needs AVX2.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from test_golden import GOLDEN_DIR, _stable_lines

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(TESTS_DIR)


def _has_openblas_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return platform.machine().lower() in ("x86_64", "amd64") and "openblas" in blas["name"]


def _has_avx2() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


pytestmark = pytest.mark.skipif(not _has_openblas_x86_64(),
                                reason="needs numpy's OpenBLAS on x86-64")

SETUPS = {"1-thread": ("OPENBLAS_NUM_THREADS", "1"),
          "haswell": ("OPENBLAS_CORETYPE", "Haswell")}


def _run(args, setup, cwd):
    """Run Python in ``setup``, or with OpenBLAS's default thread count for None."""
    if setup == "haswell" and not _has_avx2():
        pytest.skip("the Haswell kernel needs AVX2")
    path = [os.path.join(REPO_DIR, "src"), TESTS_DIR, os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    if setup is not None:
        key, value = SETUPS[setup]
        env[key] = value
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _check_golden_case(name, setup, tmp_path):
    done = _run(["-c", f"from test_golden import _run_case; raise SystemExit(_run_case({name!r}))"],
                setup, tmp_path)
    assert done.returncode == 0, done.stderr
    assert _stable_lines(tmp_path / name) == _stable_lines(os.path.join(GOLDEN_DIR, name))


@pytest.mark.parametrize("setup", SETUPS)
def test_identity_checks_match_golden(setup, tmp_path):
    _check_golden_case("identity-checks.csv", setup, tmp_path)


def test_train_report_matches_golden_with_one_thread(tmp_path):
    _check_golden_case("train-report.csv", "1-thread", tmp_path)


# Two depths of a 784-pixel net trained on 128-row batches, whose first
# layer's GEMM rounds with the thread count unless SGD runs on one thread.
_TRAIN_784 = """
import hashlib
import numpy as np
from gradbound import synth_gaussian
from gradbound.nets import arch_for_depth
from gradbound.training import TrainConfig, train_depths

means = np.zeros((10, 784))
means[np.arange(10), np.arange(10)] = 2.5
data = synth_gaussian(10, 784, means, 1.0, 26, seed=1)
archs = [arch_for_depth(depth, 784, 10, 20_000) for depth in (1, 2)]
digest = hashlib.sha256()
for trained in train_depths(archs, data, TrainConfig(epochs=1, seed=1), [0.1, 0.3]):
    for params in trained:
        digest.update(params.values.tobytes())
print(digest.hexdigest())
"""


def test_trained_weights_do_not_depend_on_the_blas_thread_count():
    runs = [_run(["-c", _TRAIN_784], setup, REPO_DIR) for setup in (None, "1-thread")]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout


def test_lockstep_matches_one_vector_passes_under_haswell(tmp_path):
    done = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/test_nets.py::test_stacked_pass_matches_one_vector_passes",
                 "tests/test_training.py::test_lockstep_matches_training_each_config_alone"],
                "haswell", REPO_DIR)
    assert done.returncode == 0, done.stdout[-4000:]


@pytest.mark.parametrize("setup", SETUPS)
def test_shared_first_layer_columns_match_per_depth_calls(setup):
    # the d = 256 case asserts the bits; each BLAS set-up must give them
    done = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_bounds.py::"
                 "test_draw_stats_over_several_narrowing_layouts_matches_per_layout_calls"],
                setup, REPO_DIR)
    assert done.returncode == 0, done.stdout[-4000:]
