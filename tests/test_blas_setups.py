"""Bits that must not depend on the BLAS set-up, checked in subprocesses.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` and ``OPENBLAS_CORETYPE`` only
when it loads, so each case runs in a fresh interpreter whose environment
differs from this one in that variable alone.  Forcing a kernel needs
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
    if setup == "haswell" and not _has_avx2():
        pytest.skip("the Haswell kernel needs AVX2")
    key, value = SETUPS[setup]
    path = [os.path.join(REPO_DIR, "src"), TESTS_DIR, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, key: value, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("setup", SETUPS)
def test_identity_checks_match_golden(setup, tmp_path):
    name = "identity-checks.csv"
    done = _run(["-c", f"from test_golden import _run_case; raise SystemExit(_run_case({name!r}))"],
                setup, tmp_path)
    assert done.returncode == 0, done.stderr
    assert _stable_lines(tmp_path / name) == _stable_lines(os.path.join(GOLDEN_DIR, name))


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
