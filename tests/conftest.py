import os
import sys

# Set before gradbound is imported, and inherited by every subprocess the
# tests start from os.environ (the hermetic ones set it themselves): a test
# run leaves no src/gradbound/__pycache__, whose bytecode would make a
# later benchmark of this tree read faster than a fresh checkout.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gradbound.datasets import load_idx, split, synth_gaussian, take  # noqa: E402
from gradbound.deskdata import build_desk_idx  # noqa: E402


@pytest.fixture(scope="session")
def desk_idx(tmp_path_factory):
    """(images, labels) paths of the desk-scale 5120-example digit IDX files,
    built once per session."""
    return build_desk_idx(tmp_path_factory.mktemp("deskidx"))


@pytest.fixture(scope="session")
def desk_splits(desk_idx):
    """(train, heldout) = (4096, 1024) stratified split of the desk data."""
    pixels, labels, k = load_idx(*desk_idx)
    return tuple(take(pixels, labels, k, idx) for idx in split(labels, 4096 / 5120, seed=0))


@pytest.fixture(scope="session")
def synth2():
    """2-class Gaussian data matching the class-conditional hypothesis."""
    means = np.zeros((2, 16))
    means[0, 0] = 1.5
    means[1, 1] = 1.5
    return synth_gaussian(2, 16, means, sigma=1.0, n_per_class=512, seed=3)
