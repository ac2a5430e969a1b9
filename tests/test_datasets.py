import os
import struct
from pathlib import Path

import numpy as np
import pytest

from gradbound.datasets import (
    MAX_SYNTH_CLASSES,
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    LabeledDataset,
    load_idx,
    split,
    stratified_sample,
    synth_gaussian,
    write_idx,
)
from gradbound.deskdata import build_desk_idx


def write_fixture(tmp_path, images, labels):
    ip = tmp_path / "img"
    lp = tmp_path / "lab"
    write_idx(ip, lp, images, labels)
    return ip, lp


def test_hand_built_fixture_scales_pixels(tmp_path):
    images = np.array([[[0, 255], [128, 7]], [[1, 2], [3, 4]]], dtype=np.uint8)
    labels = np.array([3, 9], dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, labels)
    data = load_idx(ip, lp)
    assert data.m == 2 and data.dim == 4
    assert np.allclose(data.inputs[0], [0.0, 1.0, 128 / 255, 7 / 255])
    assert data.labels.tolist() == [4, 10]  # raw byte b stored as label b+1
    assert data.class_count == 10


def test_roundtrip_identity_on_random_fixture(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(10, 5, 3), dtype=np.uint8)
    labels = rng.integers(0, 4, size=10, dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, labels)
    data = load_idx(ip, lp)
    assert np.array_equal(np.rint(data.inputs * 255).astype(np.uint8),
                          images.reshape(10, 15))
    assert np.array_equal(data.labels - 1, labels)


def test_wrong_magic_detected(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, labels)
    # labels file carrying the images magic
    bad = tmp_path / "bad"
    with open(bad, "wb") as f:
        f.write(struct.pack(">II", 0x00000803, 2))
        f.write(bytes(2))
    with pytest.raises(IdxBadMagicError):
        load_idx(ip, bad)
    # a labels file in the images slot dies on the header (too short) or magic
    with pytest.raises(IdxFormatError):
        load_idx(lp, lp)


def test_truncated_and_mismatched_files(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, labels)

    clipped = tmp_path / "clipped"
    clipped.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(IdxTruncatedError):
        load_idx(clipped, lp)

    short = tmp_path / "short"
    write_idx(tmp_path / "img2", short, images[:3], labels[:3])
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, short)


@pytest.mark.skipif("GRADBOUND_MNIST_DIR" not in os.environ,
                    reason="set GRADBOUND_MNIST_DIR to a directory with real MNIST")
def test_real_mnist_files():
    root = os.environ["GRADBOUND_MNIST_DIR"]
    data = load_idx(os.path.join(root, "train-images-idx3-ubyte"),
                    os.path.join(root, "train-labels-idx1-ubyte"))
    assert data.m == 60_000
    assert data.dim == 784
    assert data.class_count == 10


def test_synth_degenerate_sigma_hits_means():
    means = np.array([[1.0, 2.0], [-1.0, 0.5]])
    data = synth_gaussian(2, 2, means, 1e-30, 5, seed=1)
    for y in (1, 2):
        rowset = data.inputs[data.labels == y]
        assert np.max(np.abs(rowset - means[y - 1])) < 1e-20


def test_synth_law_of_large_numbers():
    means = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    data = synth_gaussian(2, 4, means, 1.0, 100_000, seed=2)
    for y in (1, 2):
        got = data.inputs[data.labels == y].mean(axis=0)
        assert np.max(np.abs(got - means[y - 1])) < 0.02


def test_synth_determinism_and_balance():
    means = np.zeros((3, 4))
    a = synth_gaussian(3, 4, means, 0.5, 10, seed=7)
    b = synth_gaussian(3, 4, means, 0.5, 10, seed=7)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert [(a.labels == y).sum() for y in (1, 2, 3)] == [10, 10, 10]


def test_synth_class_streams_stop_short_of_the_subset_and_split_streams():
    # class y draws from the synthetic base stream + y; 13 classes would
    # reach the streams stratified_sample and split shuffle with
    assert MAX_SYNTH_CLASSES == 12
    means = np.zeros((13, 13))
    assert synth_gaussian(12, 13, means[:12], 1.0, 2, seed=3).class_count == 12
    with pytest.raises(ValueError, match="k <= 12"):
        synth_gaussian(13, 13, means, 1.0, 2, seed=3)


def test_split_partitions_and_stratifies():
    means = np.zeros((10, 4))
    data = synth_gaussian(10, 4, means, 1.0, 50, seed=4)
    train, held = split(data, 0.8, seed=5)
    assert train.m + held.m == data.m
    assert train.m == round(0.8 * data.m)
    for y in range(1, 11):
        n_y = (train.labels == y).sum()
        assert abs(n_y - 0.8 * 50) <= 1
    # disjoint and exhaustive as multisets of rows
    all_rows = np.vstack([train.inputs, held.inputs])
    assert np.array_equal(np.sort(all_rows, axis=0), np.sort(data.inputs, axis=0))


def test_split_determinism_and_empty_side_error():
    means = np.zeros((2, 3))
    data = synth_gaussian(2, 3, means, 1.0, 20, seed=6)
    a1, b1 = split(data, 0.5, seed=1)
    a2, b2 = split(data, 0.5, seed=1)
    assert np.array_equal(a1.inputs, a2.inputs)
    assert np.array_equal(b1.labels, b2.labels)
    a3, _ = split(data, 0.5, seed=2)
    assert not np.array_equal(a1.inputs, a3.inputs)

    tiny = synth_gaussian(2, 3, means, 1.0, 1, seed=6)
    with pytest.raises(ValueError):
        split(tiny, 0.01, seed=0)
    with pytest.raises(ValueError):
        split(data, 1.0, seed=0)


def test_stratified_sample_keeps_proportions():
    means = np.zeros((4, 3))
    data = synth_gaussian(4, 3, means, 1.0, 100, seed=8)
    sub = stratified_sample(data, 100, seed=9)
    assert sub.m == 100
    for y in range(1, 5):
        assert (sub.labels == y).sum() == 25


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 3)), np.zeros(0), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), 2)  # label below 1
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([1, 3]), 2)  # label above k
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf, 0.0]]), np.array([1]), 1)


def test_desk_surrogate_shape(desk_data):
    assert desk_data.m == 5120
    assert desk_data.dim == 784
    assert desk_data.class_count == 10
    assert desk_data.inputs.min() >= 0.0 and desk_data.inputs.max() <= 1.0
    counts = [(desk_data.labels == y).sum() for y in range(1, 11)]
    assert counts == [512] * 10


def test_desk_surrogate_is_a_function_of_seed(tmp_path):
    def build(name, seed, n_total=40):
        paths = build_desk_idx(tmp_path / name, n_total=n_total, seed=seed)
        return [Path(p).read_bytes() for p in paths]

    first = build("a", seed=3)
    assert build("b", seed=3) == first
    other = build("c", seed=4)
    assert other[0] != first[0]
    assert other[1] == first[1]  # labels depend on position only
    # a smaller build is a prefix of a larger one (16-byte IDX image header)
    assert build("d", seed=3, n_total=20)[0][16:] == first[0][16 : 16 + 20 * 28 * 28]
