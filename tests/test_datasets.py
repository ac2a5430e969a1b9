import hashlib
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gradbound.cli import SweepSpec, resolve_dataset
from gradbound.datasets import (
    MAX_SYNTH_CLASSES,
    DataSourceError,
    LabeledDataset,
    load_idx,
    split,
    stratified_sample,
    synth_gaussian,
    take,
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
    pixels, raw_plus_one, k = load_idx(ip, lp)
    assert pixels.dtype == np.uint8  # scaled only when rows are gathered
    data = take(pixels, raw_plus_one, k, np.arange(2))
    assert data.m == 2 and data.dim == 4
    assert np.allclose(data.inputs[0], [0.0, 1.0, 128 / 255, 7 / 255])
    assert data.labels.tolist() == [4, 10]  # raw byte b stored as label b+1
    assert data.class_count == 10


def test_roundtrip_identity_on_random_fixture(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(10, 5, 3), dtype=np.uint8)
    labels = rng.integers(0, 4, size=10, dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, labels)
    data = take(*load_idx(ip, lp), np.arange(10))
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
    with pytest.raises(DataSourceError, match="wrong magic 0x00000803, expected 0x00000801"):
        load_idx(ip, bad)
    # a labels file in the images slot dies on the header (too short) or magic
    with pytest.raises(DataSourceError):
        load_idx(lp, lp)


def test_truncated_and_mismatched_files(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, labels)

    clipped = tmp_path / "clipped"
    clipped.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(DataSourceError, match="expected 16 pixel bytes, got 13"):
        load_idx(clipped, lp)

    short = tmp_path / "short"
    write_idx(tmp_path / "img2", short, images[:3], labels[:3])
    with pytest.raises(DataSourceError, match="image count 4 != label count 3"):
        load_idx(ip, short)


def test_write_idx_refuses_bad_shapes_before_writing(tmp_path):
    ip, lp = tmp_path / "img", tmp_path / "lab"
    for images, labels in ((np.zeros((4, 4), dtype=np.uint8), np.zeros(4, dtype=np.uint8)),
                           (np.zeros((4, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))):
        with pytest.raises(ValueError):
            write_idx(ip, lp, images, labels)
        assert os.listdir(tmp_path) == []


@pytest.mark.skipif("GRADBOUND_MNIST_DIR" not in os.environ,
                    reason="set GRADBOUND_MNIST_DIR to a directory with real MNIST")
def test_real_mnist_files():
    root = os.environ["GRADBOUND_MNIST_DIR"]
    pixels, labels, k = load_idx(os.path.join(root, "train-images-idx3-ubyte"),
                                 os.path.join(root, "train-labels-idx1-ubyte"))
    assert pixels.shape == (60_000, 784)
    assert labels.shape == (60_000,)
    assert k == 10


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
    train, held = (take(data.inputs, data.labels, 10, idx)
                   for idx in split(data.labels, 0.8, seed=5))
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
    a1, b1 = split(data.labels, 0.5, seed=1)
    a2, b2 = split(data.labels, 0.5, seed=1)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    a3, _ = split(data.labels, 0.5, seed=2)
    assert not np.array_equal(a1, a3)

    tiny = synth_gaussian(2, 3, means, 1.0, 1, seed=6)
    with pytest.raises(ValueError):
        split(tiny.labels, 0.01, seed=0)
    with pytest.raises(ValueError):
        split(data.labels, 1.0, seed=0)


def test_stratified_sample_keeps_proportions():
    means = np.zeros((4, 3))
    data = synth_gaussian(4, 3, means, 1.0, 100, seed=8)
    keep = stratified_sample(data.labels, 100, seed=9)
    assert keep.size == 100 and np.all(np.diff(keep) > 0)
    for y in range(1, 5):
        assert (data.labels[keep] == y).sum() == 25
    assert np.array_equal(stratified_sample(data.labels, 400, seed=9), np.arange(400))


def _idx_spec(images, labels, train_size, heldout_size, seed=4):
    return SweepSpec(experiment="loss-vs-variance", images_path=str(images),
                     labels_path=str(labels), train_size=train_size,
                     heldout_size=heldout_size, data_seed=seed)


@pytest.mark.parametrize("train_size,heldout_size", [(200, 100), (150, 60)],
                         ids=["every-row", "stratified-subset"])
def test_idx_sides_match_the_float64_route(tmp_path, train_size, heldout_size):
    """Each side gathered from the u8 pixels and scaled once has the bits
    of scaling the whole set to float64 first, then gathering the subset
    and each side from it."""
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(300, 8, 8), dtype=np.uint8)
    images[0].flat[:256] = np.arange(256)  # every pixel value
    raw = rng.integers(0, 4, size=300, dtype=np.uint8)
    ip, lp = write_fixture(tmp_path, images, raw)
    spec = _idx_spec(ip, lp, train_size, heldout_size)

    x = images.reshape(300, 64).astype(np.float64) / 255.0
    labels = raw.astype(np.int64) + 1
    n = train_size + heldout_size
    keep = stratified_sample(labels, n, spec.data_seed)
    assert (keep.size == 300) == (n == 300)
    sub_x, sub_y = x[keep], labels[keep]
    expected = [(sub_x[idx], sub_y[idx])
                for idx in split(sub_y, train_size / n, spec.data_seed)]

    got = resolve_dataset(spec)
    assert [side.m for side in got] == [train_size, heldout_size]
    for side, (ex, ey) in zip(got, expected):
        assert side.inputs.dtype == np.float64 and side.class_count == 4
        assert np.array_equal(side.inputs, ex) and np.array_equal(side.labels, ey)


def test_desk_setup_peak_memory(desk_idx):
    """Desk set-up holds the file's u8 pixels and the two float64 sides:
    about 4 + 32 MiB, where scaling the full set first peaked at 62 MiB."""
    spec = _idx_spec(*desk_idx, 4096, 1024)
    resolve_dataset(spec)  # warm call
    tracemalloc.start()
    try:
        resolve_dataset(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * 2**20, peak / 2**20


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 3)), np.zeros(0), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), 2)  # label below 1
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([1, 3]), 2)  # label above k
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf, 0.0]]), np.array([1]), 1)


def test_desk_surrogate_shape(desk_idx, desk_splits):
    pixels, labels, k = load_idx(*desk_idx)
    assert pixels.shape == (5120, 784) and pixels.dtype == np.uint8
    assert k == 10
    counts = [(labels == y).sum() for y in range(1, 11)]
    assert counts == [512] * 10
    assert all(0.0 <= side.inputs.min() and side.inputs.max() <= 1.0 for side in desk_splits)


def test_desk_surrogate_bytes(desk_idx):
    """The bytes of the full 5120-example build, whose noise stream runs
    past many 2**16-normal pieces."""
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in desk_idx] == [
        "57678ef0ce35c7a1a98da221c33dfcbd07d35575d70310026476492123abb926",
        "14d0ac18d6b52274b6a769a153d9a2b7c85af8393eff382c3b5bb092642e8e98"]


def test_desk_build_peak_memory(tmp_path):
    """The noise draw is the build's one float64 canvas, and one class's
    rendering adds less than another: under 2 canvases, where a canvas
    beside the noise and its temporaries peaked at 4.0."""
    n_total = 1280
    tracemalloc.start()
    try:
        build_desk_idx(tmp_path, n_total=n_total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    canvas = n_total * 28 * 28 * 8
    assert peak < 2 * canvas, peak / canvas


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
    # the bytes themselves, so a change to the writer or the renderer shows
    assert [hashlib.sha256(b).hexdigest() for b in first] == [
        "b3b99bcdcf11c6cad559a30818085a01485a8a7349adb58e4a63e03542b5b86f",
        "8e4f6aef7c14a1c62776a71703eb9ce09d8e1f86568c2fe154fe7185760e7c8a"]
