"""Dataset construction: IDX image files, synthetic Gaussians, splits.

IDX is the big-endian binary container used by MNIST-style datasets: a
u32 magic, one u32 per dimension and a u8 payload.  The magic's low byte
is the rank: images carry 0x00000803 and (count, rows, cols), labels
0x00000801 and (count,).  A file that cannot be read or is malformed
raises :class:`DataSourceError`.  Images are flattened row-major and kept
as u8 pixels until rows are gathered into a dataset (:func:`take`), which
scales them by 1/255 into [0,1]; no mean centering is applied.  Labels
are stored 1-based: raw IDX byte b becomes label b+1, so labels always
lie in {1..k}.

Subsets and splits are picked from the labels alone, as sorted row
indices, so a source's rows are gathered once per side whatever their
type: an IDX set is never held as float64 in full, only its gathered
sides are.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .gaussians import (MAX_SYNTH_CLASSES, SPLIT_STREAM, SUBSET_STREAM, SYNTH_STREAM,
                        standard_normal, stream_rng)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class DataSourceError(ValueError):
    """A data source that is missing, unreadable or malformed (exit 3)."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """m inputs in R^d with 1-based integer labels in {1..k}."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError("inputs must be a nonempty (m, d) matrix")
        if labels.shape != (inputs.shape[0],):
            raise ValueError("labels length does not match inputs")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs contain non-finite values")
        if labels.min(initial=1) < 1 or labels.max(initial=1) > self.class_count:
            raise ValueError(f"labels must lie in 1..{self.class_count}")

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _read_idx(path, magic: int) -> tuple[list[int], bytes]:
    """The dimensions and payload of the IDX file at ``path``, which must
    carry ``magic``."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataSourceError(f"cannot read data file: {exc}") from exc
    size = 4 * (1 + (magic & 0xFF))
    if len(raw) < size:
        raise DataSourceError(f"{path}: header truncated ({len(raw)} bytes)")
    found, *dims = struct.unpack(f">{size // 4}I", raw[:size])
    if found != magic:
        raise DataSourceError(f"{path}: wrong magic 0x{found:08x}, expected 0x{magic:08x}")
    payload, n = raw[size:], math.prod(dims)
    if len(payload) != n:
        kind = "pixel" if magic == IMAGES_MAGIC else "label"
        raise DataSourceError(f"{path}: expected {n} {kind} bytes, got {len(payload)}")
    return dims, payload


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse an IDX image/label file pair: (pixels, labels, class count).

    ``pixels`` is the (count, rows * cols) u8 payload as stored (a
    read-only view of the file's bytes), ``labels`` the 1-based labels and
    the class count one more than the largest raw label byte.
    """
    (count, rows, cols), payload = _read_idx(images_path, IMAGES_MAGIC)
    (lcount,), lpayload = _read_idx(labels_path, LABELS_MAGIC)
    if count != lcount:
        raise DataSourceError(f"image count {count} != label count {lcount}")
    if min(count, rows * cols) < 1:
        raise DataSourceError(f"{images_path}: {count} images of {rows} x {cols} pixels; "
                              "need at least one image and one pixel")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    raw = np.frombuffer(lpayload, dtype=np.uint8).astype(np.int64)
    return pixels, raw + 1, int(raw.max()) + 1


def take(rows: np.ndarray, labels: np.ndarray, class_count: int,
         idx: np.ndarray) -> LabeledDataset:
    """The dataset of rows ``idx`` of a source: float64 inputs as they are,
    or u8 IDX pixels scaled by 1/255 after the gather, which gives the bits
    of scaling the whole set first."""
    inputs = rows[idx]
    if inputs.dtype == np.uint8:
        inputs = np.divide(inputs, 255.0, dtype=np.float64)
    return LabeledDataset(inputs, labels[idx], class_count)


def write_idx(images_path, labels_path, images: np.ndarray, raw_labels: np.ndarray) -> None:
    """Write (n, rows, cols) u8 images and n raw u8 labels as an IDX pair."""
    images, raw_labels = (np.ascontiguousarray(a, np.uint8) for a in (images, raw_labels))
    files = ((images_path, IMAGES_MAGIC, images), (labels_path, LABELS_MAGIC, raw_labels))
    if images.ndim != IMAGES_MAGIC & 0xFF or raw_labels.shape != images.shape[:1]:
        raise ValueError("need (n, rows, cols) images and n labels")
    for path, magic, array in files:
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
            f.write(array.tobytes())


def synth_gaussian(k: int, d: int, class_means: np.ndarray, sigma: float,
                   n_per_class: int, seed: int) -> LabeledDataset:
    """Class-conditional Gaussian data: x | y ~ N(mean_y, sigma^2 I).

    Rows are grouped by class (labels 1..k each repeated n_per_class
    times); class y draws from stream (SYNTH_STREAM + y) so the dataset is
    a pure function of its arguments.
    """
    class_means = np.asarray(class_means, dtype=np.float64)
    if class_means.shape != (k, d):
        raise ValueError(f"class_means must have shape ({k}, {d})")
    if sigma <= 0 or n_per_class < 1 or k > MAX_SYNTH_CLASSES:
        raise ValueError(f"need sigma > 0, n_per_class >= 1 and k <= {MAX_SYNTH_CLASSES}")
    inputs = np.empty((k, n_per_class, d))
    for y, block in enumerate(inputs, start=1):
        z = standard_normal(seed, SYNTH_STREAM + y, n_per_class * d).reshape(n_per_class, d)
        np.multiply(sigma, z, out=block)
        block += class_means[y - 1]  # mean + sigma * z: the sum commutes exactly
    inputs = inputs.reshape(k * n_per_class, d)
    labels = np.repeat(np.arange(1, k + 1), n_per_class)
    return LabeledDataset(inputs, labels, class_count=k)


def _largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation summing to ``total`` with per-entry error < 1."""
    base = np.floor(targets).astype(np.int64)
    short = total - int(base.sum())
    order = np.argsort(-(targets - base), kind="stable")
    base[order[:short]] += 1
    return base


def _stratified_pick(labels: np.ndarray, seed: int, stream: int, allocate
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (picked, rest) row indices: each class, in label order,
    shuffles its rows on one Philox stream of ``seed`` and picks its share
    of ``allocate(counts)``, the counts being those of the classes present."""
    rng = stream_rng(seed, stream)
    counts = np.bincount(labels)[1:].astype(np.float64)
    present = counts > 0
    alloc = np.zeros(counts.size, dtype=np.int64)
    alloc[present] = allocate(counts[present])
    picked, rest = [], []
    for y, n_y in enumerate(alloc, start=1):
        idx = np.flatnonzero(labels == y)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        picked.append(idx[:n_y])
        rest.append(idx[n_y:])
    return np.sort(np.concatenate(picked)), np.sort(np.concatenate(rest))


def split(labels: np.ndarray, train_fraction: float, seed: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Stratified, seed-deterministic partition of the rows with 1-based
    ``labels`` into sorted (train, heldout) row indices.

    Class counts on the train side stay within +-1 of the exact fraction.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n_train_total = int(round(train_fraction * labels.size))
    train_idx, held_idx = _stratified_pick(
        labels, seed, SPLIT_STREAM,
        lambda counts: _largest_remainder(train_fraction * counts, n_train_total))
    if train_idx.size == 0 or held_idx.size == 0:
        raise ValueError("split would leave one side empty")
    return train_idx, held_idx


def stratified_sample(labels: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Sorted row indices of a seed-deterministic stratified subset of size
    n (proportional classes) of the rows with 1-based ``labels``; every
    row when n is their count."""
    m = labels.size
    if not 1 <= n <= m:
        raise ValueError(f"subset size must lie in 1..{m}")
    keep, _ = _stratified_pick(
        labels, seed, SUBSET_STREAM, lambda counts: _largest_remainder(n * counts / m, n))
    return keep
