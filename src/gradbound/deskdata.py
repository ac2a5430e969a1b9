"""Desk-scale stand-in for MNIST, written as real IDX files.

Full MNIST is not bundled; experiments at desk scale run on a procedural
surrogate that needs nothing beyond numpy and the package's Philox streams.
Each digit 0-9 has a fixed stroke skeleton (polylines in a unit box).  Every
example applies its own affine jitter (rotation, scale, shear, shift) and
stroke width to its class skeleton, renders the strokes with a smooth
profile onto a 28x28 canvas, and adds small pixel noise.  The noise draw
is that float64 canvas: each class's ink is added into it, and it is
rounded and clipped in place before the one u8 conversion, so the build
holds a single float64 copy of the images, with the bits of adding the
noise to a separate canvas of ink.  Example ``j`` has raw label ``j % 10``
and its draws come from row ``j`` of the reserved jitter and noise
streams, so the files are a pure function of ``seed`` and a smaller build
is a prefix of a larger one.  The result goes through the
ordinary IDX writer/parser, so the whole pipeline is exercised exactly as it
would be on the real files.

Anything that accepts IDX paths also accepts real MNIST; this module only
covers the no-download case.
"""

from __future__ import annotations

import os

import numpy as np

from .datasets import write_idx
from .gaussians import JITTER_STREAM, NOISE_STREAM, standard_normal

DESK_TOTAL = 5120  # 4096 train + 1024 held out after an 0.8 split
NOISE_SCALE = 10.0  # u8 units

SIDE = 28
GLYPH_SCALE = 8.0  # pixels per skeleton unit: glyph cores span ~16 px
# Per-example jitter: the scale applied to each N(0,1) draw.  Draws are
# clipped to +-2 so the jitter is bounded and glyphs stay on the canvas.
ROTATION_SD = 0.12  # radians
LOG_SCALE_SD = 0.08
SHEAR_SD = 0.15
SHIFT_SD = 1.0  # pixels
HALF_WIDTH_MEAN, HALF_WIDTH_SD = 1.4, 0.25  # pixels, full ink inside w-1
_N_JITTER = 6  # rotation, log scale, shear, shift x, shift y, half width


def _arc(cx, cy, rx, ry, deg0, deg1):
    """Points on an elliptical arc from deg0 to deg1, one per <=20 degrees."""
    n = max(2, int(np.ceil(abs(deg1 - deg0) / 20.0)) + 1)
    t = np.radians(np.linspace(deg0, deg1, n))
    return [(cx + rx * np.cos(a), cy + ry * np.sin(a)) for a in t]


# Stroke skeletons in skeleton units: x right, y up, glyph core in
# [-0.6, 0.6] x [-1, 1].  Each digit is a list of polylines.
_SKELETONS = (
    [_arc(0.0, 0.0, 0.55, 0.95, 90, 450)],
    [[(-0.3, 0.65), (0.05, 1.0), (0.05, -1.0)]],
    [_arc(0.0, 0.45, 0.5, 0.5, 160, -30) + [(-0.55, -1.0), (0.6, -1.0)]],
    [_arc(0.0, 0.5, 0.5, 0.45, 150, -90) + _arc(0.0, -0.45, 0.55, 0.5, 90, -150)[1:]],
    [[(0.25, 1.0), (-0.55, -0.3), (0.6, -0.3)], [(0.3, 0.4), (0.3, -1.0)]],
    [[(0.55, 1.0), (-0.4, 1.0), (-0.45, 0.1)] + _arc(0.0, -0.4, 0.55, 0.55, 110, -150)],
    [_arc(0.35, -0.2, 0.85, 1.15, 80, 180) + _arc(0.0, -0.5, 0.5, 0.45, 180, 540)],
    [[(-0.55, 1.0), (0.6, 1.0), (-0.1, -1.0)]],
    [_arc(0.0, 0.5, 0.4, 0.45, -90, 270), _arc(0.0, -0.45, 0.5, 0.5, 90, 450)],
    [_arc(0.0, 0.45, 0.5, 0.5, 0, 360), [(0.5, 0.45), (0.35, -1.0)]],
)


def _segments(polylines) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends), each (S, 2), of the consecutive point pairs."""
    pts = [np.asarray(p, dtype=np.float64) for p in polylines]
    return (np.concatenate([p[:-1] for p in pts]),
            np.concatenate([p[1:] for p in pts]))


def _jitter_maps(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-example affine maps skeleton units -> pixels, and stroke half widths.

    ``z`` is (n, _N_JITTER) clipped standard normals.  Returns the (n, 2, 2)
    linear parts, the (n, 2) offsets (pixel coordinates centred on the
    canvas, y up) and the (n,) half widths.
    """
    rot = ROTATION_SD * z[:, 0]
    scale = GLYPH_SCALE * np.exp(LOG_SCALE_SD * z[:, 1])
    shear = SHEAR_SD * z[:, 2]
    c, s = np.cos(rot), np.sin(rot)
    # rotation @ shear(x += shear * y) @ uniform scale
    linear = np.empty((z.shape[0], 2, 2))
    linear[:, 0, 0] = c * scale
    linear[:, 0, 1] = (c * shear - s) * scale
    linear[:, 1, 0] = s * scale
    linear[:, 1, 1] = (s * shear + c) * scale
    offset = SHIFT_SD * z[:, 3:5]
    half_width = HALF_WIDTH_MEAN + HALF_WIDTH_SD * z[:, 5]
    return linear, offset, half_width


def _render(starts, ends, linear, offset, half_width) -> np.ndarray:
    """Ink in [0, 1], shape (n, SIDE*SIDE), of one skeleton under n maps.

    The distance from every pixel centre to the nearest transformed segment
    is computed for all examples and pixels at once, one segment at a time;
    ink is a C1 smoothstep from 1 at distance ``w - 1`` to 0 at ``w + 1``.
    """
    centre = (SIDE - 1) / 2.0
    cols, rows = np.meshgrid(np.arange(SIDE), np.arange(SIDE))
    pix = np.stack([cols.ravel() - centre, centre - rows.ravel()], axis=1)
    a = np.einsum("nij,sj->nsi", linear, starts) + offset[:, None, :]
    ab = np.einsum("nij,sj->nsi", linear, ends - starts)
    best = np.full((linear.shape[0], pix.shape[0]), np.inf)
    for s in range(starts.shape[0]):
        ap_x = pix[None, :, 0] - a[:, s, 0:1]
        ap_y = pix[None, :, 1] - a[:, s, 1:2]
        ab_x, ab_y = ab[:, s, 0:1], ab[:, s, 1:2]
        t = np.clip((ap_x * ab_x + ap_y * ab_y) / (ab_x**2 + ab_y**2), 0.0, 1.0)
        np.minimum(best, (ap_x - t * ab_x) ** 2 + (ap_y - t * ab_y) ** 2, out=best)
    u = np.clip((half_width[:, None] + 1.0 - np.sqrt(best)) / 2.0, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def build_desk_idx(out_dir, n_total: int = DESK_TOTAL, seed: int = 20260809):
    """Write the surrogate IDX pair under ``out_dir``; returns the two paths."""
    k = len(_SKELETONS)
    if n_total < k or n_total % k:
        raise ValueError("n_total must be a positive multiple of 10")

    raw_labels = (np.arange(n_total) % k).astype(np.uint8)
    z = standard_normal(seed, JITTER_STREAM, n_total * _N_JITTER)
    linear, offset, half_width = _jitter_maps(
        np.clip(z, -2.0, 2.0).reshape(n_total, _N_JITTER))
    # The noise draw is the canvas; adding each class's ink into its rows
    # gives ink + noise bit for bit, as float addition commutes.
    pixels = standard_normal(seed, NOISE_STREAM, n_total * SIDE * SIDE).reshape(n_total, -1)
    pixels *= NOISE_SCALE
    for y, skeleton in enumerate(_SKELETONS):
        rows = slice(y, None, k)  # the examples with raw label y
        pixels[rows] += 255.0 * _render(*_segments(skeleton), linear[rows],
                                        offset[rows], half_width[rows])
    np.rint(pixels, out=pixels)
    images = pixels.clip(0, 255, out=pixels).astype(np.uint8).reshape(n_total, SIDE, SIDE)

    os.makedirs(out_dir, exist_ok=True)
    images_path = os.path.join(out_dir, "desk-images-idx3-ubyte")
    labels_path = os.path.join(out_dir, "desk-labels-idx1-ubyte")
    write_idx(images_path, labels_path, images, raw_labels)
    return images_path, labels_path

