"""Channel-major value grids and the statistics/resampling ops defined on them.

A grid is a (channels, height, width) array of float64 values. Latents and
decoded images share the same representation; only their sizes differ. All
ops are pure: inputs are never mutated and every constructor freezes its
buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError

# floor applied to the content std inside adain; style std is used as-is
STD_FLOOR = 1e-5


def frozen(arr) -> np.ndarray:
    """Read-only float64 copy of arr."""
    out = np.asarray(arr, dtype=np.float64).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LatentGrid:
    """Immutable (C, H, W) grid of real values."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeError(f"grid must be (C, H, W) with positive dims, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ShapeError("grid values must be finite")
        object.__setattr__(self, "data", frozen(arr))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @cached_property
    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(C,) mean and population std of each channel over the grid,
        read-only.  The grid never changes, so they are computed on first
        use and kept with it."""
        mean, std = channel_stats(self.data)
        return frozen(mean), frozen(std)


def channel_stats(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C,) mean and population std of each channel of a (C, H, W) array."""
    flat = data.reshape(data.shape[0], -1)
    return flat.mean(axis=1), flat.std(axis=1)


@dataclass(frozen=True)
class RegionMask:
    """Immutable (H, W) mask with values in [0, 1]. Binary in practice;
    soft values are allowed at region edges."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ShapeError(f"mask must be (H, W) with positive dims, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ShapeError("mask values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ShapeError("mask values must lie in [0, 1]")
        object.__setattr__(self, "data", frozen(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def adain(content: LatentGrid, style: LatentGrid) -> LatentGrid:
    """Renormalize each content channel to the style channel's mean/std.

    Statistics are taken over each grid's whole spatial extent. The content
    std is floored at STD_FLOOR so constant channels map to the style mean
    instead of dividing by zero; the style std is used as-is. Spatial sizes
    of the two grids may differ, channel counts may not.
    """
    if content.channels != style.channels:
        raise ShapeError(
            f"channel mismatch: content has {content.channels}, style has {style.channels}"
        )
    return LatentGrid(restyle(normalized(content), *style.stats))


def normalized(content: LatentGrid) -> np.ndarray:
    """adain's content half, which depends on the content alone: each
    channel less its mean, over its std floored at STD_FLOOR."""
    c_mean, c_std = content.stats
    denom = np.maximum(c_std, STD_FLOOR)[:, None, None]
    return (content.data - c_mean[:, None, None]) / denom


def restyle(norm: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """adain's style half: a normalized (C, H, W) array given the (C,)
    channel mean and std of the style."""
    return norm * std[:, None, None] + mean[:, None, None]


def masked_blend(a: LatentGrid, b: LatentGrid, mask: RegionMask) -> LatentGrid:
    """Cellwise a*m + b*(1-m) with the mask broadcast over channels."""
    if a.shape != b.shape:
        raise ShapeError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if (mask.height, mask.width) != (a.height, a.width):
        raise ShapeError(
            f"mask {mask.data.shape} does not match grid spatial dims {(a.height, a.width)}"
        )
    m = mask.data[None, :, :]
    return LatentGrid(blend(a.data, b.data, m, 1.0 - m))


def blend(a: np.ndarray, b: np.ndarray, m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """masked_blend on arrays, a*m + b*keep, given keep = 1 - m."""
    return a * m + b * keep


def sample_at(g: LatentGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear samples of the grid at fractional (x, y) positions, shaped
    (C,) + the broadcast shape of xs and ys.

    Cell (i, j) holds its value at x = j, y = i.  The grid reads as 0 outside
    its cells, so a sample within one cell of the edge fades toward 0 and one
    further out is 0.  With fx = x - floor(x) and fy = y - floor(y), the four
    corners are added into a zeroed result in a fixed order with the weights
    (1-fx)*(1-fy), fx*(1-fy), (1-fx)*fy, fx*fy.  The gather reads a copy of
    the grid with a one-cell zero border, each corner index clipped into that
    border, so an outside corner adds exactly +0.0 and every sample equals
    the sum over the inside corners alone, down to the sign of a zero.
    Positions must be finite.

    xs and ys need only broadcast against each other: floors, fractions,
    clips and row offsets are computed on each one's own shape, and only the
    index sum, gather and weight product run at the broadcast shape.  So an
    x axis shaped (..., 1, n) against a y axis shaped (..., m, 1) costs
    n + m per-axis steps, not n * m, and gives the same samples as the full
    meshes would.
    """
    data = g.data
    c, h, w = data.shape
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    shape = np.broadcast(xs, ys).shape
    # at least one axis each, so that the index clips below work in place
    xs, ys = np.atleast_1d(xs, ys)
    padded = np.zeros((c, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = data
    flat = padded.reshape(c, -1)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    gx = 1 - fx
    gy = 1 - fy

    def padded_cell(i, n):
        # padded index of corner index i on an axis of n cells, in place;
        # each corner is clipped on its own, so a point far left of the grid
        # still reads the border and never column 0
        np.maximum(i, -1, out=i)
        np.minimum(i, n, out=i)
        i += 1
        return i

    x1 = padded_cell(x0 + 1, w)
    x0 = padded_cell(x0, w)
    y1 = padded_cell(y0 + 1, h) * (w + 2)
    y0 = padded_cell(y0, h) * (w + 2)
    out = np.zeros((c,) + np.broadcast(xs, ys).shape)
    for cy, cx, wa, wb in ((y0, x0, gx, gy), (y0, x1, fx, gy), (y1, x0, gx, fy), (y1, x1, fx, fy)):
        # every index is in range already, so "clip" moves none; it only
        # spares the bounds check
        corner = flat.take(cy + cx, axis=1, mode="clip")
        corner *= wa * wb
        out += corner
    return out.reshape((c,) + shape)


# Largest corner coordinate a quad may have: a float this large holds no
# fraction of a cell, and far larger ones overflow the int64 sample indices
# and the parallelogram test's squared scale.
MAX_CORNER = 2.0**52


def _quad_array(corners) -> np.ndarray:
    quad = np.asarray(corners, dtype=np.float64)
    if quad.shape != (4, 2):
        raise ShapeError(f"quad must be 4 (x, y) corners, got shape {quad.shape}")
    # NaN fails the comparison too
    if not (np.abs(quad) <= MAX_CORNER).all():
        raise ShapeError(f"quad corners must be finite and within +-2^52, got {quad.tolist()}")
    return quad


def quad_points(quad: np.ndarray, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map quad parameters (u, v) in [0,1]^2 to plane points by blending the
    corners (UL, UR, LR, LL)."""
    a, b, c, d = quad
    w00 = (1 - us) * (1 - vs)
    w10 = us * (1 - vs)
    w11 = us * vs
    w01 = (1 - us) * vs
    px = w00 * a[0] + w10 * b[0] + w11 * c[0] + w01 * d[0]
    py = w00 * a[1] + w10 * b[1] + w11 * c[1] + w01 * d[1]
    return px, py


def cross(ax, ay, bx, by):
    """The 2-D cross product (ax, ay) x (bx, by), over floats or broadcast
    arrays alike; its sign convention is stated in `geometry`."""
    return ax * by - ay * bx


def _quad_params(quad: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Invert the corner-blend map of a parallelogram: plane points ->
    (u, v, inside), shaped like px and py broadcast.

    (p - A - v*F) must run parallel to (E + v*G), where E, F span the quad
    edges at A and G is the non-affine residual.  That is a quadratic in v
    whose v^2 term cross(F, G) vanishes for a parallelogram, leaving a
    linear solve; a quad where it does not vanish raises ShapeError.  The
    corner terms are Python floats, whose sums and products are the same
    IEEE doubles as numpy's; only the per-point terms are arrays.
    """
    eps = 1e-9
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = quad.tolist()
    ex, ey = bx - ax, by - ay                  # u direction at v=0
    fx, fy = dx - ax, dy - ay                  # v direction at u=0
    gx, gy = ax - bx + cx - dx, ay - by + cy - dy
    qx = px - ax
    qy = py - ay

    # cross(q - vF, E + vG) = cross(q,E) + v*(cross(q,G) - cross(F,E)) - v^2*cross(F,G)
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), abs(dx), abs(dy), 1.0)
    if not abs(cross(fx, fy, gx, gy)) < eps * scale * scale:
        raise ShapeError("quad must be a parallelogram")
    k1 = cross(qx, qy, gx, gy) - cross(fx, fy, ex, ey)
    k0 = cross(qx, qy, ex, ey)
    denom = np.where(np.abs(k1) < eps * scale * scale, np.nan, k1)
    v = -k0 / denom

    dirx = ex + v * gx
    diry = ey + v * gy
    norm2 = dirx * dirx + diry * diry
    norm2 = np.where(norm2 < eps * scale * scale, np.nan, norm2)
    u = ((qx - v * fx) * dirx + (qy - v * fy) * diry) / norm2

    inside = (
        np.isfinite(u) & np.isfinite(v)
        & (u >= -eps) & (u <= 1 + eps)
        & (v >= -eps) & (v <= 1 + eps)
    )
    return u, v, inside


def extract_region(g: LatentGrid, corners, out_h: int, out_w: int) -> LatentGrid:
    """Resample the quad spanned by `corners` (UL, UR, LR, LL) into an
    axis-aligned (C, out_h, out_w) grid."""
    quad = _quad_array(corners)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output size must be positive, got {(out_h, out_w)}")
    us = (np.arange(out_w) + 0.5) / out_w
    vs = (np.arange(out_h)[:, None] + 0.5) / out_h
    px, py = quad_points(quad, us, vs)
    return LatentGrid(sample_at(g, px, py))


def quad_cells(src: LatentGrid, corners, h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of an (h, w) grid inside the parallelogram `corners` (UL,
    UR, LR, LL), as (rows, cols, values): row and column indices, in row-major
    order, and `src` sampled bilinearly where each cell sits in the quad,
    shaped (C, n).  Only the quad's bounding box is searched, and a quad
    whose box misses the grid is not checked for being a parallelogram."""
    quad = _quad_array(corners)
    qx, qy = quad.T.tolist()
    x0 = min(max(math.floor(min(qx)), 0), w)
    x1 = min(max(math.ceil(max(qx)) + 1, 0), w)
    y0 = min(max(math.floor(min(qy)), 0), h)
    y1 = min(max(math.ceil(max(qy)) + 1, 0), h)
    if x0 >= x1 or y0 >= y1:
        none = np.zeros(0, dtype=np.intp)
        return none, none, np.zeros((src.channels, 0))

    # the box's column and row axes broadcast to its cells
    u, v, inside = _quad_params(
        quad, np.arange(x0, x1, dtype=float), np.arange(y0, y1, dtype=float)[:, None]
    )
    rows, cols = np.nonzero(inside)
    values = sample_at(src, u[inside] * src.width - 0.5, v[inside] * src.height - 0.5)
    return rows + y0, cols + x0, values


def paste_region_with_mask(
    dst: LatentGrid, src: LatentGrid, corners
) -> tuple[LatentGrid, np.ndarray]:
    """Write `src` into the parallelogram `corners` (UL, UR, LR, LL) of `dst`;
    cells outside it keep their dst values. Returns the new grid plus the
    boolean (H, W) mask of cells that were written."""
    if dst.channels != src.channels:
        raise ShapeError(
            f"channel mismatch: dst has {dst.channels}, src has {src.channels}"
        )
    rows, cols, values = quad_cells(src, corners, dst.height, dst.width)
    out = dst.data.copy()
    out[:, rows, cols] = values
    written = np.zeros((dst.height, dst.width), dtype=bool)
    written[rows, cols] = True
    return LatentGrid(out), written
