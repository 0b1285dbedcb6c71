"""Channel-major value grids and the statistics/resampling ops defined on them.

A grid is a (channels, height, width) array of float64 values. Latents and
decoded images share the same representation; only their sizes differ. All
ops are pure: inputs are never mutated and every constructor freezes its
buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError

# floor applied to the content std inside adain; style std is used as-is
STD_FLOOR = 1e-5

# values per sample_at chunk.  Measured on the bench and generate gathers
# (BENCH_8.json, "chunk_rule"): every value from 2^10 to 2^15 gives the same
# times; 2^16 and up take more page faults and more gather time, and one pass
# over the whole result takes 30-35% more gather time and 2,800-3,000 faults
# per guided case.  A value below the other gathers, up to 2,835 values,
# would split them too: one value per chunk made the generate path's 30x
# slower.
SAMPLE_CHUNK = 1 << 14


def _frozen(arr: np.ndarray) -> np.ndarray:
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
        object.__setattr__(self, "data", _frozen(arr))

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
        object.__setattr__(self, "data", _frozen(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and population std of a grid."""

    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)


def channel_stats(g: LatentGrid) -> ChannelStats:
    """Mean and population std over the full spatial extent of each channel."""
    flat = g.data.reshape(g.channels, -1)
    return ChannelStats(mean=_frozen(flat.mean(axis=1)), std=_frozen(flat.std(axis=1)))


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
    cs = channel_stats(content)
    ss = channel_stats(style)
    denom = np.maximum(cs.std, STD_FLOOR)[:, None, None]
    normalized = (content.data - cs.mean[:, None, None]) / denom
    return LatentGrid(normalized * ss.std[:, None, None] + ss.mean[:, None, None])


def masked_blend(a: LatentGrid, b: LatentGrid, mask: RegionMask) -> LatentGrid:
    """Cellwise a*m + b*(1-m) with the mask broadcast over channels."""
    if a.shape != b.shape:
        raise ShapeError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if (mask.height, mask.width) != (a.height, a.width):
        raise ShapeError(
            f"mask {mask.data.shape} does not match grid spatial dims {(a.height, a.width)}"
        )
    m = mask.data[None, :, :]
    return LatentGrid(a.data * m + b.data * (1.0 - m))


def sample_at(
    g: LatentGrid,
    xs: np.ndarray,
    ys: np.ndarray,
    block: int = 1,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
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

    With block = f the grid is stored at 1/f resolution: positions are in
    the grid with every cell repeated f x f, and the samples equal those of
    that repeated copy bitwise.  A corner index i of the repeated grid,
    clipped to [-1, f * n], reads padded cell i // f + 1, so -1 and f * n
    land on the zero border.

    The samples are filled in chunks of the leading broadcast axis: as many
    leading indices as fit in SAMPLE_CHUNK values, but at least one, so a
    chunk is larger than SAMPLE_CHUNK when one leading index alone is.  Every
    chunk reuses the same index, corner and weight buffers.  Each sample is
    computed exactly as it would be in one pass, so chunking changes no bit
    of the result; a 0-d result is one chunk.  The OCR's template-view
    gathers hold 16,835 (coarse stage), 9,065 (fine stage) or 11,655
    (context stage) values per leading index, one y offset, so each of their
    chunks is one y offset.  Every other gather of the benchmark's
    workloads holds at most 2,835 values and is one chunk.

    out, if given, must be a writable float64 array of the result's shape.
    It is overwritten with the samples and returned, and nothing of the
    result's size is allocated.
    """
    data = g.data
    c, h, w = data.shape
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    if out is None:
        out = np.empty((c,) + shape)
    elif out.shape != (c,) + shape or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 {(c,) + shape}, got {out.dtype} {out.shape}")
    # give both axes and the result the same rank, at least one, so that the
    # chunks below run over one leading axis
    ndim = max(len(shape), 1)
    xs = xs.reshape((1,) * (ndim - xs.ndim) + xs.shape)
    ys = ys.reshape((1,) * (ndim - ys.ndim) + ys.shape)
    res = out.reshape((c,) + (1,) * (ndim - len(shape)) + shape)
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
        # padded index of corner index i on an axis of n stored cells; each
        # corner is clipped on its own, so a point far left of the grid still
        # reads the border and never column 0
        return np.clip(i, -1, n * block) // block + 1

    x1 = padded_cell(x0 + 1, w)
    x0 = padded_cell(x0, w)
    y1 = padded_cell(y0 + 1, h) * (w + 2)
    y0 = padded_cell(y0, h) * (w + 2)
    corners = ((y0, x0, gx, gy), (y0, x1, fx, gy), (y1, x0, gx, fy), (y1, x1, fx, fy))

    lead, rest = res.shape[1], res.shape[2:]
    per_lead = math.prod(rest)
    step = max(1, min(lead, SAMPLE_CHUNK // max(per_lead, 1)))
    idx_buf = np.empty(step * per_lead, np.int64)
    wgt_buf = np.empty(step * per_lead)
    corner_buf = np.empty(c * step * per_lead)
    for i0 in range(0, lead, step):
        n = min(step, lead - i0)
        part = (n,) + rest
        idx = idx_buf[: n * per_lead].reshape(part)
        wgt = wgt_buf[: n * per_lead].reshape(part)
        corner = corner_buf[: c * n * per_lead].reshape((c,) + part)
        acc = res[:, i0 : i0 + n]
        acc[...] = 0.0
        for cy, cx, wa, wb in corners:
            # an axis array with a leading 1 broadcasts over every chunk
            cy, wb = (a if a.shape[0] == 1 else a[i0 : i0 + n] for a in (cy, wb))
            cx, wa = (a if a.shape[0] == 1 else a[i0 : i0 + n] for a in (cx, wa))
            np.add(cy, cx, out=idx)
            # every index is in range already; "clip" only skips the copy
            # that the default mode makes of out
            flat.take(idx, axis=1, out=corner, mode="clip")
            np.multiply(wa, wb, out=wgt)
            corner *= wgt
            acc += corner
    return out


def _quad_array(corners) -> np.ndarray:
    quad = np.asarray(corners, dtype=np.float64)
    if quad.shape != (4, 2):
        raise ShapeError(f"quad must be 4 (x, y) corners, got shape {quad.shape}")
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


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _quad_params(quad: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Invert the corner-blend map of a parallelogram: plane points ->
    (u, v, inside).

    (p - A - v*F) must run parallel to (E + v*G), where E, F span the quad
    edges at A and G is the non-affine residual.  That is a quadratic in v
    whose v^2 term cross(F, G) vanishes for a parallelogram, leaving a
    linear solve; a quad where it does not vanish raises ShapeError.
    """
    eps = 1e-9
    a, b, c, d = quad
    e = b - a          # u direction at v=0
    f = d - a          # v direction at u=0
    gvec = a - b + c - d
    qx = px - a[0]
    qy = py - a[1]

    # cross(q - vF, E + vG) = cross(q,E) + v*(cross(q,G) - cross(F,E)) - v^2*cross(F,G)
    scale = max(np.abs(quad).max(), 1.0)
    if not abs(_cross(f[0], f[1], gvec[0], gvec[1])) < eps * scale * scale:
        raise ShapeError("quad must be a parallelogram")
    k1 = _cross(qx, qy, gvec[0], gvec[1]) - _cross(f[0], f[1], e[0], e[1])
    k0 = _cross(qx, qy, e[0], e[1])
    denom = np.where(np.abs(k1) < eps * scale * scale, np.nan, k1)
    v = -k0 / denom

    dirx = e[0] + v * gvec[0]
    diry = e[1] + v * gvec[1]
    norm2 = dirx * dirx + diry * diry
    norm2 = np.where(norm2 < eps * scale * scale, np.nan, norm2)
    u = ((qx - v * f[0]) * dirx + (qy - v * f[1]) * diry) / norm2

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
    js, is_ = np.meshgrid(np.arange(out_w), np.arange(out_h))
    us = (js + 0.5) / out_w
    vs = (is_ + 0.5) / out_h
    px, py = quad_points(quad, us, vs)
    return LatentGrid(sample_at(g, px, py))


def paste_region_with_mask(
    dst: LatentGrid, src: LatentGrid, corners
) -> tuple[LatentGrid, np.ndarray]:
    """Write `src` into the parallelogram `corners` (UL, UR, LR, LL) of `dst`;
    cells outside it keep their dst values. Returns the new grid plus the
    boolean (H, W) mask of cells that were written."""
    quad = _quad_array(corners)
    if dst.channels != src.channels:
        raise ShapeError(
            f"channel mismatch: dst has {dst.channels}, src has {src.channels}"
        )
    h, w = dst.height, dst.width
    x0 = int(np.clip(np.floor(quad[:, 0].min()), 0, w))
    x1 = int(np.clip(np.ceil(quad[:, 0].max()) + 1, 0, w))
    y0 = int(np.clip(np.floor(quad[:, 1].min()), 0, h))
    y1 = int(np.clip(np.ceil(quad[:, 1].max()) + 1, 0, h))
    written = np.zeros((h, w), dtype=bool)
    if x0 >= x1 or y0 >= y1:
        return LatentGrid(dst.data), written

    js, is_ = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
    u, v, inside = _quad_params(quad, js.astype(float), is_.astype(float))
    if not inside.any():
        return LatentGrid(dst.data), written

    sx = u[inside] * src.width - 0.5
    sy = v[inside] * src.height - 0.5
    values = sample_at(src, sx, sy)

    out = dst.data.copy()
    iy = is_[inside]
    ix = js[inside]
    out[:, iy, ix] = values
    written[iy, ix] = True
    return LatentGrid(out), written
