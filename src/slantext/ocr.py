"""Template OCR: the benchmark's referee.

Reads one character per cell quad of a generated image by normalized
cross-correlation against templates of the default font.  Templates go
through the same codec as the generated image, on sheets kept at latent
resolution, and are sampled through quads tilted like the cells; the cells
are read as windows onto one rigid text block whose residual offset is
searched coarse to fine, then again with the decoded neighbours stamped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .diffusion import FACTOR, LatentCodec
from .errors import InputError
from .fontdata import GLYPH_H, GLYPH_W
from .geometry import pixel_box, polygon_centroid
from .glyph import default_font, glyph_scale, render_text_block
from .grid import LatentGrid, quad_points, sample_at

CORR_FLOOR = 0.3
VOTE_FLOOR = 0.6
OCR_SENTINEL = "?"

TILT_STEP_DEG = 0.5
# Content-offset search half-window in pixels: how far the committed text
# block may sit from its mask-aligned position and still be read.
SEARCH_X = 6
SEARCH_Y = 8
FINE_HALF = 0.75
FINE_STEP = 0.25


@dataclass(frozen=True)
class OcrResult:
    """Decoded string plus the winning correlation per character cell."""

    decoded: str
    confidences: tuple[float, ...]

    def __post_init__(self):
        if len(self.decoded) != len(self.confidences):
            raise InputError("one confidence per decoded character required")


def _cell_frame(cell: np.ndarray) -> tuple[np.ndarray, int, int, float]:
    """Quad corners, rounded flat height/width, and top-edge angle."""
    try:
        q = np.asarray(cell, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cell corners must be numbers: {exc}") from None
    if q.shape != (4, 2):
        raise InputError(f"cell must be 4 corner points, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise InputError("cell corners must be finite")
    with np.errstate(over="ignore"):
        top = q[1] - q[0]
        left = q[3] - q[0]
        width, height = float(np.hypot(*top)), float(np.hypot(*left))
    if not (math.isfinite(width) and math.isfinite(height)):
        raise InputError("cell edge lengths must be finite")
    w = max(1, int(round(width)))
    h = max(1, int(round(height)))
    return q, h, w, math.atan2(top[1], top[0])


@lru_cache(maxsize=8)
def _patch_fractions(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample fractions (us, vs) hitting the centers of the glyph's scaled
    dot grid, each (GLYPH_H * GLYPH_W,) in row-major dot order, read-only."""
    k = glyph_scale(h, w, 1)
    x0 = (w - GLYPH_W * k) / 2.0
    y0 = (h - GLYPH_H * k) / 2.0
    us = (x0 + (np.arange(GLYPH_W) + 0.5) * k) / w
    vs = (y0 + (np.arange(GLYPH_H) + 0.5) * k) / h
    us, vs = (a.ravel() for a in np.meshgrid(us, vs))
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


def _tilt_key(angle: float) -> int:
    """Cell tilt in whole TILT_STEP_DEG steps."""
    return int(round(math.degrees(angle) / TILT_STEP_DEG))


def _slot_points(
    h: int, w: int, corners: Sequence[tuple[int, int]], tilt_key: int
) -> np.ndarray:
    """(slots, 2, points) sampling positions of flat h x w slots with the
    given top-left corners, each turned about its centroid by the quantized
    tilt.  The box is turned once: pixel-box coordinates and their centroid
    are exact halves, so every slot's box less its centroid is the first's,
    and its centroid is the first's plus the corner shift, both exactly."""
    us, vs = _patch_fractions(h, w)
    tilt = math.radians(tilt_key * TILT_STEP_DEG)
    rot = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
    corners = np.asarray(corners, dtype=np.float64)
    box = pixel_box(*corners[0], w, h)
    c = polygon_centroid(box)
    centroids = c + (corners - corners[0])
    # (4, 2, slots) corner coordinates; a trailing axis broadcasts them
    # against the fractions
    quads = ((box - c) @ rot.T)[:, :, None] + centroids.T
    return np.stack(quad_points(quads[..., None], us, vs), axis=1)


def _cell_units(gray: LatentGrid, frames: Sequence[tuple]) -> np.ndarray:
    """(cells, points) normalised patch of every cell, sampled from the gray
    image through the cell quads in one gather."""
    us, vs = np.stack([_patch_fractions(h, w) for _, h, w, _ in frames], axis=1)
    quads = np.stack([q for q, _, _, _ in frames]).transpose(1, 2, 0)[..., None]
    return _normalize_rows(sample_at(gray, *quad_points(quads, us, vs))[0])


def _blocked_sheet(
    sheet_h: int, sheet_w: int, stamps: Sequence[tuple[int, int, np.ndarray]]
) -> LatentGrid:
    """Gray sheet of ink stamps, each (x0, y0, ink) on a zero RGB sheet,
    after one codec round trip, kept at latent resolution: the channel mean
    of the encoded sheet, which repeated FACTOR x FACTOR equals the decoded
    sheet's channel mean bitwise.  Sample it with `block=FACTOR`.  The sheet
    is encoded in RGB because a one-channel block mean reduces in another
    order and is not bitwise equal.  Only the band of block rows under the
    stamps is built and encoded: every other block row encodes zeros to +0.0,
    and each block's mean reads its own FACTOR x FACTOR pixels alone."""
    latent = np.zeros((1, sheet_h // FACTOR, sheet_w // FACTOR))
    if stamps:
        top = min(y0 for _, y0, _ in stamps) // FACTOR
        bottom = -(-max(y0 + ink.shape[0] for _, y0, ink in stamps) // FACTOR)
        band = np.zeros(((bottom - top) * FACTOR, sheet_w, 3))
        for x0, y0, ink in stamps:
            h, w = ink.shape
            y0 -= top * FACTOR  # row in the band
            band[y0 : y0 + h, x0 : x0 + w, :] = ink[:, :, None]
        latent[0, top:bottom] = LatentCodec().encode(band).data.mean(axis=0)
    return LatentGrid(latent)


def _normalize_rows(rows: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Center each row of the 2-d rows and scale it to unit length, in place;
    a row whose centered norm is 1e-9 or less becomes +0.0.  scratch, of the
    same shape, takes the squares instead of a new array.  Returns rows."""
    rows -= rows.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.multiply(rows, rows, out=scratch).sum(axis=1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        rows /= norms
    rows[~(norms[:, 0] > 1e-9)] = 0.0
    return rows


@lru_cache(maxsize=8)
def _flat_templates(h: int, w: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Clean h x w render of every character, and its normalised crisp row:
    the render sampled at the patch points through a flat quad, all
    characters in one gather as the channels of one grid."""
    flats = tuple(render_text_block(h, w, ch).data for ch in default_font().charset)
    px, py = quad_points(pixel_box(0, 0, w, h), *_patch_fractions(h, w))
    crisp = _normalize_rows(sample_at(LatentGrid(np.stack(flats)), px, py))
    crisp.flags.writeable = False
    return flats, crisp


@lru_cache(maxsize=8)
def _template_tiles(h: int, w: int) -> np.ndarray:
    """(rows, chars, cols) latent tile of every character's clean h x w
    render: the renders stamped into one band at a block-aligned pitch and
    encoded in one codec pass.  The codec is a per-block mean, so a tile
    pasted at a block-aligned corner of a zero sheet holds the bits the
    sheet's own encode would give there, signs of zero included."""
    flats, _ = _flat_templates(h, w)
    pitch = FACTOR * math.ceil(w / FACTOR)
    band = _blocked_sheet(
        FACTOR * math.ceil(h / FACTOR),
        pitch * len(flats),
        [(i * pitch, 0, flat) for i, flat in enumerate(flats)],
    ).data[0]
    tiles = band.reshape(band.shape[0], len(flats), pitch // FACTOR)
    tiles.flags.writeable = False
    return tiles


def _sheet_layout(
    shapes: Sequence[tuple[int, int]], pitch: float, reach: int
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Height and width of a sheet holding one slot per (h, w) shape, laid
    out left to right at the pitch, and the slots' top-left corners.  The
    margin keeps every slot point turned by any tilt and displaced up to
    `reach` pixels on the sheet."""
    max_h = max(h for h, _ in shapes)
    max_w = max(w for _, w in shapes)
    margin = FACTOR * math.ceil((reach + max_h + max_w) / FACTOR)
    span = margin + (len(shapes) - 1) * pitch + max_w + margin
    corners = tuple((margin + int(round(i * pitch)), margin) for i in range(len(shapes)))
    sheet_h = FACTOR * math.ceil((2 * margin + max_h) / FACTOR)
    return sheet_h, FACTOR * math.ceil(span / FACTOR), corners


@lru_cache(maxsize=8)
def _template_sheet(h: int, w: int, reach: int) -> tuple[LatentGrid, tuple[tuple[int, int], ...]]:
    """Blocked sheet of every character's clean h x w render, in
    block-aligned slots one stride apart, and the slots' corners.  It does
    not depend on the cell tilt, so cells of one shape at any tilt share it.
    The sheet is pasted from the shape's `_template_tiles`, encoded once per
    shape: a miss on a new reach costs a zero latent sheet and one tile copy
    per slot, with no codec pass (0.1 ms for 14 x 12 cells on a 2-vCPU VM,
    against 1.7-2.1 ms when every reach encoded its own sheet)."""
    tiles = _template_tiles(h, w)
    rows, n_chars, cols = tiles.shape
    stride = FACTOR * math.ceil((2 * reach + h + w + 2 * FACTOR) / FACTOR)
    sheet_h, sheet_w, corners = _sheet_layout([(h, w)] * n_chars, stride, reach)
    latent = np.zeros((1, sheet_h // FACTOR, sheet_w // FACTOR))
    for i, (x0, y0) in enumerate(corners):
        top, left = y0 // FACTOR, x0 // FACTOR
        latent[0, top : top + rows, left : left + cols] = tiles[:, i]
    return LatentGrid(latent), corners


@lru_cache(maxsize=8)
def _template_slots(h: int, w: int, tilt_key: int, reach: int) -> np.ndarray:
    """(chars, 2, points) sampling positions of every character's slot on
    the template sheet, read through a quad tilted like the cell.  Offsetting
    them reproduces any cell-to-content displacement up to `reach` pixels,
    so one codec pass serves the whole search.  A miss, on any new tilt or
    reach, turns one box and blends every slot's points in one broadcast
    (0.15 ms for 14 x 12 cells on a 2-vCPU VM, against 3.6 ms slot by
    slot)."""
    _, corners = _template_sheet(h, w, reach)
    slots = _slot_points(h, w, corners, tilt_key)
    slots.flags.writeable = False
    return slots


def _raw_views(
    sheet: LatentGrid, slots: np.ndarray, xs: np.ndarray, ys: np.ndarray, out: np.ndarray
) -> None:
    """Template views of every character displaced by every offset of the
    x axis xs and the y axis ys, sampled from the latent sheet through the
    (chars, 2, points) slots into out, shaped (ys, xs, chars, points).
    Offsets lead, so sample_at broadcasts over whole (chars, points) planes
    and fills one y offset per chunk."""
    px = slots[:, 0] + xs[:, None, None]
    py = slots[:, 1] + ys[:, None, None, None]
    sample_at(sheet, px, py, block=FACTOR, out=out[None])


def _correlate(views: np.ndarray, unit: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Correlation of the unit patch against (ys, xs, chars, points) template
    views, which are normalised in place; rows is a buffer of at least
    views.size values.  Returns (chars, offsets), offsets y-major.

    The gemv reads the rows in (chars, ys, xs) order, through one transposing
    copy into rows.  OpenBLAS rounds a row's dot product differently with its
    place in a group of four rows, so another row order can move a
    correlation by an ulp, and a read can flip on that."""
    n_y, n_x, n_ch, n_pts = views.shape
    flat = views.reshape(-1, n_pts)
    _normalize_rows(flat, scratch=rows[: flat.size].reshape(flat.shape))
    mat = rows[: views.size].reshape(n_ch, n_y, n_x, n_pts)
    np.copyto(mat, views.transpose(2, 0, 1, 3))
    return (mat.reshape(-1, n_pts) @ unit).reshape(n_ch, n_y * n_x)


def _offset_axes(half_x: float, half_y: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y axes of a search grid; its offsets run y-major."""
    return (
        np.arange(-half_x, half_x + step / 2, step),
        np.arange(-half_y, half_y + step / 2, step),
    )


def _context_grid(
    frames: Sequence[tuple], decoded: str, pitch: float, reach: int
) -> tuple[LatentGrid, list[np.ndarray]]:
    """Blocked sheet holding the currently decoded text at cell pitch, one
    slot per cell (a character outside the charset leaves its slot blank),
    plus each cell's tilted sampling points over its own slot."""
    charset = default_font().charset
    shapes = [(h, w) for _, h, w, _ in frames]
    sheet_h, sheet_w, corners = _sheet_layout(shapes, pitch, reach)
    grid = _blocked_sheet(
        sheet_h,
        sheet_w,
        [
            (x0, y0, _flat_templates(h, w)[0][charset.index(ch)])
            for (x0, y0), (h, w), ch in zip(corners, shapes, decoded)
            if ch in charset
        ],
    )
    points = [
        _slot_points(h, w, [corner], _tilt_key(angle))[0]
        for corner, (_, h, w, angle) in zip(corners, frames)
    ]
    return grid, points


def ocr_decode(image: np.ndarray, cells: Sequence[np.ndarray]) -> OcrResult:
    """Read one character per cell by normalized cross-correlation against
    templates of the default font; a best correlation under the floor
    decodes as '?'.

    The cells are treated as windows onto a single rigid text block: every
    cell's template displacement is its geometric offset from the block plus
    one shared residual, searched coarsely then refined to sub-pixel steps.
    The shared residual keeps a template from drifting onto content that
    merely resembles a character somewhere nearby.  A second pass rebuilds
    each template with the neighboring decoded characters stamped beside the
    candidate, so ink spilling across tilted cell borders is matched instead
    of fought; the codec and the sampler are linear, so those composite views
    assemble from per-character views without extra codec passes."""
    img = np.asarray(image, dtype=np.float64)
    gray = LatentGrid((img.mean(axis=2) if img.ndim == 3 else img)[None])

    frames = [_cell_frame(cell) for cell in cells]
    if not frames:
        raise InputError("need at least one cell to read")
    units = _cell_units(gray, frames)
    live = [i for i in range(len(frames)) if units[i].any()]
    if not live:
        return OcrResult(OCR_SENTINEL * len(frames), (0.0,) * len(frames))

    # Geometric offset of each cell against a flat block with the cells' pitch.
    pitch = float(np.mean([w for _, _, w, _ in frames]))
    anchors = np.asarray(
        [frames[i][0].mean(axis=0) - np.array([i * pitch, 0.0]) for i in range(len(frames))]
    )
    anchors = anchors - anchors[live].mean(axis=0)
    reach = int(math.ceil(np.abs(anchors[live]).max())) + max(SEARCH_X, SEARCH_Y) + 2

    charset = default_font().charset
    # each live cell's template sheet and its slot points on that sheet
    templates = {
        i: (_template_sheet(h, w, reach)[0], _template_slots(h, w, _tilt_key(angle), reach))
        for i, (_, h, w, angle) in enumerate(frames)
        if i in live
    }

    # Two buffers sized for the coarse stage, the largest, serve every cell
    # of every stage: one holds a cell's views, composed and normalised in
    # place; the other holds the gemv's rows and starts the allocation, as a
    # fresh array would.  One allocation holds both: glibc maps it on the
    # first read and, when it is freed, raises its mmap and trim thresholds
    # to fit it, so later reads reuse heap pages (160 minor faults per guided
    # case, against 1,400 with two allocations).
    xs, ys = _offset_axes(SEARCH_X, SEARCH_Y, 1.0)
    size = len(xs) * len(ys) * len(charset) * GLYPH_H * GLYPH_W
    row_buf, view_buf = np.empty((2, size))

    def read_out(per_cell: list[np.ndarray], best_off: int) -> tuple[str, list[float]]:
        chars = [OCR_SENTINEL] * len(frames)
        confs = [0.0] * len(frames)
        for i, corr in zip(live, per_cell):
            _, h, w, _ = frames[i]
            scores = np.maximum(_flat_templates(h, w)[1] @ units[i], corr[:, best_off])
            best = int(np.argmax(scores))
            confs[i] = float(scores[best])
            if confs[i] >= CORR_FLOOR:
                chars[i] = charset[best]
        return "".join(chars), confs

    def vote(per_cell: list[np.ndarray]) -> np.ndarray:
        # Only confident reads steer the alignment; weaker cells ride along
        # on the rigid-block geometry instead of dragging it toward noise.
        return sum(np.maximum(c.max(axis=0) - VOTE_FLOOR, 0.0) for c in per_cell)

    def cell_views(
        i: int,
        dx: np.ndarray,
        dy: np.ndarray,
        context: Optional[tuple[LatentGrid, list[np.ndarray]]],
    ) -> np.ndarray:
        """Cell i's candidate templates at the displacements of the x axis dx
        and the y axis dy, (ys, xs, chars, points) in view_buf.  Given a
        context sheet of the decoded text, each candidate becomes (decoded
        text with this cell replaced by the candidate), assembled by linearity
        from the shared sheet view plus the candidate's minus the cell's own
        stamp, which is copied out before the sum overwrites it."""
        sheet, slots = templates[i]
        shape = (len(dy), len(dx)) + slots[:, 0].shape
        views = view_buf[: math.prod(shape)].reshape(shape)
        _raw_views(sheet, slots, dx, dy, out=views)
        if context is None:
            return views
        ctx_grid, ctx_points = context
        px, py = ctx_points[i]
        base = sample_at(ctx_grid, px + dx[:, None], py + dy[:, None, None], block=FACTOR)[0]
        own = None
        if decoded[i] in charset:
            own = views[:, :, charset.index(decoded[i])].copy()
        views += base[:, :, None]
        if own is not None:
            views -= own[:, :, None]
        return views

    def stage(
        xs: np.ndarray,
        ys: np.ndarray,
        context: Optional[tuple[LatentGrid, list[np.ndarray]]] = None,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        per_cell = [
            _correlate(
                cell_views(i, anchors[i, 0] + xs, anchors[i, 1] + ys, context), units[i], row_buf
            )
            for i in live
        ]
        return vote(per_cell), per_cell

    def around(center: np.ndarray, half: float) -> tuple[np.ndarray, np.ndarray]:
        ax, ay = _offset_axes(half, half, FINE_STEP)
        return center[0] + ax, center[1] + ay

    def offset(xs: np.ndarray, ys: np.ndarray, o: int) -> np.ndarray:
        return np.array([xs[o % len(xs)], ys[o // len(xs)]])

    total, _ = stage(xs, ys)
    xs, ys = around(offset(xs, ys, int(np.argmax(total))), FINE_HALF)
    total, per_cell = stage(xs, ys)
    best_off = int(np.argmax(total))
    decoded, confs = read_out(per_cell, best_off)
    center = offset(xs, ys, best_off)

    for _ in range(2):
        xs, ys = around(center, 1.0)
        total, per_cell = stage(xs, ys, _context_grid(frames, decoded, pitch, reach))
        best_off = int(np.argmax(total))
        redecoded, confs = read_out(per_cell, best_off)
        center = offset(xs, ys, best_off)
        if redecoded == decoded:
            break
        decoded = redecoded
    return OcrResult(decoded, tuple(confs))
