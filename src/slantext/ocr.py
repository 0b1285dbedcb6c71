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
from .geometry import pixel_box, rotate_points
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
    q = np.asarray(cell, dtype=np.float64)
    if q.shape != (4, 2):
        raise InputError(f"cell must be 4 corner points, got shape {q.shape}")
    top = q[1] - q[0]
    left = q[3] - q[0]
    w = max(1, int(round(float(np.hypot(*top)))))
    h = max(1, int(round(float(np.hypot(*left)))))
    return q, h, w, math.atan2(top[1], top[0])


def _patch_fractions(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample fractions hitting the centers of the glyph's scaled dot grid."""
    k = glyph_scale(h, w, 1)
    x0 = (w - GLYPH_W * k) / 2.0
    y0 = (h - GLYPH_H * k) / 2.0
    us = (x0 + (np.arange(GLYPH_W) + 0.5) * k) / w
    vs = (y0 + (np.arange(GLYPH_H) + 0.5) * k) / h
    return np.meshgrid(us, vs)


def _sample_quad(gray: LatentGrid, q: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    px, py = quad_points(q, us, vs)
    return sample_at(gray, px, py)[0]


def _tilt_key(angle: float) -> int:
    """Cell tilt in whole TILT_STEP_DEG steps."""
    return int(round(math.degrees(angle) / TILT_STEP_DEG))


def _slot_points(
    h: int, w: int, ox: int, oy: int, tilt_key: int, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """(2, points) sampling positions of the flat h x w slot at (ox, oy),
    turned about its centroid by the quantized tilt."""
    tilt = math.radians(tilt_key * TILT_STEP_DEG)
    cell = rotate_points(pixel_box(ox, oy, w, h), tilt)
    px, py = quad_points(cell, us, vs)
    return np.stack([px.ravel(), py.ravel()])


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
    the render sampled at the patch points through a flat quad."""
    us, vs = _patch_fractions(h, w)
    flats = tuple(render_text_block(h, w, ch).data for ch in default_font().charset)
    crisp = np.asarray(
        [_sample_quad(LatentGrid(f[None]), pixel_box(0, 0, w, h), us, vs).ravel() for f in flats]
    )
    crisp = _normalize_rows(crisp)
    crisp.flags.writeable = False
    return flats, crisp


def _text_sheet(
    shapes: Sequence[tuple[int, int]],
    inks: Sequence[Optional[np.ndarray]],
    pitch: float,
    reach: int,
) -> tuple[LatentGrid, tuple[tuple[int, int], ...]]:
    """Blocked sheet of one slot per (h, w) shape, laid out left to right at
    the pitch, each stamped with its ink (None leaves the slot blank), and
    the slots' top-left corners.  The margin keeps every slot point turned
    by any tilt and displaced up to `reach` pixels on the sheet."""
    max_h = max(h for h, _ in shapes)
    max_w = max(w for _, w in shapes)
    margin = FACTOR * math.ceil((reach + max_h + max_w) / FACTOR)
    span = margin + (len(shapes) - 1) * pitch + max_w + margin
    corners = tuple((margin + int(round(i * pitch)), margin) for i in range(len(shapes)))
    grid = _blocked_sheet(
        FACTOR * math.ceil((2 * margin + max_h) / FACTOR),
        FACTOR * math.ceil(span / FACTOR),
        [(x0, y0, ink) for (x0, y0), ink in zip(corners, inks) if ink is not None],
    )
    return grid, corners


@lru_cache(maxsize=8)
def _template_sheet(h: int, w: int, reach: int) -> tuple[LatentGrid, tuple[tuple[int, int], ...]]:
    """Text sheet of every character's clean h x w render, in block-aligned
    slots one stride apart, and the slots' corners.  It does not depend on
    the cell tilt, so cells of one shape at any tilt share it."""
    flats, _ = _flat_templates(h, w)
    stride = FACTOR * math.ceil((2 * reach + h + w + 2 * FACTOR) / FACTOR)
    return _text_sheet([(h, w)] * len(flats), flats, stride, reach)


@lru_cache(maxsize=8)
def _template_slots(h: int, w: int, tilt_key: int, reach: int) -> np.ndarray:
    """(chars, 2, points) sampling positions of every character's slot on
    the template sheet, read through a quad tilted like the cell.  Offsetting
    them reproduces any cell-to-content displacement up to `reach` pixels,
    so one codec pass serves the whole search."""
    us, vs = _patch_fractions(h, w)
    _, corners = _template_sheet(h, w, reach)
    slots = np.stack([_slot_points(h, w, x0, y0, tilt_key, us, vs) for x0, y0 in corners])
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
    """Text sheet holding the currently decoded text at cell pitch, plus
    each cell's tilted sampling points over its own slot."""
    charset = default_font().charset
    shapes = [(h, w) for _, h, w, _ in frames]
    grid, corners = _text_sheet(
        shapes,
        [
            _flat_templates(h, w)[0][charset.index(ch)] if ch in charset else None
            for (h, w), ch in zip(shapes, decoded)
        ],
        pitch,
        reach,
    )
    points = [
        _slot_points(h, w, x0, y0, _tilt_key(angle), *_patch_fractions(h, w))
        for (x0, y0), (_, h, w, angle) in zip(corners, frames)
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
    units = _normalize_rows(
        np.stack([_sample_quad(gray, q, *_patch_fractions(h, w)).ravel() for q, h, w, _ in frames])
    )
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
