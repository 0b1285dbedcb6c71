"""Template OCR: the benchmark's referee.

Reads one character per cell quad of a generated image by normalized
cross-correlation against templates of the default font, scored from the
moments of the template views without forming the views.  A bilinear
weight reaches only a latent cell and its next neighbour, so the views'
sums of squares take each cell times itself and times its next neighbours
only.  Templates are the font's 0/1 ink averaged over the codec's FACTOR x
FACTOR blocks, kept at latent resolution, and are sampled through quads
tilted like the cells; the cells are read as windows onto one rigid text
block whose residual offset is searched coarse to fine, then again on
composites of the decoded neighbours and each candidate, scored the same
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .diffusion import FACTOR, block_means
from .errors import InputError
from .fontdata import GLYPH_H, GLYPH_W
from .geometry import pixel_box, rotate_points
from .glyph import default_font, glyph_scale, render_text_block
from .grid import MAX_CORNER, LatentGrid, quad_points, sample_at

CORR_FLOOR = 0.3
VOTE_FLOOR = 0.6
OCR_SENTINEL = "?"
# Scores within TOL of each other tie; tied gaps sit decades below real ones.
TOL = 1e-9

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


def _cell_frame(cell: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Quad corners, rounded flat height/width, and the top edge's tilt in
    whole TILT_STEP_DEG steps: the tilt key."""
    try:
        q = np.asarray(cell, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cell corners must be numbers: {exc}") from None
    if q.shape != (4, 2):
        raise InputError(f"cell must be 4 corner points, got shape {q.shape}")
    # NaN fails the comparison too; the bound keeps sample_at's int64 indices
    # and the edge lengths from overflowing
    if not (np.abs(q) <= MAX_CORNER).all():
        raise InputError("cell corners must be finite and within +-2^52")
    top = q[1] - q[0]
    left = q[3] - q[0]
    width, height = float(np.hypot(*top)), float(np.hypot(*left))
    w = max(1, int(round(width)))
    h = max(1, int(round(height)))
    return q, h, w, int(round(math.degrees(math.atan2(top[1], top[0])) / TILT_STEP_DEG))


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


def _slot_points(h: int, w: int, tilt_key: int) -> np.ndarray:
    """(2, points) sampling positions of a flat h x w slot whose top-left
    pixel is the origin, turned about its centroid by the quantized tilt."""
    quad = rotate_points(pixel_box(0, 0, w, h), math.radians(tilt_key * TILT_STEP_DEG))
    return np.stack(quad_points(quad, *_patch_fractions(h, w)))


def _cell_units(gray: LatentGrid, frames: Sequence[tuple]) -> np.ndarray:
    """(cells, points) normalised patch of every cell, sampled from the gray
    image through the cell quads in one gather."""
    us, vs = np.stack([_patch_fractions(h, w) for _, h, w, _ in frames], axis=1)
    quads = np.stack([q for q, _, _, _ in frames]).transpose(1, 2, 0)[..., None]
    return _normalize_rows(sample_at(gray, *quad_points(quads, us, vs))[0])


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Center each row of the 2-d rows and scale it to unit length, in place;
    a row whose centered norm is 1e-9 or less becomes +0.0.  Returns rows."""
    rows -= rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        rows /= norms
    rows[~(norms[:, 0] > 1e-9)] = 0.0
    return rows


def _cell_pairs(cells: np.ndarray) -> np.ndarray:
    """(chars, (2h - 1) * (2w - 1)) products of each character's latent cells
    that the squares of its views can need, for the (chars, h, w) cells S.
    A bilinear weight reaches a cell and the next one along each axis only,
    and the product of two cells counts the same either way round, so a row
    holds S[a, b]^2 at (a, b), 2 S[a, b] S[a, b + 1] at (a, w + b),
    2 S[a, b] S[a + 1, b] at (h + a, b) and 2 (S[a, b] S[a + 1, b + 1] +
    S[a, b + 1] S[a + 1, b]) at (h + a, w + b)."""
    n, h, w = cells.shape
    pairs = np.empty((n, 2 * h - 1, 2 * w - 1))
    pairs[:, :h, :w] = cells * cells
    pairs[:, :h, w:] = 2 * (cells[:, :, :-1] * cells[:, :, 1:])
    pairs[:, h:, :w] = 2 * (cells[:, :-1] * cells[:, 1:])
    pairs[:, h:, w:] = 2 * (cells[:, :-1, :-1] * cells[:, 1:, 1:] + cells[:, :-1, 1:] * cells[:, 1:, :-1])
    return pairs.reshape(n, -1)


@lru_cache(maxsize=8)
def _flat_templates(h: int, w: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Clean h x w render of every character, its normalised crisp row, the
    shape's template sheet (a (chars, h, w) stack, character k's latent tile
    at k) and the sheet's cell pairs (_cell_pairs), read-only.  The crisp
    rows are the renders sampled at the patch points through a flat quad,
    all characters in one gather as the channels of one grid.  The tiles are the block
    means of the renders, each on a zero sheet of whole blocks.  The slot's
    top-left pixel is the sheet's origin, and the views read every position
    off the sheet as zero, so offsetting the slot points reproduces any
    cell-to-content displacement on this one sheet, with no margin."""
    flats = tuple(render_text_block(h, w, ch).data for ch in default_font().charset)
    px, py = quad_points(pixel_box(0, 0, w, h), *_patch_fractions(h, w))
    crisp = _normalize_rows(sample_at(LatentGrid(np.stack(flats)), px, py))
    sheets = np.zeros((len(flats), FACTOR * math.ceil(h / FACTOR), FACTOR * math.ceil(w / FACTOR)))
    sheets[:, :h, :w] = flats
    sheet = block_means(sheets)
    pairs = _cell_pairs(sheet)
    crisp.flags.writeable = sheet.flags.writeable = pairs.flags.writeable = False
    return flats, crisp, sheet, pairs


def _axis_weights(pos: np.ndarray, n: int) -> np.ndarray:
    """Bilinear weights at (points, offsets) positions along an axis of n
    latent cells read FACTOR times repeated, zero outside: (points, offsets,
    n).  Cell c holds pixels FACTOR * c to FACTOR * c + FACTOR - 1, so its
    weight ramps up over the pixel before them, is one across them and ramps
    down over the last: a position weighs the cell it lies in and at most
    the next one.  A corner outside the axis gets no weight, as in
    sample_at."""
    start = pos[..., None] - FACTOR * np.arange(n)
    rise = np.minimum(np.maximum(start + 1, 0.0), 1.0)
    return rise - np.minimum(np.maximum(start - (FACTOR - 1), 0.0), 1.0)


def _scores(
    sheets: np.ndarray,
    wy: np.ndarray,
    wx: np.ndarray,
    unit: np.ndarray,
    pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Correlation of the unit patch against the view of every sheet of the
    (chars, h, w) stack through the (points, ys, h) and (points, xs, w) axis
    weights.  pairs are the stack's _cell_pairs; without them the stack and
    the x weights are first cut to the columns the weights reach, so a wide
    stack costs no more than a narrow one.  Returns (chars, offsets),
    offsets y-major.

    By moments, after J. P. Lewis, "Fast Normalized Cross-Correlation"
    (1995): the unit patch is centred, so the numerator is `unit @ view`, and
    a view's centred squared norm is `sum v^2 - (sum v)^2 / n`.  A view is
    bilinear in its character's cells S, so the moments never need the views:
    the dots and sums are S against one product of the weights.  The squares
    are the cell products S[a, b] S[a', b'] against the products of the y
    and the x weights summed over the points.  A weight reaches a cell and
    its next neighbour only, so the only products that can count are a cell
    times itself and times its next neighbour along y, x or both: the
    pairs, against the squared weights and the products of neighbouring
    weights.  A view whose centred norm is 1e-9 or less, or under 1e-6 of its
    root sum of squares (lost to the moments' rounding), scores +0.0, as
    every constant view does.

    The coarse stage's calls regrow the heap on a read after the previous
    read's context passes let glibc trim it, so a read's minor page faults
    depend on the process's history; no wall time was seen to go with it.
    It is left as it is: the reader that ROADMAP item 1 step B puts in place
    of this offset search deletes the cause."""
    if pairs is None:
        reached = np.flatnonzero(wx.any(axis=(0, 1)))
        cols = slice(reached[0], reached[-1] + 1) if reached.size else slice(0, 1)
        sheets, wx = sheets[:, :, cols], wx[:, :, cols]
        pairs = _cell_pairs(sheets)
    n_pts, n_y, h = wy.shape
    n_x, w = wx.shape[1:]
    cells = sheets.reshape(len(sheets), h * w)
    # (2, h * w, offsets): the weights of each cell in the dots and the sums
    ends = np.stack((unit[:, None, None] * wy, wy), axis=1).reshape(n_pts, -1)
    moments = (ends.T @ wx.reshape(n_pts, -1)).reshape(2, n_y, h, n_x, w)
    dots, sums = cells @ moments.transpose(0, 2, 4, 1, 3).reshape(2, h * w, -1)
    # ((2h - 1) * (2w - 1), offsets): the weights of each cell pair in the squares
    yy, xx = (np.concatenate((a * a, a[..., :-1] * a[..., 1:]), axis=2).reshape(n_pts, -1) for a in (wy, wx))
    grams = (yy.T @ xx).reshape(n_y, 2 * h - 1, n_x, 2 * w - 1).transpose(1, 3, 0, 2)
    squares = pairs @ grams.reshape(-1, n_y * n_x)
    var = squares - sums * sums / n_pts
    ok = var > np.maximum(1e-18, 1e-12 * squares)
    return np.divide(dots, np.sqrt(var, out=var, where=ok), out=np.zeros_like(var), where=ok)


def _top(scores: np.ndarray) -> tuple[int, bool]:
    """First index within TOL of the maximum, and whether another is too."""
    near = scores >= scores.max() - TOL
    return int(np.argmax(near)), np.count_nonzero(near) > 1


def _offset_axes(half_x: float, half_y: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y axes of a search grid; its offsets run y-major."""
    return (
        np.arange(-half_x, half_x + step / 2, step),
        np.arange(-half_y, half_y + step / 2, step),
    )


def _composites(
    frames: Sequence[tuple], decoded: str, lefts: Sequence[int], i: int
) -> tuple[np.ndarray, int]:
    """(chars, H, W) block means of the decoded text with cell i's place
    taken by each candidate in turn, and cell i's left edge on them.  Every
    other cell's render has its top-left pixel at (lefts[j] + pad, 0), the
    pad putting cell i's left edge on a block edge, so each candidate's
    cached tile adds on whole blocks; renders that overlap add, and a
    character outside the charset leaves its place blank."""
    charset = default_font().charset
    pad = -lefts[i] % FACTOR
    sheet_h = FACTOR * math.ceil(max(h for _, h, _, _ in frames) / FACTOR)
    sheet_w = FACTOR * math.ceil((pad + max(x0 + w for x0, (_, _, w, _) in zip(lefts, frames))) / FACTOR)
    sheet = np.zeros((1, sheet_h, sheet_w))
    for j, (x0, (_, h, w, _), ch) in enumerate(zip(lefts, frames, decoded)):
        if j != i and ch in charset:
            sheet[0, :h, pad + x0 : pad + x0 + w] += _flat_templates(h, w)[0][charset.index(ch)]
    tiles = _flat_templates(*frames[i][1:3])[2]
    composites = np.repeat(block_means(sheet), len(tiles), axis=0)
    col = (pad + lefts[i]) // FACTOR
    composites[:, : tiles.shape[1], col : col + tiles.shape[2]] += tiles
    return composites, pad + lefts[i]


def ocr_decode(image: np.ndarray, cells: Sequence[np.ndarray]) -> OcrResult:
    """Read one character per cell by normalized cross-correlation against
    templates of the default font; a best correlation under the floor, or
    one within TOL of another character's, decodes as '?'.

    The cells are treated as windows onto a single rigid text block: every
    cell's template displacement is its geometric offset from the block plus
    one shared residual, searched coarsely then refined to sub-pixel steps;
    each stage takes the first offset voted within TOL of the best.
    The shared residual keeps a template from drifting onto content that
    merely resembles a character somewhere nearby.  A second pass rebuilds
    each template with the neighboring decoded characters stamped beside the
    candidate, so ink spilling across tilted cell borders is matched instead
    of fought: each candidate is scored, the same way as in the search, on a
    composite of its tile and the neighbours' block means."""
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
    # each cell's left edge in the decoded text
    lefts = [int(round(i * pitch)) for i in range(len(frames))]

    charset = default_font().charset
    # each live cell's template sheet and its slot points on that sheet,
    # turned once per (h, w, tilt key), and its scores against the crisp rows
    slots = {key: _slot_points(*key) for key in {frames[i][1:] for i in live}}
    templates = {i: (*_flat_templates(*frames[i][1:3])[2:], slots[frames[i][1:]]) for i in live}
    crisp = {i: _flat_templates(*frames[i][1:3])[1] @ units[i] for i in live}

    xs, ys = _offset_axes(SEARCH_X, SEARCH_Y, 1.0)

    def read_out(at_best: list[np.ndarray]) -> tuple[str, list[float]]:
        chars = [OCR_SENTINEL] * len(frames)
        confs = [0.0] * len(frames)
        for i, corr in zip(live, at_best):
            scores = np.maximum(crisp[i], corr)
            best, tied = _top(scores)
            confs[i] = float(scores.max())
            if confs[i] >= CORR_FLOOR and not tied:
                chars[i] = charset[best]
        return "".join(chars), confs

    def stage(
        xs: np.ndarray,
        ys: np.ndarray,
        text: Optional[str] = None,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """The search grid's first offset voted within TOL of the best, and
        each live cell's correlations there; given the decoded text, each
        candidate is read with the text's other characters beside it."""
        per_cell = []
        for i in live:
            sheets, pairs, points = templates[i]
            dx, dy = anchors[i, 0] + xs, anchors[i, 1] + ys
            if text is not None:
                sheets, left = _composites(frames, text, lefts, i)
                dx, pairs = dx + left, None
            wy = _axis_weights(points[1][:, None] + dy, sheets.shape[1])
            wx = _axis_weights(points[0][:, None] + dx, sheets.shape[2])
            per_cell.append(_scores(sheets, wy, wx, units[i], pairs))
        # Only confident reads steer the alignment; weaker cells ride along
        # on the rigid-block geometry instead of dragging it toward noise.
        total = sum(np.maximum(c.max(axis=0) - VOTE_FLOOR, 0.0) for c in per_cell)
        best = _top(total)[0]
        return np.array([xs[best % len(xs)], ys[best // len(xs)]]), [c[:, best] for c in per_cell]

    def around(center: np.ndarray, half: float) -> tuple[np.ndarray, np.ndarray]:
        ax, ay = _offset_axes(half, half, FINE_STEP)
        return center[0] + ax, center[1] + ay

    center, _ = stage(xs, ys)
    center, at_best = stage(*around(center, FINE_HALF))
    decoded, confs = read_out(at_best)

    for _ in range(2):
        center, at_best = stage(*around(center, 1.0), decoded)
        redecoded, confs = read_out(at_best)
        if redecoded == decoded:
            break
        decoded = redecoded
    return OcrResult(decoded, tuple(confs))
