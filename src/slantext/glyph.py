"""Bitmap text rendering: flat blocks, warped segment quads, per-char cells.

Glyphs come from a fixed-size bitmap font and scale by integer nearest-
neighbor replication only, so rendered ink is exactly reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CharsetError, InputError, ShapeError
from .fontdata import FONT_ROWS, GLYPH_H, GLYPH_W
from .geometry import FlatLayout, QuadSegment
from .grid import LatentGrid, paste_region_with_mask


class BitmapFont:
    """Fixed-cell font backed by the per-row bit patterns of FONT_ROWS."""

    def __init__(self):
        self._bitmaps: dict[str, np.ndarray] = {}
        for ch, pattern in FONT_ROWS.items():
            if len(ch) != 1:
                raise CharsetError(f"font keys must be single characters, got {ch!r}")
            if len(pattern) != GLYPH_H:
                raise CharsetError(f"glyph {ch!r} needs {GLYPH_H} rows")
            bm = np.zeros((GLYPH_H, GLYPH_W), dtype=np.float64)
            for r, bits in enumerate(pattern):
                if not 0 <= bits < (1 << GLYPH_W):
                    raise CharsetError(f"glyph {ch!r} row {r} exceeds {GLYPH_W} bits")
                for c in range(GLYPH_W):
                    bm[r, c] = (bits >> (GLYPH_W - 1 - c)) & 1
            bm.flags.writeable = False
            self._bitmaps[ch] = bm
        self.charset = "".join(sorted(self._bitmaps))

    def bitmap(self, ch: str) -> np.ndarray:
        try:
            return self._bitmaps[ch]
        except KeyError:
            raise CharsetError(f"unsupported character {ch!r}") from None

    def validate(self, text: str) -> None:
        for ch in text:
            if ch not in self._bitmaps:
                raise CharsetError(f"unsupported character {ch!r}")


_DEFAULT_FONT: BitmapFont | None = None


def default_font() -> BitmapFont:
    global _DEFAULT_FONT
    if _DEFAULT_FONT is None:
        _DEFAULT_FONT = BitmapFont()
    return _DEFAULT_FONT


@dataclass(frozen=True)
class GlyphImage:
    """Grayscale ink image, values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"glyph image must be 2-d, got shape {arr.shape}")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ShapeError("glyph image values must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def glyph_scale(rect_h: int, rect_w: int, n_chars: int) -> int:
    """Largest integer scale where n glyphs plus single-unit gaps fit the
    rect: height 7k, total width (6n - 1)k. Never below 1."""
    if n_chars < 1:
        raise InputError("need at least one character to scale for")
    return max(1, min(rect_h // GLYPH_H, rect_w // (6 * n_chars - 1)))


def _round_half_up(v: float) -> int:
    return int(np.floor(v + 0.5))


def _stamp(canvas: np.ndarray, ox: int, oy: int, iw: int, ih: int,
           text: str, font: BitmapFont) -> None:
    """Max-composite `text` into canvas over the integer rect, chars
    centered in equal-width slots, block centered vertically."""
    n = len(text)
    if n == 0:
        return
    k = glyph_scale(ih, iw, n)
    gh, gw = GLYPH_H * k, GLYPH_W * k
    pad_y = (ih - gh) // 2
    ch_, cw_ = canvas.shape
    for idx, ch in enumerate(text):
        big = np.kron(font.bitmap(ch), np.ones((k, k)))
        slot_w = iw / n
        gx = _round_half_up(idx * slot_w + (slot_w - gw) / 2.0)
        y0, x0 = oy + pad_y, ox + gx
        # clip to both the rect and the canvas
        ry0, ry1 = max(y0, oy, 0), min(y0 + gh, oy + ih, ch_)
        rx0, rx1 = max(x0, ox, 0), min(x0 + gw, ox + iw, cw_)
        if ry1 <= ry0 or rx1 <= rx0:
            continue
        sub = big[ry0 - y0:ry1 - y0, rx0 - x0:rx1 - x0]
        canvas[ry0:ry1, rx0:rx1] = np.maximum(canvas[ry0:ry1, rx0:rx1], sub)


def render_text_block(h: int, w: int, text: str) -> GlyphImage:
    """Standalone (h, w) block with `text` laid out across it."""
    font = default_font()
    font.validate(text)
    if h < 1 or w < 1:
        raise ShapeError(f"block size must be positive, got {(h, w)}")
    canvas = np.zeros((int(h), int(w)), dtype=np.float64)
    _stamp(canvas, 0, 0, int(w), int(h), text, font)
    return GlyphImage(canvas)


def render_flat_glyph(layout: FlatLayout, text: str) -> GlyphImage:
    """Render each layout rect's share of `text` onto the flat canvas."""
    font = default_font()
    font.validate(text)
    h, w = layout.canvas
    canvas = np.zeros((h, w), dtype=np.float64)
    for (x, y, rw, rh), (a, b) in zip(layout.rects, layout.text_slices):
        if not (0 <= a < b <= len(text)):
            raise InputError(f"text slice {(a, b)} outside text of length {len(text)}")
        _stamp(
            canvas,
            _round_half_up(x), _round_half_up(y),
            _round_half_up(rw), _round_half_up(rh),
            text[a:b], font,
        )
    return GlyphImage(canvas)


def render_glyph_image(
    segments: list[QuadSegment],
    text: str,
    canvas: tuple[int, int],
) -> GlyphImage:
    """Render each segment's share of `text` flat at the segment's own size,
    then warp it onto the canvas through the segment quad. Overlapping
    segments max-composite."""
    default_font().validate(text)
    if not segments:
        raise InputError("no segments to render")
    h, w = int(canvas[0]), int(canvas[1])
    acc = np.zeros((h, w), dtype=np.float64)
    blank = LatentGrid(np.zeros((1, h, w)))
    for seg in segments:
        a, b = seg.text_slice
        if not (0 <= a < b <= len(text)):
            raise InputError(f"text slice {(a, b)} outside text of length {len(text)}")
        lw = max(1, _round_half_up(seg.width))
        lh = max(1, _round_half_up(seg.height))
        local = render_text_block(lh, lw, text[a:b])
        pasted, _ = paste_region_with_mask(blank, LatentGrid(local.data[None]), seg.corners)
        acc = np.maximum(acc, pasted.data[0])
    return GlyphImage(np.clip(acc, 0.0, 1.0))


def char_cells(segments: list[QuadSegment], text: str) -> list[np.ndarray]:
    """One quad per character: each segment quad split into equal cells
    along its top and bottom edges. Ordered by global character index."""
    ordered = sorted(segments, key=lambda s: s.index)
    expect = 0
    cells: list[np.ndarray] = []
    for seg in ordered:
        a, b = seg.text_slice
        if a != expect:
            raise InputError(f"segment slices not contiguous at index {a}")
        expect = b
        ul, ur, lr, ll = seg.corners
        n = b - a
        for j in range(n):
            f0, f1 = j / n, (j + 1) / n
            top0 = ul + (ur - ul) * f0
            top1 = ul + (ur - ul) * f1
            bot0 = ll + (lr - ll) * f0
            bot1 = ll + (lr - ll) * f1
            cells.append(np.array([top0, top1, bot1, bot0]))
    if expect != len(text):
        raise InputError(f"segments cover {expect} chars, text has {len(text)}")
    return cells
