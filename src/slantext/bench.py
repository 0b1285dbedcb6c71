"""Rotation-tiered benchmark: case generation, template OCR, metrics, runner.

Cases are flat corpus rows rotated into one of three difficulty tiers.  The
runner scores guided and unguided generations with a font-template OCR and
reports sentence accuracy plus normalized edit-distance similarity per tier.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import (
    CANVAS,
    CHAR_W,
    DEFAULT_SCENE_TEXTS,
    ROW_YS,
    TEXT_H,
    FlatTextCorpus,
    build_corpus,
    scene_background,
)
from .diffusion import FACTOR, LatentCodec, NoiseSchedule, linear_schedule
from .errors import GeometryError, InputError, SlantextError
from .fontdata import GLYPH_H, GLYPH_W
from .geometry import PolygonMask, rotate_points
from .glyph import char_cells, default_font, glyph_scale, render_text_block
from .grid import LatentGrid, quad_points, sample_at
from .guidance import GuidanceConfig, generate

# Tier bounds in degrees; hard includes 90 exactly.
TIERS = (("easy", 0.0, 30.0), ("medium", 30.0, 60.0), ("hard", 60.0, 90.0))
TIER_NAMES = tuple(name for name, _, _ in TIERS)

CORR_FLOOR = 0.3
VOTE_FLOOR = 0.6
OCR_SENTINEL = "?"

# Rows 1 and 2 keep every rotation of a corpus-width mask inside the canvas.
BASE_ROWS = (ROW_YS[1], ROW_YS[2])


# ---------------------------------------------------------------------------
# metrics


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def ned(pred: str, gt: str) -> float:
    """Edit-distance similarity: 1 - levenshtein / max length.  Higher is
    better; identical strings score 1."""
    if not gt:
        raise InputError("ground truth must be non-empty")
    return 1.0 - levenshtein(pred, gt) / max(len(pred), len(gt))


def sentence_accuracy(pairs: Sequence[tuple[str, str]]) -> float:
    if not pairs:
        raise InputError("need at least one (prediction, ground truth) pair")
    return sum(p == g for p, g in pairs) / len(pairs)


# ---------------------------------------------------------------------------
# template OCR


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


def _flat_cell_quad(h: int, w: int, ox: float = 0.0, oy: float = 0.0) -> np.ndarray:
    x0, y0 = ox - 0.5, oy - 0.5
    return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])


def _tilt_key(angle: float) -> int:
    """Cell tilt in whole TILT_STEP_DEG steps."""
    return int(round(math.degrees(angle) / TILT_STEP_DEG))


def _slot_points(
    h: int, w: int, ox: float, oy: float, tilt_key: int, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """(2, points) sampling positions of the flat h x w slot at (ox, oy),
    turned about its centroid by the quantized tilt."""
    tilt = math.radians(tilt_key * TILT_STEP_DEG)
    cell = rotate_points(_flat_cell_quad(h, w, ox, oy), tilt)
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


@dataclass(frozen=True)
class _OcrContext:
    """Per cell-shape template context: crisp per-character rows plus a
    codec-blocked character sheet, stored at latent resolution, sampled
    through tilted slot quads."""

    charset: str
    crisp: np.ndarray
    grid: LatentGrid
    slots: np.ndarray


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
        [_sample_quad(LatentGrid(f[None]), _flat_cell_quad(h, w), us, vs).ravel() for f in flats]
    )
    crisp = _normalize_rows(crisp)
    crisp.flags.writeable = False
    return flats, crisp


@lru_cache(maxsize=8)
def _template_sheet(h: int, w: int, reach: int) -> tuple[LatentGrid, int, int]:
    """Codec-blocked sheet stamping every character's clean h x w render in
    its own block-aligned slot, with the slots' margin and stride.  It does
    not depend on the cell tilt, so cells of one shape at any tilt share it."""
    flats, _ = _flat_templates(h, w)
    margin = FACTOR * math.ceil((reach + h + w) / FACTOR)
    stride = FACTOR * math.ceil((2 * reach + h + w + 2 * FACTOR) / FACTOR)
    grid = _blocked_sheet(
        FACTOR * math.ceil((2 * margin + h) / FACTOR),
        2 * margin + stride * len(flats),
        [(margin + i * stride, margin, flat) for i, flat in enumerate(flats)],
    )
    return grid, margin, stride


@lru_cache(maxsize=8)
def _ocr_context(h: int, w: int, tilt_key: int, reach: int) -> _OcrContext:
    """Build templates for one cell shape.  Every character gets a clean
    render sampled through a flat quad, plus sampling geometry over the
    shared template sheet, read through a quad tilted like the cell.
    Offsetting a slot quad over the sheet reproduces any cell-to-content
    displacement up to `reach` pixels, so one codec pass serves the whole
    search."""
    us, vs = _patch_fractions(h, w)
    chars = default_font().charset
    _, crisp = _flat_templates(h, w)
    grid, margin, stride = _template_sheet(h, w, reach)
    slots = np.stack(
        [
            _slot_points(h, w, margin + i * stride, margin, tilt_key, us, vs)
            for i in range(len(chars))
        ]
    )
    return _OcrContext(charset=chars, crisp=crisp, grid=grid, slots=slots)


def _raw_views(ctx: _OcrContext, xs: np.ndarray, ys: np.ndarray, out: np.ndarray) -> None:
    """Template views of every character displaced by every offset of the
    x axis xs and the y axis ys, sampled from the latent sheet into out,
    shaped (ys, xs, chars, points).  Offsets lead, so sample_at broadcasts
    over whole (chars, points) planes and fills one y offset per chunk."""
    px = ctx.slots[:, 0] + xs[:, None, None]
    py = ctx.slots[:, 1] + ys[:, None, None, None]
    sample_at(ctx.grid, px, py, block=FACTOR, out=out[None])


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


TILT_STEP_DEG = 0.5
# Content-offset search half-window in pixels: how far the committed text
# block may sit from its mask-aligned position and still be read.
SEARCH_X = 6
SEARCH_Y = 8
FINE_HALF = 0.75
FINE_STEP = 0.25


def _offset_axes(half_x: float, half_y: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y axes of a search grid; its offsets run y-major."""
    return (
        np.arange(-half_x, half_x + step / 2, step),
        np.arange(-half_y, half_y + step / 2, step),
    )


def _context_grid(
    frames: Sequence[tuple], decoded: str, pitch: float, reach: int
) -> tuple[LatentGrid, list[np.ndarray]]:
    """Blocked sheet holding the currently decoded text at cell pitch, plus
    each cell's tilted sampling points over its own slot."""
    charset = default_font().charset
    max_h = max(h for _, h, _, _ in frames)
    max_w = max(w for _, _, w, _ in frames)
    margin = FACTOR * math.ceil((reach + max_h + max_w) / FACTOR)
    span = margin + (len(frames) - 1) * pitch + max_w + margin
    xs = [margin + int(round(i * pitch)) for i in range(len(frames))]
    grid = _blocked_sheet(
        FACTOR * math.ceil((2 * margin + max_h) / FACTOR),
        FACTOR * math.ceil(span / FACTOR),
        [
            (x0, margin, _flat_templates(h, w)[0][charset.index(ch)])
            for x0, (_, h, w, _), ch in zip(xs, frames, decoded)
            if ch in charset
        ],
    )
    points = [
        _slot_points(h, w, x0, margin, _tilt_key(angle), *_patch_fractions(h, w))
        for x0, (_, h, w, angle) in zip(xs, frames)
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

    contexts = {i: _ocr_context(h, w, _tilt_key(angle), reach)
                for i, (_, h, w, angle) in enumerate(frames) if i in live}

    # Two buffers sized for the coarse stage, the largest, serve every cell
    # of every stage: one holds a cell's views, composed and normalised in
    # place; the other holds the gemv's rows and starts the allocation, as a
    # fresh array would.  One allocation holds both: glibc maps it on the
    # first read and, when it is freed, raises its mmap and trim thresholds
    # to fit it, so later reads reuse heap pages (160 minor faults per guided
    # case, against 1,400 with two allocations).
    xs, ys = _offset_axes(SEARCH_X, SEARCH_Y, 1.0)
    size = len(xs) * len(ys) * len(default_font().charset) * GLYPH_H * GLYPH_W
    row_buf, view_buf = np.empty((2, size))

    def read_out(per_cell: list[np.ndarray], best_off: int) -> tuple[str, list[float]]:
        chars: list[str] = []
        confs: list[float] = []
        for i in range(len(frames)):
            if i not in contexts:
                chars.append(OCR_SENTINEL)
                confs.append(0.0)
                continue
            ctx = contexts[i]
            scores = np.maximum(ctx.crisp @ units[i], per_cell[live.index(i)][:, best_off])
            best = int(np.argmax(scores))
            top = float(scores[best])
            chars.append(ctx.charset[best] if top >= CORR_FLOOR else OCR_SENTINEL)
            confs.append(top)
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
        ctx = contexts[i]
        shape = (len(dy), len(dx)) + ctx.slots[:, 0].shape
        views = view_buf[: math.prod(shape)].reshape(shape)
        _raw_views(ctx, dx, dy, out=views)
        if context is None:
            return views
        ctx_grid, ctx_points = context
        px, py = ctx_points[i]
        base = sample_at(ctx_grid, px + dx[:, None], py + dy[:, None, None], block=FACTOR)[0]
        own = None
        if decoded[i] in ctx.charset:
            own = views[:, :, ctx.charset.index(decoded[i])].copy()
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


# ---------------------------------------------------------------------------
# case generation


@dataclass(frozen=True)
class BaseSpec:
    """A flat corpus row serving as the pre-rotation mask template."""

    scene_id: int
    text: str
    y: int


@dataclass(frozen=True)
class BenchCase:
    case_id: str
    scene_id: int
    text: str
    mask: PolygonMask
    tier: str
    rotation_deg: float
    seed: int

    def __post_init__(self):
        for name in ("case_id", "text"):
            if not isinstance(getattr(self, name), str):
                raise InputError(f"case {name} must be a string, got {getattr(self, name)!r}")
        if isinstance(self.scene_id, bool) or not isinstance(self.scene_id, int):
            raise InputError(f"case scene_id must be an integer, got {self.scene_id!r}")
        if self.tier not in TIER_NAMES:
            raise InputError(f"unknown tier {self.tier!r}")
        if isinstance(self.rotation_deg, bool) or not isinstance(self.rotation_deg, (int, float)):
            raise InputError(f"case rotation_deg must be a number, got {self.rotation_deg!r}")
        if tier_for_rotation(self.rotation_deg) != self.tier:
            raise InputError(
                f"rotation {self.rotation_deg} outside tier {self.tier!r} bounds"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InputError(f"case seed must be a non-negative integer, got {self.seed!r}")


def tier_for_rotation(angle_deg: float) -> str:
    if not 0.0 <= angle_deg <= 90.0:
        raise InputError(f"rotation {angle_deg} outside [0, 90]")
    for name, lo, hi in TIERS:
        if angle_deg < hi:
            return name
    return "hard"


def default_base_specs() -> list[BaseSpec]:
    return [
        BaseSpec(sid, text, y) for sid, text in enumerate(DEFAULT_SCENE_TEXTS) for y in BASE_ROWS
    ]


def base_mask(spec: BaseSpec) -> PolygonMask:
    """Pixel box of the spec's text rect, matching the corpus row layout."""
    return PolygonMask(_flat_cell_quad(TEXT_H, CHAR_W * len(spec.text), 0, spec.y))


def _mask_inside(poly: PolygonMask, canvas: tuple[int, int]) -> bool:
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    return bool(
        lo[0] >= -0.5 and lo[1] >= -0.5 and hi[0] <= canvas[1] - 0.5 and hi[1] <= canvas[0] - 0.5
    )


def place_mask(
    poly: PolygonMask, angle_deg: float, canvas: tuple[int, int] = CANVAS
) -> PolygonMask:
    """Rotate about the centroid; a mask leaving the canvas is shifted back
    in by the smallest translation that fits.  The minimal shift (under a
    pixel for gentle rotations of a corpus row) keeps the mask over its base
    row, which the tier protocol depends on.

    Raises GeometryError when no translation can fit the mask."""
    placed = poly.rotated(math.radians(angle_deg)) if angle_deg else poly
    if not _mask_inside(placed, canvas):
        lo = placed.vertices.min(axis=0)
        hi = placed.vertices.max(axis=0)
        limits = (canvas[1] - 0.5, canvas[0] - 0.5)
        shift = [0.0, 0.0]
        for ax in (0, 1):
            if hi[ax] - lo[ax] > limits[ax] + 0.5:
                raise GeometryError("mask does not fit the canvas at any placement")
            if lo[ax] < -0.5:
                shift[ax] = -0.5 - lo[ax]
            elif hi[ax] > limits[ax]:
                shift[ax] = limits[ax] - hi[ax]
        placed = placed.translated(shift[0], shift[1])
    return placed


def generate_benchmark(
    per_tier_count: int = 10,
    rng_seed: int = 0,
    canvas: tuple[int, int] = CANVAS,
) -> list[BenchCase]:
    """Deterministic case list: `per_tier_count` cases per tier, rotations
    uniform inside each tier's bounds, base rows cycled across cases."""
    if per_tier_count < 1:
        raise InputError("per_tier_count must be at least 1")
    specs = default_base_specs()
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))

    cases: list[BenchCase] = []
    for tier_name, lo, hi in TIERS:
        for i in range(per_tier_count):
            spec = specs[len(cases) % len(specs)]
            angle = float(rng.uniform(lo, hi))
            mask = place_mask(base_mask(spec), angle, canvas)
            seed = int(rng.integers(0, 2**31 - 1))
            cases.append(
                BenchCase(
                    case_id=f"{tier_name}_{i:03d}",
                    scene_id=spec.scene_id,
                    text=spec.text,
                    mask=mask,
                    tier=tier_name,
                    rotation_deg=angle,
                    seed=seed,
                )
            )
    return cases


def save_manifest(cases: Sequence[BenchCase], path) -> None:
    rows = [
        {
            "case_id": c.case_id,
            "scene_id": c.scene_id,
            "text": c.text,
            "mask": [[float(x), float(y)] for x, y in c.mask.vertices],
            "tier": c.tier,
            "rotation_deg": c.rotation_deg,
            "seed": c.seed,
        }
        for c in cases
    ]
    Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> list[BenchCase]:
    rows = json.loads(Path(path).read_text())
    return [
        BenchCase(
            case_id=r["case_id"],
            scene_id=r["scene_id"],
            text=r["text"],
            mask=PolygonMask(np.asarray(r["mask"], dtype=np.float64)),
            tier=r["tier"],
            rotation_deg=r["rotation_deg"],
            seed=r["seed"],
        )
        for r in rows
    ]


# ---------------------------------------------------------------------------
# runner


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    tier: str
    rotation_deg: float
    target: str
    decoded: str
    sen_acc: float
    ned: float
    note: str = ""


@dataclass(frozen=True)
class BenchReport:
    records: tuple[CaseRecord, ...]
    tiers: dict[str, dict[str, float]]
    total: dict[str, float]
    config_digest: str
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "config_digest": self.config_digest,
            "tiers": self.tiers,
            "total": self.total,
            "cases": [asdict(r) for r in self.records],
        }


def config_fingerprint(config: GuidanceConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_case(
    case: BenchCase,
    *,
    config: GuidanceConfig,
    schedule: NoiseSchedule,
    corpus: FlatTextCorpus,
) -> CaseRecord:
    try:
        result = generate(
            case.text, case.mask, case.scene_id, case.seed, config,
            corpus=corpus, schedule=schedule,
        )
        cells = char_cells(result.segments, case.text)
        # Score against the scene plate: the referee knows the background just
        # as it knows the cell geometry, so placement is what gets graded.
        # The plate goes through the codec so the subtraction leaves pure ink.
        codec = LatentCodec()
        plate = codec.decode(codec.encode(scene_background(case.scene_id, corpus.canvas)))
        decoded = ocr_decode(result.image - plate, cells).decoded
        # A read is trusted only when most cells found a character; stray
        # fringes under a steeply rotated mask are not placed text.
        if 2 * sum(c != OCR_SENTINEL for c in decoded) < len(decoded):
            decoded = OCR_SENTINEL * len(decoded)
        acc = 1.0 if decoded == case.text else 0.0
        sim = ned(decoded, case.text)
        note = ""
    except SlantextError as exc:  # an expected failure scores zero, the batch goes on
        decoded, acc, sim = "", 0.0, 0.0
        note = f"{type(exc).__name__}: {exc}"
    return CaseRecord(
        case_id=case.case_id,
        tier=case.tier,
        rotation_deg=case.rotation_deg,
        target=case.text,
        decoded=decoded,
        sen_acc=acc,
        ned=sim,
        note=note,
    )


def _aggregate(records: Sequence[CaseRecord]) -> tuple[dict, dict]:
    tiers: dict[str, dict[str, float]] = {}
    for name in TIER_NAMES:
        sub = [r for r in records if r.tier == name]
        if sub:
            tiers[name] = {
                "n": len(sub),
                "sen_acc": sum(r.sen_acc for r in sub) / len(sub),
                "ned": sum(r.ned for r in sub) / len(sub),
            }
    total = {
        "n": len(records),
        "sen_acc": sum(r.sen_acc for r in records) / len(records),
        "ned": sum(r.ned for r in records) / len(records),
    }
    return tiers, total


def run_bench(
    cases: Sequence[BenchCase],
    config: Optional[GuidanceConfig] = None,
    corpus: Optional[FlatTextCorpus] = None,
    out_dir=None,
    jobs: int = 1,
    schedule: Optional[NoiseSchedule] = None,
) -> BenchReport:
    """Score every case under one guidance config and sampler schedule
    (default: `linear_schedule()`, as in `generate`).  Results are assembled
    sorted by case id, so --jobs parallelism never changes the report.

    A case that fails with a SlantextError scores zero and carries the error
    as its note; any other exception propagates."""
    if not cases:
        raise InputError("need at least one case")
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    config = config or GuidanceConfig()
    run_case = partial(
        _run_case,
        config=config,
        schedule=schedule if schedule is not None else linear_schedule(),
        corpus=corpus if corpus is not None else build_corpus(),
    )

    if jobs == 1:
        records = [run_case(case) for case in cases]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_case, cases))

    records = tuple(sorted(records, key=lambda r: r.case_id))
    tiers, total = _aggregate(records)
    report = BenchReport(
        records=records,
        tiers=tiers,
        total=total,
        config_digest=config_fingerprint(config),
        config=asdict(config),
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: BenchReport, out_dir) -> None:
    """report.json (full) plus report.csv (tier, n, sen_acc, ned; 4 decimals)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    lines = ["tier,n,sen_acc,ned"]
    for name in TIER_NAMES:
        if name in report.tiers:
            row = report.tiers[name]
            lines.append(f"{name},{row['n']},{row['sen_acc']:.4f},{row['ned']:.4f}")
    t = report.total
    lines.append(f"total,{t['n']},{t['sen_acc']:.4f},{t['ned']:.4f}")
    (out / "report.csv").write_text("\n".join(lines) + "\n")
