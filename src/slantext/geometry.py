"""Curved-region decomposition: boundary fitting, baseline splitting, and
flattening of mask segments into axis-aligned rectangles.

Coordinates are image-pixel (x, y) with y growing downward. Polygons are
stored with positive shoelace area and angles follow atan2(dy, dx).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError, LayoutError
from .grid import RegionMask

# split candidates whose tangent stays within this of the segment entry
# direction are discarded: the curve has not actually turned
PARALLEL_FILTER_RAD = math.radians(5.0)

PACK_GUTTER = 4.0

# polyline points of arc lengths
ARC_SAMPLES = 257

# Most (row, column) pairs one array pass of the crossing check or the
# even-odd raster holds: each of their temporaries is then 128 KiB.  Four
# times as many raised the peak RSS of 240 curved generate cases by 3.8%
# and built masks no faster; see BENCH_10.json `pair_block`.
PAIR_BLOCK = 2**14


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise GeometryError(f"expected (N, 2) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise GeometryError("points must be finite")
    return pts


def polygon_area(points) -> float:
    """Signed shoelace area; positive for our canonical vertex order."""
    pts = _as_points(points)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(points) -> np.ndarray:
    """Shoelace centroid of a polygon's vertices."""
    pts = _as_points(points)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    cx = float(((x + xn) * cross).sum() / (6.0 * a))
    cy = float(((y + yn) * cross).sum() / (6.0 * a))
    return np.array([cx, cy])


def rotate_points(points, angle: float) -> np.ndarray:
    """Polygon vertices turned by `angle` radians (positive turns +x toward
    +y) about their shoelace centroid."""
    pts = _as_points(points)
    c = polygon_centroid(pts)
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    return (pts - c) @ rot.T + c


def pixel_box(x, y, w, h) -> np.ndarray:
    """(UL, UR, LR, LL) corners of the w x h pixel rect whose top-left pixel
    is (x, y): pixels are centred on integers, so the edges lie half a pixel
    outside the outer pixel centres."""
    x0, x1, y0, y1 = x - 0.5, x + w - 0.5, y - 0.5, y + h - 0.5
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def _orient(a, b, c):
    """Twice the signed area of triangle abc, over (..., 2) point arrays."""
    ab_x, ab_y = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    return ab_x * (c[..., 1] - a[..., 1]) - ab_y * (c[..., 0] - a[..., 0])


@dataclass(frozen=True)
class PolygonMask:
    """Simple polygon with >= 4 vertices and positive signed area."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.vertices)
        if pts.shape[0] < 4:
            raise GeometryError(f"polygon needs >= 4 vertices, got {pts.shape[0]}")
        if polygon_area(pts) <= 0.0:
            raise GeometryError("polygon must have positive signed area (wrong winding?)")
        # Edge i against every later edge j >= i + 2 but the pair (0, n-1),
        # which shares vertex 0: a proper crossing puts each edge's end
        # points strictly on different sides of the other's line.  A block
        # of rows i0 <= i < i1 meets the columns j >= i0 + 2, and its upper
        # triangle keeps j >= i + 2.
        n = pts.shape[0]
        starts, ends = pts, np.roll(pts, -1, axis=0)
        rows = max(1, PAIR_BLOCK // n)
        for i0 in range(0, n - 2, rows):
            i1 = min(i0 + rows, n - 2)
            p1, p2 = starts[i0:i1, None], ends[i0:i1, None]
            p3, p4 = starts[i0 + 2 :], ends[i0 + 2 :]
            cross = np.triu(
                ((_orient(p3, p4, p1) > 0) != (_orient(p3, p4, p2) > 0))
                & ((_orient(p1, p2, p3) > 0) != (_orient(p1, p2, p4) > 0))
            )
            if i0 == 0:
                cross[0, -1] = False
            if cross.any():
                raise GeometryError("polygon is self-intersecting")
        arr = pts.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)

    @property
    def area(self) -> float:
        return polygon_area(self.vertices)

    @property
    def centroid(self) -> np.ndarray:
        return polygon_centroid(self.vertices)

    def translated(self, dx: float, dy: float) -> "PolygonMask":
        return PolygonMask(self.vertices + np.array([dx, dy]))

    def rotated(self, angle: float) -> "PolygonMask":
        """Rotate by `angle` radians about the centroid (see rotate_points)."""
        return PolygonMask(rotate_points(self.vertices, angle))


@dataclass(frozen=True)
class BezierCurve:
    """Cubic Bezier defined by 4 control points."""

    control: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.control)
        if pts.shape[0] != 4:
            raise GeometryError(f"cubic curve needs 4 control points, got {pts.shape[0]}")
        arr = pts.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "control", arr)

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        s = 1.0 - t
        w = np.stack([s**3, 3 * s**2 * t, 3 * s * t**2, t**3], axis=-1)
        return w @ self.control

    def tangent(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        s = 1.0 - t
        d = np.diff(self.control, axis=0)  # (3, 2)
        w = np.stack([s**2, 2 * s * t, t**2], axis=-1)
        return 3.0 * (w @ d)

    def arc_lengths(self) -> tuple[np.ndarray, np.ndarray]:
        """(params, cumulative length) along an ARC_SAMPLES-point polyline."""
        ts = np.linspace(0.0, 1.0, ARC_SAMPLES)
        pts = self.point(ts)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        return ts, np.concatenate([[0.0], np.cumsum(steps)])


@dataclass(frozen=True)
class OrientedRect:
    """Rectangle given by center, (length-along-angle, length-across) and
    angle in [0, pi)."""

    center: np.ndarray
    size: tuple[float, float]
    angle: float

    @property
    def area(self) -> float:
        return self.size[0] * self.size[1]

    @property
    def long_axis_angle(self) -> float:
        if self.size[0] >= self.size[1]:
            return self.angle
        return (self.angle + math.pi / 2.0) % math.pi


@dataclass(frozen=True)
class QuadSegment:
    """One near-straight piece of a divided mask.

    Corners run UL, UR, LR, LL in the segment's own reading frame; `angle`
    is the baseline chord direction and `text_slice` the half-open index
    range of the characters this piece carries.
    """

    corners: np.ndarray
    angle: float
    index: int
    text_slice: tuple[int, int]

    def __post_init__(self):
        pts = _as_points(self.corners)
        if pts.shape[0] != 4:
            raise GeometryError("segment quad needs exactly 4 corners")
        if not (-math.pi < self.angle <= math.pi):
            raise GeometryError(f"segment angle {self.angle} outside (-pi, pi]")
        # convexity and consistent turning direction
        signs = []
        for i in range(4):
            a, b, c = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
            signs.append((b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]))
        if abs(polygon_area(pts)) < 1e-12:
            raise GeometryError("segment quad has ~zero area")
        if not (all(s > 0 for s in signs) or all(s < 0 for s in signs)):
            raise GeometryError("segment quad must be convex")
        start, stop = self.text_slice
        if stop <= start:
            raise GeometryError(f"empty text slice {self.text_slice}")
        arr = pts.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "corners", arr)

    @property
    def width(self) -> float:
        return float(np.linalg.norm(self.corners[1] - self.corners[0]))

    @property
    def height(self) -> float:
        return float(np.linalg.norm(self.corners[3] - self.corners[0]))


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> scale * R(angle) @ p + (tx, ty); flat frame into segment frame."""

    scale: float
    angle: float
    tx: float
    ty: float

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return self.scale * np.array([[c, -s], [s, c]])

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix().T + np.array([self.tx, self.ty])


@dataclass(frozen=True)
class FlatLayout:
    """Axis-aligned rectangles for each segment plus the transforms that
    carry flat content back onto the segment quads."""

    rects: tuple          # of (x, y, w, h)
    transforms: tuple     # of SimilarityTransform
    canvas: tuple[int, int]  # (h, w)
    text_slices: tuple    # of (start, stop), matching rects

    def __post_init__(self):
        if not (len(self.rects) == len(self.transforms) == len(self.text_slices)):
            raise GeometryError("layout fields must have equal lengths")
        for x, y, w, h in self.rects:
            if w <= 0 or h <= 0:
                raise GeometryError(f"flat rect has non-positive size {(w, h)}")


def convex_hull(points) -> np.ndarray:
    """Monotone-chain hull, counter-clockwise in (x, y) math orientation.
    The chain runs over Python floats, whose products and differences are
    the same IEEE doubles as numpy's."""
    pts = np.unique(_as_points(points), axis=0)
    if pts.shape[0] < 3:
        raise GeometryError("hull needs at least 3 distinct points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order].tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        raise GeometryError("points are collinear, no hull area")
    return hull


def min_area_rect(points) -> OrientedRect:
    """Smallest-area enclosing rectangle via rotating calipers: the optimum
    is aligned with some hull edge, so each edge direction is tried, all in
    one stack.  Each edge's squared length is a batched (1, 2) @ (2, 1) dot
    and its projections a batched (n, 2) @ (2, 1) gemv, which round as
    `np.linalg.norm(edge)` and `hull @ d` on one edge do; one gemm or an
    elementwise sum would round differently.  The first edge wins a tie."""
    hull = convex_hull(_as_points(points))
    edges = np.roll(hull, -1, axis=0) - hull
    norm = np.sqrt(np.matmul(edges[:, None, :], edges[:, :, None]))[:, 0]
    keep = norm[:, 0] >= 1e-12
    d = edges[keep] / norm[keep]
    m = d.shape[0]
    if m == 0:
        raise GeometryError("degenerate point set for min-area rect")
    # rows 0..m-1 project on the edge directions, rows m.. on their normals
    axes = np.concatenate([d, np.stack([-d[:, 1], d[:, 0]], axis=1)])
    proj = np.matmul(hull[None], axes[:, :, None])[:, :, 0]
    hi, lo = proj.max(axis=1), proj.min(axis=1)
    span = hi - lo
    areas = (span[:m] * span[m:]).tolist()
    best = 0
    for i, area in enumerate(areas):
        if area < areas[best] - 1e-12:
            best = i
    mid = (hi + lo) / 2.0
    center = axes[best] * mid[best] + axes[m + best] * mid[m + best]
    angle = math.atan2(d[best, 1], d[best, 0]) % math.pi
    size = (float(span[best]), float(span[m + best]))
    return OrientedRect(center=center, size=size, angle=float(angle))


def _cyclic_slice(n: int, i: int, j: int) -> list[int]:
    if j >= i:
        return list(range(i, j + 1))
    return list(range(i, n)) + list(range(0, j + 1))


def _trim_cap_edges(chain: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Drop end vertices whose edge runs closer to the cross axis than the
    long axis; those edges are the band's end caps, not boundary."""

    def cap_like(a, b):
        e = b - a
        n = np.linalg.norm(e)
        if n < 1e-12:
            return True
        e = e / n
        along = abs(float(e @ axis))
        return along < math.cos(math.pi / 4.0)

    pts = chain
    while pts.shape[0] > 2 and cap_like(pts[0], pts[1]):
        pts = pts[1:]
    while pts.shape[0] > 2 and cap_like(pts[-2], pts[-1]):
        pts = pts[:-1]
    return pts


def _boundary_chains(poly: PolygonMask) -> tuple[np.ndarray, np.ndarray, OrientedRect]:
    rect = min_area_rect(poly.vertices)
    a = rect.long_axis_angle
    axis = np.array([math.cos(a), math.sin(a)])
    perp = np.array([-axis[1], axis[0]])
    verts = poly.vertices
    proj = verts @ axis
    i_lo = int(np.argmin(proj))
    i_hi = int(np.argmax(proj))
    if i_lo == i_hi:
        raise GeometryError("polygon has no spread along its long axis")
    n = verts.shape[0]
    chain_a = verts[_cyclic_slice(n, i_lo, i_hi)]
    chain_b = verts[_cyclic_slice(n, i_hi, i_lo)]
    chains = []
    for chain in (chain_a, chain_b):
        chain = _trim_cap_edges(chain, axis)
        if chain.shape[0] < 2:
            raise GeometryError("boundary chain degenerated while trimming caps")
        if chain[-1] @ axis < chain[0] @ axis:
            chain = chain[::-1]
        chains.append(chain)
    # the chain sitting at smaller cross-axis coordinate is "upper"
    means = [float(np.mean(c @ perp)) for c in chains]
    if means[0] <= means[1]:
        return chains[0], chains[1], rect
    return chains[1], chains[0], rect


def _fit_cubic_chain(pts: np.ndarray) -> BezierCurve:
    """Least-squares cubic through the chain, end points interpolated."""
    p0, p3 = pts[0], pts[-1]
    chord = p3 - p0

    def thirds():
        return BezierCurve(np.array([p0, p0 + chord / 3.0, p0 + 2.0 * chord / 3.0, p3]))

    if pts.shape[0] == 2:
        return thirds()
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = steps.sum()
    if total < 1e-12:
        raise GeometryError("chain has no length")
    t = np.concatenate([[0.0], np.cumsum(steps)]) / total
    s = 1.0 - t
    b0 = s**3
    b1 = 3 * s**2 * t
    b2 = 3 * s * t**2
    b3 = t**3
    a11 = float((b1 * b1).sum())
    a12 = float((b1 * b2).sum())
    a22 = float((b2 * b2).sum())
    det = a11 * a22 - a12 * a12
    if abs(det) < 1e-12:
        return thirds()
    rest = pts - np.outer(b0, p0) - np.outer(b3, p3)
    r1 = b1 @ rest
    r2 = b2 @ rest
    p1 = (a22 * r1 - a12 * r2) / det
    p2 = (a11 * r2 - a12 * r1) / det
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        return thirds()
    return BezierCurve(np.array([p0, p1, p2, p3]))


def fit_boundary_beziers(
    poly: PolygonMask,
) -> tuple[BezierCurve, BezierCurve, OrientedRect]:
    """Fit one cubic to each boundary chain of a band-shaped polygon.

    The polygon splits at its two extreme vertices along the min-area-rect
    long axis; cap-like end edges are trimmed from both chains first.
    Returns (upper, lower, rect): both curves parameterized low-u to high-u,
    plus the min-area rect that chose the axis.
    """
    upper_pts, lower_pts, rect = _boundary_chains(poly)
    return _fit_cubic_chain(upper_pts), _fit_cubic_chain(lower_pts), rect


def baseline(upper: BezierCurve, lower: BezierCurve) -> BezierCurve:
    """Center curve: the control-point average of the two boundaries."""
    return BezierCurve((upper.control + lower.control) / 2.0)


def _angle_diff_mod_pi(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _tangent_parallel_params(curve: BezierCurve, rect: OrientedRect) -> list[float]:
    """Interior parameters where the curve tangent runs parallel to either
    rect axis u, solved in closed form.  With c_i = d_i x u for the control
    differences d_i, the tangent's cross product with u is (over 3)
    c_0 s^2 + 2 c_1 s t + c_2 t^2 = A t^2 + B t + C.  The roots are q / A
    and C / q with q = -(B + sign(B) sqrt(B^2 - 4AC)) / 2, which never
    subtracts nearly equal terms (Numerical Recipes 5.6); A == 0 leaves the
    linear root -C / B.  When A, B and C are all within 1e-12 of zero,
    relative to the longest d_i, they are rounding noise: the tangent runs
    along u throughout and no root is taken."""
    d = np.diff(curve.control, axis=0).tolist()
    noise = 1e-12 * max(math.hypot(x, y) for x, y in d)
    roots: list[float] = []
    for a in (rect.angle, rect.angle + math.pi / 2.0):
        ux, uy = math.cos(a), math.sin(a)
        c0, c1, c2 = (x * uy - y * ux for x, y in d)
        qa, qb, qc = c0 - 2.0 * c1 + c2, 2.0 * (c1 - c0), c0
        if max(abs(qa), abs(qb), abs(qc)) <= noise:
            continue
        if qa == 0.0:
            roots.extend([-qc / qb] if qb else [])
            continue
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            # q == 0 leaves only the double root t = 0, outside the window
            roots.extend([q / qa, qc / q] if q else [])

    eps = 1e-4
    roots = sorted(r for r in roots if eps < r < 1.0 - eps)
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > eps:
            deduped.append(r)
    return deduped


def split_points(curve: BezierCurve, rect: OrientedRect) -> list[float]:
    """Cut parameters for a center curve: tangent-parallel points, filtered
    so a cut only lands once the tangent has turned at least
    PARALLEL_FILTER_RAD away from the running entry direction.  The first
    entry direction is the first control difference longer than 1e-9: the
    tangent's limit as t -> 0+, also where tangent(0) is zero.

    A cubic's tangent 3 * sum_i b_i(t) d_i mixes the control differences
    d_0, d_1, d_2 with Bernstein weights b_i(t) >= 0.  When every d_i is
    longer than 1e-9 and lies within PARALLEL_FILTER_RAD / 2 of d_0, every
    tangent lies in that cone about the entry direction 3 * d_0, so the
    filter rejects every root and no search runs.  The other half of the
    angle covers rounding: the d_i all point into the cone, so the mix
    cannot cancel."""
    d = np.diff(curve.control, axis=0).tolist()
    x0, y0 = d[0]
    if all(
        math.hypot(x, y) > 1e-9
        and abs(math.atan2(x0 * y - y0 * x, x0 * x + y0 * y)) <= PARALLEL_FILTER_RAD / 2.0
        for x, y in d
    ):
        return []
    x0, y0 = next((v for v in d if math.hypot(*v) > 1e-9), d[0])
    entry_angle = math.atan2(y0, x0)
    kept: list[float] = []
    for r in _tangent_parallel_params(curve, rect):
        tng = curve.tangent(r)
        ang = math.atan2(tng[1], tng[0])
        if _angle_diff_mod_pi(ang, entry_angle) < PARALLEL_FILTER_RAD:
            continue
        kept.append(r)
        entry_angle = ang
    return kept


def _apportion(lengths: list[float], total_chars: int) -> list[int]:
    """Whole characters per piece, proportional to arc length, each >= 1.
    Largest-remainder rounding with deterministic ties."""
    n = len(lengths)
    if total_chars < n:
        raise GeometryError(f"cannot place {total_chars} chars into {n} segments")
    total_len = sum(lengths)
    if total_len <= 0:
        counts = [total_chars // n] * n
        for i in range(total_chars - sum(counts)):
            counts[i] += 1
        return counts
    quotas = [total_chars * (l / total_len) for l in lengths]
    counts = [int(math.floor(q)) for q in quotas]
    left = total_chars - sum(counts)
    order = sorted(range(n), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in range(left):
        counts[order[i]] += 1
    # a sliver can round to zero; pull one char from the largest piece
    while any(c == 0 for c in counts):
        zi = counts.index(0)
        donor = max(range(n), key=lambda i: (counts[i], quotas[i], -i))
        counts[donor] -= 1
        counts[zi] += 1
    return counts


def divide_mask(poly: PolygonMask, text: str) -> list[QuadSegment]:
    """Cut a band-shaped mask into near-straight quads and hand each a
    contiguous run of the text, proportional to baseline arc length.

    Cuts happen where the center curve's tangent turns parallel to a
    min-area-rect axis; pieces merge (smallest first) until every piece
    can hold at least one character.
    """
    if len(text) == 0:
        raise InputError("cannot divide a mask for empty text")
    upper_c, lower_c, rect = fit_boundary_beziers(poly)
    base = baseline(upper_c, lower_c)
    cuts = [0.0] + split_points(base, rect) + [1.0]

    ts, cum = base.arc_lengths()

    def arc(u: float) -> float:
        return float(np.interp(u, ts, cum))

    pieces = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    lengths = [arc(b) - arc(a) for a, b in pieces]

    # merge smallest pieces until the text can cover every piece
    while len(pieces) > len(text):
        k = min(range(len(pieces)), key=lambda i: (lengths[i], i))
        if k == 0:
            j = 1
        elif k == len(pieces) - 1:
            j = k - 1
        else:
            j = k - 1 if lengths[k - 1] <= lengths[k + 1] else k + 1
        lo, hi = min(k, j), max(k, j)
        pieces[lo] = (pieces[lo][0], pieces[hi][1])
        lengths[lo] = lengths[lo] + lengths[hi]
        del pieces[hi]
        del lengths[hi]

    counts = _apportion(lengths, len(text))

    segments: list[QuadSegment] = []
    start = 0
    for idx, ((ua, ub), cnt) in enumerate(zip(pieces, counts)):
        a = base.point(ua)
        b = base.point(ub)
        chord = b - a
        norm = np.linalg.norm(chord)
        if norm < 1e-9:
            raise GeometryError(f"segment {idx} has a degenerate baseline chord")
        angle = math.atan2(chord[1], chord[0])
        us = np.linspace(ua, ub, 9)
        gap = np.linalg.norm(upper_c.point(us) - lower_c.point(us), axis=1)
        half_h = float(gap.mean()) / 2.0
        if half_h < 1e-9:
            raise GeometryError(f"segment {idx} has no height between boundaries")
        down = np.array([-math.sin(angle), math.cos(angle)]) * half_h
        corners = np.array([a - down, b - down, b + down, a + down])
        segments.append(
            QuadSegment(
                corners=corners,
                angle=angle,
                index=idx,
                text_slice=(start, start + cnt),
            )
        )
        start += cnt
    return segments


def flatten_segments(
    segments: list[QuadSegment], canvas: tuple[int, int]
) -> FlatLayout:
    """Lay segments out flat: rotate each to angle 0, scale uniformly to a
    shared text height, and pack left-to-right, top-to-bottom with a
    fixed gutter. Transforms map flat content back onto the quads."""
    if not segments:
        raise GeometryError("no segments to flatten")
    ch, cw = canvas
    heights = [seg.height for seg in segments]
    flat_h = float(np.mean(heights))
    if flat_h <= 0:
        raise GeometryError("segments have no height")

    rects = []
    transforms = []
    slices = []
    x = 0.0
    y = 0.0
    row_used = False
    for seg in segments:
        scale_to_flat = flat_h / seg.height
        w = seg.width * scale_to_flat
        if w > cw:
            need_w = int(math.ceil(w))
            raise LayoutError(
                f"segment {seg.index} needs a canvas at least {need_w} wide, have {cw}"
            )
        if row_used and x + w > cw:
            x = 0.0
            y += flat_h + PACK_GUTTER
            row_used = False
        if y + flat_h > ch:
            need_h = int(math.ceil(y + flat_h))
            raise LayoutError(
                f"layout needs a canvas at least {need_h} tall, have {ch}"
            )
        rect = (x, y, w, flat_h)
        # flat rect corner -> segment UL, with the segment's angle and the
        # inverse of the flat scaling
        back_scale = 1.0 / scale_to_flat
        c, s = math.cos(seg.angle), math.sin(seg.angle)
        rot = back_scale * np.array([[c, -s], [s, c]])
        t = seg.corners[0] - rot @ np.array([x, y])
        transforms.append(
            SimilarityTransform(back_scale, seg.angle, float(t[0]), float(t[1]))
        )
        rects.append(rect)
        slices.append(seg.text_slice)
        x += w + PACK_GUTTER
        row_used = True
    return FlatLayout(
        rects=tuple(rects),
        transforms=tuple(transforms),
        canvas=(int(ch), int(cw)),
        text_slices=tuple(slices),
    )


def _points_in_polygon(verts: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Even-odd crossing test over query points, shaped like xs and ys
    broadcast.  A block of edges meets every point at once; a point's hit
    count parity is the XOR of its hits."""
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    inside = np.zeros(shape, dtype=bool)
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    edges = max(1, PAIR_BLOCK // max(1, math.prod(shape)))
    # a block's edges run along a new leading axis, the points behind it
    at = (slice(None),) + (None,) * len(shape)
    for k in range(0, verts.shape[0], edges):
        e = slice(k, k + edges)
        ex1, ey1, ex2, ey2 = x1[e][at], y1[e][at], x2[e][at], y2[e][at]
        crosses = (ey1 > ys) != (ey2 > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ex1 + (ys - ey1) * (ex2 - ex1) / (ey2 - ey1)
            inside ^= np.logical_xor.reduce(crosses & (xs < xint), axis=0)
    return inside


def rasterize_mask(poly: PolygonMask, h: int, w: int, downscale: int = 1) -> RegionMask:
    """Binary (h/d, w/d) mask: a cell is 1 when its image-space center falls
    inside the polygon. Pixel (i, j) has its center at (x, y) = (j, i); a
    coarse cell centers on the mean of the fine pixels it covers."""
    if downscale < 1 or h % downscale or w % downscale:
        raise GeometryError(f"downscale {downscale} must divide canvas {(h, w)}")
    gh, gw = h // downscale, w // downscale
    # every cell of a row shares its y, so the crossings are per row
    xs = np.arange(gw)[None, :] * downscale + (downscale - 1) / 2.0
    ys = np.arange(gh)[:, None] * downscale + (downscale - 1) / 2.0
    inside = _points_in_polygon(poly.vertices, xs, ys)
    return RegionMask(inside.astype(np.float64))
