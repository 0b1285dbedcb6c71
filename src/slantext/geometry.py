"""Curved-region decomposition: boundary fitting, baseline splitting, and
flattening of mask segments into axis-aligned rectangles.

Coordinates are image-pixel (x, y) with y growing downward.  The one
orientation convention: a positive `grid.cross(a, b)` turns a toward b as +x
turns toward +y, which on screen is clockwise.  Positive angles turn the same
way and follow atan2(dy, dx), and canonical polygons wind that way too, so
their shoelace area is positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError, LayoutError
from .grid import MAX_CORNER, RegionMask, cross, frozen

# split candidates whose tangent stays within this of the segment entry
# direction are discarded: the curve has not actually turned
PARALLEL_FILTER_RAD = math.radians(5.0)

PACK_GUTTER = 4.0

# polyline points of arc lengths
ARC_SAMPLES = 257

# Most pairs one array pass holds: candidate edge pairs in the crossing
# check, (edge, row) crossings in the even-odd raster.  Each of their
# temporaries is then at most 128 KiB.  Four times as many raised the peak
# RSS of 240 curved generate cases by 3.8% and built masks no faster; see
# BENCH_10.json `pair_block`.
PAIR_BLOCK = 2**14


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise GeometryError(f"expected (N, 2) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise GeometryError("points must be finite")
    return pts


def polygon_area(points) -> float:
    """Signed shoelace area, positive for a canonical polygon (see the
    module docstring).  The sum runs on the vertices less the first one, so
    a small polygon far from the origin keeps its area instead of losing it
    to the rounding of huge products.  The first vertex is then (0, 0), and
    the two shoelace terms that touch it are zero and left out."""
    pts = _as_points(points)
    d = pts - pts[0]
    x, y = d[:, 0], d[:, 1]
    return 0.5 * float(np.sum(cross(x[1:-1], y[1:-1], x[2:], y[2:])))


def polygon_centroid(points) -> np.ndarray:
    """Shoelace centroid of a polygon's vertices."""
    pts = _as_points(points)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    terms = cross(x, y, xn, yn)
    a = 0.5 * terms.sum()
    cx = float(((x + xn) * terms).sum() / (6.0 * a))
    cy = float(((y + yn) * terms).sum() / (6.0 * a))
    return np.array([cx, cy])


def rotation_matrix(angle: float) -> np.ndarray:
    """2 x 2 matrix turning column vectors by `angle` radians, in the module
    docstring's sense.  Its columns are the unit axis at `angle` and that
    axis turned a quarter further."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotate_points(points, angle: float) -> np.ndarray:
    """Polygon vertices turned by `angle` radians (see rotation_matrix)
    about their shoelace centroid."""
    pts = _as_points(points)
    c = polygon_centroid(pts)
    return (pts - c) @ rotation_matrix(angle).T + c


def pixel_box(x, y, w, h) -> np.ndarray:
    """(UL, UR, LR, LL) corners of the w x h pixel rect whose top-left pixel
    is (x, y): pixels are centred on integers, so the edges lie half a pixel
    outside the outer pixel centres."""
    x0, x1, y0, y1 = x - 0.5, x + w - 0.5, y - 0.5, y + h - 0.5
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def _orient(a, b, c):
    """Twice the signed area of triangle abc, over (..., 2) point arrays:
    cross(b - a, c - a)."""
    ax, ay = a[..., 0], a[..., 1]
    return cross(b[..., 0] - ax, b[..., 1] - ay, c[..., 0] - ax, c[..., 1] - ay)


def _ranges(start: np.ndarray, stop: np.ndarray):
    """The pairs (p, q) with start[p] <= q < stop[p], in order of p then q,
    PAIR_BLOCK at a time: one (p, q) pair of arrays a block.  Flat pair k
    belongs to the p where k falls in the running sum of the range sizes."""
    cum = np.cumsum(stop - start)
    shift = cum - stop
    total = int(cum[-1])
    for k0 in range(0, total, PAIR_BLOCK):
        k = np.arange(k0, min(k0 + PAIR_BLOCK, total))
        p = np.searchsorted(cum, k, side="right")
        yield p, k - shift[p]


@dataclass(frozen=True)
class PolygonMask:
    """Simple polygon with >= 4 vertices and positive signed area.

    Two edges cross when they are not adjacent (edges i and i + 1 share a
    vertex, and so do the last and the first), their bounding boxes meet,
    closed in x and in y, and each edge's line has the other edge's end
    points on different sides: `_orient(a, b, end) > 0` for exactly one of
    them, so an end point on the line counts with the negative side.  Edges
    whose boxes lie apart never cross, however rounding falls, so a side
    split into collinear edges stays valid at any angle."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.vertices)
        if pts.shape[0] < 4:
            raise GeometryError(f"polygon needs >= 4 vertices, got {pts.shape[0]}")
        # far larger coordinates overflow the shoelace area to inf
        if not (np.abs(pts) <= MAX_CORNER).all():
            raise GeometryError("polygon vertices must lie within +-2^52")
        if polygon_area(pts) <= 0.0:
            raise GeometryError("polygon must have positive signed area (wrong winding?)")
        # Edge i runs from ends[i, 0] = pts[i] to ends[i, 1] = pts[i + 1],
        # and edge n-1 back to pts[0].  Sorted by left x, an edge's box can
        # meet only the later edges whose left x is at most its right x:
        # sorted edge p meets p < q < stop[p].
        n = pts.shape[0]
        ring = np.concatenate([pts, pts[:1]])
        ends = np.stack([ring[:-1], ring[1:]], axis=1)
        lo, hi = np.minimum(ring[:-1], ring[1:]), np.maximum(ring[:-1], ring[1:])
        order = np.argsort(lo[:, 0], kind="stable")
        stop = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
        ylo, yhi = lo[:, 1], hi[:, 1]
        for p, q in _ranges(np.arange(1, n + 1), stop):
            pair = order[[p, q]]
            i, j = pair
            # Keep the pairs whose closed y ranges meet too, but not adjacent
            # edges: a gap of n - 1 is the pair (0, n-1), which shares vertex 0.
            gap = np.abs(i - j)
            e = ends[pair[:, (gap > 1) & (gap < n - 1) & (ylo[i] <= yhi[j]) & (ylo[j] <= yhi[i])]]
            # e[0] holds the i edges and e[1] the j edges; side[0] is each i
            # line against its j edge's two ends, side[1] each j line against
            # its i edge's, and a crossing splits both (see the docstring).
            side = _orient(e[:, :, :1], e[:, :, 1:], e[::-1]) > 0
            splits = side[..., 0] != side[..., 1]
            if (splits[0] & splits[1]).any():
                raise GeometryError("polygon is self-intersecting")
        object.__setattr__(self, "vertices", frozen(pts))

    def translated(self, dx: float, dy: float) -> "PolygonMask":
        return PolygonMask(self.vertices + np.array([dx, dy]))

    def rotated(self, angle: float) -> "PolygonMask":
        """Rotate by `angle` radians about the centroid (see rotate_points)."""
        return PolygonMask(rotate_points(self.vertices, angle))


def _bernstein(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four cubic Bernstein weights of t, one array each."""
    s = 1.0 - t
    return s**3, 3 * s**2 * t, 3 * s * t**2, t**3


@dataclass(frozen=True)
class BezierCurve:
    """Cubic Bezier defined by 4 control points."""

    control: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.control)
        if pts.shape[0] != 4:
            raise GeometryError(f"cubic curve needs 4 control points, got {pts.shape[0]}")
        object.__setattr__(self, "control", frozen(pts))

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        # the weights along a last axis, filled in place: the same array
        # np.stack builds, at a fraction of its cost
        w = np.empty(t.shape + (4,))
        w[..., 0], w[..., 1], w[..., 2], w[..., 3] = _bernstein(t)
        return w @ self.control

    def tangent(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        s = 1.0 - t
        d = np.diff(self.control, axis=0)  # (3, 2)
        w = np.empty(t.shape + (3,))
        w[..., 0] = s**2
        w[..., 1] = 2 * s * t
        w[..., 2] = t**2
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
        # convexity and consistent turning direction: cross(b - a, c - b) at
        # every corner b
        corners = pts.tolist()
        ring = corners + corners[:2]
        signs = [
            cross(bx - ax, by - ay, cx - bx, cy - by)
            for (ax, ay), (bx, by), (cx, cy) in zip(ring, ring[1:], ring[2:])
        ]
        if abs(polygon_area(pts)) < 1e-12:
            raise GeometryError("segment quad has ~zero area")
        if not (all(s > 0 for s in signs) or all(s < 0 for s in signs)):
            raise GeometryError("segment quad must be convex")
        start, stop = self.text_slice
        if stop <= start:
            raise GeometryError(f"empty text slice {self.text_slice}")
        object.__setattr__(self, "corners", frozen(pts))

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
    """Monotone-chain hull, wound as the module docstring's canonical
    polygons are.  The chain runs over Python floats, whose products and
    differences are the same IEEE doubles as numpy's."""
    pts = _as_points(points)
    # the distinct rows sorted by x, then y: the order the chain walks in
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]
    if pts.shape[0] < 3:
        raise GeometryError("hull needs at least 3 distinct points")
    pts = pts.tolist()
    # the lower chain walks the points forward, the upper one backward; each
    # pops its last point a, o being the one before, until p lies a positive
    # turn past o -> a
    ring: list = []
    for walk in (pts, pts[::-1]):
        chain: list = []
        for p in walk:
            px, py = p
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if cross(ax - ox, ay - oy, px - ox, py - oy) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        ring += chain[:-1]
    hull = np.array(ring)
    if hull.shape[0] < 3:
        raise GeometryError("points are collinear, no hull area")
    return hull


def _edge_lengths(edges: np.ndarray) -> np.ndarray:
    """Length of each (x, y) row, as a batched (1, 2) @ (2, 1) dot: it rounds
    as `np.linalg.norm` on one row does, where an elementwise sum would
    not."""
    return np.sqrt(np.matmul(edges[:, None, :], edges[:, :, None]))[:, 0, 0]


def min_area_rect(points) -> OrientedRect:
    """Smallest-area enclosing rectangle via rotating calipers: the optimum
    is aligned with some hull edge, so each edge direction is tried, all in
    one stack.  Each edge's length is `_edge_lengths`' and its projections a
    batched (n, 2) @ (2, 1) gemv, which rounds as `hull @ d` on one edge
    does; one gemm would round differently.  The first edge wins a tie."""
    hull = convex_hull(_as_points(points))
    edges = np.concatenate([hull[1:], hull[:1]]) - hull
    norm = _edge_lengths(edges)
    keep = norm >= 1e-12
    d = edges[keep] / norm[keep, None]
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
    long axis; those edges are the band's end caps, not boundary.  Every
    edge is tested in one stack: its length is `_edge_lengths`', and its
    unit vector's reach along the axis a batched (1, 2) @ (2, 1) dot, which
    rounds as `e @ axis` on one edge does."""
    edges = np.diff(chain, axis=0)
    norm = _edge_lengths(edges)
    short = norm < 1e-12
    unit = edges / np.where(short, 1.0, norm)[:, None]
    along = np.abs(np.matmul(unit[:, None, :], axis[:, None]))[:, 0, 0]
    cap = (short | (along < math.cos(math.pi / 4.0))).tolist()
    lo, hi = 0, chain.shape[0]
    while hi - lo > 2 and cap[lo]:
        lo += 1
    while hi - lo > 2 and cap[hi - 2]:
        hi -= 1
    return chain[lo:hi]


def _boundary_chains(poly: PolygonMask) -> tuple[np.ndarray, np.ndarray, OrientedRect]:
    rect = min_area_rect(poly.vertices)
    # the unit long axis and its normal, copied into contiguous rows: a
    # strided operand can send the dots below to another BLAS kernel
    axis, perp = rotation_matrix(rect.long_axis_angle).T.copy()
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
    b0, b1, b2, b3 = _bernstein(t)
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
        c0, c1, c2 = (cross(x, y, ux, uy) for x, y in d)
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
    tangent's limit as t -> 0+, also where tangent(0) is zero."""
    d = np.diff(curve.control, axis=0).tolist()
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
        down = rotation_matrix(angle)[:, 1] * half_h
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
        rot = back_scale * rotation_matrix(seg.angle)
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
    """Even-odd crossing test at the (h, w) points of an ascending (1, w)
    column axis and an ascending (h, 1) row axis.  Edge e crosses the rows
    with (y1 > y) != (y2 > y), the rows r0[e] <= r < r1[e]; each crossing
    flips the cells left of it, a prefix of the row."""
    xs, ys = xs[0], ys[:, 0]
    ring = np.concatenate([verts, verts[:1]])
    x1, y1, x2, y2 = ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]
    r0 = np.searchsorted(ys, np.minimum(y1, y2))
    r1 = np.searchsorted(ys, np.maximum(y1, y2))
    # parity of the crossings per (row, prefix end)
    flips = np.zeros((ys.size, xs.size + 1), dtype=np.uint8)
    for e, r in _ranges(r0, r1):
        ex1, ey1 = x1[e], y1[e]
        xint = ex1 + (ys[r] - ey1) * (x2[e] - ex1) / (y2[e] - ey1)
        np.bitwise_xor.at(flips, (r, np.searchsorted(xs, xint)), 1)
    # a cell's flips are those whose prefix ends right of it
    return np.bitwise_xor.accumulate(flips[:, :0:-1], axis=1)[:, ::-1].view(bool)


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
