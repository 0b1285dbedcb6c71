"""Geometry: hulls, min-area rects, boundary fitting, mask division,
flattening, rasterization."""
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slantext import geometry
from slantext.bench import generate_benchmark
from slantext.corpus import build_corpus
from slantext.errors import GeometryError, InputError, LayoutError, SlantextError
from slantext.geometry import (
    BezierCurve,
    FlatLayout,
    OrientedRect,
    PolygonMask,
    SimilarityTransform,
    PARALLEL_FILTER_RAD,
    _angle_diff_mod_pi,
    _apportion,
    _points_in_polygon,
    _tangent_parallel_params,
    baseline,
    convex_hull,
    divide_mask,
    fit_boundary_beziers,
    flatten_segments,
    min_area_rect,
    polygon_area,
    rasterize_mask,
    split_points,
)
from slantext.glyph import render_glyph_image
from slantext.guidance import generate


def rect_polygon(cx, cy, w, h, angle=0.0):
    """Rotated rectangle with UL,UR,LR,LL order (positive shoelace, y-down)."""
    hw, hh = w / 2.0, h / 2.0
    base = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return PolygonMask(base @ rot.T + np.array([cx, cy]))


def arc_band(center=(80.0, 160.0), r_in=115.5, r_out=130.5,
             th0=-98.0, th1=-82.0, k=24):
    """Annulus sector: a rainbow-shaped band bulging toward -y."""
    th = np.radians(np.linspace(th0, th1, k))
    c = np.asarray(center, dtype=np.float64)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    verts = np.vstack([c + r_out * ring, c + r_in * ring[::-1]])
    if polygon_area(verts) < 0:
        verts = verts[::-1]
    return PolygonMask(verts)


class TestPolygonMask:
    def test_square_area_centroid(self):
        p = rect_polygon(5.0, 7.0, 4.0, 2.0)
        assert p.area == pytest.approx(8.0)
        assert p.centroid == pytest.approx([5.0, 7.0])

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            PolygonMask([[0, 0], [4, 0], [2, 3]])

    def test_wrong_winding(self):
        verts = rect_polygon(0, 0, 4, 2).vertices[::-1]
        with pytest.raises(GeometryError):
            PolygonMask(verts)

    def test_self_intersection(self):
        with pytest.raises(GeometryError):
            PolygonMask([[0, 0], [4, 4], [4, 0], [0, 4]])

    def test_rotation_preserves_area(self):
        p = rect_polygon(10, 10, 6, 3)
        q = p.rotated(0.7)
        assert q.area == pytest.approx(p.area)
        assert q.centroid == pytest.approx(p.centroid, abs=1e-9)

    def test_contains(self):
        p = rect_polygon(5, 5, 4, 4)
        xs = np.array([5.0, 5.0, 20.0])
        ys = np.array([5.0, 6.9, 5.0])
        assert _points_in_polygon(p.vertices, xs, ys).tolist() == [True, True, False]


def crossing_oracle(verts) -> bool:
    """Reference crossing rule: every pair of non-adjacent edges, one pair at
    a time; a pair crosses when each edge's end points fall strictly on
    different sides of the other's line (`> 0` on both orientations)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def properly_intersect(p1, p2, p3, p4):
        d1 = orient(p3, p4, p1)
        d2 = orient(p3, p4, p2)
        d3 = orient(p1, p2, p3)
        d4 = orient(p1, p2, p4)
        return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))

    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) in (1, n - 1):
                continue  # adjacent edges share a vertex
            if properly_intersect(verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]):
                return True
    return False


# PAIR_BLOCK values for the array passes: one row or edge per block; blocks
# of 2-6 rows that split the 4-12 vertex polygons below, or of 3 edges over
# the 256 pixel centres of a 16 x 16 raster; and the default
BLOCKS = [1, 24, 800, geometry.PAIR_BLOCK]


def assert_matches_crossing_oracle(verts):
    verts = np.asarray(verts, dtype=np.float64)
    area = polygon_area(verts)
    assume(area != 0.0)
    if area < 0:
        verts = verts[::-1]
    crosses = crossing_oracle(verts)
    for block in BLOCKS:
        with mock.patch.object(geometry, "PAIR_BLOCK", block):
            if crosses:
                with pytest.raises(GeometryError, match="self-intersecting"):
                    PolygonMask(verts)
            else:
                PolygonMask(verts)


class TestSelfIntersection:
    # Small lattices make orient() exactly 0 often: collinear edges, a vertex
    # touching another edge, a vertex visited twice.
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=4, max_size=12))
    @example([(0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)])  # tip on an edge
    @example([(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)])  # shared vertex
    @example([(0, 0), (4, 0), (4, 2), (2, 2), (2, 0), (1, 0), (1, 2), (0, 2)])  # collinear
    @example([(0, 0), (4, 0), (4, 4), (0, 4)])  # square
    def test_lattice_matches_oracle(self, verts):
        assert_matches_crossing_oracle(verts)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2**32 - 1))
    def test_gaussian_matches_oracle(self, n, seed):
        assert_matches_crossing_oracle(np.random.default_rng(seed).normal(size=(n, 2)))

    @pytest.mark.parametrize("verts", [
        [(3, 0), (5, 1), (5, 6), (3, 5), (2, 6), (4, 0)],  # crosses at (0, n-2) only
        [(5, 2), (4, 0), (5, 5), (3, 4), (0, 4), (3, 0)],  # crosses at (1, n-1) only
    ])
    def test_pairs_beside_the_wrap_pair_are_checked(self, verts):
        # the pair (0, n-1) is skipped as adjacent, but not the rest of row 0
        # or of column n-1, whichever block holds them
        assert crossing_oracle(np.asarray(verts, dtype=np.float64))
        for block in BLOCKS:
            with mock.patch.object(geometry, "PAIR_BLOCK", block):
                with pytest.raises(GeometryError, match="self-intersecting"):
                    PolygonMask(verts)


def even_odd_oracle(verts, xs, ys):
    """Reference even-odd rule: one edge at a time over all query points."""
    inside = np.zeros(xs.shape, dtype=bool)
    n = verts.shape[0]
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = (y1 > ys) != (y2 > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (xs < np.where(crosses, xint, np.inf))
    return inside


# half-pixel lattice on a 16 x 16 canvas: the pixel centres at downscale 1
# (integers) and 4 (1.5 + 4k) are on it, and so are horizontal edges
half_lattice = st.lists(
    st.tuples(st.integers(-2, 34), st.integers(-2, 34)).map(lambda p: (p[0] / 2, p[1] / 2)),
    min_size=3, max_size=14,
)


class TestEvenOdd:
    @settings(max_examples=300, deadline=None)
    @given(half_lattice)
    @example([(1.0, 1.0), (5.0, 1.0), (5.0, 5.0), (1.0, 5.0)])  # edges through centres
    @example([(0.0, 2.0), (8.0, 2.0), (8.0, 2.0), (4.0, 9.0)])  # repeated vertex
    def test_points_match_oracle(self, verts):
        # any vertex list, self-crossing ones too, at every pixel centre
        verts = np.asarray(verts, dtype=np.float64)
        xs, ys = np.meshgrid(np.arange(16.0), np.arange(16.0))
        want = even_odd_oracle(verts, xs, ys)
        for block in BLOCKS:
            with mock.patch.object(geometry, "PAIR_BLOCK", block):
                assert np.array_equal(_points_in_polygon(verts, xs, ys), want)
                # a row and a column broadcast to the same points
                assert np.array_equal(_points_in_polygon(verts, xs[:1], ys[:, :1]), want)

    @settings(max_examples=300, deadline=None)
    @given(half_lattice.filter(lambda v: len(set(v)) >= 4))
    def test_rasterize_matches_oracle(self, verts):
        # a star-shaped polygon: the lattice points in angle order about the
        # canvas centre, so most draws are simple
        verts = np.asarray(sorted(set(verts), key=lambda p: math.atan2(p[1] - 8, p[0] - 8)))
        assume(polygon_area(verts) > 0.0)
        try:
            poly = PolygonMask(verts)
        except GeometryError:
            assume(False)
        for d in (1, 4):
            js, is_ = np.meshgrid(np.arange(16 // d), np.arange(16 // d))
            want = even_odd_oracle(poly.vertices, js * d + (d - 1) / 2.0, is_ * d + (d - 1) / 2.0)
            for block in BLOCKS:
                with mock.patch.object(geometry, "PAIR_BLOCK", block):
                    got = rasterize_mask(poly, 16, 16, downscale=d).data
                assert np.array_equal(got, want.astype(np.float64))


def hull_oracle(points):
    """Reference monotone chain over numpy rows."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

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
    return np.array(lower[:-1] + upper[:-1])


class TestConvexHull:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=30),
        st.sampled_from([1.0, 0.1, 1e-3, -7.3]),
    )
    @example([(0, 0), (1, 1), (2, 2), (3, 3), (3, 0), (3, 0), (0, 3)], 0.1)  # runs, duplicate
    def test_matches_numpy_row_chain(self, pts, scale):
        # lattice points repeat and line up often; scaled, their differences
        # and products round
        pts = np.asarray(pts, dtype=np.float64) * scale
        want = hull_oracle(pts)
        if want.shape[0] < 3:
            with pytest.raises(GeometryError):
                convex_hull(pts)
            return
        assert np.array_equal(convex_hull(pts), want)

    def test_square_with_interior(self):
        pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10],
                        [5, 5], [2, 7], [8, 3]], dtype=float)
        hull = convex_hull(pts)
        assert hull.shape == (4, 2)
        assert {tuple(p) for p in hull} == {(0, 0), (10, 0), (10, 10), (0, 10)}

    def test_collinear_raises(self):
        with pytest.raises(GeometryError):
            convex_hull([[0, 0], [1, 1], [2, 2], [3, 3]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hull_contains_all_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-50, 50, size=(rng.integers(4, 25), 2))
        try:
            hull = convex_hull(pts)
        except GeometryError:
            return  # collinear draw
        n = hull.shape[0]
        for i in range(n):
            a, b = hull[i], hull[(i + 1) % n]
            cross = ((b[0] - a[0]) * (pts[:, 1] - a[1])
                     - (b[1] - a[1]) * (pts[:, 0] - a[0]))
            assert (cross >= -1e-7).all()


def sweep_min_area(pts, step_deg=0.01):
    """Brute-force reference: minimize bounding-box area over a fine grid
    of orientations."""
    th = np.radians(np.arange(0.0, 90.0, step_deg))
    c, s = np.cos(th), np.sin(th)
    x, y = pts[:, 0], pts[:, 1]
    pu = np.outer(c, x) + np.outer(s, y)
    pv = np.outer(-s, x) + np.outer(c, y)
    areas = (pu.max(axis=1) - pu.min(axis=1)) * (pv.max(axis=1) - pv.min(axis=1))
    return float(areas.min())


class TestMinAreaRect:
    @pytest.mark.parametrize("seed", [7, 19, 84])
    def test_matches_rotation_sweep_on_decagons(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 100.0, size=(10, 2))
        rect = min_area_rect(pts)
        ref = sweep_min_area(pts)
        assert rect.area <= ref + 1e-6
        assert ref - rect.area <= 1e-4 * ref

    @pytest.mark.parametrize("seed", [3, 11])
    def test_contains_all_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-30.0, 30.0, size=(12, 2))
        rect = min_area_rect(pts)
        d = np.array([math.cos(rect.angle), math.sin(rect.angle)])
        n = np.array([-d[1], d[0]])
        rel = pts - rect.center
        assert (np.abs(rel @ d) <= rect.size[0] / 2 + 1e-9).all()
        assert (np.abs(rel @ n) <= rect.size[1] / 2 + 1e-9).all()

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.0, 1.4, 2.2, 3.0])
    def test_rotated_rectangle_exact(self, angle):
        poly = rect_polygon(32, 32, 40, 10, angle)
        rect = min_area_rect(poly.vertices)
        assert rect.area == pytest.approx(400.0, abs=1e-6)
        assert sorted(rect.size) == pytest.approx([10.0, 40.0], abs=1e-9)
        diff = abs(rect.long_axis_angle - angle % math.pi) % math.pi
        assert min(diff, math.pi - diff) < 1e-9
        assert rect.center == pytest.approx([32.0, 32.0], abs=1e-9)


def calipers_oracle(points):
    """Reference min_area_rect: one edge at a time, a norm and two gemvs per
    edge, and the first edge within 1e-12 of the running best keeps it."""
    hull = convex_hull(points)
    best = None
    n = hull.shape[0]
    for i in range(n):
        edge = hull[(i + 1) % n] - hull[i]
        norm = np.linalg.norm(edge)
        if norm < 1e-12:
            continue
        d = edge / norm
        nvec = np.array([-d[1], d[0]])
        pu = hull @ d
        pv = hull @ nvec
        su = pu.max() - pu.min()
        sv = pv.max() - pv.min()
        area = su * sv
        if best is None or area < best[0] - 1e-12:
            cu = (pu.max() + pu.min()) / 2.0
            cv = (pv.max() + pv.min()) / 2.0
            center = d * cu + nvec * cv
            best = (area, center, su, sv, math.atan2(d[1], d[0]))
    if best is None:
        raise GeometryError("degenerate point set for min-area rect")
    _, center, su, sv, angle = best
    return OrientedRect(center=center, size=(float(su), float(sv)), angle=float(angle % math.pi))


def assert_calipers_match(points):
    try:
        want = calipers_oracle(points)
    except GeometryError:
        with pytest.raises(GeometryError):
            min_area_rect(points)
        return
    got = min_area_rect(points)
    assert got.center.tobytes() == want.center.tobytes()
    assert [x.hex() for x in got.size] == [x.hex() for x in want.size]
    assert got.angle.hex() == want.angle.hex()


class TestCalipersBitwise:
    # The stacked products must round as the per-edge norm and gemvs do:
    # these rects pick the text axis of every mask, so a last-bit change
    # moves divide_mask's cuts and the generated images.

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
            min_size=3, max_size=40,
        )
    )
    @example([(0.0, 0.0), (0.0, 1e-38), (1e-38, 0.0)])  # every edge under 1e-12
    def test_point_clouds(self, pts):
        # collinear and degenerate clouds must raise on both sides
        assert_calipers_match(np.asarray(pts))

    def test_square_ties_go_to_the_first_edge(self):
        # all four edges give area 100: the first hull edge, (0,0)->(10,0), wins
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0], [4.0, 6.0]])
        assert_calipers_match(pts)
        rect = min_area_rect(pts)
        assert rect.angle == 0.0 and rect.size == (10.0, 10.0)

    @pytest.mark.parametrize("seed", [0, 1, 101])
    def test_gate_rectangles(self, seed):
        for case in generate_benchmark(per_tier_count=10, rng_seed=seed):
            assert_calipers_match(case.mask.vertices)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["arc", "s"]),
        st.integers(4, 128),
        st.floats(15.0, 120.0),
        st.floats(2.0, 12.0),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
    )
    def test_curved_bands(self, kind, k, size, thickness, bend, tilt):
        assert_calipers_match(band_vertices(kind, k, size, thickness, bend, tilt) + (31.5, 31.5))

    def test_arc_band(self):
        assert_calipers_match(arc_band().vertices)


class TestBoundaryFit:
    def test_arc_band_boundaries_follow_circles(self):
        band = arc_band()
        upper, lower, _ = fit_boundary_beziers(band)
        center = np.array([80.0, 160.0])
        ts = np.linspace(0.0, 1.0, 200)
        # band length ~ 130.5 * 16deg ~ 36px; residual budget is 2% of that
        tol = 0.02 * (130.5 * math.radians(16.0))
        r_up = np.linalg.norm(upper.point(ts) - center, axis=1)
        r_lo = np.linalg.norm(lower.point(ts) - center, axis=1)
        assert np.abs(r_up - 130.5).max() < tol
        assert np.abs(r_lo - 115.5).max() < tol

    def test_upper_is_smaller_y_side(self):
        band = arc_band()
        upper, lower, _ = fit_boundary_beziers(band)
        assert upper.point(0.5)[1] < lower.point(0.5)[1]

    def test_rectangle_boundaries_are_sides(self):
        poly = rect_polygon(32, 32, 40, 10)
        upper, lower, rect = fit_boundary_beziers(poly)
        assert rect.area == pytest.approx(400.0, abs=1e-6)
        ts = np.linspace(0, 1, 50)
        assert upper.point(ts)[:, 1] == pytest.approx(np.full(50, 27.0), abs=1e-9)
        assert lower.point(ts)[:, 1] == pytest.approx(np.full(50, 37.0), abs=1e-9)
        assert upper.point(0.0) == pytest.approx([12.0, 27.0])
        assert upper.point(1.0) == pytest.approx([52.0, 27.0])

    def test_baseline_is_control_average(self):
        band = arc_band()
        upper, lower, _ = fit_boundary_beziers(band)
        base = baseline(upper, lower)
        assert base.control == pytest.approx((upper.control + lower.control) / 2)


class TestSplitPoints:
    # S-curve with horizontal tangents at t = (3 +/- sqrt(3)) / 6, from
    # solving 6t^2 - 6t + 1 = 0 for the derivative's y component
    S_CURVE = BezierCurve(np.array([[0.0, 0.0], [40.0, -30.0],
                                    [80.0, 30.0], [120.0, 0.0]]))
    AXES = OrientedRect(center=np.array([60.0, 0.0]), size=(120.0, 60.0), angle=0.0)

    def test_tangent_roots_match_analytic(self):
        roots = _tangent_parallel_params(self.S_CURVE, self.AXES)
        expect = [(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6]
        assert len(roots) == 2
        assert roots == pytest.approx(expect, abs=1e-6)

    def test_entry_direction_filter(self):
        # second root's tangent matches the direction set at the first cut,
        # so only the first survives
        kept = split_points(self.S_CURVE, self.AXES)
        assert kept == pytest.approx([(3 - math.sqrt(3)) / 6], abs=1e-6)

    def test_straight_line_has_no_splits(self):
        line = BezierCurve(np.array([[0.0, 0.0], [10.0, 5.0],
                                     [20.0, 10.0], [30.0, 15.0]]))
        rect = OrientedRect(center=np.array([15.0, 7.5]), size=(30.0, 5.0),
                            angle=math.atan2(15.0, 30.0))
        assert split_points(line, rect) == []


def scan_oracle(curve, rect):
    """Reference turn search: the tangent's cross product with each rect
    axis on a 512-step grid, exact zeros kept, each sign change refined by
    60 scalar bisections, then the (1e-4, 1 - 1e-4) window and the dedupe."""
    ts = np.linspace(0.0, 1.0, 512 + 1)
    tang = curve.tangent(ts)
    roots = []
    for a in (rect.angle, rect.angle + math.pi / 2.0):
        d = np.array([math.cos(a), math.sin(a)])
        f = tang[:, 0] * d[1] - tang[:, 1] * d[0]
        for i in range(512):
            if f[i] == 0.0:
                if 0 < i < 512:
                    roots.append(float(ts[i]))
                continue
            if f[i] * f[i + 1] < 0.0:
                lo, hi = float(ts[i]), float(ts[i + 1])
                flo = float(f[i])
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    tm = curve.tangent(mid)
                    fm = float(tm[0] * d[1] - tm[1] * d[0])
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm > 0) == (flo > 0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                roots.append(0.5 * (lo + hi))
    deduped = []
    for r in sorted(r for r in roots if 1e-4 < r < 1.0 - 1e-4):
        if not deduped or r - deduped[-1] > 1e-4:
            deduped.append(r)
    return deduped


def full_search_oracle(curve, rect):
    """Reference split_points: `scan_oracle` on every curve, then the
    entry-direction filter, entered along the first control difference
    longer than 1e-9."""
    diffs = np.diff(curve.control, axis=0)
    entry = next((v for v in diffs if np.hypot(*v) > 1e-9), diffs[0])
    entry_angle = math.atan2(entry[1], entry[0])
    kept = []
    for r in scan_oracle(curve, rect):
        tng = curve.tangent(r)
        ang = math.atan2(tng[1], tng[0])
        if _angle_diff_mod_pi(ang, entry_angle) < PARALLEL_FILTER_RAD:
            continue
        kept.append(r)
        entry_angle = ang
    return kept


def assert_roots_close(got, want):
    # the closed form and the bisection land within a few ulps of each other
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-15 for g, w in zip(got, want))


def turned_curve(start, tilt, lengths, turns):
    """Cubic whose control differences have the given lengths and turn by
    the given angles from the first one, which runs at `tilt`."""
    p = [np.asarray(start, dtype=np.float64)]
    for length, turn in zip(lengths, (0.0,) + tuple(turns)):
        p.append(p[-1] + length * np.array([math.cos(tilt + turn), math.sin(tilt + turn)]))
    return BezierCurve(np.array(p))


def assert_matches_full_search(curve, rect):
    assert_roots_close(split_points(curve, rect), full_search_oracle(curve, rect))


class TestSplitSearch:
    CONE = PARALLEL_FILTER_RAD / 2.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
        st.lists(st.floats(0.5, 200.0), min_size=3, max_size=3),
        st.floats(-50.0, 50.0),
    )
    def test_straight_baseline_at_any_tilt_has_no_cuts(self, tilt, rect_angle, lengths, x0):
        # the baselines of rotated rectangles: the cross product is rounding
        # noise, and any root it has runs along the entry direction, so the
        # filter drops it; the rect runs along the line or at any other angle
        curve = turned_curve((x0, 7.0), tilt, lengths, (0.0, 0.0))
        for angle in (tilt % math.pi, rect_angle % math.pi):
            rect = OrientedRect(center=np.zeros(2), size=(40.0, 10.0), angle=angle)
            assert split_points(curve, rect) == [] == full_search_oracle(curve, rect)

    @pytest.mark.parametrize("factor,leaves_cone", [(0.9, False), (1.1, True), (2.0, True)])
    @pytest.mark.parametrize("shape", ["bend", "back", "s"])
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-math.pi, math.pi),
        st.lists(st.floats(1.0, 80.0), min_size=3, max_size=3),
        st.sampled_from([1.0, -1.0]),
    )
    def test_turns_around_the_cone_edge(self, factor, leaves_cone, shape, tilt, lengths, side):
        # the widest turn of d_1, d_2 from d_0 is `factor` times the cone's
        # half angle, to either side; near the edge, both sides must agree.
        # Inside the cone every tangent mixes directions within it, so none
        # turns far enough from the entry direction to cut.
        turn = side * factor * self.CONE
        turns = {"bend": (turn / 2.0, turn), "back": (turn, turn / 3.0), "s": (-turn / 2.0, turn)}[shape]
        curve = turned_curve((3.0, -2.0), tilt, lengths, turns)
        for angle in (tilt % math.pi, (tilt + turn) % math.pi):
            rect = OrientedRect(center=np.zeros(2), size=(40.0, 10.0), angle=angle)
            assert_matches_full_search(curve, rect)
            if not leaves_cone:
                assert split_points(curve, rect) == []

    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_zero_length_difference_runs_full_search(self, zero):
        lengths = [30.0, 30.0, 30.0]
        lengths[zero] = 0.0
        curve = turned_curve((0.0, 0.0), 0.3, lengths, (0.0, 0.0))
        rect = OrientedRect(center=np.zeros(2), size=(90.0, 10.0), angle=0.3)
        assert_matches_full_search(curve, rect)
        assert split_points(curve, rect) == []

    def test_root_on_a_grid_sample_is_kept(self):
        # symmetric about t = 0.5, so the tangent there is exactly
        # horizontal: an exact zero of the sampled cross product, not a sign
        # change, and 45 degrees from the entry direction
        curve = BezierCurve(np.array([[0.0, 0.0], [10.0, -10.0], [20.0, -10.0], [30.0, 0.0]]))
        rect = OrientedRect(center=np.zeros(2), size=(30.0, 8.0), angle=0.0)
        assert_matches_full_search(curve, rect)
        assert split_points(curve, rect) == [0.5]

    def test_s_curve_cuts_match_full_search(self):
        curve, rect = TestSplitPoints.S_CURVE, TestSplitPoints.AXES
        assert_matches_full_search(curve, rect)
        assert len(split_points(curve, rect)) == 1

    def test_entry_runs_along_the_first_long_difference(self):
        # tangent(0) is zero here; its limit as t -> 0+ runs along d_1 at
        # 0.3 rad, so roots whose tangent runs that way are no turn, although
        # they lie 0.3 rad from atan2(0, 0) = 0
        curve = turned_curve((0.0, 0.0), 0.3, [0.0, 30.0, 30.0], (0.0, 0.0))
        rect = OrientedRect(center=np.zeros(2), size=(90.0, 10.0), angle=0.3)
        with mock.patch.object(geometry, "_tangent_parallel_params", lambda c, r: [0.25, 0.5]):
            assert split_points(curve, rect) == []


# The tangent's cross product with the x axis, over 3, has Bernstein
# coefficients c_i = -d_i,y: A = c_0 - 2 c_1 + c_2, B = 2 (c_1 - c_0) and
# C = c_0.  The d_i run 10 along x, so the tangent is never vertical.
X_AXIS = OrientedRect(center=np.zeros(2), size=(40.0, 10.0), angle=0.0)


def cross_curve(c, scale=1.0):
    ys = np.cumsum([0.0] + [-scale * ci for ci in c])
    return BezierCurve(np.stack([10.0 * np.arange(4), ys], axis=1))


class TestClosedFormTurns:
    def test_double_root_between_samples(self):
        # (s - 2t)^2 touches zero at t = 1/3 and never changes sign
        curve = cross_curve((1.0, -2.0, 4.0))
        assert scan_oracle(curve, X_AXIS) == []
        assert_roots_close(_tangent_parallel_params(curve, X_AXIS), [1.0 / 3.0])

    def test_two_roots_inside_one_sample_interval(self):
        # 2^26 (t - 2457/8192)(t - 2459/8192): both roots lie in
        # [153/512, 154/512], where the grid samples share a sign
        a, b = 2457 / 8192, 2459 / 8192
        c0 = 2457 * 2459
        c1 = c0 - 8192 * (2457 + 2459) // 2
        curve = cross_curve((c0, c1, 2**26 + 2 * c1 - c0), scale=2.0**-22)
        assert scan_oracle(curve, X_AXIS) == []
        assert _tangent_parallel_params(curve, X_AXIS) == [a, b]

    def test_linear_tangent_cross(self):
        # A == 0 exactly: the root of B t + C
        curve = cross_curve((1.0, -0.5, -2.0))
        assert_roots_close(_tangent_parallel_params(curve, X_AXIS), [1.0 / 3.0])
        assert_roots_close(_tangent_parallel_params(curve, X_AXIS), scan_oracle(curve, X_AXIS))

    def test_small_root_beside_a_far_one_keeps_its_digits(self):
        # A = 2^-40, B = -1, C = 3/8: B^2 >> 4AC, so -B - sqrt(B^2 - 4AC)
        # cancels; the far root lies near 2^40
        curve = cross_curve((0.375, -0.125, 2.0**-40 - 0.625))
        want = scan_oracle(curve, X_AXIS)
        assert len(want) == 1
        assert_roots_close(_tangent_parallel_params(curve, X_AXIS), want)
        # the textbook (-B - sqrt(D)) / 2A loses the digits the closed form keeps
        disc = 1.0 - 4.0 * 2.0**-40 * 0.375
        assert abs((1.0 - math.sqrt(disc)) / 2.0**-39 - want[0]) > 1e-14

    def test_tangent_along_the_axis_has_no_roots(self):
        # the cross product is exactly zero at every sample, so the scan
        # keeps a root every 1/512 that the filter has to drop
        line = cross_curve((0.0, 0.0, 0.0))
        assert len(scan_oracle(line, X_AXIS)) > 400
        assert _tangent_parallel_params(line, X_AXIS) == []

    @pytest.mark.parametrize("lengths", [[0.0, 30.0, 30.0], [30.0, 30.0, 30.0], [10.0, 20.0, 40.0]])
    def test_rounding_noise_along_the_axis_has_no_roots(self, lengths):
        # straight baselines against a rect along them: the cross product is
        # rounding noise that flips sign along the curve, and at some tilts
        # the noise quadratic has roots inside the window
        for tilt in np.linspace(0.05, 3.1, 40):
            curve = turned_curve((0.0, 0.0), tilt, lengths, (0.0, 0.0))
            rect = OrientedRect(center=np.zeros(2), size=(90.0, 10.0), angle=float(tilt))
            assert _tangent_parallel_params(curve, rect) == []
        # the spurious-cut case: the scan keeps hundreds of noise roots
        curve = turned_curve((0.0, 0.0), 0.3, [0.0, 30.0, 30.0], (0.0, 0.0))
        rect = OrientedRect(center=np.zeros(2), size=(90.0, 10.0), angle=0.3)
        assert len(scan_oracle(curve, rect)) > 100


class TestDivideMask:
    @pytest.mark.parametrize("angle_deg", [0, 10, 25, 40, 55, 70, 85])
    def test_rotated_rectangle_single_segment(self, angle_deg):
        angle = math.radians(angle_deg)
        poly = rect_polygon(32.0, 32.0, 40.0, 10.0, angle)
        segs = divide_mask(poly, "HELLO")
        assert len(segs) == 1
        seg = segs[0]
        diff = abs(seg.angle - angle) % math.pi
        assert min(diff, math.pi - diff) < 1e-3
        assert seg.width == pytest.approx(40.0, abs=1e-6)
        assert seg.height == pytest.approx(10.0, abs=1e-6)
        assert seg.corners == pytest.approx(poly.vertices, abs=1e-6)
        assert seg.text_slice == (0, 5)

    def test_arc_band_two_segments(self):
        segs = divide_mask(arc_band(), "ABCDEF")
        assert len(segs) == 2
        assert [s.index for s in segs] == [0, 1]
        assert [s.text_slice for s in segs] == [(0, 3), (3, 6)]
        # chord angles: first half climbs, second half descends (y-down)
        assert segs[0].angle < 0 < segs[1].angle

    def test_merges_when_text_is_short(self):
        segs = divide_mask(arc_band(), "A")
        assert len(segs) == 1
        assert segs[0].text_slice == (0, 1)

    def test_empty_text_raises(self):
        with pytest.raises(InputError):
            divide_mask(arc_band(), "")

    def test_segment_coverage_of_mask(self):
        band = arc_band()
        segs = divide_mask(band, "ABCDEF")
        mask = rasterize_mask(band, 160, 160)
        quads = np.zeros((160, 160))
        for s in segs:
            quads = np.maximum(quads, rasterize_mask(PolygonMask(s.corners), 160, 160).data)
        covered = (mask.data * quads).sum()
        assert covered / mask.data.sum() >= 0.95


class TestApportion:
    def test_proportional(self):
        assert _apportion([30.0, 10.0], 4) == [3, 1]
        assert _apportion([10.0, 30.0], 4) == [1, 3]

    def test_minimum_one_each(self):
        assert _apportion([100.0, 1.0], 2) == [1, 1]

    def test_tie_goes_to_lower_index(self):
        assert _apportion([10.0, 10.0], 3) == [2, 1]

    def test_too_few_chars_raises(self):
        with pytest.raises(GeometryError):
            _apportion([1.0, 1.0, 1.0], 2)


class TestSimilarityTransform:
    def test_known_mapping(self):
        t = SimilarityTransform(2.0, math.pi / 2, 1.0, 0.0)
        out = t.apply(np.array([[1.0, 0.0]]))
        assert out[0] == pytest.approx([1.0, 2.0], abs=1e-12)


class TestFlattenSegments:
    def test_round_trip_corners(self):
        segs = divide_mask(arc_band(), "ABCDEF")
        layout = flatten_segments(segs, (64, 128))
        assert len(layout.rects) == 2
        for seg, (x, y, w, h), tf in zip(segs, layout.rects, layout.transforms):
            flat_corners = np.array([[x, y], [x + w, y], [x + w, y + h], [x, y + h]])
            assert tf.apply(flat_corners) == pytest.approx(seg.corners, abs=0.5)

    def test_common_height_and_gutter(self):
        segs = divide_mask(arc_band(), "ABCDEF")
        layout = flatten_segments(segs, (64, 128))
        (x0, y0, w0, h0), (x1, y1, w1, h1) = layout.rects
        assert h0 == h1
        assert y0 == y1 == 0.0
        assert x1 == pytest.approx(x0 + w0 + 4.0)
        assert layout.text_slices == ((0, 3), (3, 6))

    def test_wraps_to_next_row(self):
        segs = divide_mask(arc_band(), "ABCDEF")
        layout = flatten_segments(segs, (64, 30))
        (_, y0, _, h0), (x1, y1, _, _) = layout.rects
        assert x1 == 0.0
        assert y1 == pytest.approx(y0 + h0 + 4.0)

    def test_canvas_too_small_raises(self):
        segs = divide_mask(arc_band(), "ABCDEF")
        with pytest.raises(LayoutError, match="wide"):
            flatten_segments(segs, (64, 15))
        with pytest.raises(LayoutError, match="tall"):
            flatten_segments(segs, (10, 30))

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            flatten_segments([], (64, 64))


class TestRasterizeMask:
    def test_square_cell_centers(self):
        poly = PolygonMask([[2.0, 3.0], [9.0, 3.0], [9.0, 8.0], [2.0, 8.0]])
        mask = rasterize_mask(poly, 12, 12)
        assert mask.data.sum() == 35  # 7 columns x 5 rows of centers
        assert mask.data[3:8, 2:9].all()
        assert mask.data[:3].sum() == 0 and mask.data[8:].sum() == 0

    def test_downscale_matches_coarse_centers(self):
        poly = PolygonMask([[8.0, 8.0], [56.0, 8.0], [56.0, 40.0], [8.0, 40.0]])
        coarse = rasterize_mask(poly, 64, 64, downscale=4)
        assert coarse.data.shape == (16, 16)
        assert coarse.data[2:10, 2:14].all()
        assert coarse.data.sum() == 8 * 12

    def test_bad_downscale_raises(self):
        poly = rect_polygon(5, 5, 4, 4)
        with pytest.raises(GeometryError):
            rasterize_mask(poly, 10, 10, downscale=3)


def band_vertices(kind, k, size, thickness, bend, tilt):
    """Closed band of 2k vertices: an annulus sector ("arc") or one sine
    period ("s"), scaled by `size`, with positive signed area."""
    t = np.linspace(0.0, 1.0, k)
    if kind == "arc":
        th = tilt + math.radians(20.0 + 220.0 * bend) * (t - 0.5)
        ring = np.stack([np.cos(th), np.sin(th)], axis=1)
        verts = np.vstack([(size + thickness) * ring, (size - thickness) * ring[::-1]])
    else:
        s = size * (t - 0.5)
        amp = bend * size / (2.0 * math.pi)
        phase = 2.0 * math.pi * t
        center = np.stack([s, amp * np.sin(phase)], axis=1)
        tangent = np.stack([np.full(k, size), 2.0 * math.pi * amp * np.cos(phase)], axis=1)
        tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
        normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
        rot = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
        verts = np.vstack([center - thickness * normal, (center + thickness * normal)[::-1]])
        verts = verts @ rot.T
    return verts[::-1] if polygon_area(verts) < 0 else verts


@pytest.fixture(scope="module")
def wide_corpus():
    return build_corpus(canvas=(64, 128))


class TestCurvedBands:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["arc", "s"]),
        st.integers(4, 128),
        st.floats(15.0, 120.0),
        st.floats(2.0, 12.0),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
        st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=11),
    )
    def test_only_expected_errors_and_slices_cover_text(
        self, wide_corpus, kind, k, size, thickness, bend, tilt, text
    ):
        verts = band_vertices(kind, k, size, thickness, bend, tilt)
        # guided generation on the band, centred on the canvas, fails if at
        # all as a SlantextError: any other exception escapes the test
        try:
            result = generate(text, PolygonMask(verts + (63.5, 31.5)), 0, 0, corpus=wide_corpus)
        except SlantextError:
            result = None
        if result is not None:
            assert result.image.shape == (64, 128, 3)
            assert np.isfinite(result.image).all()
        try:
            segments = divide_mask(PolygonMask(verts), text)
            layout = flatten_segments(segments, (64, 128))
        except (GeometryError, LayoutError):
            return
        # every segment quad passes the parallelogram-only inverse
        render_glyph_image(segments, text, (64, 128))
        slices = [seg.text_slice for seg in segments]
        assert slices[0][0] == 0 and slices[-1][1] == len(text)
        assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
        assert layout.text_slices == tuple(slices)

    def test_many_vertex_band_constructs_quickly(self):
        verts = band_vertices("arc", 800, 60.0, 6.0, 1.0, 0.3)
        start = time.perf_counter()
        PolygonMask(verts)
        assert time.perf_counter() - start < 2.0
