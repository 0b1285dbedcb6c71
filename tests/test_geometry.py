"""Geometry: hulls, min-area rects, boundary fitting, mask division,
flattening, rasterization."""
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slantext.errors import GeometryError, InputError, LayoutError
from slantext.geometry import (
    BezierCurve,
    FlatLayout,
    OrientedRect,
    PolygonMask,
    SimilarityTransform,
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


def assert_matches_crossing_oracle(verts):
    verts = np.asarray(verts, dtype=np.float64)
    area = polygon_area(verts)
    assume(area != 0.0)
    if area < 0:
        verts = verts[::-1]
    if crossing_oracle(verts):
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


class TestConvexHull:
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
        self, kind, k, size, thickness, bend, tilt, text
    ):
        verts = band_vertices(kind, k, size, thickness, bend, tilt)
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
