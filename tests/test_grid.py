"""Grid ops against independent scalar oracles."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slantext import grid
from slantext.errors import ShapeError
from slantext.grid import (
    STD_FLOOR,
    LatentGrid,
    RegionMask,
    adain,
    extract_region,
    masked_blend,
    paste_region_with_mask,
    sample_at,
)


def rand_grid(rng, c=3, h=8, w=8, scale=1.0):
    return LatentGrid(rng.standard_normal((c, h, w)) * scale)


def scalar_adain(content, style):
    """Independent cellwise re-evaluation of the renormalization, pure Python."""
    c = len(content)
    out = []
    for ch in range(c):
        cvals = [v for row in content[ch] for v in row]
        svals = [v for row in style[ch] for v in row]
        n_c, n_s = len(cvals), len(svals)
        mu_c = sum(cvals) / n_c
        mu_s = sum(svals) / n_s
        var_c = sum((v - mu_c) ** 2 for v in cvals) / n_c
        var_s = sum((v - mu_s) ** 2 for v in svals) / n_s
        sd_c = max(math.sqrt(var_c), 1e-5)
        sd_s = math.sqrt(var_s)
        out.append([[(v - mu_c) / sd_c * sd_s + mu_s for v in row] for row in content[ch]])
    return np.array(out)


class TestChannelStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        g = rand_grid(rng)
        mean, std = g.stats
        for ch in range(3):
            assert mean[ch] == pytest.approx(g.data[ch].mean(), abs=1e-12)
            assert std[ch] == pytest.approx(g.data[ch].std(), abs=1e-12)

    def test_population_std(self):
        # two values 0 and 2: population std is 1, sample std would be sqrt(2)
        g = LatentGrid(np.array([[[0.0, 2.0]]]))
        assert g.stats[1][0] == pytest.approx(1.0, abs=1e-15)

    def test_computed_once_and_read_only(self):
        g = rand_grid(np.random.default_rng(8))
        with mock.patch.object(grid, "frozen", wraps=grid.frozen) as freeze:
            first = g.stats
            assert g.stats is first
        # one freeze for the mean and one for the std, on the first read only
        assert freeze.call_count == 2
        flat = g.data.reshape(3, -1)
        for got, want in zip(first, (flat.mean(axis=1), flat.std(axis=1))):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0


def uncached_adain(content, style):
    """adain with both grids' statistics taken afresh, as a reference."""
    cf = content.data.reshape(content.channels, -1)
    sf = style.data.reshape(style.channels, -1)
    c_mean, c_std, s_mean, s_std = cf.mean(axis=1), cf.std(axis=1), sf.mean(axis=1), sf.std(axis=1)
    normalized = (content.data - c_mean[:, None, None]) / np.maximum(c_std, STD_FLOOR)[:, None, None]
    return normalized * s_std[:, None, None] + s_mean[:, None, None]


class TestAdain:
    def test_bitwise_equal_to_uncached_formula(self):
        # the same style grid serves many contents, as z_t does within one
        # hooked step and z_ref and z_glyph do across a case's steps
        rng = np.random.default_rng(9)
        style = rand_grid(rng, scale=2.0)
        contents = [rand_grid(rng, scale=rng.uniform(0.1, 3.0)) for _ in range(5)]
        contents.append(LatentGrid(np.full((3, 8, 8), 2.5)))
        for _ in range(2):
            for content in contents:
                for c, s in ((content, style), (style, content)):
                    assert adain(c, s).data.tobytes() == uncached_adain(c, s).tobytes()

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = rand_grid(rng, scale=rng.uniform(0.1, 3.0))
            s = rand_grid(rng, scale=rng.uniform(0.1, 3.0))
            expected = scalar_adain(c.data.tolist(), s.data.tolist())
            got = adain(c, s).data
            assert np.allclose(got, expected, atol=1e-10)

    def test_stats_transfer(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = rand_grid(rng)
            s = rand_grid(rng, h=6, w=10)
            out = adain(c, s)
            assert np.allclose(out.stats, s.stats, atol=1e-6)

    def test_identity(self):
        rng = np.random.default_rng(3)
        g = rand_grid(rng)
        assert np.allclose(adain(g, g).data, g.data, atol=1e-9)

    def test_constant_content_maps_to_style_mean(self):
        rng = np.random.default_rng(4)
        c = LatentGrid(np.full((3, 4, 4), 2.5))
        s = rand_grid(rng)
        out = adain(c, s).data
        s_mean, _ = s.stats
        for ch in range(3):
            assert np.allclose(out[ch], s_mean[ch], atol=1e-12)

    def test_spatial_sizes_may_differ(self):
        rng = np.random.default_rng(5)
        out = adain(rand_grid(rng, h=4, w=6), rand_grid(rng, h=10, w=3))
        assert out.shape == (3, 4, 6)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeError):
            adain(rand_grid(rng, c=2), rand_grid(rng, c=3))


def masked_sample_at(data, xs, ys):
    """Reference bilinear sampler: each corner masked by its own bounds test
    and gathered by fancy indexing, the out-of-bounds ones skipped."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    c, h, w = data.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    out = np.zeros((c,) + xs.shape)
    for dx, dy, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        cx = x0 + dx
        cy = y0 + dy
        valid = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        if valid.any():
            out[:, valid] += data[:, cy[valid], cx[valid]] * wgt[valid]
    return out


def coords(n):
    """Positions along an axis of n cells: cell centres, half-integers, the
    edges -1, n-1 and n, far outside, and anything in between."""
    return st.one_of(
        st.integers(-2, n + 1).map(float),
        st.integers(-4, 2 * n + 2).map(lambda k: k / 2),
        st.sampled_from([-1.0, n - 1.0, float(n), -1e3, 1e3]),
        st.floats(-2.0, n + 2.0),
    )


def signed_zero_grid(draw, c, h, w):
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((c, h, w))
    # exact zeros of both signs, so the sign of a zero sample is tested too
    data[:, ::2, ::2] = 0.0
    data[:, 1::2, 1::2] = -0.0
    return LatentGrid(data)


# (xs shape, ys shape): equal shapes, and shapes that only broadcast
SHAPE_PAIRS = [
    ((), ()), ((7,), (7,)), ((2, 3, 4), (2, 3, 4)),
    ((2, 1, 4), (1, 3, 4)), ((), (7,)), ((7,), ()), ((1, 5), (3, 1)),
]


@st.composite
def sample_cases(draw):
    c = draw(st.sampled_from([1, 3]))
    h = draw(st.integers(1, 5))
    w = draw(st.integers(1, 5))
    x_shape, y_shape = draw(st.sampled_from(SHAPE_PAIRS))
    xs = draw(hnp.arrays(float, x_shape, elements=coords(w)))
    ys = draw(hnp.arrays(float, y_shape, elements=coords(h)))
    return signed_zero_grid(draw, c, h, w), xs, ys


class TestSampleAt:
    def assert_matches_oracle(self, g, xs, ys):
        got = sample_at(g, xs, ys)
        want = masked_sample_at(g.data, *np.broadcast_arrays(xs, ys))
        assert got.shape == want.shape == (g.channels,) + np.broadcast_shapes(
            np.shape(xs), np.shape(ys))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(sample_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_masked_oracle(self, case):
        self.assert_matches_oracle(*case)

    def test_one_by_one_grid(self):
        g = LatentGrid(np.array([[[2.0]]]))
        xs = np.array([0.0, -0.5, 0.5, -1.0, 1.0, 0.25, -1e3])
        ys = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0])
        got = sample_at(g, xs, ys)
        assert np.array_equal(got, [[2.0, 1.0, 1.0, 0.0, 0.0, 0.75, 0.0]])
        self.assert_matches_oracle(g, xs, ys)

    def test_three_channel_grid(self):
        rng = np.random.default_rng(15)
        g = rand_grid(rng, c=3, h=4, w=6)
        xs = rng.uniform(-2, 8, (5, 6))
        ys = rng.uniform(-2, 6, (5, 6))
        self.assert_matches_oracle(g, xs, ys)
        got = sample_at(g, np.array([2.0, 5.0]), np.array([3.0, 1.0]))
        assert np.array_equal(got, g.data[:, [3, 1], [2, 5]])

    def test_far_outside_reads_zero(self):
        # the second corner of a point far left or above is clipped on its
        # own, so it reads the zero border and never the first row or column
        g = LatentGrid(np.ones((1, 3, 4)))
        xs = np.array([-1e3, -1.5, 1e3, 1.0, 1.0, -1e3])
        ys = np.array([1.0, 1.0, 1.0, -1e3, 1e3, -1e3])
        assert np.array_equal(sample_at(g, xs, ys), np.zeros((1, 6)))

    def test_negative_zero_grid_samples_positive_zero(self):
        # the sum starts from +0.0, and +0.0 + -0.0 is +0.0
        g = LatentGrid(np.full((1, 3, 3), -0.0))
        xs = np.array([0.0, 1.0, 1.5, -0.5, 3.0])
        ys = np.array([0.0, 1.0, 0.5, 1.0, 2.0])
        got = sample_at(g, xs, ys)
        assert np.array_equal(got, np.zeros((1, 5)))
        assert not np.signbit(got).any()
        self.assert_matches_oracle(g, xs, ys)


class TestRegionMask:
    def test_rejects_out_of_range(self):
        for value in (-0.5, 1.5):
            with pytest.raises(ShapeError):
                RegionMask(np.full((4, 4), value))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            RegionMask(np.zeros((2, 4, 4)))

    def test_frozen(self):
        mask = RegionMask(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            mask.data[0, 0] = 1.0


class TestMaskedBlend:
    def test_exact_at_mask_extremes(self):
        rng = np.random.default_rng(7)
        a, b = rand_grid(rng), rand_grid(rng)
        ones = RegionMask(np.ones((8, 8)))
        zeros = RegionMask(np.zeros((8, 8)))
        assert np.array_equal(masked_blend(a, b, ones).data, a.data)
        assert np.array_equal(masked_blend(a, b, zeros).data, b.data)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_binary_complementarity_exact(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_grid(rng, h=4, w=4), rand_grid(rng, h=4, w=4)
        m = RegionMask(rng.integers(0, 2, size=(4, 4)).astype(float))
        total = masked_blend(a, b, m).data + masked_blend(b, a, m).data
        assert np.array_equal(total, a.data + b.data)

    def test_soft_mask_convex(self):
        rng = np.random.default_rng(8)
        a, b = rand_grid(rng), rand_grid(rng)
        m = RegionMask(rng.uniform(0, 1, size=(8, 8)))
        out = masked_blend(a, b, m).data
        lo = np.minimum(a.data, b.data)
        hi = np.maximum(a.data, b.data)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_mask_range_enforced(self):
        with pytest.raises(ShapeError):
            RegionMask(np.array([[0.0, 1.2]]))


class TestRegions:
    def test_extract_axis_aligned_nearest_identity(self):
        rng = np.random.default_rng(12)
        g = rand_grid(rng, c=2, h=10, w=12)
        # quad covering columns 2..8, rows 3..7 exactly (corner convention:
        # cell centers at integer coords, quad edges at half-integers), so
        # every sample lands on its nearest cell center and bilinear weights
        # reduce to that cell up to rounding
        quad = [(1.5, 2.5), (8.5, 2.5), (8.5, 7.5), (1.5, 7.5)]
        out = extract_region(g, quad, 5, 7)
        assert np.allclose(out.data, g.data[:, 3:8, 2:9], rtol=0, atol=1e-12)

    def test_extract_constant_region_any_angle(self):
        data = np.zeros((1, 32, 32))
        data[0, 8:24, 8:24] = 4.25
        g = LatentGrid(data)
        # 45-degree square inscribed well inside the constant block
        cx = cy = 15.5
        r = 5.0
        quad = [
            (cx, cy - r), (cx + r, cy), (cx, cy + r), (cx - r, cy),
        ]
        out = extract_region(g, quad, 6, 6)
        assert np.allclose(out.data, 4.25, atol=1e-12)

    def test_paste_then_extract_round_trip(self):
        rng = np.random.default_rng(13)
        dst = LatentGrid(np.zeros((2, 16, 16)))
        src = rand_grid(rng, c=2, h=4, w=6)
        quad = [(2.5, 4.5), (8.5, 4.5), (8.5, 8.5), (2.5, 8.5)]
        pasted, _ = paste_region_with_mask(dst, src, quad)
        back = extract_region(pasted, quad, 4, 6)
        assert np.allclose(back.data, src.data, rtol=0, atol=1e-12)

    def test_paste_leaves_outside_untouched(self):
        rng = np.random.default_rng(14)
        dst = rand_grid(rng, c=1, h=16, w=16)
        src = LatentGrid(np.full((1, 4, 4), 9.0))
        # the quad matches the 4x4 source footprint, so every written pixel
        # center lands on a source cell instead of fading toward the edges
        quad = [(4.5, 4.5), (8.5, 4.5), (8.5, 8.5), (4.5, 8.5)]
        out, written = paste_region_with_mask(dst, src, quad)
        assert written.any()
        assert np.array_equal(out.data[:, ~written], dst.data[:, ~written])
        assert np.allclose(out.data[:, written], 9.0)

    def test_paste_rotated_quad_writes_inside_only(self):
        dst = LatentGrid(np.zeros((1, 20, 20)))
        src = LatentGrid(np.ones((1, 4, 8)))
        # diamond centered at (10, 10); half-integer radius keeps pixel
        # centers off the exact boundary
        quad = [(10.0, 3.5), (16.5, 10.0), (10.0, 16.5), (3.5, 10.0)]
        out, written = paste_region_with_mask(dst, src, quad)
        ys, xs = np.nonzero(written)
        assert (np.abs(xs - 10) + np.abs(ys - 10) <= 6).all()
        assert np.allclose(out.data[0, 10, 10], 1.0, rtol=0, atol=1e-12)
        assert out.data[0, 0, 0] == 0.0

    def test_paste_rejects_non_parallelogram(self):
        dst = LatentGrid(np.zeros((1, 16, 16)))
        src = LatentGrid(np.ones((1, 4, 8)))
        # trapezoid: F = D - A = (-2, 6) and G = A - B + C - D = (4, 0), so
        # cross(F, G) = -24, where a parallelogram has 0
        quad = [(4.5, 4.5), (8.5, 4.5), (10.5, 10.5), (2.5, 10.5)]
        with pytest.raises(ShapeError, match="parallelogram"):
            paste_region_with_mask(dst, src, quad)

    def test_bad_quad_shape_rejected(self):
        g = LatentGrid(np.zeros((1, 4, 4)))
        with pytest.raises(ShapeError):
            extract_region(g, [(0, 0), (1, 0), (1, 1)], 2, 2)

    # one corner coordinate at a time; warnings are errors in this suite, so
    # a check that warns before it raises fails here too
    NON_FINITE = [(corner, axis, bad) for corner in (0, 2) for axis in (0, 1)
                  for bad in (math.nan, math.inf, -math.inf)]

    @staticmethod
    def corrupted(quad, corner, axis, bad):
        quad = np.array(quad, dtype=np.float64)
        quad[corner, axis] = bad
        return quad

    @pytest.mark.parametrize("corner,axis,bad", NON_FINITE)
    def test_paste_rejects_non_finite_corner(self, corner, axis, bad):
        dst = LatentGrid(np.zeros((1, 16, 16)))
        src = LatentGrid(np.ones((1, 4, 4)))
        quad = self.corrupted([(4.5, 4.5), (8.5, 4.5), (8.5, 8.5), (4.5, 8.5)], corner, axis, bad)
        with pytest.raises(ShapeError, match="finite"):
            paste_region_with_mask(dst, src, quad)

    @pytest.mark.parametrize("corner,axis,bad", NON_FINITE)
    def test_extract_rejects_non_finite_corner(self, corner, axis, bad):
        g = LatentGrid(np.ones((1, 16, 16)))
        quad = self.corrupted([(1.5, 2.5), (8.5, 2.5), (8.5, 7.5), (1.5, 7.5)], corner, axis, bad)
        with pytest.raises(ShapeError, match="finite"):
            extract_region(g, quad, 4, 4)

    # finite corners too far out for int64 indices (extract) or for the
    # parallelogram test's squared scale (paste) once warned instead
    HUGE = [(corner, axis, bad) for corner in (0, 2) for axis in (0, 1)
            for bad in (1e150, -1e150, 1e160, -1e160, 2.0**52 * (1 + 2.0**-52))]

    @pytest.mark.parametrize("corner,axis,bad", HUGE)
    def test_paste_rejects_huge_corner(self, corner, axis, bad):
        dst = LatentGrid(np.zeros((1, 16, 16)))
        src = LatentGrid(np.ones((1, 4, 4)))
        quad = self.corrupted([(4.5, 4.5), (8.5, 4.5), (8.5, 8.5), (4.5, 8.5)], corner, axis, bad)
        with pytest.raises(ShapeError, match="within"):
            paste_region_with_mask(dst, src, quad)

    @pytest.mark.parametrize("corner,axis,bad", HUGE)
    def test_extract_rejects_huge_corner(self, corner, axis, bad):
        g = LatentGrid(np.ones((1, 16, 16)))
        quad = self.corrupted([(1.5, 2.5), (8.5, 2.5), (8.5, 7.5), (1.5, 7.5)], corner, axis, bad)
        with pytest.raises(ShapeError, match="within"):
            extract_region(g, quad, 4, 4)

    def test_far_quad_within_bound_reads_zero(self):
        # a quad at the bound lies off the grid: it samples zeros and
        # writes nothing, without a warning
        far = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]) + 2.0**52 - 1
        g = LatentGrid(np.ones((1, 16, 16)))
        assert not extract_region(g, far, 4, 4).data.any()
        pasted, written = paste_region_with_mask(g, LatentGrid(np.zeros((1, 4, 4))), -far)
        assert not written.any()
        assert np.array_equal(pasted.data, g.data)
