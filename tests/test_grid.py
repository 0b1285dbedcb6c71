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
    LatentGrid,
    RegionMask,
    adain,
    channel_stats,
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
        st_ = channel_stats(g)
        for ch in range(3):
            assert st_.mean[ch] == pytest.approx(g.data[ch].mean(), abs=1e-12)
            assert st_.std[ch] == pytest.approx(g.data[ch].std(), abs=1e-12)

    def test_population_std(self):
        # two values 0 and 2: population std is 1, sample std would be sqrt(2)
        g = LatentGrid(np.array([[[0.0, 2.0]]]))
        assert channel_stats(g).std[0] == pytest.approx(1.0, abs=1e-15)


class TestAdain:
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
            so = channel_stats(out)
            ss = channel_stats(s)
            assert np.allclose(so.mean, ss.mean, atol=1e-6)
            assert np.allclose(so.std, ss.std, atol=1e-6)

    def test_identity(self):
        rng = np.random.default_rng(3)
        g = rand_grid(rng)
        assert np.allclose(adain(g, g).data, g.data, atol=1e-9)

    def test_constant_content_maps_to_style_mean(self):
        rng = np.random.default_rng(4)
        c = LatentGrid(np.full((3, 4, 4), 2.5))
        s = rand_grid(rng)
        out = adain(c, s).data
        ss = channel_stats(s)
        for ch in range(3):
            assert np.allclose(out[ch], ss.mean[ch], atol=1e-12)

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


# (xs shape, ys shape) whose leading broadcast axis spans several chunks of a
# small SAMPLE_CHUNK, is 1 on one side, or does not exist
CHUNK_SHAPE_PAIRS = [
    ((), ()), ((9,), ()), ((), (9,)), ((6, 1, 4), (1, 5, 4)), ((1, 5, 4), (6, 1, 4)),
    ((1, 3), (7, 1)), ((7, 3), (1, 3)), ((5, 2, 3), (5, 2, 3)), ((4, 1), (3,)), ((1, 1), (1, 6)),
]


@st.composite
def chunk_cases(draw):
    """A sample case, a SAMPLE_CHUNK from one value to a few leading rows,
    and whether the samples go into a given out array."""
    c = draw(st.sampled_from([1, 3]))
    h = draw(st.integers(1, 5))
    w = draw(st.integers(1, 5))
    x_shape, y_shape = draw(st.sampled_from(CHUNK_SHAPE_PAIRS))
    xs = draw(hnp.arrays(float, x_shape, elements=coords(w)))
    ys = draw(hnp.arrays(float, y_shape, elements=coords(h)))
    chunk = draw(st.integers(1, 48))
    return signed_zero_grid(draw, c, h, w), xs, ys, chunk, draw(st.booleans())


@st.composite
def block_cases(draw):
    """A grid stored at 1/f resolution and positions over its f-times repeated
    extent, reaching past both edges."""
    f = draw(st.sampled_from([1, 2, 4]))
    c = draw(st.sampled_from([1, 3]))
    h = draw(st.integers(1, 4))
    w = draw(st.integers(1, 4))
    x_shape, y_shape = draw(st.sampled_from(SHAPE_PAIRS))
    xs = draw(hnp.arrays(float, x_shape, elements=coords(w * f)))
    ys = draw(hnp.arrays(float, y_shape, elements=coords(h * f)))
    return signed_zero_grid(draw, c, h, w), xs, ys, f


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

    @given(chunk_cases())
    @settings(max_examples=300, deadline=None)
    def test_chunks_and_out_match_masked_oracle(self, case):
        g, xs, ys, chunk, use_out = case
        shape = (g.channels,) + np.broadcast_shapes(xs.shape, ys.shape)
        out = np.full(shape, np.nan) if use_out else None
        with mock.patch.object(grid, "SAMPLE_CHUNK", chunk):
            got = sample_at(g, xs, ys, out=out)
        if use_out:
            assert got is out
        want = masked_sample_at(g.data, *np.broadcast_arrays(xs, ys))
        assert got.shape == want.shape == shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_out_of_wrong_shape_or_dtype_rejected(self):
        g = LatentGrid(np.ones((2, 3, 3)))
        xs, ys = np.zeros((4, 1)), np.zeros(5)
        for out in (np.empty((4, 5)), np.empty((2, 5, 4)), np.empty((2, 4, 5), np.float32)):
            with pytest.raises(ShapeError):
                sample_at(g, xs, ys, out=out)

    @given(block_cases())
    @settings(max_examples=300, deadline=None)
    def test_block_matches_repeated_grid(self, case):
        g, xs, ys, f = case
        repeated = LatentGrid(np.repeat(np.repeat(g.data, f, axis=1), f, axis=2))
        got = sample_at(g, xs, ys, block=f)
        want = sample_at(repeated, xs, ys)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

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
