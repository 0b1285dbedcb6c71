"""Template OCR: round trips, the views through the axis weights against
sample_at, the scores by moments against normalise-then-gemv on sampled
views (template, random and context-composite views; margin-free sheets
against zero-padded ones; composites cut to the reached columns against
uncut ones), the array-pass set-up and the composites against the per-slot
and per-cell code and full-sheet encodes, the tie rule, the pinned reads of
the seed-0 benchmark, and a pinned curved read that builds two template
sets."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slantext import bench, ocr
from slantext.bench import BaseSpec, base_mask, generate_benchmark, run_bench
from slantext.corpus import CANVAS, CHAR_W, TEXT_H, _scene_images, scene_background
from slantext.diffusion import FACTOR, LatentCodec, block_means
from slantext.errors import InputError
from slantext.fontdata import GLYPH_H, GLYPH_W
from slantext.geometry import PolygonMask, divide_mask, pixel_box, polygon_area, rotate_points
from slantext.glyph import char_cells, default_font, glyph_scale, render_glyph_image, render_text_block
from slantext.grid import LatentGrid, quad_points, sample_at
from slantext.guidance import GuidanceConfig
from slantext.ocr import OCR_SENTINEL, OcrResult, ocr_decode

from pins import pinned


def text_mask(text: str, y: float = 24.5) -> PolygonMask:
    w = CHAR_W * len(text)
    return PolygonMask(np.array(
        [[-0.5, y], [w - 0.5, y], [w - 0.5, y + TEXT_H], [-0.5, y + TEXT_H]]))


def test_bench_holds_the_ocr_bindings():
    # perfbench's tracer looks ocr_decode and OCR_SENTINEL up in bench and
    # rebinds ocr_decode in every namespace holding it; bench must hold the
    # OCR's own objects, not copies
    assert bench.ocr_decode is ocr.ocr_decode
    assert bench.OCR_SENTINEL == ocr.OCR_SENTINEL


class TestOcrDecode:
    def cat_setup(self, angle_deg=0.0):
        mask = text_mask("CAT")
        if angle_deg:
            mask = mask.rotated(math.radians(angle_deg))
        segs = divide_mask(mask, "CAT")
        cells = char_cells(segs, "CAT")
        image = render_glyph_image(segs, "CAT", CANVAS).data
        return image, cells

    def test_flat_render_round_trip(self):
        image, cells = self.cat_setup()
        result = ocr_decode(image, cells)
        assert result.decoded == "CAT"
        assert all(c > 0.9 for c in result.confidences)

    def test_rotated_render_round_trip(self):
        image, cells = self.cat_setup(45.0)
        assert ocr_decode(image, cells).decoded == "CAT"

    def test_blank_image_all_sentinel(self):
        _, cells = self.cat_setup()
        result = ocr_decode(np.zeros(CANVAS), cells)
        assert result.decoded == OCR_SENTINEL * 3
        assert result.confidences == (0.0, 0.0, 0.0)

    def test_color_and_gray_agree(self):
        image, cells = self.cat_setup()
        color = np.repeat(image[:, :, None], 3, axis=2)
        assert ocr_decode(color, cells).decoded == ocr_decode(image, cells).decoded

    def test_blocked_scene_round_trip(self):
        # the runner's referee path: codec round trip, then the known
        # background plate comes off before decoding
        codec = LatentCodec()
        image = codec.decode(codec.encode(_scene_images(0, "BLAZE", (16,), CANVAS)[0]))
        plate = codec.decode(codec.encode(scene_background(0)))
        mask = base_mask(BaseSpec(0, "BLAZE", 16))
        cells = char_cells(divide_mask(mask, "BLAZE"), "BLAZE")
        assert ocr_decode(image - plate, cells).decoded == "BLAZE"

    def test_bad_cell_shape(self):
        with pytest.raises(InputError):
            ocr_decode(np.zeros(CANVAS), [np.zeros((3, 2))])

    def test_empty_cell_list(self):
        with pytest.raises(InputError, match="at least one cell"):
            ocr_decode(np.zeros(CANVAS), [])

    # a cell past +-2^52, such as the one moved by 1e19, would overflow
    # sample_at's int64 indices
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e19, 2.0**52 + 2])
    def test_non_finite_corner(self, bad):
        _, cells = self.cat_setup()
        cells[1] = cells[1].copy()
        cells[1][2, 0] = bad
        with pytest.raises(InputError, match="finite"):
            ocr_decode(np.zeros(CANVAS), cells)
        cells[1] = cells[0] + bad
        with pytest.raises(InputError, match="finite"):
            ocr_decode(np.zeros(CANVAS), cells)

    def test_overflowing_edge_and_non_numeric_corner(self):
        huge = np.array([[-1e308, 0.0], [1e308, 0.0], [1e308, 5.0], [-1e308, 5.0]])
        with pytest.raises(InputError, match="finite"):
            ocr_decode(np.zeros(CANVAS), [huge])
        with pytest.raises(InputError, match="numbers"):
            ocr_decode(np.zeros(CANVAS), [[["a", 0], [1, 0], [1, 1], [0, 1]]])

    def test_result_validates_lengths(self):
        with pytest.raises(InputError):
            OcrResult("AB", (0.5,))

    def test_cells_of_two_heights_read(self):
        # a 14 px and a 22 px tall cell: the first cell's template sheet has
        # 4 latent rows and its context composites 6, so its context pass
        # takes y weights over 6 rows
        image = np.zeros(CANVAS)
        image[10:24, 4:16] = render_text_block(14, 12, "A").data
        image[10:32, 16:28] = render_text_block(22, 12, "B").data
        cells = [pixel_box(4, 10, 12, 14), pixel_box(16, 10, 12, 22)]
        assert ocr_decode(image, cells).decoded == "AB"

    def test_canvas_sized_cell_reads_in_little_memory(self):
        # a 64 x 64 px cell on the 64 x 64 canvas has a 16 x 16 latent sheet;
        # its squares weigh each cell against itself and its next neighbours
        # only, not against all 256 cells, so a read peaks at a few MiB
        # (133 MiB when every cell pair was formed)
        assert CANVAS == (64, 64)
        image = render_text_block(64, 64, "W").data
        cells = [pixel_box(0, 0, 64, 64)]
        ocr_decode(image, cells)  # warm the per-shape caches
        tracemalloc.start()
        try:
            result = ocr_decode(image, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.decoded == "W"
        assert peak < 16 * 2**20


def repeated(sheet):
    """The latent sheet repeated FACTOR x FACTOR: the decoded sheet."""
    return LatentGrid(np.repeat(np.repeat(sheet.data, FACTOR, axis=1), FACTOR, axis=2))


def full_mesh_views(sheet, slots, offsets):
    """Template views by the full-size formula: the repeated sheet sampled by
    sample_at on (offsets, points) meshes of every slot point displaced by
    every (x, y) offset, shaped (channels, offsets, points)."""
    px = slots[0] + offsets[:, 0, None]
    py = slots[1] + offsets[:, 1, None]
    return sample_at(repeated(sheet), px, py)


def assert_views_close(got, want, scale):
    """Views within 1e-12 of the oracle's, relative to the same sample of
    the sheet's absolute values: the scale of the terms each view sums, so a
    view whose every corner is zero must read zero."""
    assert got.shape == want.shape == scale.shape
    assert (np.abs(got - want) <= 1e-12 * scale).all()


def normalize_then_gemv(views, unit):
    """The correlation before moments: every (chars, offsets, points) view
    centred and scaled to unit length (zero when its centred norm is 1e-9 or
    less), then one gemv; (chars, offsets).  A view whose centred norm is
    under 1e-6 of its root sum of squares scores 0.0, as the moments score
    it: the rounding of its samples, not its ink, would set its sign."""
    n_ch, n_off, n_pts = views.shape
    rows = views.reshape(-1, n_pts)
    centred = rows - rows.mean(axis=1, keepdims=True)
    lost = (centred * centred).sum(axis=1) <= 1e-12 * (rows * rows).sum(axis=1)
    corr = ocr._normalize_rows(rows.copy()) @ unit
    corr[lost] = 0.0
    return corr.reshape(n_ch, n_off)


def axis_weights(sheet, points, xs, ys):
    """The y and the x weights of the (2, points) positions displaced by the
    offset axes, over the sheet's rows and columns."""
    return (
        ocr._axis_weights(points[1][:, None] + ys, sheet.shape[1]),
        ocr._axis_weights(points[0][:, None] + xs, sheet.shape[2]),
    )


def mesh_offsets(xs, ys):
    """(offsets, 2) mesh of the x and y offset axes, y-major."""
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def unit_patch(n_pts, seed):
    """A dense normalised patch of n_pts samples."""
    return ocr._normalize_rows(np.random.default_rng(seed).standard_normal((1, n_pts)))[0]


def view(data, wy, wx):
    """(points, ys, xs) view of one latent channel through the axis weights:
    the y weights' rows, then the x weights' columns."""
    return (wy @ data) @ wx.transpose(0, 2, 1)


def scores(sheet, wy, wx, unit):
    """ocr._scores of the sheet's channels with their cell pairs, as a
    template sheet's are cached beside it: on every column, uncut."""
    return ocr._scores(sheet.data, wy, wx, unit, ocr._cell_pairs(sheet.data))


def assert_scores_match(got, views, unit, cond=1.0):
    """Scores within 1e-12 (times cond, if given) of normalize_then_gemv on
    the oracle's (chars, offsets, points) views; a constant view scores
    +0.0."""
    want = normalize_then_gemv(views, unit)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-12 * cond).all()
    constant = (views == views[..., :1]).all(axis=2)
    assert np.array_equal(got[constant], np.zeros(constant.sum()))
    assert not np.signbit(got[constant]).any()


# (h, w, tilt_key) cell shapes, and the search grids of ocr_decode:
# (center, (half_x, half_y, step)) for the coarse, fine and context stages
VIEW_CASES = [(7, 5, 0), (11, 8, 37), (14, 12, -90), (9, 17, 180), (64, 64, 37)]
SEARCH_GRIDS = (
    (np.zeros(2), (ocr.SEARCH_X, ocr.SEARCH_Y, 1.0)),
    (np.array([2.0, -3.0]), (ocr.FINE_HALF, ocr.FINE_HALF, ocr.FINE_STEP)),
    (np.array([2.25, -2.75]), (1.0, 1.0, ocr.FINE_STEP)),
)
ANCHOR = np.array([0.37, -1.21])


def template_set(h, w, tilt_key):
    """The template sheet of an h x w cell shape and its slot points at the
    tilt key."""
    return LatentGrid(ocr._flat_templates(h, w)[2]), ocr._slot_points(h, w, tilt_key)


def search_axes(center, grid):
    ax, ay = ocr._offset_axes(*grid)
    return ANCHOR[0] + (center[0] + ax), ANCHOR[1] + (center[1] + ay)


def block_coords(n):
    """Positions along an axis of n latent cells read FACTOR times repeated:
    integers, block boundaries (multiples of FACTOR), quarter steps, the
    edges -1, FACTOR * n - 1 and FACTOR * n, far outside, and anything in
    between."""
    m = FACTOR * n
    return st.one_of(
        st.integers(-FACTOR - 2, m + FACTOR + 1).map(float),
        st.integers(-2, n + 1).map(lambda k: float(FACTOR * k)),
        st.integers(-4 * FACTOR, 4 * m + 4 * FACTOR).map(lambda k: k / 4),
        st.sampled_from([-1.0, m - 1.0, float(m), -1e3, 1e3]),
        st.floats(-FACTOR - 2.0, m + FACTOR + 2.0),
    )


# offset axes: integer and quarter steps as the search takes them, a single
# value, and any offsets, unsorted
OFFSETS = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-12, 12).map(lambda k: k / 4),
    st.floats(-6.0, 6.0),
)


@st.composite
def view_cases(draw):
    """A latent sheet of 1 or 37 channels with exact zeros of both signs,
    (2, points) positions over its repeated extent and past every edge, x
    and y offset axes of one or more values, and a unit patch."""
    c = draw(st.sampled_from([1, 37]))
    h = draw(st.integers(1, 5))
    w = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).standard_normal((c, h, w))
    data[:, ::2, ::2] = 0.0
    data[:, 1::2, 1::2] = -0.0
    n_pts = draw(st.integers(1, 6))
    px = draw(hnp.arrays(float, n_pts, elements=block_coords(w)))
    py = draw(hnp.arrays(float, n_pts, elements=block_coords(h)))
    xs = draw(hnp.arrays(float, draw(st.integers(1, 5)), elements=OFFSETS))
    ys = draw(hnp.arrays(float, draw(st.integers(1, 5)), elements=OFFSETS))
    return LatentGrid(data), np.stack([px, py]), xs, ys, unit_patch(n_pts, seed)


class TestOcrViews:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_axis_weights_reach_two_adjacent_cells(self, data):
        # the squares keep only the products of a cell with itself and with
        # its next neighbour: every position's weights are non-zero on at
        # most two adjacent cells, at block boundaries, the edges and far
        # outside too
        n = data.draw(st.integers(1, 16))
        pos = data.draw(hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=block_coords(n)))
        weights = ocr._axis_weights(pos, n)
        assert weights.shape == (*pos.shape, n)
        for row in weights.reshape(-1, n):
            lit = np.flatnonzero(row)
            assert len(lit) <= 2
            assert len(lit) < 2 or lit[1] == lit[0] + 1

    @given(view_cases())
    @settings(max_examples=300, deadline=None)
    def test_scores_match_sample_at_views_on_repeated_sheet(self, case):
        # each channel's view through the axis weights against sample_at on
        # the repeated sheet, and the scores against normalize_then_gemv on
        # those views.  The moments subtract (sum v)^2 / n from sum v^2, and
        # on a signed sheet each square sums terms as large as the same view
        # of the sheet's absolute values, so the scores' bound is 1e-12 times
        # the view's condition: its absolute-value view's sum of squares
        # over its centred sum of squares, at least 1.  On a few points the
        # centred sum can be far smaller, and the moments of formed views
        # lose as much
        sheet, points, xs, ys, unit = case
        px = points[0][:, None, None] + xs
        py = points[1][:, None, None] + ys[:, None]
        # (channels, points, ys, xs)
        want = sample_at(repeated(sheet), px, py)
        scale = sample_at(repeated(LatentGrid(np.abs(sheet.data))), px, py)
        wy, wx = axis_weights(sheet, points, xs, ys)
        got = np.stack([view(channel, wy, wx) for channel in sheet.data])
        assert_views_close(got, want, scale)
        views, scale = (v.transpose(0, 2, 3, 1).reshape(sheet.channels, -1, len(unit)) for v in (want, scale))
        centred = views - views.mean(axis=2, keepdims=True)
        cond = (scale * scale).sum(axis=2) / np.maximum((centred * centred).sum(axis=2), 1e-300)
        assert_scores_match(scores(sheet, wy, wx, unit), views, unit, np.maximum(cond, 1.0))

    @pytest.mark.parametrize("h,w,tilt_key", VIEW_CASES)
    def test_axis_views_match_full_mesh(self, h, w, tilt_key):
        # every channel's view through the axis weights against the full
        # mesh; the search runs past the sheet's edges, which the oracle
        # reads as zero too
        sheet, slots = template_set(h, w, tilt_key)
        scale_sheet = LatentGrid(np.abs(sheet.data))
        for center, grid in SEARCH_GRIDS:
            xs, ys = search_axes(center, grid)
            offsets = mesh_offsets(xs, ys)
            want = full_mesh_views(sheet, slots, offsets)
            scale = full_mesh_views(scale_sheet, slots, offsets)
            wy, wx = axis_weights(sheet, slots, xs, ys)
            assert wy.shape == (slots.shape[1], len(ys), sheet.shape[1])
            assert wx.shape == (slots.shape[1], len(xs), sheet.shape[2])
            got = np.stack([view(channel, wy, wx) for channel in sheet.data])
            assert got.shape == (sheet.channels, slots.shape[1], len(ys), len(xs))
            got = got.reshape(sheet.channels, slots.shape[1], -1).transpose(0, 2, 1)
            assert_views_close(got, want, scale)

    @pytest.mark.parametrize("h,w,tilt_key", VIEW_CASES)
    def test_views_equal_on_zero_padded_sheets(self, h, w, tilt_key):
        # the sheets are as large as their ink: a margin of zeros would hold
        # nothing, so the scores on the bare template tiles, and on a context
        # pass's composites, equal those on the same sheets zero-padded by
        # whole blocks, read at the positions shifted by the top and left
        # margins.  The shift rounds a position's fraction by up to an ulp,
        # which moves a view by that much of a step between two cells, and
        # the scores by as little
        tiles, slots = template_set(h, w, tilt_key)
        frames = [(None, h + 3, w, 0), (None, h, w, 0), (None, h - 2, w + 5, 0)]
        stack, left = ocr._composites(frames, "A7Q", [0, w + 2, 2 * w + 5], 1)
        unit = unit_patch(slots.shape[1], h * w)
        for top, bottom, margin, right in ((1, 1, 1, 1), (8, 3, 5, 9)):
            pad = ((0, 0), (top, bottom), (margin, right))
            for sheet, x0 in ((tiles, 0), (LatentGrid(stack), left)):
                padded = LatentGrid(np.pad(sheet.data, pad))
                for center, grid in SEARCH_GRIDS:
                    xs, ys = search_axes(center, grid)
                    got = scores(sheet, *axis_weights(sheet, slots, x0 + xs, ys), unit)
                    moved = FACTOR * margin + (x0 + xs), FACTOR * top + ys
                    want = scores(padded, *axis_weights(padded, slots, *moved), unit)
                    assert np.abs(want).max() > 0.1  # the ink is in view
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # one case, at the codec's factor; the id keeps the factor it ran at
    @pytest.mark.parametrize("factor", [FACTOR])
    def test_latent_sheet_repeats_to_decoded_sheet(self, factor):
        # 0/1 ink, as every OCR sheet holds: its block means are exact in
        # any summation order, so the one-channel means equal the RGB
        # codec's round trip bitwise
        rng = np.random.default_rng(factor)
        sheet_h, sheet_w = 4 * 5, 4 * 10
        sheet = np.zeros((sheet_h, sheet_w))
        for x0 in (3, 17, 30):
            sheet[:7, x0 : x0 + 5] = rng.integers(0, 2, (7, 5))
        latent = block_means(sheet[None])
        assert latent.shape == (1, sheet_h // factor, sheet_w // factor)
        codec = LatentCodec()
        want = codec.decode(codec.encode(np.repeat(sheet[:, :, None], 3, axis=2))).mean(axis=2)
        got = np.repeat(np.repeat(latent[0], factor, axis=0), factor, axis=1)
        assert np.unique(got).size > 2  # means strictly between 0 and 1 too
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCorrelateByMoments:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_views_match_normalize_then_gemv(self, seed):
        # views of a random sheet whose channels hold sparse ink, dense
        # noise, ink riding on a large offset, ink of every scale, ink too
        # faint to score, and all-zero and constant channels (of every sign
        # and size), read inside the sheet, so a constant channel's views are
        # constant and score +0.0
        rng = np.random.default_rng(seed)
        n_ch, h, w, n_pts = 37, 5, 4, GLYPH_H * GLYPH_W
        data = rng.standard_normal((n_ch, h, w))
        data[:6] *= rng.random((6, h, w)) < 0.3
        data[12:18] += rng.uniform(-50.0, 50.0, (6, 1, 1))
        data[18:24] *= 10.0 ** rng.uniform(-6.0, 6.0, (6, 1, 1))
        data[24:28] *= 1e-11  # centred norms under 1e-9 score 0.0
        data[28:31] = 0.0
        data[31] = -0.0
        data[32:] = rng.choice([-1.0, 1.0], (5, 1, 1)) * 10.0 ** rng.uniform(-12.0, 12.0, (5, 1, 1))
        sheet = LatentGrid(data)
        # offsets within a pixel keep both corners of every sample inside
        points = np.stack([rng.uniform(2.0, FACTOR * n - 3.0, n_pts) for n in (w, h)])
        xs, ys = ocr._offset_axes(1.0, 1.0, 0.25)
        unit = unit_patch(n_pts, seed)
        views = full_mesh_views(sheet, points, mesh_offsets(xs, ys))
        got = scores(sheet, *axis_weights(sheet, points, xs, ys), unit)
        assert_scores_match(got, views, unit)
        assert got[6:24].all()
        assert not got[24:].any()
        assert not np.signbit(got[24:]).any()

    @pytest.mark.parametrize("h,w,tilt_key", [(7, 5, 0), (11, 8, 37), (14, 12, -90)])
    def test_template_views_match_normalize_then_gemv(self, h, w, tilt_key):
        # every search grid of the read, on a real template sheet, against a
        # one-hot unit patch, the sparse case the tie rule exists for, and a
        # dense one
        sheet, slots = template_set(h, w, tilt_key)
        n_pts = slots.shape[1]
        one_hot = ocr._normalize_rows(np.eye(1, n_pts, 17))[0]
        for center, grid in SEARCH_GRIDS:
            xs, ys = search_axes(center, grid)
            views = full_mesh_views(sheet, slots, mesh_offsets(xs, ys))
            weights = axis_weights(sheet, slots, xs, ys)
            for unit in (one_hot, unit_patch(n_pts, h * w)):
                assert_scores_match(scores(sheet, *weights, unit), views, unit)

    @pytest.mark.parametrize("h,w,tilt_key", VIEW_CASES)
    def test_context_composites_match_normalize_then_gemv(self, h, w, tilt_key):
        # a context pass scores each candidate on the decoded text with this
        # cell's place taken by the candidate, against the views of one
        # sheet holding the neighbours and the candidate, built and encoded.
        # Cell 1's left edge w + 1 lies off a block edge (and cell 2's for
        # even w): taking the cell's own stamp out of one sheet of the text
        # would leave its stamp blocked at the text's phase minus the same
        # stamp blocked at the template's.  Cell 1 reads 'B', cell 2 '?'
        _, slots = template_set(h, w, tilt_key)
        charset = default_font().charset
        flats = ocr._flat_templates(h, w)[0]
        frames = [(None, h, w, tilt_key)] * 3
        lefts = [0, w + 1, 2 * w + 2]
        assert lefts[1] % FACTOR
        unit = unit_patch(slots.shape[1], h + w)
        for i in (1, 2):
            stack, left = ocr._composites(frames, "AB?", lefts, i)
            stamps = [
                (x0 + left - lefts[i], 0, flats[charset.index(ch)])
                for j, (x0, ch) in enumerate(zip(lefts, "AB?"))
                if j != i and ch in charset
            ]
            size = FACTOR * stack.shape[1], FACTOR * stack.shape[2]
            sheets = LatentGrid(np.concatenate([full_sheet_oracle(*size, [*stamps, (left, 0, f)]) for f in flats]))
            for center, grid in SEARCH_GRIDS[1:]:
                xs, ys = search_axes(center, grid)
                views = full_mesh_views(sheets, slots, mesh_offsets(xs, ys) + [left, 0.0])
                got = ocr._scores(stack, *axis_weights(stack, slots, left + xs, ys), unit)
                assert_scores_match(got, views, unit)

    @pytest.mark.parametrize("h,w,tilt_key", VIEW_CASES)
    def test_scores_cut_to_reached_columns_equal_uncut(self, h, w, tilt_key):
        # without cached pairs, _scores cuts a context stack to the columns
        # its x weights reach before taking the cell pairs.  The cut drops
        # only terms whose weights are zero, but BLAS sums a product's inner
        # axis in an order that depends on its length, so the scores equal
        # those on the whole stack to rounding (up to 4e-16 here), not
        # bitwise.  A window moved 1e3 px to the right reaches no column:
        # its one kept column scores +0.0 everywhere, as the whole stack does
        _, slots = template_set(h, w, tilt_key)
        frames = [(None, h, w, tilt_key)] * 8
        lefts = [int(round(i * (w + 1.5))) for i in range(8)]
        unit = unit_patch(slots.shape[1], h * w)
        reach = []  # (columns reached, stack width) of every call
        for i in (0, 3, 7):
            stack, left = ocr._composites(frames, "SLANTEX?", lefts, i)
            for shift in (0.0, 1e3):
                for center, grid in SEARCH_GRIDS:
                    xs, ys = search_axes(center, grid)
                    wy, wx = axis_weights(stack, slots, left + shift + xs, ys)
                    reach.append((int(wx.any(axis=(0, 1)).sum()), stack.shape[2]))
                    got = ocr._scores(stack, wy, wx, unit)
                    want = ocr._scores(stack, wy, wx, unit, ocr._cell_pairs(stack))
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                    if shift:
                        assert_bitwise(got, np.zeros_like(want))
                        assert_bitwise(want, np.zeros_like(want))
        assert any(n == 0 for n, _ in reach) and any(0 < n < width for n, width in reach)


def old_patch_fractions(h, w):
    """The patch fractions as (GLYPH_H, GLYPH_W) meshes, as they were before
    the set-up ran in array passes."""
    k = glyph_scale(h, w, 1)
    us = ((w - GLYPH_W * k) / 2.0 + (np.arange(GLYPH_W) + 0.5) * k) / w
    vs = ((h - GLYPH_H * k) / 2.0 + (np.arange(GLYPH_H) + 0.5) * k) / h
    return np.meshgrid(us, vs)


def old_slot_points(h, w, ox, oy, tilt_key):
    """One slot's (2, points) sampling positions, the per-slot way: its own
    pixel box turned about its own centroid, then the corner blend."""
    cell = rotate_points(pixel_box(ox, oy, w, h), math.radians(tilt_key * ocr.TILT_STEP_DEG))
    px, py = quad_points(cell, *old_patch_fractions(h, w))
    return np.stack([px.ravel(), py.ravel()])


def text_sheet(shapes, inks, pitch):
    """Sheet size, stamps and slot corners of a text sheet laid out per
    cell: one slot per (h, w) shape, its top-left pixel at
    (round(i * pitch), 0), a None ink left blank, on a sheet as large as the
    slots in whole blocks."""
    corners = [(int(round(i * pitch)), 0) for i in range(len(shapes))]
    sheet_h = FACTOR * math.ceil(max(h for h, _ in shapes) / FACTOR)
    sheet_w = FACTOR * math.ceil(max(x0 + w for (x0, _), (_, w) in zip(corners, shapes)) / FACTOR)
    stamps = [(x0, y0, ink) for (x0, y0), ink in zip(corners, inks) if ink is not None]
    return sheet_h, sheet_w, stamps, corners


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# tilt keys at 0, +-45, 90 and +-360 degrees, beside random ones
EDGE_TILTS = (0, 90, -90, 180, 720, -720)


class TestSetUpBitwise:
    def test_slot_points_match_per_slot_path(self):
        # the slot's top-left pixel is the origin
        rng = np.random.default_rng(14)
        for n in range(320):
            h, w = int(rng.integers(3, 31)), int(rng.integers(2, 31))
            tilt_key = EDGE_TILTS[n] if n < len(EDGE_TILTS) else int(rng.integers(-720, 721))
            got = ocr._slot_points(h, w, tilt_key)
            assert_bitwise(got, old_slot_points(h, w, 0, 0, tilt_key))

    @pytest.mark.parametrize("h,w,tilt_key", VIEW_CASES + [(7, 5, 720), (9, 6, -720)])
    def test_template_slots_match_per_slot_path(self, h, w, tilt_key):
        # one slot, its top-left pixel at the origin, serves every character
        # of the shape's sheet
        assert_bitwise(template_set(h, w, tilt_key)[1], old_slot_points(h, w, 0, 0, tilt_key))

    def test_context_composites_match_per_cell_path(self):
        # every cell's composites, one candidate at a time, against the whole
        # RGB sheet built and encoded: the other cells' ink and the
        # candidate's, shifted right by the pad that puts the cell's left
        # edge on a block edge, on the smallest sheet of whole blocks
        # holding them all; overlapping renders add
        rng = np.random.default_rng(7)
        charset = default_font().charset
        letters = charset + "? "
        for _ in range(40):
            n = int(rng.integers(1, 9))
            frames = [
                (None, int(h), int(w), int(round(math.degrees(angle) / ocr.TILT_STEP_DEG)))
                for h, w, angle in zip(
                    rng.integers(5, 24, n), rng.integers(4, 22, n), rng.uniform(-3.2, 3.2, n)
                )
            ]
            decoded = "".join(letters[int(i)] for i in rng.integers(0, len(letters), n))
            pitch = float(np.mean([w for _, _, w, _ in frames]))
            shapes = [(h, w) for _, h, w, _ in frames]
            inks = [
                ocr._flat_templates(h, w)[0][charset.index(ch)] if ch in charset else None
                for (h, w), ch in zip(shapes, decoded)
            ]
            sheet_h, _, _, corners = text_sheet(shapes, inks, pitch)
            lefts = [x0 for x0, _ in corners]
            for i, (_, h, w, tilt_key) in enumerate(frames):
                stack, left = ocr._composites(frames, decoded, lefts, i)
                pad = left - lefts[i]
                assert 0 <= pad < FACTOR and left % FACTOR == 0
                ends = [pad + x0 + sw for x0, (_, sw) in zip(lefts, shapes)]
                sheet_w = FACTOR * math.ceil(max(ends) / FACTOR)
                others = [
                    (pad + x0, 0, ink) for j, (x0, ink) in enumerate(zip(lefts, inks)) if j != i and ink is not None
                ]
                for k, flat in enumerate(ocr._flat_templates(h, w)[0]):
                    want = full_sheet_oracle(sheet_h, sheet_w, [*others, (left, 0, flat)])
                    assert_bitwise(stack[k : k + 1], want)
                # the composites' views read the cell's template slot points
                # displaced to its left edge: the per-slot path there, up to
                # rounding
                got = ocr._slot_points(h, w, tilt_key) + np.array([[left], [0]])
                want = old_slot_points(h, w, left, 0, tilt_key)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_cell_units_match_per_cell_gather(self):
        # cells of mixed shapes and tilts, some reaching past the image edge
        rng = np.random.default_rng(3)
        gray = LatentGrid(rng.standard_normal((1, 48, 64)))
        for _ in range(30):
            cells = []
            for _ in range(int(rng.integers(1, 9))):
                x, y = rng.uniform(-6.0, 66.0), rng.uniform(-6.0, 50.0)
                box = pixel_box(x, y, rng.uniform(2.0, 25.0), rng.uniform(3.0, 25.0))
                cells.append(rotate_points(box, rng.uniform(-3.2, 3.2)))
            frames = [ocr._cell_frame(cell) for cell in cells]
            got = ocr._cell_units(gray, frames)
            want = ocr._normalize_rows(np.stack([
                sample_at(gray, *quad_points(q, *old_patch_fractions(h, w)))[0].ravel()
                for q, h, w, _ in frames
            ]))
            assert_bitwise(got, want)

    @pytest.mark.parametrize("h,w", [(7, 5), (11, 8), (14, 12), (23, 21), (3, 2)])
    def test_crisp_rows_match_per_character_gather(self, h, w):
        flats, crisp, sheet, pairs = ocr._flat_templates(h, w)
        assert not (crisp.flags.writeable or sheet.flags.writeable or pairs.flags.writeable)
        assert_bitwise(pairs, ocr._cell_pairs(sheet))
        box = pixel_box(0, 0, w, h)
        want = ocr._normalize_rows(np.asarray([
            sample_at(LatentGrid(f[None]), *quad_points(box, *old_patch_fractions(h, w)))[0].ravel()
            for f in flats
        ]))
        assert_bitwise(crisp, want)

    def test_patch_fractions_are_cached_and_read_only(self):
        us, vs = ocr._patch_fractions(11, 8)
        assert ocr._patch_fractions(11, 8)[0] is us
        assert not (us.flags.writeable or vs.flags.writeable)
        old_us, old_vs = old_patch_fractions(11, 8)
        assert_bitwise(us, old_us.ravel())
        assert_bitwise(vs, old_vs.ravel())

    @pytest.mark.parametrize("h", range(5, 24))
    def test_pasted_template_sheets_match_full_sheet_encode(self, h):
        # 18 widths per height: each channel of the shape's sheet, cut from
        # the tiles encoded in one band, against the whole RGB sheet with
        # that character alone in the slot, built and encoded
        for w in range(4, 22):
            flats, _, sheet, _ = ocr._flat_templates(h, w)
            sheet_h, sheet_w, _, (corner,) = text_sheet([(h, w)], [None], 0.0)
            assert sheet.shape == (len(flats), sheet_h // FACTOR, sheet_w // FACTOR)
            for channel, flat in zip(sheet, flats):
                want = full_sheet_oracle(sheet_h, sheet_w, [(*corner, flat)])[0]
                assert_bitwise(channel, want)


# Every OCR read of the seed-0 benchmark, 30 cases guided and 30 with both
# branches off: a sha256 over one line per ocr_decode call, the decoded
# string, a colon, and every confidence in float.hex joined by commas; and
# a sha256 over the decoded strings alone, one per line.
PINNED_READS = pinned("seed0_reads")["reads"]
PINNED_STRINGS = pinned("seed0_reads")["strings"]


def seed0_reads(monkeypatch, cases=None):
    """OcrResult of every ocr_decode call of the seed-0 benchmark (or of the
    given cases), guided then with both branches off, and the image and
    cells each read."""
    reads = []

    def record(image, cells):
        result = ocr.ocr_decode(image, cells)
        reads.append((result, image, cells))
        return result

    monkeypatch.setattr(bench, "ocr_decode", record)
    cases = generate_benchmark(rng_seed=0) if cases is None else cases
    for config in (GuidanceConfig(), GuidanceConfig(use_srb=False, use_sib=False)):
        run_bench(cases, config=config)
    return reads


def test_ocr_reads_pinned(monkeypatch):
    reads = seed0_reads(monkeypatch)
    lines = [r.decoded + ":" + ",".join(c.hex() for c in r.confidences) for r, _, _ in reads]
    assert len(lines) == 60
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_READS


def test_slot_points_snapped_to_2_pow_minus_40_keep_the_reads(monkeypatch):
    # moving every template sample by under 2^-40 px moves scores by ulps;
    # a read that such noise could flip is a tie, and reads '?' either way
    slot_points = ocr._slot_points

    def snapped(*args):
        return np.round(slot_points(*args) * 2.0**40) / 2.0**40

    monkeypatch.setattr(ocr, "_slot_points", snapped)
    reads = seed0_reads(monkeypatch)
    strings = "\n".join(r.decoded for r, _, _ in reads)
    assert hashlib.sha256(strings.encode()).hexdigest() == PINNED_STRINGS


def test_one_hot_patch_reads_sentinel(monkeypatch):
    # seed 0's guided medium_001: the last cell's patch has one lit sample,
    # so its centred unit row is one-hot and correlates at 1 - 2^-52 or so
    # with template views of many characters; the read is a tie, not 'F'
    case = next(c for c in generate_benchmark(rng_seed=0) if c.case_id == "medium_001")
    _, image, cells = seed0_reads(monkeypatch, [case])[0]  # the guided read
    frames = [ocr._cell_frame(cell) for cell in cells]
    gray = LatentGrid(image.mean(axis=2)[None])
    q, h, w, _ = frames[4]
    patch = sample_at(gray, *quad_points(q, *ocr._patch_fractions(h, w)))[0]
    assert np.count_nonzero(np.abs(patch) > 1e-12) == 1
    unit = ocr._cell_units(gray, frames)[4]
    assert np.count_nonzero(unit == unit.max()) == 1
    result = ocr_decode(image, cells)
    assert result.decoded[4] == OCR_SENTINEL
    assert result.confidences[4] > 1.0 - 1e-12


def curved_read():
    """'WAVES' along an arc band over the top of a 128 x 128 canvas (outer
    arc r = 104 from 215 to 325 degrees about (64, 140), inner arc r = 90
    back), rendered at twice the ink, through one codec round trip: the
    image in RGB, the segments and the character cells."""
    th = np.radians(np.linspace(215.0, 325.0, 24))
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    center = np.array([64.0, 140.0])
    verts = np.vstack([center + 104.0 * ring, center + 90.0 * ring[::-1]])
    if polygon_area(verts) < 0:
        verts = verts[::-1]
    segments = divide_mask(PolygonMask(verts), "WAVES")
    ink = 2.0 * render_glyph_image(segments, "WAVES", (128, 128)).data
    codec = LatentCodec()
    image = codec.decode(codec.encode(np.repeat(ink[:, :, None], 3, axis=2)))
    return image, segments, char_cells(segments, "WAVES")


# The curved read, decoded string and float.hex confidences.  Cells 1-4
# have left edges 34, 67, 101 and 134 in the decoded text, off block edges,
# so their context passes read composites shifted by 2, 1, 3 and 2 px.
PINNED_CURVED = (pinned("curved_read")["decoded"], tuple(pinned("curved_read")["confidences"]))


def test_curved_read_pinned():
    # two segments of different cell shapes and tilts, so the read builds
    # two template sets; their mean cell width is fractional, so the
    # context sheet's left edges round(i * pitch) differ from the floored
    # ones on two cells
    image, segments, cells = curved_read()
    assert len(segments) == 2
    widths = [round(float(np.hypot(*(q[1] - q[0])))) for q in cells]
    assert len(set(widths)) == 2
    pitch = float(np.mean(widths))
    assert sum(round(i * pitch) != math.floor(i * pitch) for i in range(len(cells))) == 2
    result = ocr_decode(image, cells)
    assert (result.decoded, tuple(c.hex() for c in result.confidences)) == PINNED_CURVED


def test_slot_points_turned_once_per_key_per_read(monkeypatch):
    # a read turns the slot points once per distinct (h, w, tilt key) among
    # its live cells: once for the three equal cells of a flat 'CAT', twice
    # for the curved read's two segments
    calls = []
    slot_points = ocr._slot_points

    def counted(*key):
        calls.append(key)
        return slot_points(*key)

    monkeypatch.setattr(ocr, "_slot_points", counted)
    segments = divide_mask(text_mask("CAT"), "CAT")
    ocr_decode(render_glyph_image(segments, "CAT", CANVAS).data, char_cells(segments, "CAT"))
    assert len(calls) == 1
    calls.clear()
    image, _, cells = curved_read()
    ocr_decode(image, cells)
    assert sorted(calls) == [(19, 28, -39), (19, 42, 39)]


def full_sheet_oracle(sheet_h, sheet_w, stamps):
    """The sheet encode written out: the whole RGB sheet with each (x0, y0,
    ink) stamp added, encoded, then its channel mean."""
    sheet = np.zeros((sheet_h, sheet_w, 3))
    for x0, y0, ink in stamps:
        h, w = ink.shape
        sheet[y0 : y0 + h, x0 : x0 + w, :] += ink[:, :, None]
    return LatentCodec().encode(sheet).data.mean(axis=0)[None]
