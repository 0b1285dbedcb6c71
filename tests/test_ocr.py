"""Template OCR: round trips, template views and sheets, correlation rows."""
import math
from unittest import mock

import numpy as np
import pytest

from slantext import bench, ocr
from slantext.bench import BaseSpec, base_mask
from slantext.corpus import CANVAS, CHAR_W, TEXT_H, render_scene_image, scene_background
from slantext.diffusion import FACTOR, LatentCodec
from slantext.errors import InputError
from slantext.geometry import PolygonMask, divide_mask
from slantext.glyph import char_cells, render_glyph_image
from slantext.grid import LatentGrid, sample_at
from slantext.ocr import OCR_SENTINEL, OcrResult, ocr_decode


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
        image = codec.decode(codec.encode(render_scene_image(0, "BLAZE", 16)))
        plate = codec.decode(codec.encode(scene_background(0)))
        mask = base_mask(BaseSpec(0, "BLAZE", 16))
        cells = char_cells(divide_mask(mask, "BLAZE"), "BLAZE")
        assert ocr_decode(image - plate, cells).decoded == "BLAZE"

    def test_bad_cell_shape(self):
        with pytest.raises(InputError):
            ocr_decode(np.zeros(CANVAS), [np.zeros((3, 2))])

    def test_result_validates_lengths(self):
        with pytest.raises(InputError):
            OcrResult("AB", (0.5,))


def full_mesh_views(sheet, slots, offsets):
    """Template views by the full-size formula: the latent sheet repeated
    FACTOR x FACTOR (the decoded sheet), sampled on (chars, offsets, points)
    meshes of every slot point displaced by every (x, y) offset."""
    sheet = LatentGrid(np.repeat(np.repeat(sheet.data, FACTOR, axis=1), FACTOR, axis=2))
    px = slots[:, 0, None, :] + offsets[None, :, 0, None]
    py = slots[:, 1, None, :] + offsets[None, :, 1, None]
    n_ch, n_off, n_pts = px.shape
    views = sample_at(sheet, px.reshape(-1, n_pts), py.reshape(-1, n_pts))[0]
    return views.reshape(n_ch, n_off, n_pts)


# (h, w, tilt_key, reach) cell shapes, and the search grids of ocr_decode:
# (center, (half_x, half_y, step)) for the coarse, fine and context stages
VIEW_CASES = [(7, 5, 0, 10), (11, 8, 37, 12), (14, 12, -90, 11), (9, 17, 180, 14)]
SEARCH_GRIDS = (
    (np.zeros(2), (ocr.SEARCH_X, ocr.SEARCH_Y, 1.0)),
    (np.array([2.0, -3.0]), (ocr.FINE_HALF, ocr.FINE_HALF, ocr.FINE_STEP)),
    (np.array([2.25, -2.75]), (1.0, 1.0, ocr.FINE_STEP)),
)
ANCHOR = np.array([0.37, -1.21])


def search_axes(center, grid):
    ax, ay = ocr._offset_axes(*grid)
    return ANCHOR[0] + (center[0] + ax), ANCHOR[1] + (center[1] + ay)


def wide_template_sheet(h, w, reach):
    """The template sheet at its former width, 2 * margin + stride * chars:
    the text sheet's layout with zero columns past the last slot's margin."""
    flats, _ = ocr._flat_templates(h, w)
    margin = FACTOR * math.ceil((reach + h + w) / FACTOR)
    stride = FACTOR * math.ceil((2 * reach + h + w + 2 * FACTOR) / FACTOR)
    return ocr._blocked_sheet(
        FACTOR * math.ceil((2 * margin + h) / FACTOR),
        2 * margin + stride * len(flats),
        [(margin + i * stride, margin, flat) for i, flat in enumerate(flats)],
    )


class TestOcrViews:
    @pytest.mark.parametrize("h,w,tilt_key,reach", VIEW_CASES)
    def test_axis_views_match_full_mesh(self, h, w, tilt_key, reach):
        sheet, _ = ocr._template_sheet(h, w, reach)
        slots = ocr._template_slots(h, w, tilt_key, reach)
        for center, grid in SEARCH_GRIDS:
            ax, ay = ocr._offset_axes(*grid)
            gx, gy = np.meshgrid(ax, ay)
            offsets = ANCHOR + (center + np.stack([gx.ravel(), gy.ravel()], axis=1))
            want = full_mesh_views(sheet, slots, offsets)
            # the views land in the front of a caller's buffer, offsets outermost
            shape = (len(ay), len(ax)) + slots[:, 0].shape
            buf = np.full(math.prod(shape) + 7, np.nan)
            got = buf[: math.prod(shape)].reshape(shape)
            ocr._raw_views(sheet, slots, *search_axes(center, grid), got)
            assert np.isnan(buf[got.size :]).all()
            got = got.transpose(2, 0, 1, 3).reshape(want.shape)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    # one case, at the codec's factor; the id keeps the factor it ran at
    @pytest.mark.parametrize("factor", [FACTOR])
    def test_latent_sheet_repeats_to_decoded_sheet(self, factor):
        rng = np.random.default_rng(factor)
        stamps = []
        for x0, y0 in ((3, 5), (17, 2), (30, 9)):
            ink = rng.standard_normal((7, 5))
            ink[::2] = 0.0
            ink[1::3] = -0.0
            stamps.append((x0, y0, ink))
        sheet_h, sheet_w = 4 * 5, 4 * 10
        latent = ocr._blocked_sheet(sheet_h, sheet_w, stamps)
        assert latent.shape == (1, sheet_h // factor, sheet_w // factor)
        sheet = np.zeros((sheet_h, sheet_w, 3))
        for x0, y0, ink in stamps:
            sheet[y0 : y0 + 7, x0 : x0 + 5, :] = ink[:, :, None]
        codec = LatentCodec()
        want = codec.decode(codec.encode(sheet)).mean(axis=2)
        got = np.repeat(np.repeat(latent.data[0], factor, axis=0), factor, axis=1)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("factor", [FACTOR])
    def test_band_sheets_match_full_sheet_encode(self, factor):
        # every sheet the OCR builds, captured on its way in: template sheets
        # over the whole reach range, and context sheets at a fractional
        # pitch, so their stamps sit off the block grid in x
        calls = []
        blocked = ocr._blocked_sheet

        def capture(*args):
            calls.append(args)
            return blocked(*args)

        with mock.patch.object(ocr, "_blocked_sheet", capture):
            for reach in range(8, 30):
                h, w = (7, 5) if reach % 2 else (14, 11)
                ocr._template_sheet.__wrapped__(h, w, reach)
            frames = [(None, 11, 9, 0.0), (None, 12, 8, 0.0), (None, 11, 10, 0.0)]
            for decoded, pitch in (("A7Q", 9.37), ("W ?", 8.61), ("???", 9.0), ("M0Z", 10.5)):
                ocr._context_grid(frames, decoded, pitch, 13)
        assert len(calls) == 22 + 4
        assert any(x0 % factor for _, _, stamps in calls for x0, _, _ in stamps)
        for args in calls:
            got = blocked(*args).data
            want = full_sheet_oracle(*args)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("h,w,tilt_key,reach", VIEW_CASES)
    def test_views_ignore_columns_past_the_last_slot(self, h, w, tilt_key, reach):
        # the template sheet used to run stride * chars wide; the text sheet
        # ends one margin past the last slot, and every slot point stays
        # inside it, so the views are the same bits, signs of zero included
        sheet, _ = ocr._template_sheet(h, w, reach)
        wide = wide_template_sheet(h, w, reach)
        assert wide.data.shape[2] > sheet.data.shape[2]
        assert np.array_equal(wide.data[:, :, : sheet.data.shape[2]], sheet.data)
        slots = ocr._template_slots(h, w, tilt_key, reach)
        for center, grid in SEARCH_GRIDS:
            xs, ys = search_axes(center, grid)
            shape = (len(ys), len(xs)) + slots[:, 0].shape
            got, want = np.empty(shape), np.empty(shape)
            ocr._raw_views(sheet, slots, xs, ys, got)
            ocr._raw_views(wide, slots, xs, ys, want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_tilts_share_template_sheet(self):
        # the sheet depends on the cell shape and reach, not the tilt: cells
        # at other tilts read the same sheet through their own slot points
        sheet, corners = ocr._template_sheet(11, 8, 13)
        fresh = ocr._template_sheet.__wrapped__(11, 8, 13)
        assert np.array_equal(sheet.data, fresh[0].data) and corners == fresh[1]
        flat, tilted = ocr._template_slots(11, 8, 0, 13), ocr._template_slots(11, 8, 37, 13)
        assert not np.array_equal(flat, tilted)

    @pytest.mark.parametrize("h,w,tilt_key", [(7, 5, 0), (11, 8, 37), (14, 12, -90)])
    def test_correlation_keeps_old_gemv_rows(self, h, w, tilt_key):
        # OpenBLAS rounds a gemv row differently with its place in a group of
        # four rows (splitting a coarse cell's matrix by 1, 2 or 5 y-rows moved
        # correlations by up to 1.1e-16, by 4 rows not at all), and reads flip
        # on noise that size.  So the correlation must run the gemv on the
        # rows in their old (chars, ys, xs) order, whatever the view layout.
        # The search's offset counts (221, 49, 81) are 1 mod 4, like the 37
        # characters, so a gemv in the views' own row order lands every row
        # in the same place there; the 6- and 15-offset grids tell it apart.
        sheet, _ = ocr._template_sheet(h, w, 14)
        slots = ocr._template_slots(h, w, tilt_key, 14)
        rng = np.random.default_rng(h * w)
        unit = ocr._normalize_rows(rng.standard_normal((1, slots.shape[2])))[0]
        for half_x, half_y, step in (
            (ocr.SEARCH_X, ocr.SEARCH_Y, 1.0),
            (ocr.FINE_HALF, ocr.FINE_HALF, ocr.FINE_STEP),
            (1.0, 1.0, ocr.FINE_STEP),
            (1.0, 0.5, 1.0),
            (2.0, 1.0, 1.0),
        ):
            ax, ay = ocr._offset_axes(half_x, half_y, step)
            n_y, n_x, (n_ch, n_pts) = len(ay), len(ax), slots[:, 0].shape
            views = np.empty((n_y, n_x, n_ch, n_pts))
            ocr._raw_views(sheet, slots, 0.37 + ax, -1.21 + ay, views)
            old = views.transpose(2, 0, 1, 3).reshape(-1, n_pts)
            want = (ocr._normalize_rows(old.copy()) @ unit).reshape(n_ch, n_y * n_x)
            got = ocr._correlate(views, unit, np.empty(views.size + 3))
            assert np.array_equal(got, want)


def full_sheet_oracle(sheet_h, sheet_w, stamps):
    """The sheet encode before band encoding: the whole RGB sheet built and
    encoded, then its channel mean."""
    sheet = np.zeros((sheet_h, sheet_w, 3))
    for x0, y0, ink in stamps:
        h, w = ink.shape
        sheet[y0 : y0 + h, x0 : x0 + w, :] = ink[:, :, None]
    return LatentCodec().encode(sheet).data.mean(axis=0)[None]
