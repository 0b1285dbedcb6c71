"""Glyph rendering: font bitmaps, flat blocks, warped quads, char cells."""
import math

import numpy as np
import pytest

from slantext import glyph
from slantext.errors import CharsetError, InputError, ShapeError
from slantext.fontdata import FONT_ROWS, GLYPH_H, GLYPH_W
from slantext.geometry import FlatLayout, QuadSegment, SimilarityTransform
from slantext.glyph import (
    BitmapFont,
    GlyphImage,
    char_cells,
    default_font,
    glyph_scale,
    render_flat_glyph,
    render_glyph_image,
    render_text_block,
)


def kron_glyph(ch, k):
    return np.kron(default_font().bitmap(ch), np.ones((k, k)))


def make_segment(corners, angle, index=0, text_slice=(0, 1)):
    return QuadSegment(corners=np.asarray(corners, dtype=float), angle=angle,
                       index=index, text_slice=text_slice)


class TestBitmapFont:
    def test_known_bitmap_row(self):
        bm = default_font().bitmap("A")
        assert bm.shape == (GLYPH_H, GLYPH_W)
        assert bm[0].tolist() == [0, 1, 1, 1, 0]  # 0x0E
        assert set(np.unique(bm)) <= {0.0, 1.0}

    def test_charset_covers_alnum_and_space(self):
        cs = default_font().charset
        for ch in "ABCXYZ0129 ":
            assert ch in cs
        assert len(cs) == len(FONT_ROWS)

    def test_unknown_char_named_in_error(self):
        with pytest.raises(CharsetError, match="'a'"):
            default_font().bitmap("a")
        with pytest.raises(CharsetError, match="'#'"):
            default_font().validate("AB#")

    def test_bad_rows_rejected(self, monkeypatch):
        for rows in ({"X": (0, 0, 0)}, {"X": (0x20, 0, 0, 0, 0, 0, 0)}, {"XY": FONT_ROWS["A"]}):
            monkeypatch.setattr(glyph, "FONT_ROWS", rows)
            with pytest.raises(CharsetError):
                BitmapFont()

    def test_all_glyphs_distinct(self):
        font = default_font()
        seen = {}
        for ch in font.charset:
            key = font.bitmap(ch).tobytes()
            assert key not in seen, f"{ch!r} duplicates {seen[key]!r}"
            seen[key] = ch


class TestGlyphScale:
    def test_exact_fit(self):
        assert glyph_scale(7, 5, 1) == 1
        assert glyph_scale(14, 10, 1) == 2
        assert glyph_scale(14, 24, 2) == 2  # 24 // 11 == 2

    def test_width_limits(self):
        assert glyph_scale(70, 17, 3) == 1  # 17 // 17
        assert glyph_scale(70, 16, 3) == 1  # floor would be 0, clamps to 1

    def test_bad_count(self):
        with pytest.raises(InputError):
            glyph_scale(14, 10, 0)


class TestRenderTextBlock:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_single_char_exact_scaled_copy(self, k):
        img = render_text_block(GLYPH_H * k, GLYPH_W * k, "A")
        assert np.array_equal(img.data, kron_glyph("A", k))

    def test_two_chars_slot_positions(self):
        img = render_text_block(14, 24, "AB")
        assert np.array_equal(img.data[0:14, 1:11], kron_glyph("A", 2))
        assert np.array_equal(img.data[0:14, 13:23], kron_glyph("B", 2))
        assert img.data[:, 0].sum() == 0
        assert img.data[:, 11:13].sum() == 0
        assert img.data[:, 23].sum() == 0

    def test_ink_is_additive_across_slots(self):
        font = default_font()
        img = render_text_block(14, 24, "AB")
        expect = 4.0 * (font.bitmap("A").sum() + font.bitmap("B").sum())
        assert img.data.sum() == expect

    def test_vertical_centering(self):
        img = render_text_block(20, 10, "A")
        assert np.array_equal(img.data[3:17, 0:10], kron_glyph("A", 2))
        assert img.data[:3].sum() == 0
        assert img.data[17:].sum() == 0

    def test_clips_when_rect_smaller_than_glyph(self):
        img = render_text_block(5, 3, "A")
        bm = default_font().bitmap("A")
        assert np.array_equal(img.data, bm[1:6, 1:4])

    def test_space_renders_empty(self):
        assert render_text_block(14, 10, " ").data.sum() == 0

    def test_rejects_unknown_char(self):
        with pytest.raises(CharsetError):
            render_text_block(14, 10, "a")

    def test_rejects_bad_size(self):
        with pytest.raises(ShapeError):
            render_text_block(0, 10, "A")


class TestGlyphImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            GlyphImage(np.full((4, 4), 1.5))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            GlyphImage(np.zeros((2, 4, 4)))

    def test_frozen(self):
        img = GlyphImage(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            img.data[0, 0] = 1.0


class TestRenderFlatGlyph:
    def layout(self, slices=((0, 2),)):
        return FlatLayout(
            rects=((0.0, 0.0, 24.0, 14.0),),
            transforms=(SimilarityTransform(1.0, 0.0, 0.0, 0.0),),
            canvas=(16, 32),
            text_slices=slices,
        )

    def test_matches_block_render(self):
        img = render_flat_glyph(self.layout(), "AB")
        block = render_text_block(14, 24, "AB")
        assert np.array_equal(img.data[0:14, 0:24], block.data)
        assert img.data[14:].sum() == 0
        assert img.data[:, 24:].sum() == 0

    def test_slice_out_of_range(self):
        with pytest.raises(InputError):
            render_flat_glyph(self.layout(slices=((0, 3),)), "AB")


class TestRenderGlyphImage:
    def test_axis_aligned_quad_is_bitwise_flat(self):
        # half-integer corners make every pixel center map onto an exact
        # source pixel, so the warp degenerates to a copy
        seg = make_segment(
            [[-0.5, 15.5], [23.5, 15.5], [23.5, 29.5], [-0.5, 29.5]],
            angle=0.0, text_slice=(0, 2),
        )
        img = render_glyph_image([seg], "AB", (64, 64))
        block = render_text_block(14, 24, "AB")
        assert np.array_equal(img.data[16:30, 0:24], block.data)
        outside = img.data.copy()
        outside[16:30, 0:24] = 0
        assert outside.sum() == 0

    def test_rotated_quad_preserves_ink_roughly(self):
        base = np.array([[-12.0, -7.0], [12.0, -7.0], [12.0, 7.0], [-12.0, 7.0]])
        ang = math.radians(30)
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        corners = base @ rot.T + np.array([32.0, 32.0])
        seg = make_segment(corners, angle=ang, text_slice=(0, 2))
        img = render_glyph_image([seg], "AB", (64, 64))
        flat_ink = render_text_block(14, 24, "AB").data.sum()
        assert 0.8 * flat_ink < img.data.sum() < 1.2 * flat_ink

    def test_empty_segments_raise(self):
        with pytest.raises(InputError):
            render_glyph_image([], "A", (64, 64))


class TestCharCells:
    def test_single_segment_split(self):
        seg = make_segment([[0.0, 0.0], [24.0, 0.0], [24.0, 14.0], [0.0, 14.0]],
                           angle=0.0, text_slice=(0, 2))
        cells = char_cells([seg], "AB")
        assert len(cells) == 2
        assert cells[0] == pytest.approx(
            np.array([[0, 0], [12, 0], [12, 14], [0, 14]], dtype=float))
        assert cells[1] == pytest.approx(
            np.array([[12, 0], [24, 0], [24, 14], [12, 14]], dtype=float))

    def test_ordering_across_segments(self):
        s0 = make_segment([[0.0, 0.0], [24.0, 0.0], [24.0, 14.0], [0.0, 14.0]],
                          angle=0.0, index=0, text_slice=(0, 2))
        s1 = make_segment([[30.0, 0.0], [42.0, 0.0], [42.0, 14.0], [30.0, 14.0]],
                          angle=0.0, index=1, text_slice=(2, 3))
        cells = char_cells([s1, s0], "ABC")  # reversed input, sorted by index
        assert len(cells) == 3
        assert cells[0][0] == pytest.approx([0.0, 0.0])
        assert cells[2][0] == pytest.approx([30.0, 0.0])

    def test_non_contiguous_slices_raise(self):
        s0 = make_segment([[0.0, 0.0], [24.0, 0.0], [24.0, 14.0], [0.0, 14.0]],
                          angle=0.0, index=0, text_slice=(0, 2))
        s1 = make_segment([[30.0, 0.0], [42.0, 0.0], [42.0, 14.0], [30.0, 14.0]],
                          angle=0.0, index=1, text_slice=(3, 4))
        with pytest.raises(InputError):
            char_cells([s0, s1], "ABCD")

    def test_total_mismatch_raises(self):
        seg = make_segment([[0.0, 0.0], [24.0, 0.0], [24.0, 14.0], [0.0, 14.0]],
                           angle=0.0, text_slice=(0, 2))
        with pytest.raises(InputError):
            char_cells([seg], "ABC")
