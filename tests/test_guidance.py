"""Guidance: branch equations, step weighting, reference alignment, and the
generate pipeline's determinism and flag semantics."""
import hashlib
import math

import numpy as np
import pytest

from slantext.corpus import build_corpus, make_denoiser
from slantext.diffusion import linear_schedule, sample
from slantext.errors import CharsetError, InputError
from slantext.geometry import (
    FlatLayout,
    PolygonMask,
    QuadSegment,
    SimilarityTransform,
    polygon_area,
)
from slantext.grid import LatentGrid, RegionMask, adain, masked_blend
from slantext.guidance import (
    GenerationResult,
    GuidanceConfig,
    align_reference,
    apply_guidance,
    build_reference,
    generate,
    kappa,
    make_guidance_hook,
    merge_priors,
    semantic_rectify,
    structure_inject,
)


def grid(arr):
    return LatentGrid(np.asarray(arr, dtype=np.float64))


def rand_grid(rng, shape=(3, 8, 8)):
    return grid(rng.standard_normal(shape))


def checker_mask(h=8, w=8):
    m = np.indices((h, w)).sum(axis=0) % 2
    return RegionMask(m.astype(np.float64))


def row_mask(y0: int, n_chars: int) -> PolygonMask:
    """Pixel-box rect over a corpus text row."""
    x1 = 12 * n_chars - 0.5
    return PolygonMask(np.array([
        [-0.5, y0 - 0.5], [x1, y0 - 0.5], [x1, y0 + 13.5], [-0.5, y0 + 13.5],
    ]))


def positive(verts: np.ndarray) -> PolygonMask:
    return PolygonMask(verts[::-1] if polygon_area(verts) < 0 else verts)


def arc_mask() -> PolygonMask:
    """A 140-degree arch of radii 14 and 26, 24 vertices per side."""
    th = np.radians(np.linspace(200.0, 340.0, 24))
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    return positive(np.vstack([(31.5, 44.0) + 26.0 * ring, (31.5, 44.0) + 14.0 * ring[::-1]]))


def s_curve_mask() -> PolygonMask:
    """One sine period of amplitude 4 over 50 px, 12 px thick, 32 vertices
    per side."""
    s = np.linspace(-25.0, 25.0, 32)
    k = 2.0 * math.pi / 50.0
    center = np.stack([s, 4.0 * np.sin(k * s)], axis=1)
    tangent = np.stack([np.ones_like(s), 4.0 * k * np.cos(k * s)], axis=1)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    return positive(
        np.vstack([center - 6.0 * normal, (center + 6.0 * normal)[::-1]]) + (31.5, 31.5)
    )


class TestGuidanceConfig:
    def test_defaults_active(self):
        cfg = GuidanceConfig()
        assert cfg.active
        assert cfg.lambda_ == 0.5 and cfg.rho == 0.5

    def test_lambda_bounds(self):
        with pytest.raises(InputError):
            GuidanceConfig(lambda_=0.6)
        with pytest.raises(InputError):
            GuidanceConfig(lambda_=-0.51)

    def test_rho_bounds(self):
        with pytest.raises(InputError):
            GuidanceConfig(rho=0.0)
        with pytest.raises(InputError):
            GuidanceConfig(rho=2.5)

    def test_refine_steps_bound(self):
        with pytest.raises(InputError):
            GuidanceConfig(refine_steps=0)

    def test_lambda_zero_inactive_unless_literal(self):
        assert not GuidanceConfig(lambda_=0.0).active
        assert GuidanceConfig(lambda_=0.0, literal_lambda_zero=True).active

    def test_both_branches_off_inactive(self):
        assert not GuidanceConfig(use_srb=False, use_sib=False).active


class TestKappa:
    def test_decade_per_step(self):
        assert kappa(20, 20) == 1.0
        assert kappa(19, 20) == pytest.approx(0.1)
        assert kappa(18, 20) == pytest.approx(0.01)


class TestBranchEquations:
    def test_rectify_without_adain_is_masked_copy(self):
        rng = np.random.default_rng(0)
        z_ref, z_t = rand_grid(rng), rand_grid(rng)
        m = checker_mask()
        out = semantic_rectify(z_ref, z_t, m, use_adain=False)
        expect = z_ref.data * m.data + z_t.data * (1 - m.data)
        assert np.array_equal(out.data, expect)

    def test_rectify_with_adain_matches_composition(self):
        rng = np.random.default_rng(1)
        z_ref, z_t = rand_grid(rng), rand_grid(rng)
        m = checker_mask()
        out = semantic_rectify(z_ref, z_t, m, use_adain=True)
        expect = masked_blend(adain(z_ref, z_t), z_t, m)
        assert np.array_equal(out.data, expect.data)

    def test_inject_always_stat_matched(self):
        rng = np.random.default_rng(2)
        z_g, z_t = rand_grid(rng), rand_grid(rng)
        m = checker_mask()
        out = structure_inject(z_g, z_t, m)
        expect = masked_blend(adain(z_g, z_t), z_t, m)
        assert np.array_equal(out.data, expect.data)

    def test_merge_is_unmasked_mix(self):
        rng = np.random.default_rng(3)
        z_rect, z_g, z_t = rand_grid(rng), rand_grid(rng), rand_grid(rng)
        out = merge_priors(z_rect, z_g, z_t, rho=0.25)
        expect = 0.25 * adain(z_g, z_t).data + 0.75 * z_rect.data
        assert out.data == pytest.approx(expect, abs=1e-12)

    def test_merge_rho_one_is_pure_structure(self):
        rng = np.random.default_rng(4)
        z_rect, z_g, z_t = rand_grid(rng), rand_grid(rng), rand_grid(rng)
        out = merge_priors(z_rect, z_g, z_t, rho=1.0)
        assert out.data == pytest.approx(adain(z_g, z_t).data, abs=1e-12)


class TestApplyGuidance:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.z_t = rand_grid(rng)
        self.z_ref = rand_grid(rng)
        self.z_g = rand_grid(rng)
        self.mask = checker_mask()

    def test_final_step_full_strength_blend(self):
        cfg = GuidanceConfig()
        out = apply_guidance(self.z_t, 20, 20, cfg, self.mask,
                             z_ref=self.z_ref, ref_mask=self.mask, z_glyph=self.z_g)
        z_tilde = semantic_rectify(self.z_ref, self.z_t, self.mask, True)
        z_hat = merge_priors(z_tilde, self.z_g, self.z_t, cfg.rho)
        expect = masked_blend(grid(0.5 * z_hat.data), self.z_t, self.mask)
        assert out.data == pytest.approx(expect.data, abs=1e-12)
        # unmasked cells untouched
        off = self.mask.data == 0
        assert np.array_equal(out.data[:, off], self.z_t.data[:, off])

    def test_structure_only_path(self):
        cfg = GuidanceConfig(use_srb=False)
        out = apply_guidance(self.z_t, 20, 20, cfg, self.mask, z_glyph=self.z_g)
        z_hat = structure_inject(self.z_g, self.z_t, self.mask)
        expect = masked_blend(grid(0.5 * z_hat.data), self.z_t, self.mask)
        assert out.data == pytest.approx(expect.data, abs=1e-12)

    def test_semantic_only_path(self):
        cfg = GuidanceConfig(use_sib=False)
        out = apply_guidance(self.z_t, 20, 20, cfg, self.mask,
                             z_ref=self.z_ref, ref_mask=self.mask)
        z_hat = semantic_rectify(self.z_ref, self.z_t, self.mask, True)
        expect = masked_blend(grid(0.5 * z_hat.data), self.z_t, self.mask)
        assert out.data == pytest.approx(expect.data, abs=1e-12)

    def test_step_weight_decay(self):
        cfg = GuidanceConfig(use_srb=False)
        out = apply_guidance(self.z_t, 19, 20, cfg, self.mask, z_glyph=self.z_g)
        z_hat = structure_inject(self.z_g, self.z_t, self.mask)
        inner = 0.1 * 0.5 * z_hat.data + 0.9 * self.z_t.data
        expect = masked_blend(grid(inner), self.z_t, self.mask)
        assert out.data == pytest.approx(expect.data, abs=1e-12)

    def test_literal_zero_attenuates(self):
        cfg = GuidanceConfig(use_srb=False, lambda_=0.0, literal_lambda_zero=True)
        out = apply_guidance(self.z_t, 20, 20, cfg, self.mask, z_glyph=self.z_g)
        on = self.mask.data == 1
        assert np.abs(out.data[:, on]).max() == 0.0
        off = self.mask.data == 0
        assert np.array_equal(out.data[:, off], self.z_t.data[:, off])

    def test_missing_inputs_raise(self):
        with pytest.raises(InputError):
            apply_guidance(self.z_t, 20, 20, GuidanceConfig(), self.mask)
        with pytest.raises(InputError):
            apply_guidance(self.z_t, 20, 20, GuidanceConfig(use_srb=False), self.mask)

    def test_hook_inactive_after_refine_window(self):
        cfg = GuidanceConfig(use_srb=False, refine_steps=3)
        sched = linear_schedule(20)
        hook = make_guidance_hook(cfg, sched, self.mask, z_glyph=self.z_g)
        assert hook(self.z_t, 17) is self.z_t
        assert hook(self.z_t, 18) is not self.z_t


class TestAlignReference:
    def test_integer_latent_translation_is_exact(self):
        rng = np.random.default_rng(6)
        z_ref = rand_grid(rng, (3, 16, 16))
        # flat rect at origin, 16x16 px; segment at (0, 16) px: one latent
        # row block down
        layout = FlatLayout(
            rects=((0.0, 0.0, 16.0, 16.0),),
            transforms=(SimilarityTransform(1.0, 0.0, -0.5, 15.5),),
            canvas=(64, 64),
            text_slices=((0, 1),),
        )
        seg = QuadSegment(
            corners=np.array([[-0.5, 15.5], [15.5, 15.5],
                              [15.5, 31.5], [-0.5, 31.5]]),
            angle=0.0, index=0, text_slice=(0, 1),
        )
        aligned, valid = align_reference(z_ref, layout, [seg], factor=4)
        assert np.array_equal(aligned.data[:, 4:8, 0:4], z_ref.data[:, 0:4, 0:4])
        assert valid.data[4:8, 0:4].all()
        assert valid.data.sum() == 16
        outside = aligned.data.copy()
        outside[:, 4:8, 0:4] = 0
        assert np.abs(outside).max() == 0.0

    def test_count_mismatch_raises(self):
        layout = FlatLayout(rects=(), transforms=(), canvas=(64, 64), text_slices=())
        seg = QuadSegment(
            corners=np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [0.0, 8.0]]),
            angle=0.0, index=0, text_slice=(0, 1),
        )
        with pytest.raises(InputError):
            align_reference(grid(np.zeros((3, 16, 16))), layout, [seg], 4)


class TestBuildReference:
    def test_deterministic_and_lands_on_exemplar(self):
        corpus = build_corpus()
        den = make_denoiser(corpus, 3)
        sched = linear_schedule()
        a = build_reference(den, sched, np.random.default_rng(9), (3, 16, 16))
        b = build_reference(den, sched, np.random.default_rng(9), (3, 16, 16))
        assert np.array_equal(a.data, b.data)
        dists = [float(np.linalg.norm(a.data - ex.latent.data))
                 for ex in corpus.for_scene(3)]
        assert min(dists) < 0.1


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


class TestGeneratePipeline:
    def test_guided_runs_are_bitwise_repeatable(self, corpus):
        mask = row_mask(16, 5)
        a = generate("BLAZE", mask, 0, seed=101, corpus=corpus)
        b = generate("BLAZE", mask, 0, seed=101, corpus=corpus)
        assert np.array_equal(a.z0.data, b.z0.data)
        assert a.guided and b.guided

    def test_flags_off_matches_plain_sampling(self, corpus):
        mask = row_mask(16, 5)
        cfg = GuidanceConfig(use_srb=False, use_sib=False)
        res = generate("BLAZE", mask, 0, seed=55, config=cfg, corpus=corpus)
        assert not res.guided
        main_ss, _ = np.random.SeedSequence(55).spawn(2)
        rng = np.random.default_rng(main_ss)
        z_init = LatentGrid(rng.standard_normal((3, 16, 16)))
        plain = sample(make_denoiser(corpus, 0), z_init, linear_schedule())
        assert np.array_equal(res.z0.data, plain.data)

    def test_lambda_zero_bitwise_equals_flags_off(self, corpus):
        mask = row_mask(32, 5)
        off = generate("FROCK", mask, 2, seed=77,
                       config=GuidanceConfig(use_srb=False, use_sib=False),
                       corpus=corpus)
        lz = generate("FROCK", mask, 2, seed=77,
                      config=GuidanceConfig(lambda_=0.0), corpus=corpus)
        assert np.array_equal(off.z0.data, lz.z0.data)
        assert not lz.guided

    def test_literal_lambda_zero_differs(self, corpus):
        mask = row_mask(32, 5)
        off = generate("FROCK", mask, 2, seed=77,
                       config=GuidanceConfig(use_srb=False, use_sib=False),
                       corpus=corpus)
        lit = generate("FROCK", mask, 2, seed=77,
                       config=GuidanceConfig(lambda_=0.0, literal_lambda_zero=True),
                       corpus=corpus)
        assert lit.guided
        assert not np.array_equal(off.z0.data, lit.z0.data)

    def test_guidance_steers_row_selection(self, corpus):
        # seed 5 unguided lands on the row-3 exemplar; a mask over row 1
        # must pull the guided chain there instead
        members = corpus.for_scene(3)
        mask = row_mask(16, 5)
        on = generate("NIGHT", mask, 3, seed=5, corpus=corpus)
        off = generate("NIGHT", mask, 3, seed=5,
                       config=GuidanceConfig(use_srb=False, use_sib=False),
                       corpus=corpus)
        d_on = [float(np.linalg.norm(on.z0.data - ex.latent.data)) for ex in members]
        d_off = [float(np.linalg.norm(off.z0.data - ex.latent.data)) for ex in members]
        assert int(np.argmin(d_off)) == 3
        assert int(np.argmin(d_on)) == 1
        assert not np.array_equal(on.z0.data, off.z0.data)

    def test_sib_toggle_keeps_main_stream(self, corpus):
        """Turning the structure branch on and off must not shift which
        noise the main chain draws; only the hook changes."""
        mask = row_mask(0, 5)
        a = generate("JUMPY", mask, 1, seed=8,
                     config=GuidanceConfig(use_srb=True, use_sib=True), corpus=corpus)
        b = generate("JUMPY", mask, 1, seed=8,
                     config=GuidanceConfig(use_srb=True, use_sib=False), corpus=corpus)
        assert a.guided and b.guided
        # different outputs, but both deterministic
        a2 = generate("JUMPY", mask, 1, seed=8,
                      config=GuidanceConfig(use_srb=True, use_sib=True), corpus=corpus)
        assert np.array_equal(a.z0.data, a2.z0.data)

    def test_result_carries_decomposition(self, corpus):
        mask = row_mask(16, 5)
        res = generate("BLAZE", mask, 0, seed=1, corpus=corpus)
        assert len(res.segments) == 1
        assert res.layout is not None
        assert res.image.shape == (64, 64, 3)

    # sha256 of the guided image bytes (float64, numpy 2.4): every cut,
    # quad inverse and guidance step on a curved mask must stay bitwise put
    @pytest.mark.parametrize("mask_fn,text,n_segments,digest", [
        (arc_mask, "CURVED", 2,
         "58b53874a6b18bff272cee7af3b332a9b7bfa61cc79e6a7e7756e20f80b3ac6b"),
        (s_curve_mask, "WAVY4", 2,
         "a8181a319203905117bf60e9837c3803e50a2e7867516efea4828c549b2432fe"),
    ], ids=["arc", "s_curve"])
    def test_curved_outputs_pinned(self, corpus, mask_fn, text, n_segments, digest):
        res = generate(text, mask_fn(), 3, seed=11, corpus=corpus)
        assert len(res.segments) == n_segments
        assert hashlib.sha256(res.image.tobytes()).hexdigest() == digest

    def test_bad_text_rejected(self, corpus):
        with pytest.raises(CharsetError):
            generate("blaze", row_mask(16, 5), 0, seed=1, corpus=corpus)

    def test_empty_text_rejected(self, corpus):
        with pytest.raises(InputError):
            generate("", row_mask(16, 5), 0, seed=1, corpus=corpus)
