"""Diffusion: schedule validation, DDIM stepping, sampling, codec, and the
exemplar-mixture denoiser."""
import math

import numpy as np
import pytest

from slantext.corpus import (
    CANVAS,
    DEFAULT_SCENE_TEXTS,
    FlatTextCorpus,
    build_corpus,
    make_denoiser,
    render_scene_image,
    scene_background,
)
from slantext.diffusion import (
    LatentCodec,
    NoiseSchedule,
    ddim_step,
    linear_schedule,
    predict_x0,
    sample,
)
from slantext.errors import ConditionError, InputError, ScheduleError, ShapeError
from slantext.glyph import default_font
from slantext.grid import LatentGrid


def grid(arr):
    return LatentGrid(np.asarray(arr, dtype=np.float64))


def two_step_schedule():
    """Hand-picked rates giving alpha_bars [1, 0.8, 0.5]."""
    s = NoiseSchedule(betas=np.array([0.2, 0.375]))
    assert np.allclose(s.alpha_bars, [1.0, 0.8, 0.5], rtol=0, atol=1e-12)
    return s


class TestNoiseSchedule:
    def test_linear_endpoints(self):
        s = linear_schedule(20, 1e-3, 0.15)
        assert s.steps == 20
        assert s.betas[0] == pytest.approx(1e-3)
        assert s.betas[-1] == pytest.approx(0.15)
        assert s.alpha_bars[0] == 1.0
        assert np.all(np.diff(s.alpha_bars) < 0)

    def test_alpha_bars_cumprod(self):
        s = linear_schedule(5)
        assert s.alpha_bars[1:] == pytest.approx(np.cumprod(1 - s.betas))

    def test_zero_steps_rejected(self):
        with pytest.raises(ScheduleError):
            linear_schedule(0)

    def test_beta_out_of_range(self):
        with pytest.raises(ScheduleError):
            NoiseSchedule(betas=np.array([0.0, 0.1]))
        with pytest.raises(ScheduleError):
            NoiseSchedule(betas=np.array([1.0]))


class TestPredictX0:
    def test_inverts_forward_mix(self):
        rng = np.random.default_rng(3)
        x = grid(rng.standard_normal((3, 4, 4)))
        eps = grid(rng.standard_normal((3, 4, 4)))
        abar = 0.37
        z = grid(math.sqrt(abar) * x.data + math.sqrt(1 - abar) * eps.data)
        assert predict_x0(z, eps, abar).data == pytest.approx(x.data, abs=1e-12)

    def test_bad_alpha_bar(self):
        z = grid(np.zeros((1, 2, 2)))
        with pytest.raises(ScheduleError):
            predict_x0(z, z, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            predict_x0(grid(np.zeros((1, 2, 2))), grid(np.zeros((1, 3, 3))), 0.5)


class TestDdimStep:
    def test_hand_computed_deterministic_step(self):
        s = two_step_schedule()
        z = grid(np.full((1, 1, 1), 1.2))
        eps = grid(np.full((1, 1, 1), 0.3))
        out = ddim_step(z, eps, t=2, schedule=s)
        x0 = (1.2 - math.sqrt(0.5) * 0.3) / math.sqrt(0.5)
        expect = math.sqrt(0.8) * x0 + math.sqrt(1 - 0.8) * 0.3
        assert out.data[0, 0, 0] == pytest.approx(expect, abs=1e-12)

    def test_final_step_returns_clean_estimate(self):
        s = two_step_schedule()
        z = grid(np.full((1, 1, 1), 0.9))
        eps = grid(np.full((1, 1, 1), -0.2))
        out = ddim_step(z, eps, t=1, schedule=s)
        x0 = (0.9 - math.sqrt(0.2) * -0.2) / math.sqrt(0.8)
        assert out.data[0, 0, 0] == pytest.approx(x0, abs=1e-12)

    def test_hand_computed_stochastic_step(self):
        s = two_step_schedule()
        z = grid(np.full((1, 1, 1), 1.2))
        eps = grid(np.full((1, 1, 1), 0.3))
        n = grid(np.full((1, 1, 1), 0.7))
        out = ddim_step(z, eps, t=2, schedule=s, eta=1.0, noise=n)
        x0 = (1.2 - math.sqrt(0.5) * 0.3) / math.sqrt(0.5)
        sigma2 = (1 - 0.8) / (1 - 0.5) * (1 - 0.5 / 0.8)
        expect = (math.sqrt(0.8) * x0 + math.sqrt(1 - 0.8 - sigma2) * 0.3
                  + math.sqrt(sigma2) * 0.7)
        assert out.data[0, 0, 0] == pytest.approx(expect, abs=1e-12)

    def test_eta_without_noise_rejected(self):
        s = two_step_schedule()
        z = grid(np.zeros((1, 1, 1)))
        with pytest.raises(InputError):
            ddim_step(z, z, t=2, schedule=s, eta=0.5)

    def test_bad_t(self):
        s = two_step_schedule()
        z = grid(np.zeros((1, 1, 1)))
        with pytest.raises(ScheduleError):
            ddim_step(z, z, t=3, schedule=s)


class TestSample:
    def test_hook_and_trace_order(self):
        s = linear_schedule(4)
        calls = []

        def denoiser(z, abar):
            return grid(np.zeros(z.shape))

        def hook(z, t):
            calls.append(("hook", t))
            return z

        def trace(t, z):
            calls.append(("trace", t))

        sample(denoiser, grid(np.zeros((1, 2, 2))), s, hook=hook, trace=trace)
        assert calls == [("hook", 4), ("trace", 3), ("hook", 3), ("trace", 2),
                         ("hook", 2), ("trace", 1), ("hook", 1), ("trace", 0)]

    def test_identity_hook_is_bitwise_noop(self):
        s = linear_schedule(8)
        corpus = build_corpus()
        den = make_denoiser(corpus, 0)
        rng = np.random.default_rng(11)
        z_t = grid(rng.standard_normal((3, 16, 16)))
        a = sample(den, z_t, s)
        b = sample(den, z_t, s, hook=lambda z, t: z)
        assert np.array_equal(a.data, b.data)


class TestLatentCodec:
    def test_encode_shape_and_block_mean(self):
        img = np.zeros((8, 8, 3))
        img[0:4, 0:4, 0] = 1.0
        z = LatentCodec().encode(img)
        assert z.shape == (3, 2, 2)
        assert z.data[0, 0, 0] == 1.0
        assert z.data[0].sum() == 1.0
        assert z.data[1:].sum() == 0.0

    def test_encode_decode_encode_is_identity(self):
        rng = np.random.default_rng(5)
        z = grid(rng.standard_normal((3, 6, 7)))
        codec = LatentCodec()
        again = codec.encode(codec.decode(z))
        assert again.data == pytest.approx(z.data, abs=1e-12)

    def test_decode_repeats_blocks(self):
        z = grid(np.arange(4.0).reshape(1, 2, 2).repeat(3, axis=0))
        img = LatentCodec().decode(z)
        assert img.shape == (8, 8, 3)
        assert (img[0:4, 0:4, 0] == 0.0).all()
        assert (img[0:4, 4:8, 2] == 1.0).all()
        assert (img[4:8, 4:8, 1] == 3.0).all()

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            LatentCodec().encode(np.zeros((10, 8, 3)))


class TestCorpus:
    def test_counts_and_rows(self):
        corpus = build_corpus()
        assert len(corpus.exemplars) == 8 * 4
        assert sorted({ex.scene_id for ex in corpus.exemplars}) == list(range(8))
        for sid in range(8):
            members = corpus.for_scene(sid)
            assert [ex.row for ex in members] == [0, 1, 2, 3]
            assert len({ex.text for ex in members}) == 1

    def test_charset_fully_covered(self):
        used = set("".join(DEFAULT_SCENE_TEXTS))
        assert used == set(default_font().charset) - {" "}

    def test_background_zero_mean_and_smoothness(self):
        for sid in range(8):
            bg = scene_background(sid)
            assert bg.shape == (64, 64, 3)
            for c in range(3):
                assert abs(bg[:, :, c].mean()) < 1e-12
            assert np.abs(bg).max() <= 0.3 + 1e-12

    def test_backgrounds_differ_between_scenes(self):
        assert not np.allclose(scene_background(0), scene_background(1))

    def test_deterministic_rebuild(self):
        a = build_corpus()
        b = build_corpus()
        for ea, eb in zip(a.exemplars, b.exemplars):
            assert np.array_equal(ea.latent.data, eb.latent.data)

    def test_scene_image_ink_position(self):
        img = render_scene_image(0, "BLAZE", 16)
        bg = scene_background(0)
        diff = img - bg
        assert np.abs(diff[:16]).max() == 0.0
        assert np.abs(diff[30:]).max() == 0.0
        assert diff[16:30, 0:60].max() == 2.0

    def test_text_rect_must_fit(self):
        with pytest.raises(InputError):
            render_scene_image(0, "BLAZE", 55)
        with pytest.raises(InputError):
            render_scene_image(0, "ABCDEF", 0, canvas=(64, 64))


class TestMixtureDenoiser:
    def test_single_exemplar_convergence(self):
        """With one exemplar the clean estimate is that exemplar at every
        step, so the chain must land on it exactly."""
        corpus = build_corpus()
        only = corpus.exemplars[0]
        solo = FlatTextCorpus(exemplars=(only,), canvas=CANVAS)
        den = make_denoiser(solo, only.scene_id)
        s = linear_schedule(20)
        rng = np.random.default_rng(42)
        z0 = sample(den, grid(rng.standard_normal((3, 16, 16))), s)
        assert z0.data == pytest.approx(only.latent.data, abs=1e-9)

    def test_initial_proximity_selects_exemplar(self):
        corpus = build_corpus()
        members = corpus.for_scene(0)
        den = make_denoiser(corpus, 0)
        s = linear_schedule(20)
        abar_T = float(s.alpha_bars[-1])
        rng = np.random.default_rng(7)
        target = members[2]
        z_start = grid(
            math.sqrt(abar_T) * target.latent.data
            + 0.05 * rng.standard_normal((3, 16, 16)))
        z0 = sample(den, z_start, s)
        dists = [float(np.linalg.norm(z0.data - ex.latent.data)) for ex in members]
        assert int(np.argmin(dists)) == 2
        assert min(dists) < 0.05

    def test_log_domain_stability(self):
        corpus = build_corpus()
        den = make_denoiser(corpus, 0)
        z = grid(np.full((3, 16, 16), 1e6))
        eps = den(z, 0.5)
        assert np.isfinite(eps.data).all()

    def test_unknown_scene_rejected(self):
        corpus = build_corpus()
        with pytest.raises(ConditionError):
            make_denoiser(corpus, 99)
