"""Diffusion: schedule validation, DDIM stepping, sampling, codec, and the
exemplar-mixture denoiser."""
import hashlib
import math

import numpy as np
import pytest

from slantext.corpus import (
    CANVAS,
    DEFAULT_SCENE_TEXTS,
    GMM_TAU,
    FlatTextCorpus,
    _scene_images,
    build_corpus,
    make_denoiser,
    scene_background,
)
from slantext import diffusion
from slantext.diffusion import (
    DEFAULT_SCHEDULE,
    FACTOR,
    LatentCodec,
    NoiseSchedule,
    block_means,
    ddim_step,
    linear_schedule,
    predict_x0,
    sample,
)
from slantext.errors import ConditionError, InputError, ScheduleError, ShapeError
from slantext.glyph import default_font
from slantext.grid import LatentGrid

from pins import pinned


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


def as_state(z, data):
    """data as the same type as the chain's state z, an array or a
    LatentGrid, so that a test denoiser or hook hands back a bad value of the
    kind the chain expects and the chain's own checks must catch it."""
    return LatentGrid(data) if isinstance(z, LatentGrid) else data


def chained_ddim_steps(denoiser, z_init, schedule, hook=None):
    """sample written out with the LatentGrid wrappers, one ddim_step a step."""
    z = z_init
    for t in range(schedule.steps, 0, -1):
        if hook is not None:
            z = grid(hook(z.data, t))
        eps = grid(denoiser(z.data, float(schedule.alpha_bars[t])))
        z = ddim_step(z, eps, t, schedule)
    return z


class TestSample:
    def test_hook_and_trace_order(self):
        s = linear_schedule(4)
        calls = []

        def denoiser(z, abar):
            assert isinstance(z, np.ndarray)
            return np.zeros(z.shape)

        def hook(z, t):
            assert isinstance(z, np.ndarray)
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
        seen = []

        def identity(z, t):
            seen.append(type(z))
            return z

        a = sample(den, z_t, s)
        b = sample(den, z_t, s, hook=identity)
        assert seen == [np.ndarray] * 8
        assert np.array_equal(a.data, b.data)

    def test_trace_receives_latent_grids(self):
        s = linear_schedule(6)
        den = make_denoiser(build_corpus(), 1)
        z_init = grid(np.random.default_rng(12).standard_normal((3, 16, 16)))
        seen = []
        out = sample(den, z_init, s, trace=lambda t, z: seen.append((t, z)))
        assert [t for t, _ in seen] == [5, 4, 3, 2, 1, 0]
        assert all(isinstance(z, LatentGrid) for _, z in seen)
        assert isinstance(out, LatentGrid)
        assert np.array_equal(seen[-1][1].data, out.data)

    @pytest.mark.parametrize("with_hook", [False, True])
    def test_bitwise_equal_to_chained_ddim_steps(self, with_hook):
        s = linear_schedule(20)
        den = make_denoiser(build_corpus(), 2)
        rng = np.random.default_rng(13)
        z_init = grid(rng.standard_normal((3, 16, 16)))
        hook = None
        if with_hook:
            nudge = 0.3 * rng.standard_normal((3, 16, 16))

            def hook(z, t):
                return z + nudge if t > 17 else z

        out = sample(den, z_init, s, hook=hook)
        assert np.array_equal(out.data, chained_ddim_steps(den, z_init, s, hook).data)

    def test_eps_of_another_shape_raises(self):
        # a (1, H, W) prediction broadcasts against a (3, H, W) state as an
        # array, so the chain must check the shape itself
        s = linear_schedule(4)

        def denoiser(z, abar):
            return as_state(z, np.zeros((1, 4, 4)))

        with pytest.raises(ShapeError):
            sample(denoiser, grid(np.ones((3, 4, 4))), s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eps_at_a_middle_step_raises(self, bad):
        s = linear_schedule(6)
        calls = []
        traced = []

        def denoiser(z, abar):
            calls.append(abar)
            data = np.zeros((3, 4, 4))
            if len(calls) == 3:
                data[1, 2, 3] = bad
            return as_state(z, data)

        with pytest.raises(ShapeError):
            sample(denoiser, grid(np.ones((3, 4, 4))), s,
                   trace=lambda t, z: traced.append(t))
        assert len(calls) == 3
        assert traced == [5, 4]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hook_output_raises(self, bad):
        s = linear_schedule(6)
        den = make_denoiser(build_corpus(), 0)
        calls = []

        def denoiser(z, abar):
            calls.append(abar)
            return den(z, abar)

        def hook(z, t):
            if t != 4:
                return z
            data = np.zeros((3, 16, 16))
            data[0, 5, 5] = bad
            return as_state(z, data)

        with pytest.raises(ShapeError):
            sample(denoiser, grid(np.zeros((3, 16, 16))), s, hook=hook)
        assert len(calls) == 2


    @pytest.mark.parametrize("array_denoiser", [True, False], ids=["zeros", "mixture"])
    def test_hook_output_of_another_shape_raises(self, array_denoiser):
        # a hook that crops the state once: an array-level denoiser would
        # carry the cropped chain on, and the mixture denoiser would fail
        # to broadcast it against its exemplars
        s = linear_schedule(4)
        den = (lambda z, abar: np.zeros(z.shape)) if array_denoiser else make_denoiser(build_corpus(), 0)

        def hook(z, t):
            return z[:, :8, :8] if t == 3 else z

        with pytest.raises(ShapeError, match="hook output"):
            sample(den, grid(np.zeros((3, 16, 16))), s, hook=hook)

    def test_hook_returning_its_input_is_not_rechecked(self, monkeypatch):
        # the state a hook hands back unchanged was checked when it was made
        s = linear_schedule(5)
        checked = []
        require = diffusion._require_finite
        monkeypatch.setattr(diffusion, "_require_finite",
                            lambda z, what: checked.append(what) or require(z, what))
        nudge = np.full((3, 4, 4), 0.25)

        def hook(z, t):
            return z + nudge if t == 4 else z

        sample(lambda z, abar: np.zeros(z.shape), grid(np.ones((3, 4, 4))), s, hook=hook)
        assert checked.count("hook output") == 1
        assert checked.count("noise prediction") == checked.count("step output") == 5


class TestDefaultSchedule:
    def test_is_the_default_linear_schedule_and_read_only(self):
        want = linear_schedule()
        assert DEFAULT_SCHEDULE.steps == 20
        assert np.array_equal(DEFAULT_SCHEDULE.betas, want.betas)
        assert np.array_equal(DEFAULT_SCHEDULE.alpha_bars, want.alpha_bars)
        for arr in (DEFAULT_SCHEDULE.betas, DEFAULT_SCHEDULE.alpha_bars):
            with pytest.raises(ValueError):
                arr[0] = 0.5


class TestBlockMeans:
    SIZES = [(4, 4), (8, 12), (20, 16), (12, 40), (64, 64), (96, 160)]

    @pytest.mark.parametrize("size", SIZES)
    def test_channel_first_views_match_numpy_mean(self, size):
        # the codec's view of an (H, W, 3) image: numpy's mean over the
        # block axes adds each block's values in row-major order, as
        # block_means does on any stack
        h, w = size
        rng = np.random.default_rng(7 * h + w)
        for _ in range(20):
            img = rng.standard_normal((h, w, 3)) * rng.uniform(0.1, 100.0)
            view = img.transpose(2, 0, 1)
            want = view.reshape(3, h // FACTOR, FACTOR, w // FACTOR, FACTOR).mean(axis=(2, 4))
            got = block_means(view)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", SIZES)
    def test_one_channel_rounds_as_its_three_channel_repeat(self, size):
        # the glyph prior: block_means of one sheet, repeated, is the
        # codec's encode of the sheet repeated over 3 channels
        h, w = size
        rng = np.random.default_rng(h + 11 * w)
        for _ in range(20):
            ink = 2.0 * rng.uniform(0.0, 1.0, (h, w))
            want = LatentCodec().encode(np.repeat(ink[:, :, None], 3, axis=2)).data
            got = np.repeat(block_means(ink[None]), 3, axis=0)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 8, 12), (1, 4, 4), (3, 4, 4)])
    def test_block_sum_runs_in_row_major_order(self, shape):
        # written out: each block's values added one at a time onto +0.0;
        # their magnitudes spread over 2^60, so another order rounds
        # otherwise.  A lone block, or one block per sheet, is where numpy
        # would loop over the block's values innermost and add them pairwise
        rng = np.random.default_rng(3)
        stack = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 30, shape)
        n, h, w = shape
        want = np.zeros((n, h // 4, w // 4))
        for k, i, j in np.ndindex(want.shape):
            total = 0.0
            for v in stack[k, 4 * i:4 * i + 4, 4 * j:4 * j + 4].ravel().tolist():
                total += v
            want[k, i, j] = total / 16
        assert block_means(stack).tobytes() == want.tobytes()
        # numpy's mean of the contiguous stack adds in another order
        assert not np.array_equal(stack.reshape(n, h // 4, 4, w // 4, 4).mean(axis=(2, 4)), want)

    def test_zero_blocks_mean_positive_zero(self):
        # the sum starts from +0.0, as numpy's mean does: a block of -0.0
        # means +0.0
        stack = np.full((2, 8, 4), -0.0)
        stack[1, 4:, :] = 0.0
        got = block_means(stack)
        assert not np.signbit(got).any()
        assert not got.any()


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

    @pytest.mark.parametrize("size", [(4, 4), (8, 12), (20, 16), (64, 64), (96, 160)])
    def test_encode_rounds_as_pixel_major_block_means(self, size):
        # encode takes the block means of the image's channel-first view, so
        # each block's sum runs in the image's own memory order, bitwise the
        # pixel-major formula; a channel-first copy sums in another order
        h, w = size
        rng = np.random.default_rng(h * w)
        for _ in range(20):
            img = rng.standard_normal((h, w, 3)) * rng.uniform(0.1, 100.0)
            want = img.reshape(h // 4, 4, w // 4, 4, 3).mean(axis=(1, 3)).transpose(2, 0, 1)
            got = LatentCodec().encode(img).data
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


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

    def test_exemplar_latents_pinned(self):
        # sha256 of the 32 default exemplar latents in corpus order (float64,
        # numpy 2.4): rendering each scene's background and text once for
        # all its rows must not move one bit
        h = hashlib.sha256()
        for ex in build_corpus().exemplars:
            h.update(ex.latent.data.tobytes())
        assert h.hexdigest() == pinned("exemplar_latents")["default_corpus"]

    def test_scene_image_ink_position(self):
        (img,) = _scene_images(0, "BLAZE", (16,), CANVAS)
        bg = scene_background(0)
        diff = img - bg
        assert np.abs(diff[:16]).max() == 0.0
        assert np.abs(diff[30:]).max() == 0.0
        assert diff[16:30, 0:60].max() == 2.0

    def test_text_rect_must_fit(self):
        with pytest.raises(InputError):
            _scene_images(0, "BLAZE", (55,), CANVAS)
        with pytest.raises(InputError):
            _scene_images(0, "ABCDEF", (0,), (64, 64))


def tensordot_denoise(members, z, abar_t):
    """The mixture denoiser written out over the (M, C, H, W) exemplar stack
    with np.tensordot, on the (C, H, W) array z: the reference the denoiser
    must equal bitwise."""
    stack = np.stack([ex.latent.data for ex in members])
    var = (1.0 - abar_t) + abar_t * GMM_TAU * GMM_TAU
    diff = z[None] - math.sqrt(abar_t) * stack
    log_w = -np.sum(diff * diff, axis=(1, 2, 3)) / (2.0 * var)
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    x_bar = np.tensordot(w, stack, axes=1)
    return (z - math.sqrt(abar_t) * x_bar) / math.sqrt(1.0 - abar_t)


class TestMixtureDenoiser:
    @pytest.mark.parametrize("scene_id", range(len(DEFAULT_SCENE_TEXTS)))
    def test_matches_tensordot_formula(self, scene_id):
        corpus = build_corpus()
        members = corpus.for_scene(scene_id)
        den = make_denoiser(corpus, scene_id)
        abars = [float(a) for a in linear_schedule().alpha_bars[1:]]
        assert len(abars) == 20
        rng = np.random.default_rng(100 + scene_id)
        # two passes, the second in reverse order, so one denoiser meets
        # every abar_t twice after different earlier calls, which must not
        # change its output
        for abar_t in abars + abars[::-1]:
            states = [
                rng.standard_normal((3, 16, 16)) * rng.uniform(0.1, 3.0),
                math.sqrt(abar_t) * members[int(rng.integers(len(members)))].latent.data
                + math.sqrt(1.0 - abar_t) * rng.standard_normal((3, 16, 16)),
            ]
            for z in states:
                eps = den(z, abar_t)
                assert isinstance(eps, np.ndarray) and eps.shape == z.shape
                assert np.array_equal(eps, tensordot_denoise(members, z, abar_t))

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
        eps = den(np.full((3, 16, 16), 1e6), 0.5)
        assert np.isfinite(eps).all()

    def test_unknown_scene_rejected(self):
        corpus = build_corpus()
        with pytest.raises(ConditionError):
            make_denoiser(corpus, 99)
