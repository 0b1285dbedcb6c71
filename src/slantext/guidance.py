"""Training-free dual-branch latent guidance for text in tilted or curved
mask regions.

Two priors steer early denoising steps inside the mask: a semantic branch
copies content from an independently sampled flat reference after mapping
it into the mask frame, and a structure branch injects a glyph rendering
warped through the mask's segment quads. Both fade on a power-of-ten
step weight, so late steps run free.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .corpus import INK_AMP, FlatTextCorpus, build_corpus, make_denoiser
from .diffusion import (
    DEFAULT_SCHEDULE,
    FACTOR,
    Denoiser,
    LatentCodec,
    NoiseSchedule,
    TraceFn,
    block_means,
    sample,
)
from .errors import InputError, ShapeError
from .geometry import (
    FlatLayout,
    PolygonMask,
    QuadSegment,
    divide_mask,
    flatten_segments,
    pixel_box,
    rasterize_mask,
)
from .glyph import default_font, render_glyph_image
from .grid import (
    LatentGrid,
    RegionMask,
    adain,
    blend,
    channel_stats,
    extract_region,
    masked_blend,
    normalized,
    quad_cells,
    restyle,
)


@dataclass(frozen=True)
class GuidanceConfig:
    """Knobs for the dual-branch hook.

    lambda_ scales the injected prior; 0 turns the hook off entirely
    unless literal_lambda_zero asks for actual zero-strength blending,
    which attenuates the masked region instead. rho mixes structure into
    the merged prior when both branches run.
    """

    use_srb: bool = True
    use_sib: bool = True
    use_adain: bool = True
    lambda_: float = 0.5
    rho: float = 0.5
    refine_steps: int = 3
    literal_lambda_zero: bool = False

    def __post_init__(self):
        if not -0.5 <= self.lambda_ <= 0.5:
            raise InputError(f"lambda must lie in [-0.5, 0.5], got {self.lambda_}")
        if not 0.0 < self.rho <= 2.0:
            raise InputError(f"rho must lie in (0, 2], got {self.rho}")
        if self.refine_steps < 1:
            raise InputError(f"refine_steps must be >= 1, got {self.refine_steps}")

    @property
    def active(self) -> bool:
        if not (self.use_srb or self.use_sib):
            return False
        if self.lambda_ == 0.0 and not self.literal_lambda_zero:
            return False
        return True


def kappa(t: int, total: int) -> float:
    """Step weight 10^(t - T): full strength at t = T, decade per step."""
    return 10.0 ** (t - total)


def semantic_rectify(z_ref: LatentGrid, z_t: LatentGrid, mask: RegionMask,
                     use_adain: bool = True) -> LatentGrid:
    """Copy the reference into the masked region, optionally matching its
    channel statistics to the current state first."""
    src = adain(z_ref, z_t) if use_adain else z_ref
    return masked_blend(src, z_t, mask)


def structure_inject(z_glyph: LatentGrid, z_t: LatentGrid,
                     mask: RegionMask) -> LatentGrid:
    """Place the glyph prior into the masked region, always stat-matched:
    raw glyph ink is far outside the latent distribution."""
    return masked_blend(adain(z_glyph, z_t), z_t, mask)


def merge_priors(z_rect: LatentGrid, z_glyph: LatentGrid, z_t: LatentGrid,
                 rho: float) -> LatentGrid:
    """Blend the two branch outputs: rho parts stat-matched glyph (over the
    whole grid, not masked) against (1 - rho) parts rectified state."""
    return LatentGrid(_merge(adain(z_glyph, z_t).data, z_rect.data, rho))


def _merge(glyph: np.ndarray, rect: np.ndarray, rho: float) -> np.ndarray:
    return rho * glyph + (1.0 - rho) * rect


def apply_guidance(
    z_t: LatentGrid,
    t: int,
    total: int,
    config: GuidanceConfig,
    mask: RegionMask,
    z_ref: Optional[LatentGrid] = None,
    ref_mask: Optional[RegionMask] = None,
    z_glyph: Optional[LatentGrid] = None,
) -> LatentGrid:
    """One hook application: build the merged prior, then blend it into the
    masked region at the step weight, leaving the rest untouched."""
    if not (config.use_srb or config.use_sib):
        return z_t
    return LatentGrid(_guided_step(config, total, mask, z_ref, ref_mask, z_glyph)(z_t.data, t))


def _guided_step(
    config: GuidanceConfig,
    total: int,
    mask: RegionMask,
    z_ref: Optional[LatentGrid],
    ref_mask: Optional[RegionMask],
    z_glyph: Optional[LatentGrid],
) -> Callable[[np.ndarray, int], np.ndarray]:
    """apply_guidance on (C, H, W) arrays, with what does not change from
    step to step computed once: adain's content half of z_ref and z_glyph
    (`grid.normalized`) and 1 - m of both masks.  Each call takes z_t's
    channel statistics once and runs the branches in apply_guidance's
    order: semantic_rectify, then merge_priors or structure_inject, then the
    step-weighted blend."""
    if config.use_srb and (z_ref is None or ref_mask is None):
        raise InputError("semantic branch needs z_ref and ref_mask")
    if config.use_sib and z_glyph is None:
        raise InputError("structure branch needs z_glyph")
    grids = [g for g, on in ((z_ref, config.use_srb), (z_glyph, config.use_sib)) if on]
    masks = [mask, ref_mask] if config.use_srb else [mask]
    shape = grids[0].shape
    if any(g.shape != shape for g in grids) or any(mk.data.shape != shape[1:] for mk in masks):
        raise ShapeError(
            f"priors {[g.shape for g in grids]} and masks {[mk.data.shape for mk in masks]} differ in size"
        )
    m = mask.data[None]
    keep = 1.0 - m
    if config.use_srb:
        ref = normalized(z_ref) if config.use_adain else z_ref.data
        ref_m = ref_mask.data[None]
        ref_keep = 1.0 - ref_m
    if config.use_sib:
        glyph = normalized(z_glyph)

    def step(z: np.ndarray, t: int) -> np.ndarray:
        if z.shape != shape:
            raise ShapeError(f"state {z.shape} does not match the priors' {shape}")
        mean, std = channel_stats(z)
        if config.use_srb:
            src = restyle(ref, mean, std) if config.use_adain else ref
            z_hat = blend(src, z, ref_m, ref_keep)
            if config.use_sib:
                z_hat = _merge(restyle(glyph, mean, std), z_hat, config.rho)
        else:
            z_hat = blend(restyle(glyph, mean, std), z, m, keep)
        k = kappa(t, total)
        return blend(k * config.lambda_ * z_hat + (1.0 - k) * z, z, m, keep)

    return step


def make_guidance_hook(
    config: GuidanceConfig,
    schedule: NoiseSchedule,
    mask: RegionMask,
    z_ref: Optional[LatentGrid] = None,
    ref_mask: Optional[RegionMask] = None,
    z_glyph: Optional[LatentGrid] = None,
):
    """Step hook applying guidance on the first refine_steps steps only.
    It takes and returns the sampler's (C, H, W) arrays, and returns z
    itself on the steps it leaves alone.  The priors' per-case constants
    are built here, once."""
    total = schedule.steps
    step = None
    if config.use_srb or config.use_sib:
        step = _guided_step(config, total, mask, z_ref, ref_mask, z_glyph)

    def hook(z: np.ndarray, t: int) -> np.ndarray:
        if step is None or total - t >= config.refine_steps:
            return z
        return step(z, t)

    return hook


def build_reference(denoiser: Denoiser, schedule: NoiseSchedule,
                    rng: np.random.Generator, shape: tuple) -> LatentGrid:
    """Unguided flat sample from its own noise draw: the semantic branch's
    reference image, in latent form."""
    z_init = LatentGrid(rng.standard_normal(shape))
    return sample(denoiser, z_init, schedule)


def _px_to_latent(v: np.ndarray) -> np.ndarray:
    # latent cell J centers on pixel J*FACTOR + (FACTOR-1)/2
    return (v - (FACTOR - 1) / 2.0) / FACTOR


def align_reference(
    z_ref: LatentGrid,
    layout: FlatLayout,
    segments: list[QuadSegment],
) -> tuple[LatentGrid, RegionMask]:
    """Carry reference content from each flat layout rect into its segment
    quad, all at latent resolution. Returns the aligned latent (zero where
    nothing landed) and the mask of cells actually written.  Each patch is
    written, in place, into the cells its quad covers (`grid.quad_cells`);
    a later segment overwrites an earlier one where their quads meet."""
    if len(layout.rects) != len(segments):
        raise InputError("layout and segments disagree on segment count")
    canvas = np.zeros(z_ref.shape)
    valid = np.zeros((z_ref.height, z_ref.width), dtype=np.float64)
    for (x, y, w, h), seg in zip(layout.rects, segments):
        out_h = max(1, int(round(h / FACTOR)))
        out_w = max(1, int(round(w / FACTOR)))
        patch = extract_region(z_ref, _px_to_latent(pixel_box(x, y, w, h)), out_h, out_w)
        rows, cols, values = quad_cells(patch, _px_to_latent(seg.corners), z_ref.height, z_ref.width)
        canvas[:, rows, cols] = values
        valid[rows, cols] = 1.0
    return LatentGrid(canvas), RegionMask(valid)


@dataclass(frozen=True)
class GenerationResult:
    """Everything one run produces: the sample, its decoded image, and the
    mask's segments and flat layout."""

    z0: LatentGrid
    image: np.ndarray
    guided: bool
    segments: list[QuadSegment]
    layout: FlatLayout


def generate(
    text: str,
    mask: PolygonMask,
    scene_id: int,
    seed: int,
    config: Optional[GuidanceConfig] = None,
    corpus: Optional[FlatTextCorpus] = None,
    schedule: NoiseSchedule = DEFAULT_SCHEDULE,
    trace: Optional[TraceFn] = None,
) -> GenerationResult:
    """Full pipeline: decompose the mask, build branch priors, run guided
    sampling, decode to pixels.  The mask is divided and flattened on every
    run; only an active config turns the segments into priors.

    Seeds split into two fixed streams, one for the main chain's noise and
    one for the reference sample, so toggling the semantic branch never
    shifts the main draw.
    """
    config = config if config is not None else GuidanceConfig()
    corpus = corpus if corpus is not None else build_corpus()
    default_font().validate(text)
    if not text:
        raise InputError("text must be non-empty")

    h, w = corpus.canvas
    codec = LatentCodec()
    latent_shape = (3, h // FACTOR, w // FACTOR)
    denoiser = make_denoiser(corpus, scene_id)
    segments = divide_mask(mask, text)
    layout = flatten_segments(segments, (h, w))

    main_ss, ref_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(main_ss)
    z_init = LatentGrid(rng.standard_normal(latent_shape))

    hook = None
    if config.active:
        lat_mask = rasterize_mask(mask, h, w, downscale=FACTOR)
        z_glyph = None
        z_ref = None
        ref_mask = None
        if config.use_sib:
            # the codec's encode of the ink repeated over 3 channels, bit
            # for bit: block_means adds each block in one fixed order
            glyph = render_glyph_image(segments, text, (h, w))
            z_glyph = LatentGrid(np.repeat(block_means(INK_AMP * glyph.data[None]), 3, axis=0))
        if config.use_srb:
            ref_rng = np.random.default_rng(ref_ss)
            z_flat = build_reference(denoiser, schedule, ref_rng, latent_shape)
            z_ref, written = align_reference(z_flat, layout, segments)
            ref_mask = RegionMask(lat_mask.data * written.data)
        hook = make_guidance_hook(config, schedule, lat_mask, z_ref, ref_mask, z_glyph)

    z0 = sample(denoiser, z_init, schedule, hook=hook, trace=trace)
    return GenerationResult(
        z0=z0,
        image=codec.decode(z0),
        guided=hook is not None,
        segments=segments,
        layout=layout,
    )
