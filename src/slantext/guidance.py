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
from typing import Optional

import numpy as np

from .corpus import INK_AMP, FlatTextCorpus, build_corpus, make_denoiser
from .diffusion import (
    FACTOR,
    Denoiser,
    LatentCodec,
    NoiseSchedule,
    TraceFn,
    linear_schedule,
    sample,
)
from .errors import InputError
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
    extract_region,
    masked_blend,
    paste_region_with_mask,
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
    g = adain(z_glyph, z_t)
    return LatentGrid(rho * g.data + (1.0 - rho) * z_rect.data)


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
    z_hat: LatentGrid
    z_tilde = None
    if config.use_srb:
        if z_ref is None or ref_mask is None:
            raise InputError("semantic branch needs z_ref and ref_mask")
        z_tilde = semantic_rectify(z_ref, z_t, ref_mask, config.use_adain)
    if config.use_sib:
        if z_glyph is None:
            raise InputError("structure branch needs z_glyph")
        if config.use_srb:
            z_hat = merge_priors(z_tilde, z_glyph, z_t, config.rho)
        else:
            z_hat = structure_inject(z_glyph, z_t, mask)
    else:
        z_hat = z_tilde
    k = kappa(t, total)
    inner = k * config.lambda_ * z_hat.data + (1.0 - k) * z_t.data
    return masked_blend(LatentGrid(inner), z_t, mask)


def make_guidance_hook(
    config: GuidanceConfig,
    schedule: NoiseSchedule,
    mask: RegionMask,
    z_ref: Optional[LatentGrid] = None,
    ref_mask: Optional[RegionMask] = None,
    z_glyph: Optional[LatentGrid] = None,
):
    """Step hook applying guidance on the first refine_steps steps only."""
    total = schedule.steps

    def hook(z: LatentGrid, t: int) -> LatentGrid:
        if total - t >= config.refine_steps:
            return z
        return apply_guidance(z, t, total, config, mask, z_ref, ref_mask, z_glyph)

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
    nothing landed) and the mask of cells actually written."""
    if len(layout.rects) != len(segments):
        raise InputError("layout and segments disagree on segment count")
    canvas = LatentGrid(np.zeros(z_ref.shape))
    valid = np.zeros((z_ref.height, z_ref.width), dtype=np.float64)
    for (x, y, w, h), seg in zip(layout.rects, segments):
        out_h = max(1, int(round(h / FACTOR)))
        out_w = max(1, int(round(w / FACTOR)))
        patch = extract_region(z_ref, _px_to_latent(pixel_box(x, y, w, h)), out_h, out_w)
        canvas, written = paste_region_with_mask(canvas, patch, _px_to_latent(seg.corners))
        valid = np.maximum(valid, written.astype(np.float64))
    return canvas, RegionMask(valid)


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
    schedule: Optional[NoiseSchedule] = None,
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
    schedule = schedule if schedule is not None else linear_schedule()
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
            glyph = render_glyph_image(segments, text, (h, w))
            rgb = np.repeat(glyph.data[:, :, None], 3, axis=2)
            z_glyph = codec.encode(INK_AMP * rgb)
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
