"""Deterministic latent diffusion: noise schedule, DDIM stepping, and the
pixel/latent block codec.

Timesteps run t = 1..T with cumulative signal level alpha_bars[t];
alpha_bars[0] == 1 so the final step lands exactly on the clean estimate.

`sample` runs its chain on plain (C, H, W) float64 arrays: the denoiser and
the hook take and return arrays, and only the result (and each state a trace
asks for) is wrapped in a `LatentGrid`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, ScheduleError, ShapeError
from .grid import LatentGrid, frozen

# denoiser: (z_t, alpha_bar_t) -> predicted noise, (C, H, W) arrays
Denoiser = Callable[[np.ndarray, float], np.ndarray]
# hook: (z_t, t) -> adjusted z_t, (C, H, W) arrays, applied before denoising
StepHook = Callable[[np.ndarray, int], np.ndarray]
# trace: (t, z_t_after_step) -> None
TraceFn = Callable[[int, LatentGrid], None]

# Side of the pixel block one latent cell stands for; canvas sides must be
# multiples of it.
FACTOR = 4


def block_means(stack: np.ndarray) -> np.ndarray:
    """Mean of every FACTOR x FACTOR block of each sheet of the (n, H, W)
    stack, sides multiples of FACTOR: the codec's encode and the OCR's sheets.

    Each block's values are added one at a time onto +0.0, in row-major
    order, then divided by FACTOR^2: the order numpy's mean takes on the
    codec's channel-first view of an (H, W, 3) image, so an encode rounds as
    it always has, and a one-channel stack as its 3-channel repeat.  The
    values are copied into one C-ordered sheet per offset within the block,
    and numpy reduces such a stack one sheet after another.  It would add
    pairwise if it looped over the offsets innermost, as it does when a
    sheet holds a single value; a zero column on each sheet rules that out.
    On 0/1 ink every mean is k / FACTOR^2, exact in any order."""
    n, h, w = stack.shape
    rows, cols = h // FACTOR, w // FACTOR
    terms = np.zeros((FACTOR, FACTOR, n, rows, cols + 1))
    terms[..., :cols] = stack.reshape(n, rows, FACTOR, cols, FACTOR).transpose(2, 4, 0, 1, 3)
    sums = np.add.reduce(terms.reshape(FACTOR * FACTOR, -1), axis=0)
    return sums.reshape(n, rows, cols + 1)[..., :cols] / (FACTOR * FACTOR)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates; alpha_bars, their cumulative products after a
    leading 1, is derived from them."""

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ScheduleError("schedule needs at least one step")
        if not np.isfinite(betas).all():
            raise ScheduleError("betas must be finite")
        if betas.min() <= 0.0 or betas.max() >= 1.0:
            raise ScheduleError("betas must lie strictly inside (0, 1)")
        object.__setattr__(self, "betas", frozen(betas))
        object.__setattr__(self, "alpha_bars", frozen(np.concatenate([[1.0], np.cumprod(1.0 - betas)])))

    @property
    def steps(self) -> int:
        return int(self.betas.size)


def linear_schedule(steps: int = 20, beta_start: float = 1e-3,
                    beta_end: float = 0.15) -> NoiseSchedule:
    if steps < 1:
        raise ScheduleError(f"steps must be >= 1, got {steps}")
    return NoiseSchedule(betas=np.linspace(beta_start, beta_end, steps))


# The sampler's default: 20 linear steps.  A schedule is frozen and its
# arrays read-only, so every caller shares this one.
DEFAULT_SCHEDULE = linear_schedule()


def _x0(z: np.ndarray, eps: np.ndarray, abar_t: float) -> np.ndarray:
    """Clean-sample estimate of the arrays z and eps at level abar_t."""
    if not 0.0 < abar_t <= 1.0:
        raise ScheduleError(f"alpha_bar must be in (0, 1], got {abar_t}")
    if z.shape != eps.shape:
        raise ShapeError(f"z {z.shape} and eps {eps.shape} differ")
    out = math.sqrt(1.0 - abar_t) * eps
    np.subtract(z, out, out=out)
    out /= math.sqrt(abar_t)
    return out


def _step(z: np.ndarray, eps: np.ndarray, abar_t: float, abar_p: float,
          eta: float = 0.0, noise: Optional[np.ndarray] = None) -> np.ndarray:
    """One reverse step from level abar_t to abar_p on (C, H, W) arrays:
    sqrt(abar_p) * x0 + dir_coef * eps (+ sqrt(sigma2) * noise), built in
    x0's fresh buffer; z and eps are only read."""
    out = _x0(z, eps, abar_t)
    sigma2 = 0.0
    if eta > 0.0:
        sigma2 = (eta ** 2) * (1.0 - abar_p) / (1.0 - abar_t) * (1.0 - abar_t / abar_p)
    dir_coef = math.sqrt(max(1.0 - abar_p - sigma2, 0.0))
    out *= math.sqrt(abar_p)
    out += dir_coef * eps
    if sigma2 > 0.0:
        if noise is None:
            raise InputError("eta > 0 needs a noise draw")
        if noise.shape != z.shape:
            raise ShapeError(f"noise {noise.shape} and z {z.shape} differ")
        out += math.sqrt(sigma2) * noise
    return out


def _require_finite(z: np.ndarray, what: str) -> None:
    if not np.isfinite(z).all():
        raise ShapeError(f"{what} values must be finite")


def predict_x0(z_t: LatentGrid, eps: LatentGrid, abar_t: float) -> LatentGrid:
    """Clean-sample estimate implied by a noise prediction at level abar_t."""
    return LatentGrid(_x0(z_t.data, eps.data, abar_t))


def ddim_step(
    z_t: LatentGrid,
    eps: LatentGrid,
    t: int,
    schedule: NoiseSchedule,
    eta: float = 0.0,
    noise: Optional[LatentGrid] = None,
) -> LatentGrid:
    """One reverse step t -> t-1. eta = 0 is fully deterministic; eta > 0
    injects fresh noise scaled by the usual variance split."""
    if not 1 <= t <= schedule.steps:
        raise ScheduleError(f"t={t} outside 1..{schedule.steps}")
    if eta < 0.0:
        raise ScheduleError(f"eta must be >= 0, got {eta}")
    abar_t = float(schedule.alpha_bars[t])
    abar_p = float(schedule.alpha_bars[t - 1])
    noise_data = None if noise is None else noise.data
    return LatentGrid(_step(z_t.data, eps.data, abar_t, abar_p, eta, noise_data))


def sample(
    denoiser: Denoiser,
    z_init: LatentGrid,
    schedule: NoiseSchedule,
    hook: Optional[StepHook] = None,
    trace: Optional[TraceFn] = None,
) -> LatentGrid:
    """Run the full deterministic (eta = 0) reverse chain from z_T to z_0.

    The hook, when present, adjusts z_t before each denoiser call; trace
    sees the state after each step, keyed by the step it produced, as a
    LatentGrid.  Every step is ddim_step's at eta = 0 on z_init.data's
    arrays, so the result is bitwise that of chaining ddim_step; a hook
    output or prediction of another shape, or a non-finite hook output,
    prediction or step raises ShapeError at that step.  A hook that returns
    z itself hands back a state already checked, so only a new array is.
    """
    z = z_init.data
    alpha_bars = schedule.alpha_bars.tolist()
    for t in range(schedule.steps, 0, -1):
        if hook is not None:
            out = hook(z, t)
            if out is not z:
                if out.shape != z.shape:
                    raise ShapeError(f"hook output {out.shape} and state {z.shape} differ")
                _require_finite(out, "hook output")
                z = out
        eps = denoiser(z, alpha_bars[t])
        _require_finite(eps, "noise prediction")
        z = _step(z, eps, alpha_bars[t], alpha_bars[t - 1])
        _require_finite(z, "step output")
        if trace is not None:
            trace(t - 1, LatentGrid(z))
    return LatentGrid(z)


class LatentCodec:
    """Pixel image (H, W, 3) <-> latent (3, H/FACTOR, W/FACTOR).

    Encoding averages FACTOR x FACTOR blocks per channel; decoding repeats
    each latent cell back out, so encode(decode(z)) recovers z up to
    rounding.
    """

    def encode(self, image: np.ndarray) -> LatentGrid:
        img = np.asarray(image, dtype=np.float64)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ShapeError(f"expected (H, W, 3) image, got shape {img.shape}")
        h, w, _ = img.shape
        if h % FACTOR or w % FACTOR:
            raise ShapeError(f"image size {(h, w)} not divisible by factor {FACTOR}")
        # the channel-first view: a copy would sum each block in another order
        return LatentGrid(block_means(img.transpose(2, 0, 1)))

    def decode(self, z: LatentGrid) -> np.ndarray:
        img = z.data.transpose(1, 2, 0)
        return np.repeat(np.repeat(img, FACTOR, axis=0), FACTOR, axis=1)
