"""Deterministic latent diffusion: noise schedule, DDIM stepping, and the
pixel/latent block codec.

Timesteps run t = 1..T with cumulative signal level alpha_bars[t];
alpha_bars[0] == 1 so the final step lands exactly on the clean estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, ScheduleError, ShapeError
from .grid import LatentGrid

# denoiser: (z_t, alpha_bar_t) -> predicted noise
Denoiser = Callable[[LatentGrid, float], LatentGrid]
# hook: (z_t, t) -> adjusted z_t, applied before denoising
StepHook = Callable[[LatentGrid, int], LatentGrid]
# trace: (t, z_t_after_step) -> None
TraceFn = Callable[[int, LatentGrid], None]


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
        b = betas.copy()
        b.flags.writeable = False
        a = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        a.flags.writeable = False
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "alpha_bars", a)

    @property
    def steps(self) -> int:
        return int(self.betas.size)


def linear_schedule(steps: int = 20, beta_start: float = 1e-3,
                    beta_end: float = 0.15) -> NoiseSchedule:
    if steps < 1:
        raise ScheduleError(f"steps must be >= 1, got {steps}")
    return NoiseSchedule(betas=np.linspace(beta_start, beta_end, steps))


def predict_x0(z_t: LatentGrid, eps: LatentGrid, abar_t: float) -> LatentGrid:
    """Clean-sample estimate implied by a noise prediction at level abar_t."""
    if not 0.0 < abar_t <= 1.0:
        raise ScheduleError(f"alpha_bar must be in (0, 1], got {abar_t}")
    if z_t.shape != eps.shape:
        raise ShapeError(f"z {z_t.shape} and eps {eps.shape} differ")
    return LatentGrid((z_t.data - math.sqrt(1.0 - abar_t) * eps.data)
                      / math.sqrt(abar_t))


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
    x0 = predict_x0(z_t, eps, abar_t)
    sigma2 = 0.0
    if eta > 0.0:
        sigma2 = (eta ** 2) * (1.0 - abar_p) / (1.0 - abar_t) * (1.0 - abar_t / abar_p)
    dir_coef = math.sqrt(max(1.0 - abar_p - sigma2, 0.0))
    out = math.sqrt(abar_p) * x0.data + dir_coef * eps.data
    if sigma2 > 0.0:
        if noise is None:
            raise InputError("eta > 0 needs a noise draw")
        if noise.shape != z_t.shape:
            raise ShapeError(f"noise {noise.shape} and z {z_t.shape} differ")
        out = out + math.sqrt(sigma2) * noise.data
    return LatentGrid(out)


def sample(
    denoiser: Denoiser,
    z_init: LatentGrid,
    schedule: NoiseSchedule,
    hook: Optional[StepHook] = None,
    trace: Optional[TraceFn] = None,
) -> LatentGrid:
    """Run the full deterministic (eta = 0) reverse chain from z_T to z_0.

    The hook, when present, adjusts z_t before each denoiser call; trace
    sees the state after each step, keyed by the step it produced.
    """
    z = z_init
    for t in range(schedule.steps, 0, -1):
        if hook is not None:
            z = hook(z, t)
        eps = denoiser(z, float(schedule.alpha_bars[t]))
        z = ddim_step(z, eps, t, schedule)
        if trace is not None:
            trace(t - 1, z)
    return z


@dataclass(frozen=True)
class LatentCodec:
    """Pixel image (H, W, 3) <-> latent (3, H/f, W/f).

    Encoding averages f x f blocks per channel; decoding repeats each
    latent cell back out, so encode(decode(z)) recovers z up to rounding.
    """

    factor: int = 4

    def __post_init__(self):
        if self.factor < 1:
            raise ShapeError(f"codec factor must be >= 1, got {self.factor}")

    def encode(self, image: np.ndarray) -> LatentGrid:
        img = np.asarray(image, dtype=np.float64)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ShapeError(f"expected (H, W, 3) image, got shape {img.shape}")
        h, w, _ = img.shape
        f = self.factor
        if h % f or w % f:
            raise ShapeError(f"image size {(h, w)} not divisible by factor {f}")
        blocks = img.reshape(h // f, f, w // f, f, 3).mean(axis=(1, 3))
        return LatentGrid(blocks.transpose(2, 0, 1))

    def decode(self, z: LatentGrid) -> np.ndarray:
        f = self.factor
        img = z.data.transpose(1, 2, 0)
        return np.repeat(np.repeat(img, f, axis=0), f, axis=1)
