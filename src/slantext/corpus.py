"""Flat-text exemplar bank and the mixture denoiser built over it.

Each scene pairs one smooth background with one text string; the same text
appears at every row slot, so a scene's exemplars differ only in where the
text sits. The denoiser conditions on scene id alone and is agnostic to
which row carries the text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import Denoiser, LatentCodec
from .errors import ConditionError, InputError
from .glyph import render_text_block
from .grid import LatentGrid

# 8 five-char strings covering the full A-Z 0-9 charset exactly once over
# letters and digits
DEFAULT_SCENE_TEXTS = (
    "BLAZE", "JUMPY", "FROCK", "NIGHT", "WADS6", "VIXEN", "Q1234", "57890",
)

CANVAS = (64, 64)
ROW_YS = (0, 16, 32, 48)
TEXT_H = 14
CHAR_W = 12
INK_AMP = 2.0
BG_AMP = 0.3
GMM_TAU = 0.05


@dataclass(frozen=True)
class Exemplar:
    """One flat rendering: scene background plus text at one row slot."""

    scene_id: int
    text: str
    row: int
    y: int
    latent: LatentGrid


@dataclass(frozen=True)
class FlatTextCorpus:
    exemplars: tuple
    canvas: tuple[int, int]

    def for_scene(self, scene_id: int) -> list[Exemplar]:
        return [ex for ex in self.exemplars if ex.scene_id == scene_id]


def scene_background(scene_id: int, canvas: tuple[int, int] = CANVAS) -> np.ndarray:
    """Smooth plane-wave background of amplitude BG_AMP, exactly zero-mean
    per channel.

    Integer cycle counts over the canvas make the pixel sum cancel."""
    h, w = canvas
    rng = np.random.default_rng(1000 + scene_id)
    while True:
        kx, ky = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        if kx or ky:
            break
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    ys, xs = np.mgrid[0:h, 0:w]
    arg = 2.0 * math.pi * (kx * xs / w + ky * ys / h)
    return BG_AMP * np.cos(arg[:, :, None] + phases[None, None, :])


def render_scene_image(scene_id: int, text: str, y: int,
                       canvas: tuple[int, int] = CANVAS) -> np.ndarray:
    """Background plus ink: text occupies a rect of height TEXT_H at rows
    y..y+TEXT_H, x from 0, one CHAR_W-wide slot per character."""
    h, w = canvas
    rect_w = CHAR_W * len(text)
    if rect_w > w or y < 0 or y + TEXT_H > h:
        raise InputError(f"text rect {(rect_w, TEXT_H)} at y={y} exceeds canvas {canvas}")
    img = scene_background(scene_id, canvas)
    ink = render_text_block(TEXT_H, rect_w, text).data
    img[y:y + TEXT_H, 0:rect_w, :] += INK_AMP * ink[:, :, None]
    return img


def build_corpus(scene_texts: tuple = DEFAULT_SCENE_TEXTS,
                 rows: tuple = ROW_YS,
                 canvas: tuple[int, int] = CANVAS) -> FlatTextCorpus:
    codec = LatentCodec()
    exemplars = []
    for sid, text in enumerate(scene_texts):
        for row, y in enumerate(rows):
            img = render_scene_image(sid, text, y, canvas)
            exemplars.append(Exemplar(
                scene_id=sid, text=text, row=row, y=y, latent=codec.encode(img),
            ))
    return FlatTextCorpus(exemplars=tuple(exemplars), canvas=canvas)


def make_denoiser(corpus: FlatTextCorpus, scene_id: int) -> Denoiser:
    """Posterior-mean noise predictor over one scene's exemplars.

    Exemplars act as a mixture of narrow gaussians (width GMM_TAU); the
    predictor weights them by likelihood under the forward process and
    reads the noise off the blended clean estimate."""
    members = corpus.for_scene(scene_id)
    if not members:
        raise ConditionError(f"no exemplars for scene id {scene_id}")
    stack = np.stack([ex.latent.data for ex in members])  # (M, C, H, W)

    def denoise(z: LatentGrid, abar_t: float) -> LatentGrid:
        var = (1.0 - abar_t) + abar_t * GMM_TAU * GMM_TAU
        diff = z.data[None] - math.sqrt(abar_t) * stack
        log_w = -np.sum(diff * diff, axis=(1, 2, 3)) / (2.0 * var)
        log_w -= log_w.max()
        w = np.exp(log_w)
        w /= w.sum()
        x_bar = np.tensordot(w, stack, axes=1)
        eps = (z.data - math.sqrt(abar_t) * x_bar) / math.sqrt(1.0 - abar_t)
        return LatentGrid(eps)

    return denoise
