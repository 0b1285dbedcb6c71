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


def _scene_images(scene_id: int, text: str, ys, canvas: tuple[int, int]) -> list[np.ndarray]:
    """Background plus ink with the text block at each row y in ys: rows
    y..y+TEXT_H, x from 0, one CHAR_W-wide slot per character.  The
    background and the ink are rendered once and placed per row."""
    h, w = canvas
    rect_w = CHAR_W * len(text)
    for y in ys:
        if rect_w > w or y < 0 or y + TEXT_H > h:
            raise InputError(f"text rect {(rect_w, TEXT_H)} at y={y} exceeds canvas {canvas}")
    bg = scene_background(scene_id, canvas)
    ink = INK_AMP * render_text_block(TEXT_H, rect_w, text).data[:, :, None]
    images = []
    for y in ys:
        img = bg.copy()
        img[y:y + TEXT_H, 0:rect_w, :] += ink
        images.append(img)
    return images


def build_corpus(scene_texts: tuple = DEFAULT_SCENE_TEXTS,
                 rows: tuple = ROW_YS,
                 canvas: tuple[int, int] = CANVAS) -> FlatTextCorpus:
    codec = LatentCodec()
    exemplars = []
    for sid, text in enumerate(scene_texts):
        for row, (y, img) in enumerate(zip(rows, _scene_images(sid, text, rows, canvas))):
            exemplars.append(Exemplar(
                scene_id=sid, text=text, row=row, y=y, latent=codec.encode(img),
            ))
    return FlatTextCorpus(exemplars=tuple(exemplars), canvas=canvas)


def make_denoiser(corpus: FlatTextCorpus, scene_id: int) -> Denoiser:
    """Noise predictor over one scene's exemplars, read off a weight blend
    of them.

    Exemplars act as a mixture of narrow gaussians (width GMM_TAU): each is
    weighted by its likelihood under the forward process, and the clean
    estimate x_bar is the weighted mean of the exemplars themselves.  A
    posterior mean would also add each component's shrink term
    sqrt(abar) tau^2 / var * (z - sqrt(abar) mu_k); this blend leaves it
    out, so x_bar is always a convex mix of stored exemplars.

    The denoiser takes and returns (C, H, W) arrays, as `diffusion.sample`
    runs its chain.  The exemplars are kept as one (M, C*H*W) matrix, scaled
    by sqrt(abar_t) on each call into one (M, C*H*W) buffer that the closure
    keeps and reuses for the differences and their squares, and x_bar is one
    (1, M) x (M, C*H*W) np.dot, the product np.tensordot makes.  The
    returned noise is a fresh array.
    """
    members = corpus.for_scene(scene_id)
    if not members:
        raise ConditionError(f"no exemplars for scene id {scene_id}")
    mat = np.stack([ex.latent.data.ravel() for ex in members])  # (M, C*H*W)
    diff = np.empty_like(mat)

    def denoise(z: np.ndarray, abar_t: float) -> np.ndarray:
        root = math.sqrt(abar_t)
        var = (1.0 - abar_t) + abar_t * GMM_TAU * GMM_TAU
        flat = z.reshape(-1)
        np.multiply(root, mat, out=diff)
        np.subtract(flat, diff, out=diff)
        np.multiply(diff, diff, out=diff)
        log_w = diff.sum(axis=1)
        np.negative(log_w, out=log_w)
        log_w /= 2.0 * var
        log_w -= log_w.max()
        w = np.exp(log_w, out=log_w)
        w /= w.sum()
        eps = np.dot(w[None], mat)[0]
        eps *= root
        np.subtract(flat, eps, out=eps)
        eps /= math.sqrt(1.0 - abar_t)
        return eps.reshape(z.shape)

    return denoise
