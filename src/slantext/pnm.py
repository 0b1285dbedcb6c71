"""Minimal binary PGM (P5) and PPM (P6) writers.

Float images in [0, 1] map to bytes as round(255 * v), clipped, with maxval
fixed at 255.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError


def _to_bytes(arr: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"PGM needs a 2-d array, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(_to_bytes(arr).tobytes())


def write_ppm(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"PPM needs an (H, W, 3) array, got shape {arr.shape}")
    h, w, _ = arr.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(_to_bytes(arr).tobytes())

