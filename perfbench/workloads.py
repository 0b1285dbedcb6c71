"""Seeded inputs for the benchmark workloads.

Everything here runs in the parent process, outside the timed region.  The
worker only ever sees the files these functions write.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slantext import bench, corpus, geometry, glyph


@dataclass(frozen=True)
class Workload:
    """Why each workload exists, and its default and held-out seeds, are in
    BENCHMARK.json at the repository root."""

    name: str
    kind: str            # "bench" or "curved"
    guided: bool
    tail_pct: float      # fixed, so the reported percentile never shifts between runs

    def write_batch(self, seed: int, k: int, path: Path, tiny: bool = False) -> None:
        """Inputs of batch `k`; `tiny` is the smallest size, for the smoke test."""
        if self.kind == "bench":
            write_bench_batch(seed, k, path, per_tier=1 if tiny else PER_TIER)
        else:
            write_curved_batch(seed, k, path, 10 if tiny else CURVED_BATCH)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bench_guided", "bench", True, 75.0),
        Workload("bench_unguided", "bench", False, 75.0),
        Workload("generate_curved", "curved", True, 90.0),
    )
}

# bench-gen's default: 10 cases per tier.
PER_TIER = 10

# Cases per curved batch: 8 scenes x 5 vertex counts.
CURVED_BATCH = 40
# Vertices per side of a curved mask, cycled so every batch has the same mix.
VERTS_PER_SIDE = (8, 16, 32, 64, 128)
TEXT_LEN = (5, 8)
CURVED_KINDS = ("arc", "scurve")


def batch_seed(seed: int, k: int) -> int:
    """Batch 0 uses the run seed itself, so it is exactly the manifest that
    `slantext bench-gen --seed <seed>` writes; later batches derive theirs."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def write_bench_batch(seed: int, k: int, path: Path, per_tier: int) -> None:
    """The manifest, reordered easy, medium, hard, easy, ...: a batch the
    deadline cuts short then keeps the tier mix, and the tiers differ in
    cost by more than a factor of two."""
    cases = bench.generate_benchmark(per_tier_count=per_tier, rng_seed=batch_seed(seed, k))
    tiers = [[c for c in cases if c.tier == name] for name in bench.TIER_NAMES]
    bench.save_manifest([c for row in zip(*tiers) for c in row], path)


def _arc_band(rng: np.random.Generator, n: int) -> np.ndarray:
    r = rng.uniform(18.0, 24.0)
    hh = rng.uniform(5.5, 7.0)
    span = math.radians(rng.uniform(100.0, 180.0))
    start = rng.uniform(0.0, 2.0 * math.pi)
    th = start + span * np.linspace(0.0, 1.0, n)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    return np.concatenate([(r + hh) * ring, (r - hh) * ring[::-1]])


def _s_band(rng: np.random.Generator, n: int) -> np.ndarray:
    # One sine period; the amplitude keeps the tightest bend wider than the
    # band's half height, so the inner edge never folds over itself.
    length = rng.uniform(44.0, 54.0)
    amp = rng.uniform(2.5, 5.0)
    hh = rng.uniform(5.5, 7.0)
    tilt = math.radians(rng.uniform(-35.0, 35.0))
    s = np.linspace(-length / 2.0, length / 2.0, n)
    k = 2.0 * math.pi / length
    center = np.stack([s, amp * np.sin(k * s)], axis=1)
    tangent = np.stack([np.ones_like(s), amp * k * np.cos(k * s)], axis=1)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    band = np.concatenate([center - hh * normal, (center + hh * normal)[::-1]])
    rot = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
    return band @ rot.T


def curved_scene(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """Vertices of one band mask, centred on the canvas with positive area."""
    pts = _arc_band(rng, n) if kind == "arc" else _s_band(rng, n)
    if geometry.polygon_area(pts) < 0:
        pts = pts[::-1]
    h, w = corpus.CANVAS
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return pts + (np.array([(w - 1) / 2.0, (h - 1) / 2.0]) - (lo + hi) / 2.0)


def mask_problem(verts: np.ndarray, canvas: tuple[int, int]) -> str:
    """Untimed validity check of a generated mask, vectorised so that it
    stays cheap at 128 vertices per side: inside the canvas, positive area,
    and no two non-adjacent edges properly crossing (the rule PolygonMask
    enforces)."""
    h, w = canvas
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    if lo.min() < -0.5 or hi[0] > w - 0.5 or hi[1] > h - 0.5:
        return "leaves the canvas"
    if geometry.polygon_area(verts) <= 0.0:
        return "non-positive area"
    a, b = verts, np.roll(verts, -1, axis=0)

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
            q[..., 1] - p[..., 1]
        ) * (r[..., 0] - p[..., 0])

    ai, bi, aj, bj = a[:, None], b[:, None], a[None, :], b[None, :]
    cross = ((orient(aj, bj, ai) > 0) != (orient(aj, bj, bi) > 0)) & (
        (orient(ai, bi, aj) > 0) != (orient(ai, bi, bj) > 0)
    )
    n = len(verts)
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    if (cross & (gap > 1) & (gap < n - 1)).any():
        return "self-intersecting"
    return ""


def curved_cases(seed: int, k: int, count: int) -> list[dict]:
    rng = np.random.default_rng(np.random.SeedSequence(batch_seed(seed, k)))
    letters = [ch for ch in glyph.default_font().charset if ch.isalnum()]
    n_scenes = len(corpus.DEFAULT_SCENE_TEXTS)
    h, w = corpus.CANVAS
    cases = []
    for i in range(count):
        kind = CURVED_KINDS[i % len(CURVED_KINDS)]
        n = VERTS_PER_SIDE[(i // len(CURVED_KINDS)) % len(VERTS_PER_SIDE)]
        verts = curved_scene(rng, kind, n)
        problem = mask_problem(verts, (h, w))
        if problem:
            raise ValueError(f"curved case {i} ({kind}, {n} per side): {problem}")
        length = int(rng.integers(TEXT_LEN[0], TEXT_LEN[1] + 1))
        cases.append({
            "case_id": f"{kind}_{k:02d}_{i:03d}",
            "kind": kind,
            "verts_per_side": n,
            "scene_id": i % n_scenes,
            "text": "".join(rng.choice(letters, size=length)),
            "seed": int(rng.integers(0, 2**31 - 1)),
            "vertices": verts.tolist(),
        })
    return cases


def write_curved_batch(seed: int, k: int, path: Path, count: int) -> None:
    Path(path).write_text(json.dumps(curved_cases(seed, k, count)))
