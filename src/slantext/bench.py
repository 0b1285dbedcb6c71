"""Rotation-tiered benchmark: case generation, metrics, runner.

Cases are flat corpus rows rotated into one of three difficulty tiers.  The
runner scores guided and unguided generations with the template OCR of
`ocr` and reports sentence accuracy plus normalized edit-distance
similarity per tier.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import (
    CANVAS,
    CHAR_W,
    DEFAULT_SCENE_TEXTS,
    ROW_YS,
    TEXT_H,
    FlatTextCorpus,
    build_corpus,
    scene_background,
)
from .diffusion import DEFAULT_SCHEDULE, LatentCodec, NoiseSchedule
from .errors import GeometryError, InputError, SlantextError
from .geometry import PolygonMask, pixel_box
from .glyph import char_cells
from .grid import LatentGrid
from .guidance import GuidanceConfig, generate
from .ocr import OCR_SENTINEL, ocr_decode

# Tier bounds in degrees; hard includes 90 exactly.
TIERS = (("easy", 0.0, 30.0), ("medium", 30.0, 60.0), ("hard", 60.0, 90.0))
TIER_NAMES = tuple(name for name, _, _ in TIERS)

# Rows 1 and 2 keep every rotation of a corpus-width mask inside the canvas.
BASE_ROWS = (ROW_YS[1], ROW_YS[2])


# ---------------------------------------------------------------------------
# metrics


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def ned(pred: str, gt: str) -> float:
    """Edit-distance similarity: 1 - levenshtein / max length.  Higher is
    better; identical strings score 1."""
    if not gt:
        raise InputError("ground truth must be non-empty")
    return 1.0 - levenshtein(pred, gt) / max(len(pred), len(gt))


def sentence_accuracy(pairs: Sequence[tuple[str, str]]) -> float:
    if not pairs:
        raise InputError("need at least one (prediction, ground truth) pair")
    return sum(p == g for p, g in pairs) / len(pairs)


# ---------------------------------------------------------------------------
# case generation


@dataclass(frozen=True)
class BaseSpec:
    """A flat corpus row serving as the pre-rotation mask template."""

    scene_id: int
    text: str
    y: int


@dataclass(frozen=True)
class BenchCase:
    case_id: str
    scene_id: int
    text: str
    mask: PolygonMask
    tier: str
    rotation_deg: float
    seed: int

    def __post_init__(self):
        for name in ("case_id", "text"):
            if not isinstance(getattr(self, name), str):
                raise InputError(f"case {name} must be a string, got {getattr(self, name)!r}")
        if not self.text:
            raise InputError("case text must be non-empty")
        if isinstance(self.scene_id, bool) or not isinstance(self.scene_id, int):
            raise InputError(f"case scene_id must be an integer, got {self.scene_id!r}")
        if self.tier not in TIER_NAMES:
            raise InputError(f"unknown tier {self.tier!r}")
        if isinstance(self.rotation_deg, bool) or not isinstance(self.rotation_deg, (int, float)):
            raise InputError(f"case rotation_deg must be a number, got {self.rotation_deg!r}")
        if tier_for_rotation(self.rotation_deg) != self.tier:
            raise InputError(
                f"rotation {self.rotation_deg} outside tier {self.tier!r} bounds"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InputError(f"case seed must be a non-negative integer, got {self.seed!r}")


def tier_for_rotation(angle_deg: float) -> str:
    if not 0.0 <= angle_deg <= 90.0:
        raise InputError(f"rotation {angle_deg} outside [0, 90]")
    for name, lo, hi in TIERS:
        if angle_deg < hi:
            return name
    return "hard"


def default_base_specs() -> list[BaseSpec]:
    return [
        BaseSpec(sid, text, y) for sid, text in enumerate(DEFAULT_SCENE_TEXTS) for y in BASE_ROWS
    ]


def base_mask(spec: BaseSpec) -> PolygonMask:
    """Pixel box of the spec's text rect, matching the corpus row layout."""
    return PolygonMask(pixel_box(0, spec.y, CHAR_W * len(spec.text), TEXT_H))


def place_mask(
    poly: PolygonMask, angle_deg: float, canvas: tuple[int, int] = CANVAS
) -> PolygonMask:
    """Rotate about the centroid; a mask leaving the canvas is shifted back
    in by the smallest translation that fits.  The minimal shift (under a
    pixel for gentle rotations of a corpus row) keeps the mask over its base
    row, which the tier protocol depends on.

    Raises GeometryError when no translation can fit the mask."""
    placed = poly.rotated(math.radians(angle_deg)) if angle_deg else poly
    lo = placed.vertices.min(axis=0)
    hi = placed.vertices.max(axis=0)
    limits = (canvas[1] - 0.5, canvas[0] - 0.5)
    shift = [0.0, 0.0]
    for ax in (0, 1):
        if hi[ax] - lo[ax] > limits[ax] + 0.5:
            raise GeometryError("mask does not fit the canvas at any placement")
        if lo[ax] < -0.5:
            shift[ax] = -0.5 - lo[ax]
        elif hi[ax] > limits[ax]:
            shift[ax] = limits[ax] - hi[ax]
    return placed.translated(shift[0], shift[1]) if any(shift) else placed


def generate_benchmark(
    per_tier_count: int = 10,
    rng_seed: int = 0,
    canvas: tuple[int, int] = CANVAS,
) -> list[BenchCase]:
    """Deterministic case list: `per_tier_count` cases per tier, rotations
    uniform inside each tier's bounds, base rows cycled across cases."""
    if per_tier_count < 1:
        raise InputError("per_tier_count must be at least 1")
    specs = default_base_specs()
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))

    cases: list[BenchCase] = []
    for tier_name, lo, hi in TIERS:
        for i in range(per_tier_count):
            spec = specs[len(cases) % len(specs)]
            angle = float(rng.uniform(lo, hi))
            mask = place_mask(base_mask(spec), angle, canvas)
            seed = int(rng.integers(0, 2**31 - 1))
            cases.append(
                BenchCase(
                    case_id=f"{tier_name}_{i:03d}",
                    scene_id=spec.scene_id,
                    text=spec.text,
                    mask=mask,
                    tier=tier_name,
                    rotation_deg=angle,
                    seed=seed,
                )
            )
    return cases


def save_manifest(cases: Sequence[BenchCase], path) -> None:
    rows = [
        {
            "case_id": c.case_id,
            "scene_id": c.scene_id,
            "text": c.text,
            "mask": [[float(x), float(y)] for x, y in c.mask.vertices],
            "tier": c.tier,
            "rotation_deg": c.rotation_deg,
            "seed": c.seed,
        }
        for c in cases
    ]
    Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> list[BenchCase]:
    return manifest_cases(json.loads(Path(path).read_text()))


def manifest_cases(rows) -> list[BenchCase]:
    """The cases of a manifest's parsed JSON rows."""
    return [
        BenchCase(
            case_id=r["case_id"],
            scene_id=r["scene_id"],
            text=r["text"],
            mask=PolygonMask(np.asarray(r["mask"], dtype=np.float64)),
            tier=r["tier"],
            rotation_deg=r["rotation_deg"],
            seed=r["seed"],
        )
        for r in rows
    ]


# ---------------------------------------------------------------------------
# runner


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    tier: str
    rotation_deg: float
    target: str
    decoded: str
    sen_acc: float
    ned: float
    note: str = ""


@dataclass(frozen=True)
class BenchReport:
    records: tuple[CaseRecord, ...]
    tiers: dict[str, dict[str, float]]
    total: dict[str, float]
    config_digest: str
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "config_digest": self.config_digest,
            "tiers": self.tiers,
            "total": self.total,
            "cases": [asdict(r) for r in self.records],
        }


def report_config(
    config: GuidanceConfig,
    schedule: NoiseSchedule = DEFAULT_SCHEDULE,
    canvas: tuple[int, int] = CANVAS,
) -> dict:
    """The resolved spec a report is scored under: the guidance fields, the
    sampler's betas and the canvas."""
    return {**asdict(config), "betas": schedule.betas.tolist(), "canvas": list(canvas)}


def _fingerprint(resolved: dict) -> str:
    """sha256 of a `report_config` dict's sorted-key JSON."""
    return hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


@lru_cache(maxsize=len(DEFAULT_SCENE_TEXTS))
def _scene_latent(scene_id: int, canvas: tuple[int, int]) -> LatentGrid:
    """A scene's background, encoded once for every case on the scene.  The
    cache holds the read-only latent, FACTOR^2 times smaller than the
    decoded plate; decoding it again costs a few per cent of the encode."""
    return LatentCodec().encode(scene_background(scene_id, canvas))


def _run_case(
    case: BenchCase,
    *,
    config: GuidanceConfig,
    schedule: NoiseSchedule,
    corpus: FlatTextCorpus,
) -> CaseRecord:
    try:
        result = generate(
            case.text, case.mask, case.scene_id, case.seed, config,
            corpus=corpus, schedule=schedule,
        )
        cells = char_cells(result.segments, case.text)
        # Score against the scene plate: the referee knows the background just
        # as it knows the cell geometry, so placement is what gets graded.
        # The plate goes through the codec so the subtraction leaves pure ink.
        plate = LatentCodec().decode(_scene_latent(case.scene_id, tuple(corpus.canvas)))
        decoded = ocr_decode(result.image - plate, cells).decoded
        # A read is trusted only when most cells found a character; stray
        # fringes under a steeply rotated mask are not placed text.
        if 2 * sum(c != OCR_SENTINEL for c in decoded) < len(decoded):
            decoded = OCR_SENTINEL * len(decoded)
        acc = sentence_accuracy([(decoded, case.text)])
        sim = ned(decoded, case.text)
        note = ""
    except SlantextError as exc:  # an expected failure scores zero, the batch goes on
        decoded, acc, sim = "", 0.0, 0.0
        note = f"{type(exc).__name__}: {exc}"
    return CaseRecord(
        case_id=case.case_id,
        tier=case.tier,
        rotation_deg=case.rotation_deg,
        target=case.text,
        decoded=decoded,
        sen_acc=acc,
        ned=sim,
        note=note,
    )


def _summary(records: Sequence[CaseRecord]) -> dict[str, float]:
    """Case count, sentence accuracy and mean NED of a group of records."""
    return {
        "n": len(records),
        "sen_acc": sentence_accuracy([(r.decoded, r.target) for r in records]),
        "ned": sum(r.ned for r in records) / len(records),
    }


def run_bench(
    cases: Sequence[BenchCase],
    config: Optional[GuidanceConfig] = None,
    corpus: Optional[FlatTextCorpus] = None,
    out_dir=None,
    jobs: int = 1,
    schedule: NoiseSchedule = DEFAULT_SCHEDULE,
) -> BenchReport:
    """Score every case under one guidance config and sampler schedule
    (default: `DEFAULT_SCHEDULE`, as in `generate`).  Results are assembled
    sorted by case id, so --jobs parallelism never changes the report.

    A case that fails with a SlantextError scores zero, carries the error as
    its note and counts in the total's `failed`; any other exception
    propagates.  The report's `config` and `config_digest` cover the whole
    resolved spec: guidance, the schedule's betas and the corpus canvas."""
    if not cases:
        raise InputError("need at least one case")
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    config = config or GuidanceConfig()
    corpus = corpus if corpus is not None else build_corpus()
    run_case = partial(_run_case, config=config, schedule=schedule, corpus=corpus)

    # a fork pool starts all its workers at the first submit
    workers = min(jobs, len(cases))
    if workers == 1:
        records = [run_case(case) for case in cases]
    else:
        # imported here: only --jobs > 1 pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_case, cases))

    records = tuple(sorted(records, key=lambda r: r.case_id))
    canvas = tuple(corpus.canvas)
    by_tier = {name: [r for r in records if r.tier == name] for name in TIER_NAMES}
    resolved = report_config(config, schedule, canvas)
    report = BenchReport(
        records=records,
        tiers={name: _summary(sub) for name, sub in by_tier.items() if sub},
        total={**_summary(records), "failed": sum(bool(r.note) for r in records)},
        config_digest=_fingerprint(resolved),
        config=resolved,
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: BenchReport, out_dir) -> None:
    """report.json (full) plus report.csv (tier, n, sen_acc, ned; 4 decimals)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    lines = ["tier,n,sen_acc,ned"]
    for name, row in [*report.tiers.items(), ("total", report.total)]:
        lines.append(f"{name},{row['n']},{row['sen_acc']:.4f},{row['ned']:.4f}")
    (out / "report.csv").write_text("\n".join(lines) + "\n")
