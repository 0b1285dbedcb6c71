"""Command-line surface: generation, mask decomposition, benchmark workflows.

Settings resolve in three layers: dataclass defaults first, then an
INI-style config file, then command-line flags.  Whatever wins is written
into every output directory as run_config.json, so a run can always be
reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bench import (
    TIER_NAMES,
    generate_benchmark,
    load_manifest,
    run_bench,
    save_manifest,
)
from .corpus import CANVAS, build_corpus
from .diffusion import LatentCodec, NoiseSchedule, linear_schedule
from .errors import InputError, SlantextError
from .geometry import PolygonMask, divide_mask, flatten_segments
from .glyph import default_font, render_flat_glyph, render_glyph_image
from .guidance import GuidanceConfig, generate
from .pnm import write_pgm, write_ppm

# Fixed affine map from sample values to [0, 1] for image files.
PIXEL_SHIFT = 1.0
PIXEL_RANGE = 4.0

# The settings, each declared once: config section -> key -> (field, value
# type).  [guidance] keys are GuidanceConfig fields, the rest RunConfig
# fields; the dataclasses hold the defaults.
_SCHEMA = {
    "guidance": {
        "lambda": ("lambda_", float),
        "rho": ("rho", float),
        "use_srb": ("use_srb", bool),
        "use_sib": ("use_sib", bool),
        "use_adain": ("use_adain", bool),
        "refine_steps": ("refine_steps", int),
        "literal_lambda_zero": ("literal_lambda_zero", bool),
    },
    "sampler": {
        "steps": ("steps", int),
        "beta_start": ("beta_start", float),
        "beta_end": ("beta_end", float),
    },
    "scene": {"scene_id": ("scene_id", int), "canvas": ("canvas", "pair")},
    "bench": {"count": ("count", int)},
    "run": {"seed": ("seed", int), "jobs": ("jobs", int)},
}

# Value flags (argparse dest -> config section and key) that override the file.
_FLAGS = {
    "lambda_": ("guidance", "lambda"),
    "rho": ("guidance", "rho"),
    "scene": ("scene", "scene_id"),
    "seed": ("run", "seed"),
    "count": ("bench", "count"),
    "jobs": ("run", "jobs"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation.

    `count` is benchmark cases per tier; `seed` feeds whichever command
    consumes it (sampling for generate, manifest draws for bench-gen).
    """

    guidance: GuidanceConfig
    steps: int = 20
    beta_start: float = 1e-3
    beta_end: float = 0.15
    canvas: tuple[int, int] = CANVAS
    scene_id: int = 0
    seed: int = 0
    count: int = 10
    jobs: int = 1

    def __post_init__(self):
        h, w = self.canvas
        if h < 64 or w < 64 or h % 4 or w % 4:
            raise InputError(
                f"canvas must be at least 64x64 with sides divisible by 4, got {self.canvas}"
            )
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.count < 1:
            raise InputError(f"bench count must be at least 1, got {self.count}")
        if self.jobs < 1:
            raise InputError(f"jobs must be at least 1, got {self.jobs}")
        self.schedule()  # rejects bad step counts and beta ranges

    def schedule(self) -> NoiseSchedule:
        return linear_schedule(self.steps, self.beta_start, self.beta_end)

    def to_dict(self) -> dict:
        out = {
            section: {
                key: getattr(self.guidance if section == "guidance" else self, attr)
                for key, (attr, _) in keys.items()
            }
            for section, keys in _SCHEMA.items()
        }
        out["scene"]["canvas"] = list(self.canvas)
        return out


def _coerce(section: str, key: str, value, kind):
    name = f"{section}.{key}"
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise InputError(f"{name} must be true or false, got {value!r}")
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise InputError(f"{name} must be an integer, got {value!r}")
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise InputError(f"{name} must be a number, got {value!r}")
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        return (int(value[0]), int(value[1]))
    raise InputError(f"{name} must be a [height, width] pair, got {value!r}")


def load_config_file(path) -> dict[str, dict]:
    """Parse an INI config into typed per-section dicts.  Values are JSON
    literals (0.4, true, [64, 64]); unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise InputError(f"config file not found: {path}")
    sections: dict[str, dict] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise InputError(f"unknown config section [{name}]")
        allowed = _SCHEMA[name]
        values = {}
        for key, raw in parser[name].items():
            if key not in allowed:
                raise InputError(f"unknown config key {name}.{key}")
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            values[key] = _coerce(name, key, value, allowed[key][1])
        sections[name] = values
    return sections


def resolve_config(args) -> RunConfig:
    """Lay the config file's values, then the flags, over the dataclass
    defaults; building the RunConfig validates it."""
    path = getattr(args, "config", None)
    sections = load_config_file(path) if path else {}
    for dest, (section, key) in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            sections.setdefault(section, {})[key] = value
    for branch in ("srb", "sib", "adain"):
        if getattr(args, f"no_{branch}", False):
            sections.setdefault("guidance", {})[f"use_{branch}"] = False
    g: dict = {}
    r: dict = {}
    for section, values in sections.items():
        for key, value in values.items():
            (g if section == "guidance" else r)[_SCHEMA[section][key][0]] = value
    return RunConfig(guidance=GuidanceConfig(**g), **r)


def load_mask(path) -> PolygonMask:
    """Mask file: a JSON array of [x, y] vertices, or an object holding one
    under "vertices"."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "vertices" in data:
        data = data["vertices"]
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"mask file {path} must hold an array of [x, y] points")
    return PolygonMask(arr)


def write_run_config(out_dir: Path, cfg: RunConfig, command: str, paths: dict) -> None:
    payload = {"command": command, "paths": {k: str(v) for k, v in paths.items()}}
    payload.update(cfg.to_dict())
    (out_dir / "run_config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _layout_payload(text: str, segments, layout) -> dict:
    return {
        "text": text,
        "segments": [
            {
                "index": seg.index,
                "angle_deg": math.degrees(seg.angle),
                "corners": seg.corners.tolist(),
                "text_slice": list(seg.text_slice),
            }
            for seg in segments
        ],
        "layout": {
            "canvas": list(layout.canvas),
            "rects": [list(rect) for rect in layout.rects],
            "text_slices": [list(ts) for ts in layout.text_slices],
            "transforms": [
                {"scale": t.scale, "angle": t.angle, "tx": t.tx, "ty": t.ty}
                for t in layout.transforms
            ],
        },
    }


def _render_canvas(mask: PolygonMask, base: tuple[int, int]) -> tuple[int, int]:
    """Smallest codec-aligned canvas covering both the base size and the
    mask, so decompose can debug-render shapes bigger than a scene."""
    hi = mask.vertices.max(axis=0)
    w = max(base[1], 4 * math.ceil((hi[0] + 2.5) / 4))
    h = max(base[0], 4 * math.ceil((hi[1] + 2.5) / 4))
    return (int(h), int(w))


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    text = args.text
    if not text:
        raise InputError("text must be non-empty")
    default_font().validate(text)
    mask = load_mask(args.mask)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    corpus = build_corpus(canvas=cfg.canvas)
    trace = None
    if args.trace:
        codec = LatentCodec(corpus.factor)
        trace_dir = out / "trace"
        trace_dir.mkdir(exist_ok=True)

        def trace(step, z):
            frame = (codec.decode(z) + PIXEL_SHIFT) / PIXEL_RANGE
            write_ppm(trace_dir / f"step_{step:02d}.ppm", frame)

    result = generate(
        text, mask, cfg.scene_id, cfg.seed,
        config=cfg.guidance, corpus=corpus, schedule=cfg.schedule(), trace=trace,
    )
    # an unguided run skips decomposition; the layout artifact is still due
    segments = result.segments if result.segments is not None else divide_mask(mask, text)
    layout = result.layout if result.layout is not None else flatten_segments(segments, cfg.canvas)

    image_path = out / "image.ppm"
    write_ppm(image_path, (result.image + PIXEL_SHIFT) / PIXEL_RANGE)
    layout_path = out / "layout.json"
    layout_path.write_text(
        json.dumps(_layout_payload(text, segments, layout), indent=2, sort_keys=True) + "\n"
    )
    write_run_config(out, cfg, "generate", {"mask": args.mask, "out": args.out})
    print(image_path)
    print(layout_path)
    return 0


def cmd_decompose(args) -> int:
    cfg = resolve_config(args)
    mask = load_mask(args.mask)
    segments = divide_mask(mask, args.text)
    canvas = _render_canvas(mask, cfg.canvas)
    layout = flatten_segments(segments, canvas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    layout_path = out / "layout.json"
    layout_path.write_text(
        json.dumps(_layout_payload(args.text, segments, layout), indent=2, sort_keys=True) + "\n"
    )
    warped_path = out / "glyph.pgm"
    write_pgm(warped_path, render_glyph_image(segments, args.text, canvas).data)
    flat_path = out / "glyph_flat.pgm"
    write_pgm(flat_path, render_flat_glyph(layout, args.text).data)
    write_run_config(out, cfg, "decompose", {"mask": args.mask, "out": args.out})
    print(layout_path)
    print(warped_path)
    print(flat_path)
    return 0


def cmd_bench_gen(args) -> int:
    cfg = resolve_config(args)
    cases = generate_benchmark(per_tier_count=cfg.count, rng_seed=cfg.seed, canvas=cfg.canvas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    save_manifest(cases, manifest_path)
    write_run_config(out, cfg, "bench-gen", {"out": args.out})
    print(manifest_path)
    return 0


def cmd_bench_run(args) -> int:
    cfg = resolve_config(args)
    try:
        cases = load_manifest(args.manifest)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed manifest {args.manifest}: {exc}")
    corpus = build_corpus(canvas=cfg.canvas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_bench(
        cases, config=cfg.guidance, corpus=corpus, out_dir=out, jobs=cfg.jobs,
        schedule=cfg.schedule(),
    )
    write_run_config(out, cfg, "bench-run", {"manifest": args.manifest, "out": args.out})
    print(out / "report.json")
    print(out / "report.csv")
    return 0


def _load_report(path) -> dict:
    """A report.json whose total row and tier-name -> row map each hold an
    integer n and numeric sen_acc and ned."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("tiers"), dict) or "total" not in data:
        raise InputError(f"report {path} is missing tier summaries")
    for name, row in (("total", data["total"]), *data["tiers"].items()):
        if not isinstance(row, dict):
            raise InputError(f"report {path}: the {name} row must be an object")
        for key, kind in (("n", int), ("sen_acc", float), ("ned", float)):
            _coerce(f"report {path}: {name}", key, row.get(key), kind)
    return data


def cmd_report(args) -> int:
    cfg = resolve_config(args)
    on = _load_report(args.on_report)
    off = _load_report(args.off_report)
    rows = []
    for name in (*TIER_NAMES, "total"):
        a = on["total"] if name == "total" else on["tiers"].get(name)
        b = off["total"] if name == "total" else off["tiers"].get(name)
        if a is None or b is None:
            continue
        rows.append((name, a["n"], a["sen_acc"], b["sen_acc"], a["ned"], b["ned"]))

    header = f"{'tier':<8}{'n':>4}{'sacc on':>9}{'off':>8}{'delta':>8}{'ned on':>9}{'off':>8}{'delta':>8}"
    print(header)
    for name, n, sa_on, sa_off, ned_on, ned_off in rows:
        print(
            f"{name:<8}{n:>4}{sa_on:>9.4f}{sa_off:>8.4f}{sa_on - sa_off:>+8.4f}"
            f"{ned_on:>9.4f}{ned_off:>8.4f}{ned_on - ned_off:>+8.4f}"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["tier,n,sen_acc_on,sen_acc_off,sen_acc_delta,ned_on,ned_off,ned_delta"]
    for name, n, sa_on, sa_off, ned_on, ned_off in rows:
        lines.append(
            f"{name},{n},{sa_on:.4f},{sa_off:.4f},{sa_on - sa_off:.4f},"
            f"{ned_on:.4f},{ned_off:.4f},{ned_on - ned_off:.4f}"
        )
    csv_path = out / "comparison.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    write_run_config(
        out, cfg, "report",
        {"on": args.on_report, "off": args.off_report, "out": args.out},
    )
    print(csv_path)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # bad flags and values are user input problems, not crashes: exit 1
    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="slantext",
        description="Slanted and curved scene-text generation on a toy latent stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; flags override its values")
    common.add_argument("--out", default="out", help="output directory (default: out)")

    knobs = argparse.ArgumentParser(add_help=False)
    knobs.add_argument("--lambda", dest="lambda_", type=float,
                       help=f"injected prior strength (default {GuidanceConfig.lambda_})")
    knobs.add_argument("--rho", type=float,
                       help=f"structure share of the merged prior (default {GuidanceConfig.rho})")
    knobs.add_argument("--no-srb", action="store_true",
                       help="disable the semantic rectification branch")
    knobs.add_argument("--no-sib", action="store_true",
                       help="disable the structure injection branch")
    knobs.add_argument("--no-adain", action="store_true",
                       help="disable statistic matching of injected priors")

    p = sub.add_parser("generate", parents=[common, knobs],
                       help="run guided generation for one mask and text")
    p.add_argument("mask", help="mask polygon JSON file")
    p.add_argument("text", help="text to place (A-Z, 0-9, space)")
    p.add_argument("--scene", type=int, help=f"corpus scene id (default {RunConfig.scene_id})")
    p.add_argument("--seed", type=int, help=f"sampling seed (default {RunConfig.seed})")
    p.add_argument("--trace", action="store_true",
                   help="also write per-step decoded frames")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a mask into straight segments")
    p.add_argument("mask", help="mask polygon JSON file")
    p.add_argument("text", help="text the segments must hold")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench-gen", parents=[common],
                       help="write a rotation-tiered benchmark manifest")
    p.add_argument("--seed", type=int, help=f"manifest seed (default {RunConfig.seed})")
    p.add_argument("--count", type=int, help=f"cases per tier (default {RunConfig.count})")
    p.set_defaults(func=cmd_bench_gen)

    p = sub.add_parser("bench-run", parents=[common, knobs],
                       help="score every case in a manifest")
    p.add_argument("manifest", help="manifest JSON from bench-gen")
    p.add_argument("--jobs", type=int, help=f"parallel case workers (default {RunConfig.jobs})")
    p.set_defaults(func=cmd_bench_run)

    p = sub.add_parser("report", parents=[common],
                       help="tabulate a guided-vs-unguided report pair")
    p.add_argument("on_report", help="report.json from the guided run")
    p.add_argument("off_report", help="report.json from the unguided run")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SlantextError, FileNotFoundError, json.JSONDecodeError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unplanned is a runtime failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
