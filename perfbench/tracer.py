"""Outside-in tracer: wraps the package's public callables from the benchmark
side, so the program itself carries no timing code.

Spans live in memory as flat lists [name, start, end, parent, case, n, extra,
error] and are written once, when the worker ends.  `per_layer` turns a span
file into the `<module>.<what>` metrics the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

PACKAGE = "slantext"

# (home module, public name, span name).  `from .grid import sample_at` copies
# the binding, so each callable is re-bound in every package namespace that
# holds it, not only where it is defined.
FUNCTIONS = (
    ("bench", "run_bench", "bench.run_bench"),
    ("bench", "ocr_decode", "bench.ocr"),
    ("grid", "sample_at", "grid.sample"),
    ("grid", "adain", "grid.adain"),
    ("grid", "extract_region", "grid.warp"),
    ("grid", "paste_region_with_mask", "grid.warp"),
    ("geometry", "divide_mask", "geometry.divide"),
    ("geometry", "flatten_segments", "geometry.flatten"),
    ("geometry", "rasterize_mask", "geometry.rasterize"),
    ("guidance", "generate", "guidance.generate"),
    ("guidance", "build_reference", "guidance.reference"),
    ("guidance", "align_reference", "guidance.align"),
    ("diffusion", "sample", "diffusion.sample"),
    ("corpus", "build_corpus", "corpus.build"),
    ("glyph", "render_text_block", "glyph.text_block"),
    ("glyph", "render_glyph_image", "glyph.render_image"),
)

# Factories whose returned closures get a span on every call.
FACTORIES = (
    ("corpus", "make_denoiser", "corpus.denoise"),
    ("guidance", "make_guidance_hook", "guidance.hook"),
)

# (home module, class, method, span name)
METHODS = (
    ("diffusion", "LatentCodec", "encode", "diffusion.encode"),
    ("diffusion", "LatentCodec", "decode", "diffusion.decode"),
    ("geometry", "PolygonMask", "__init__", "geometry.mask_build"),
)

GEOMETRY_SPANS = ("geometry.mask_build", "geometry.divide", "geometry.flatten", "geometry.rasterize")
GLYPH_SPANS = ("glyph.text_block", "glyph.render_image")
CODEC_SPANS = ("diffusion.encode", "diffusion.decode")


def _sample_counts(args, kwargs):
    grid, xs = args[0], args[1]
    return int(getattr(xs, "size", 1)), int(grid.channels)


def _mask_counts(args, kwargs):
    verts = args[1] if len(args) > 1 else kwargs.get("vertices", ())
    return len(verts), 0


def _ocr_result(rec, result, sentinel):
    decoded = result.decoded
    rec[5] = len(decoded)
    rec[6] = sum(ch != sentinel for ch in decoded)


class Tracer:
    """Holds every span of one worker process in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n, extra = counts(args, kwargs) if counts else (0, 0)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.case, n, extra, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[7] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(rec, out)
            return out

        return traced

    def wrap_factory(self, name, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def install(self) -> None:
        """Patch the imported package in place.  Call before any traced work."""
        modules = _package_modules()
        sentinel = getattr(modules[f"{PACKAGE}.bench"], "OCR_SENTINEL", "?")
        extras = {
            "grid.sample": dict(counts=_sample_counts),
            "bench.ocr": dict(on_result=lambda rec, out: _ocr_result(rec, out, sentinel)),
        }
        for home, attr, name in FUNCTIONS:
            original = _find(modules, home, attr)
            if original is not None:
                _rebind(modules, original, self.wrap(name, original, **extras.get(name, {})))
        for home, attr, name in FACTORIES:
            original = _find(modules, home, attr)
            if original is not None:
                _rebind(modules, original, self.wrap_factory(name, original))
        for home, cls_name, method, name in METHODS:
            cls = _find(modules, home, cls_name)
            if cls is not None:
                counts = _mask_counts if name == "geometry.mask_build" else None
                setattr(cls, method, self.wrap(name, getattr(cls, method), counts=counts))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def _package_modules() -> dict:
    importlib.import_module(f"{PACKAGE}.bench")  # pulls in every layer
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def _find(modules: dict, home: str, attr: str):
    """The object bound to `home.attr`, or None when the package no longer
    has it (its metrics then read 0)."""
    return getattr(modules.get(f"{PACKAGE}.{home}"), attr, None)


def _rebind(modules: dict, original, replacement) -> None:
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# ---------------------------------------------------------------------------
# span analysis


def _self_ms(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children.  Everything runs on
    one thread, so children of one span never overlap and their sum is the
    covered part."""
    own = [(s[2] - s[1]) * 1e3 for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= (s[2] - s[1]) * 1e3
    return own


def _under(spans: list[list], ancestor: str) -> list[bool]:
    """Whether each span has a span named `ancestor` above it (or is one)."""
    flag = [False] * len(spans)
    for i, s in enumerate(spans):  # parents always precede children
        flag[i] = s[0] == ancestor or (s[3] >= 0 and flag[s[3]])
    return flag


# name -> unit, in report order
PER_LAYER_UNITS = {
    "bench.ocr_calls": "count/case",
    "bench.ocr_ms": "ms/case",
    "bench.ocr_self_ms": "ms/case",
    "bench.ocr_codec_passes": "count/case",
    "bench.ocr_sample_points": "points/case",
    "bench.ocr_read_frac": "frac",
    "grid.sample_calls": "count/case",
    "grid.sample_points": "points/case",
    "grid.sample_ms": "ms/case",
    "grid.sample_bytes_computed": "B/case",
    "grid.adain_ms": "ms/case",
    "grid.warp_ms": "ms/case",
    "geometry.mask_build_calls": "count/case",
    "geometry.mask_vertices": "count/case",
    "geometry.mask_build_ms": "ms/case",
    "geometry.divide_calls": "count/case",
    "geometry.divide_ms": "ms/case",
    "geometry.rasterize_ms": "ms/case",
    "geometry.flatten_ms": "ms/case",
    "geometry.errors": "count/case",
    "guidance.generate_ms": "ms/case",
    "guidance.reference_ms": "ms/case",
    "guidance.align_ms": "ms/case",
    "guidance.hook_calls": "count/case",
    "guidance.hook_ms": "ms/case",
    "diffusion.sample_calls": "count/case",
    "diffusion.sample_self_ms": "ms/case",
    "diffusion.codec_calls": "count/case",
    "diffusion.codec_ms": "ms/case",
    "corpus.build_ms": "ms",
    "corpus.denoise_calls": "count/case",
    "corpus.denoise_ms": "ms/case",
    "glyph.render_ms": "ms/case",
    "glyph.text_block_calls": "count/case",
    "trace.case_ms": "ms/case",
    "trace.overhead_ms": "ms/case",
}


def per_layer(spans: list[list], n_cases: int, traced_ms: float, untraced_ms: float) -> dict:
    """Per-case layer metrics over the spans of traced cases; corpus builds
    happen in set-up and are reported per build."""
    self_ms = _self_ms(spans)
    under_ocr = _under(spans, "bench.ocr")
    dur = [(s[2] - s[1]) * 1e3 for s in spans]
    in_case = [s[4] is not None for s in spans]

    def pick(*names, within=None):
        return [
            i for i, s in enumerate(spans)
            if s[0] in names and in_case[i] and (within is None or within[i])
        ]

    def count(*names, within=None):
        return len(pick(*names, within=within)) / n_cases

    def ms(*names, within=None):
        return sum(dur[i] for i in pick(*names, within=within)) / n_cases

    def total(field, *names, within=None):
        return sum(spans[i][field] for i in pick(*names, within=within)) / n_cases

    ocr = pick("bench.ocr")
    cells = sum(spans[i][5] for i in ocr)
    samples = pick("grid.sample")
    glyph_top = [
        i for i in pick(*GLYPH_SPANS)
        if spans[i][3] < 0 or spans[spans[i][3]][0] not in GLYPH_SPANS
    ]
    builds = [i for i, s in enumerate(spans) if s[0] == "corpus.build"]
    out = {
        "bench.ocr_calls": count("bench.ocr"),
        "bench.ocr_ms": ms("bench.ocr"),
        "bench.ocr_self_ms": sum(self_ms[i] for i in ocr) / n_cases,
        "bench.ocr_codec_passes": count("diffusion.encode", within=under_ocr),
        "bench.ocr_sample_points": total(5, "grid.sample", within=under_ocr),
        "bench.ocr_read_frac": sum(spans[i][6] for i in ocr) / cells if cells else 0.0,
        "grid.sample_calls": count("grid.sample"),
        "grid.sample_points": total(5, "grid.sample"),
        "grid.sample_ms": ms("grid.sample"),
        # 4 bilinear corners x channels x 8-byte floats per point, not measured
        "grid.sample_bytes_computed": sum(32 * spans[i][5] * spans[i][6] for i in samples) / n_cases,
        "grid.adain_ms": ms("grid.adain"),
        "grid.warp_ms": ms("grid.warp"),
        "geometry.mask_build_calls": count("geometry.mask_build"),
        "geometry.mask_vertices": total(5, "geometry.mask_build"),
        "geometry.mask_build_ms": ms("geometry.mask_build"),
        "geometry.divide_calls": count("geometry.divide"),
        "geometry.divide_ms": ms("geometry.divide"),
        "geometry.rasterize_ms": ms("geometry.rasterize"),
        "geometry.flatten_ms": ms("geometry.flatten"),
        "geometry.errors": total(7, *GEOMETRY_SPANS),
        "guidance.generate_ms": ms("guidance.generate"),
        "guidance.reference_ms": ms("guidance.reference"),
        "guidance.align_ms": ms("guidance.align"),
        "guidance.hook_calls": count("guidance.hook"),
        "guidance.hook_ms": ms("guidance.hook"),
        "diffusion.sample_calls": count("diffusion.sample"),
        "diffusion.sample_self_ms": sum(self_ms[i] for i in pick("diffusion.sample")) / n_cases,
        "diffusion.codec_calls": count(*CODEC_SPANS),
        "diffusion.codec_ms": ms(*CODEC_SPANS),
        "corpus.build_ms": sum(dur[i] for i in builds) / len(builds) if builds else 0.0,
        "corpus.denoise_calls": count("corpus.denoise"),
        "corpus.denoise_ms": ms("corpus.denoise"),
        "glyph.render_ms": sum(dur[i] for i in glyph_top) / n_cases,
        "glyph.text_block_calls": count("glyph.text_block"),
        "trace.case_ms": traced_ms / n_cases,
        "trace.overhead_ms": (traced_ms - untraced_ms) / n_cases,
    }
    return out
