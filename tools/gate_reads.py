"""Bitwise and tolerance gates of the benchmark reports and the OCR reads.

Runs `run_bench(generate_benchmark(10, s))` at --jobs 1 for the gate seeds
s = 0-4 and 101 and the held-out seeds 5-9, each under the five gate
configs of BENCH_8.json, and prints:

- the sha256 of each run's report.json and report.csv;
- one sha256 over the 900 gate reads and one over the 750 held-out reads.
  A read is one line per `ocr_decode` call, in run order: the decoded
  string, a space, then its confidences in `float.hex` joined by commas;
  the lines are joined by newlines;
- one sha256 over 800 curved reads, in the same line format, and how many
  of their characters read correctly.  They are the texts of perfbench's
  `curved_cases` batches 0-4 at seeds 0 and 101, rendered along their
  divided segments at the corpus ink amplitude, each read raw and then
  after a codec round trip, in case order.  Most of their cells' left
  edges in the decoded text lie off block edges, as no gate read's do;
- one sha256 over the `generate` images of perfbench's curved batch 0 at
  seeds 0 and 101 (80 cases) under each of the `full`, `both_off`,
  `no_srb` (structure branch alone) and `no_sib` (semantic branch alone)
  configs, each image's float64 bytes in case order.  The guided digests
  cover the mask checks, the division, the guidance hook and the main
  chain on curved masks, with the glyph prior (`full`, `no_srb`) and the
  reference chain and warp (`full`, `no_sib`); the unguided one covers the
  division and the main chain alone.

It then compares these 37 measured entries (30 reports, 3 read hashes and
4 image sets) with their pins in PINS.json at the repository root, prints
one line per entry that differs, naming it, its pinned value and its
measured one, and how many are equal, and exits with status 1, after all
its other output, if any differs.  The script never writes PINS.json: a
change that moves outputs on purpose edits that file by hand, and the diff
is its record.

With `--reads FILE` it also writes the 1,650 read lines, gate reads first,
to FILE.  With `--compare A B` it compares two such files, written on two
trees, and this tree's reads, which it runs as above, and prints:

- how many reads decode a different string in A and in B, and the largest
  difference between their confidences;
- whether this tree's reads equal A's or B's;
- every gap between the best score of an `ocr._top` call and another of
  its scores that lies in [1e-10, 1e-7], for this tree's reads, with the
  run and case it belongs to.

The confidences rest on the rounding of BLAS products, so the script pins
OpenBLAS to one thread before numpy loads.  Run it from the repository root:

    python tools/gate_reads.py                      # bitwise gate
    python tools/gate_reads.py --reads before.txt   # on the tree before a change
    python tools/gate_reads.py --reads after.txt    # on the changed tree
    python tools/gate_reads.py --compare before.txt after.txt
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np
from workloads import CURVED_BATCH, curved_cases

from slantext import bench, ocr
from slantext.bench import generate_benchmark, run_bench
from slantext.corpus import CANVAS, INK_AMP, build_corpus
from slantext.diffusion import LatentCodec
from slantext.geometry import PolygonMask, divide_mask
from slantext.glyph import char_cells, render_glyph_image
from slantext.guidance import GuidanceConfig, generate

CONFIGS = {
    "none": GuidanceConfig(use_srb=False, use_sib=False, use_adain=False),
    "rectify": GuidanceConfig(use_sib=False, use_adain=False),
    "rectify+inject": GuidanceConfig(use_adain=False),
    "full": GuidanceConfig(),
    "both_off": GuidanceConfig(use_srb=False, use_sib=False),
}
GATE_SEEDS = (0, 1, 2, 3, 4, 101)
HELD_OUT_SEEDS = (5, 6, 7, 8, 9)
CURVED_SEEDS = (0, 101)
CURVED_BATCHES = 5
CURVED_IMAGE_CONFIGS = {
    "full": CONFIGS["full"],
    "both_off": CONFIGS["both_off"],
    "no_srb": GuidanceConfig(use_srb=False),
    "no_sib": GuidanceConfig(use_sib=False),
}
GAP_BAND = (1e-10, 1e-7)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_line(result: ocr.OcrResult) -> str:
    return result.decoded + " " + ",".join(c.hex() for c in result.confidences)


def run_gate() -> tuple[dict, dict, list[str], list[tuple[str, float]]]:
    """Run every gate and held-out config, print the digests, and return the
    gate reports' digests by run, the gate and held-out read hashes, the
    read lines and every in-band `ocr._top` gap with its run and case."""
    reports = {}
    reads = {}
    lines: list[str] = []
    gaps: list[tuple[str, float]] = []
    run = {"key": "", "cases": [], "start": 0, "read": ""}
    top = ocr._top

    def record(image, cells):
        # one read per case, in manifest order
        run["read"] = f"{run['key']} {run['cases'][len(lines) - run['start']].case_id}"
        result = ocr.ocr_decode(image, cells)
        lines.append(read_line(result))
        return result

    def watched(scores):
        rest = scores.max() - np.delete(scores, np.argmax(scores))
        gaps.extend((run["read"], float(g)) for g in rest if GAP_BAND[0] <= g <= GAP_BAND[1])
        return top(scores)

    bench.ocr_decode = record
    ocr._top = watched
    corpus = build_corpus()
    for group, seeds in (("gate", GATE_SEEDS), ("held-out", HELD_OUT_SEEDS)):
        first = len(lines)
        for seed in seeds:
            cases = generate_benchmark(10, seed)
            for name, config in CONFIGS.items():
                key = f"{seed}/{name}"
                run.update(key=key, cases=cases, start=len(lines))
                with tempfile.TemporaryDirectory() as out:
                    run_bench(cases, config=config, corpus=corpus, out_dir=out)
                    digests = {f: sha256((Path(out) / f).read_bytes()) for f in ("report.json", "report.csv")}
                if group == "gate":
                    reports[key] = digests
                print(key, digests["report.json"], digests["report.csv"], flush=True)
        reads[group] = (len(lines) - first, sha256("\n".join(lines[first:]).encode()))
    bench.ocr_decode = ocr.ocr_decode
    ocr._top = top
    for group, (n, digest) in reads.items():
        print(f"{group} reads: {n} {digest}")
    return reports, {group: digest for group, (_, digest) in reads.items()}, lines, gaps


def run_curved() -> str:
    """Read the curved texts raw and after a codec round trip, print the
    reads' sha256 and their correct characters, and return the sha256."""
    codec = LatentCodec()
    lines = []
    correct = {"raw": 0, "codec round trip": 0}
    total = 0
    for seed in CURVED_SEEDS:
        for k in range(CURVED_BATCHES):
            for case in curved_cases(seed, k, CURVED_BATCH):
                text = case["text"]
                segments = divide_mask(PolygonMask(np.asarray(case["vertices"])), text)
                cells = char_cells(segments, text)
                ink = INK_AMP * render_glyph_image(segments, text, CANVAS).data
                coded = codec.decode(codec.encode(np.repeat(ink[:, :, None], 3, axis=2)))
                for kind, image in zip(correct, (ink, coded)):
                    result = ocr.ocr_decode(image, cells)
                    lines.append(read_line(result))
                    correct[kind] += sum(a == b for a, b in zip(result.decoded, text))
                total += len(text)
    digest = sha256("\n".join(lines).encode())
    print(f"curved reads: {len(lines)} {digest}")
    counts = ", ".join(f"{n} {kind}" for kind, n in correct.items())
    print(f"curved characters read correctly of {total}: {counts}")
    return digest


def run_curved_images() -> dict:
    """Generate perfbench's curved batch 0 at each curved seed under each
    curved image config, print one sha256 over each config's images, and
    return them by config."""
    corpus = build_corpus()
    digests = {}
    for name, config in CURVED_IMAGE_CONFIGS.items():
        digest = hashlib.sha256()
        n = 0
        for seed in CURVED_SEEDS:
            for case in curved_cases(seed, 0, CURVED_BATCH):
                mask = PolygonMask(np.asarray(case["vertices"], dtype=np.float64))
                result = generate(case["text"], mask, case["scene_id"], case["seed"],
                                  config=config, corpus=corpus)
                digest.update(result.image.tobytes())
                n += 1
        digests[name] = digest.hexdigest()
        print(f"curved generate images, {name}: {n} {digests[name]}")
    return digests


def check_pins(pins: dict, measured: dict) -> int:
    """Print one line per measured entry that differs from its pin, naming
    the entry, the pinned value and the measured one, then how many are
    equal; return the exit status, 1 if any differs.  `pins` is PINS.json's
    object and `measured` maps entry names to values keyed as their pins."""
    failed = 0
    for entry, values in measured.items():
        for key, value in values.items():
            pin = pins[entry]["pins"].get(key)
            if value != pin:
                print(f"{entry} {key}: pinned {pin}, measured {value}")
                failed += 1
    total = sum(len(values) for values in measured.values())
    print(f"entries equal to PINS.json: {total - failed} of {total}")
    return int(failed > 0)


def compare(a: Path, b: Path, lines: list[str], gaps: list[tuple[str, float]]) -> None:
    """Print the tolerance gate of two read files and this tree's reads."""
    reads_a, reads_b = (p.read_text().split("\n") for p in (a, b))
    if len(reads_a) != len(reads_b):
        sys.exit(f"{a} holds {len(reads_a)} reads and {b} {len(reads_b)}")
    moved = 0
    worst = 0.0
    for line_a, line_b in zip(reads_a, reads_b):
        (text_a, confs_a), (text_b, confs_b) = (line.rsplit(" ", 1) for line in (line_a, line_b))
        moved += text_a != text_b
        for x, y in zip(confs_a.split(","), confs_b.split(",")):
            worst = max(worst, abs(float.fromhex(x) - float.fromhex(y)))
    print(f"reads whose string differs: {moved} of {len(reads_a)}")
    print(f"largest confidence difference: {worst:.3g}")
    same = [str(p) for p, r in ((a, reads_a), (b, reads_b)) if r == lines]
    print(f"this tree's reads equal: {', '.join(same) or 'neither file'}")
    print(f"gaps in [{GAP_BAND[0]:g}, {GAP_BAND[1]:g}] of this tree's ocr._top calls: {len(gaps)}")
    for read, gap in gaps:
        print(f"  {read}: {gap:.5g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reads", type=Path, help="write the 1,650 read lines to this file")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two read files")
    args = parser.parse_args()
    reports, reads, lines, gaps = run_gate()
    reads["curved"] = run_curved()
    images = run_curved_images()
    if args.reads:
        args.reads.write_text("\n".join(lines))
    if args.compare:
        compare(*args.compare, lines, gaps)
    pins = json.loads((ROOT / "PINS.json").read_text())
    sys.exit(check_pins(pins, {"reports": reports, "reads": reads, "curved_images": images}))


if __name__ == "__main__":
    main()
