"""Bitwise gate of the benchmark reports and the OCR reads.

Runs `run_bench(generate_benchmark(10, s))` at --jobs 1 for the gate seeds
s = 0-4 and 101 and the held-out seeds 5-9, each under the five gate
configs of BENCH_8.json, and prints:

- the sha256 of each run's report.json and report.csv, and how many of the
  30 gate runs match the digests recorded in BENCH_17.json;
- one sha256 over the 900 gate reads and one over the 750 held-out reads.
  A read is one line per `ocr_decode` call, in run order: the decoded
  string, a space, then its confidences in `float.hex` joined by commas;
  the lines are joined by newlines.

The confidences rest on the rounding of BLAS products, so the script pins
OpenBLAS to one thread before numpy loads.  Run it from the repository root
on each of two trees and compare the output:

    python tools/gate_reads.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from slantext import bench, ocr
from slantext.bench import generate_benchmark, run_bench
from slantext.corpus import build_corpus
from slantext.guidance import GuidanceConfig

CONFIGS = {
    "none": GuidanceConfig(use_srb=False, use_sib=False, use_adain=False),
    "rectify": GuidanceConfig(use_sib=False, use_adain=False),
    "rectify+inject": GuidanceConfig(use_adain=False),
    "full": GuidanceConfig(),
    "both_off": GuidanceConfig(use_srb=False, use_sib=False),
}
GATE_SEEDS = (0, 1, 2, 3, 4, 101)
HELD_OUT_SEEDS = (5, 6, 7, 8, 9)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    pinned = json.loads((ROOT / "BENCH_17.json").read_text())["report_digests"]["digests"]
    lines: list[str] = []

    def record(image, cells):
        result = ocr.ocr_decode(image, cells)
        lines.append(result.decoded + " " + ",".join(c.hex() for c in result.confidences))
        return result

    bench.ocr_decode = record
    corpus = build_corpus()
    matched = 0
    reads = {}
    for group, seeds in (("gate", GATE_SEEDS), ("held-out", HELD_OUT_SEEDS)):
        lines.clear()
        for seed in seeds:
            cases = generate_benchmark(10, seed)
            for name, config in CONFIGS.items():
                with tempfile.TemporaryDirectory() as out:
                    run_bench(cases, config=config, corpus=corpus, out_dir=out)
                    digests = {f: sha256((Path(out) / f).read_bytes()) for f in ("report.json", "report.csv")}
                key = f"{seed}/{name}"
                matched += digests == pinned.get(key)
                print(key, digests["report.json"], digests["report.csv"], flush=True)
        reads[group] = (len(lines), sha256("\n".join(lines).encode()))
    print(f"gate reports equal to BENCH_17.json: {matched} of {len(GATE_SEEDS) * len(CONFIGS)}")
    for group, (n, digest) in reads.items():
        print(f"{group} reads: {n} {digest}")


if __name__ == "__main__":
    main()
