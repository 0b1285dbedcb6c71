"""One benchmark batch in a fresh interpreter.

    python3 worker.py <job.json> <spawn-time>

The parent takes <spawn-time> from time.monotonic() just before it starts
this process, so set-up covers interpreter start, imports, the corpus build
and loading the inputs.  Cases then run one by one until the job's deadline
or case cap, each preceded by one run of a fixed reference kernel that
tracks the machine's speed.  Output checks, digests and span dumps happen after the timed
loop and write to the job's result file.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from slantext import bench, corpus, geometry, guidance


def _config(guided: bool) -> "guidance.GuidanceConfig":
    if guided:
        return guidance.GuidanceConfig()
    return guidance.GuidanceConfig(use_srb=False, use_sib=False)


def _bench_case(case, config, corpus_):
    """One case through the public runner; the per-case report is the
    record plus its report.json bytes, written after timing."""
    return bench.run_bench([case], config=config, corpus=corpus_)


def _curved_case(case, config, corpus_):
    mask = geometry.PolygonMask(np.asarray(case["vertices"], dtype=np.float64))
    return guidance.generate(
        case["text"], mask, case["scene_id"], case["seed"], config=config, corpus=corpus_
    )


def _kernel_ms(table: np.ndarray, idx: np.ndarray) -> float:
    """One run of the fixed speed-reference kernel: a Python loop plus a
    numpy gather, the two kinds of work the cases do."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    table[idx].sum()
    return (time.perf_counter() - t0) * 1e3


def _bench_outputs(cases, results, out_dir: Path) -> list[dict]:
    rows = []
    for case, report in zip(cases, results):
        if isinstance(report, str):
            rows.append({"case_id": case.case_id, "error": report})
            continue
        case_dir = out_dir / case.case_id
        bench.write_report(report, case_dir)
        rec = report.records[0]
        rows.append({
            "case_id": rec.case_id,
            "n_records": len(report.records),
            "target": rec.target,
            "decoded": rec.decoded,
            "sen_acc": rec.sen_acc,
            "ned": rec.ned,
            "note": rec.note,
            "digest": hashlib.sha256((case_dir / "report.json").read_bytes()).hexdigest(),
        })
    return rows


def _curved_outputs(cases, results) -> list[dict]:
    shape = (*corpus.CANVAS, 3)
    rows = []
    for case, result in zip(cases, results):
        if isinstance(result, str):
            rows.append({"case_id": case["case_id"], "error": result})
            continue
        image = np.ascontiguousarray(result.image, dtype=np.float64)
        rows.append({
            "case_id": case["case_id"],
            "shape_ok": image.shape == shape,
            "finite": bool(np.isfinite(image).all()),
            "segments": len(result.segments or ()),
            "digest": hashlib.sha256(image.tobytes()).hexdigest(),
        })
    return rows


def main() -> int:
    spawned = float(sys.argv[2])
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    corpus_ = corpus.build_corpus()
    if job["kind"] == "bench":
        cases = bench.load_manifest(job["inputs"])
        run_one = _bench_case
    else:
        cases = json.loads(Path(job["inputs"]).read_text())
        run_one = _curved_case
    config = _config(job["guided"])
    setup_s = time.monotonic() - spawned

    cap = job["max_cases"] if job["max_cases"] is not None else len(cases)
    deadline = job["deadline"] if job["deadline"] is not None else math.inf
    rng = np.random.default_rng(0)
    table = rng.standard_normal(90_000)
    idx = rng.integers(0, table.size, size=20_000)
    case_ms, kernel_ms, results = [], [], []
    for case in cases[:cap]:
        if len(results) >= job["min_cases"] and time.monotonic() >= deadline:
            break
        kernel_ms.append(_kernel_ms(table, idx))
        if tracer is not None:
            tracer.case = len(results)
        t0 = time.perf_counter()
        try:
            out = run_one(case, config, corpus_)
        except Exception as exc:  # counted as a failed case, the batch goes on
            out = f"{type(exc).__name__}: {exc}"
        case_ms.append((time.perf_counter() - t0) * 1e3)
        results.append(out)
    if tracer is not None:
        tracer.case = None

    done = cases[: len(results)]
    out_dir = Path(job["out"]).parent
    if job["kind"] == "bench":
        rows = _bench_outputs(done, results, out_dir / "cases")
    else:
        rows = _curved_outputs(done, results)
    if tracer is not None:
        tracer.dump(job["spans"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["out"]).write_text(json.dumps({
        "setup_s": setup_s,
        "case_ms": case_ms,
        "kernel_ms": kernel_ms,
        "rows": rows,
        "peak_rss_mb": peak_kb / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
