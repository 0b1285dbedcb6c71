"""slantext benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload bench_guided --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is loaded from src/.  Every batch
of cases runs in a fresh interpreter (worker.py), because every
`slantext bench-run` or `generate` call pays a cold OCR-context cache and a
corpus build.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run replays the same cases untraced
and then traced, and reports the per-layer metrics of tracer.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must exit within 180 s; workers share what is left of this.
RUN_LIMIT_S = 170.0
# Set-up is sampled at least this many times per run; the median is reported.
SETUP_SAMPLES = 9
# Cases the untraced half of a traced run runs at least.
TRACE_MIN_CASES = 10
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Case times are reported at reference speed: each case's wall time is scaled
# by REF_KERNEL_MS over the median time of the reference kernel (worker.py) in
# the eleven runs around it.  On a shared 2-vCPU virtual machine the speed
# drifted by up to 1.5x within a minute with the neighbours' load, and the
# scaling cancels most of that.
# Wall-clock values are kept in results.json and printed beside them.
REF_KERNEL_MS = 1.0
KERNEL_WINDOW = 5

END_TO_END_UNITS = {
    "cases_per_s": "1/ref-s",
    "case_ms_p50": "ref-ms",
    "case_ms_tail": "ref-ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_start": _loadavg(),
    }


class Runner:
    """Starts workers one at a time and keeps every run inside RUN_LIMIT_S."""

    def __init__(self, out: Path, tiny: bool):
        self.out = out
        self.tiny = tiny
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def batch_inputs(self, w, seed: int, k: int) -> Path:
        path = self.out / f"inputs_{k:02d}.json"
        if not path.exists():
            w.write_batch(seed, k, path, self.tiny)
        return path

    def worker(self, w, inputs: Path, job_dir: Path, *, deadline=None, min_cases=0,
               max_cases=None, traced=False) -> dict:
        job_dir.mkdir(parents=True, exist_ok=True)
        job = {
            "kind": w.kind,
            "guided": w.guided,
            "inputs": str(inputs),
            "out": str(job_dir / "result.json"),
            "spans": str(job_dir / "spans.json") if traced else None,
            "deadline": deadline,
            "min_cases": min_cases,
            "max_cases": max_cases,
        }
        (job_dir / "job.json").write_text(json.dumps(job))
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s before {job_dir.name}")
        cmd = [sys.executable, str(HERE / "worker.py"), str(job_dir / "job.json")]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + [repr(spawned)], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {job_dir.name} did not finish within the run limit")
        if proc.returncode != 0:
            raise BenchError(f"worker {job_dir.name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        res = json.loads(Path(job["out"]).read_text())
        if traced:
            res["spans"] = json.loads(Path(job["spans"]).read_text())
        return res

    def measure(self, w, seed: int, phase: str, *, budget=None, min_cases=0,
                whole_first=False, plan=None, traced=False) -> list[dict]:
        """Batches until the budget is spent and `min_cases` cases ran, or
        exactly the per-batch case counts of `plan`."""
        deadline = None if budget is None else time.monotonic() + budget
        batches: list[dict] = []
        done = 0
        k = 0
        while True:
            if plan is not None:
                if k >= len(plan):
                    break
                kw = dict(max_cases=plan[k], min_cases=plan[k])
            else:
                if k > 0 and time.monotonic() >= deadline and done >= min_cases:
                    break
                first_whole = k == 0 and whole_first
                kw = dict(deadline=None if first_whole else deadline,
                          min_cases=max(min_cases - done, 0))
            inputs = self.batch_inputs(w, seed, k)
            res = self.worker(w, inputs, self.out / phase / f"batch_{k:02d}", traced=traced, **kw)
            res["inputs"] = inputs.name
            batches.append(res)
            done += len(res["case_ms"])
            k += 1
        return batches

    def setup_probes(self, w, count: int) -> list[float]:
        inputs = self.out / "inputs_00.json"
        return [
            self.worker(w, inputs, self.out / "setup" / f"probe_{i:02d}", max_cases=0)["setup_s"]
            for i in range(count)
        ]


def _tail_min_cases(pct: float) -> int:
    """Cases needed so that at least ten lie beyond the `pct` percentile."""
    return math.ceil(10.0 / (1.0 - pct / 100.0)) + 1


def reference_ms(batch: dict) -> list[float]:
    """The batch's case times scaled to a machine where the kernel takes
    REF_KERNEL_MS."""
    k = batch["kernel_ms"]
    return [
        t * REF_KERNEL_MS / statistics.median(k[max(0, i - KERNEL_WINDOW): i + KERNEL_WINDOW + 1])
        for i, t in enumerate(batch["case_ms"])
    ]


def case_stats(case_ms: list[float], pct: float) -> dict:
    return {
        "cases_per_s": len(case_ms) / (sum(case_ms) / 1e3),
        "case_ms_p50": statistics.median(case_ms),
        "case_ms_tail": float(np.percentile(case_ms, pct)),
    }


def _rows(batches: list[dict]) -> list[dict]:
    return [row for b in batches for row in b["rows"]]


def _failed(row: dict) -> bool:
    return bool(row.get("error") or row.get("note"))


def check_outputs(kind: str, batches: list[dict]) -> list[str]:
    """Untimed output checks; returns the problems found."""
    problems = []
    for b in batches:
        ids = [r["case_id"] for r in b["rows"]]
        if len(ids) != len(b["case_ms"]) or len(set(ids)) != len(ids):
            problems.append(f"{b['inputs']}: {len(ids)} outputs for {len(b['case_ms'])} cases")
    for r in _rows(batches):
        if _failed(r):
            continue
        if kind == "bench":
            if r["n_records"] != 1:
                problems.append(f"{r['case_id']}: {r['n_records']} records for one case")
            if len(r["decoded"]) != len(r["target"]):
                problems.append(f"{r['case_id']}: decoded {r['decoded']!r} vs target {r['target']!r}")
        else:
            if not (r["shape_ok"] and r["finite"]):
                problems.append(f"{r['case_id']}: image is not a finite (64, 64, 3) array")
            if r["segments"] < 1:
                problems.append(f"{r['case_id']}: no segments")
    return problems


def digest(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(f"{r['case_id']}:{r.get('digest', r.get('error'))}\n".encode())
    return h.hexdigest()


def end_to_end(w, runner: Runner, seed: int, seconds: float) -> dict:
    min_cases = 1 if runner.tiny else _tail_min_cases(w.tail_pct)
    batches = runner.measure(w, seed, "untraced", budget=seconds, min_cases=min_cases,
                             whole_first=True)
    setups = [b["setup_s"] for b in batches]
    setups += runner.setup_probes(w, max(SETUP_SAMPLES - len(setups), 0))
    case_ms = [t for b in batches for t in reference_ms(b)]
    wall_ms = [t for b in batches for t in b["case_ms"]]
    kernel_ms = [t for b in batches for t in b["kernel_ms"]]
    rows = _rows(batches)
    problems = check_outputs(w.kind, batches)
    failed = sum(_failed(r) for r in rows)
    metrics = case_stats(case_ms, w.tail_pct)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(b["peak_rss_mb"] for b in batches)
    head = batches[0]["rows"]
    info = {
        "tail_pct": w.tail_pct,
        "n": len(case_ms),
        "beyond_tail": sum(t > metrics["case_ms_tail"] for t in case_ms),
        "wall": case_stats(wall_ms, w.tail_pct),
        "kernel_ms_median": statistics.median(kernel_ms),
        "kernel_ms_range": [min(kernel_ms), max(kernel_ms)],
        "batches": len(batches),
        "setup_samples": setups,
        "failed_frac": failed / len(case_ms),
        "digest_first_batch": digest(head),
        "digest_all": digest(rows),
    }
    if w.kind == "bench":
        # Quality over the first batch only: it is the seed's bench-gen
        # manifest, so the numbers match `slantext bench-run` on it.
        info["sen_acc"] = sum(r["sen_acc"] for r in head) / len(head)
        info["ned"] = sum(r["ned"] for r in head) / len(head)
    return {"metrics": metrics, "units": END_TO_END_UNITS, "info": info,
            "problems": problems, "attempted": len(case_ms), "failed": failed}


def traced(w, runner: Runner, seed: int, seconds: float) -> dict:
    plain = runner.measure(w, seed, "untraced", budget=seconds / 2.0,
                           min_cases=1 if runner.tiny else TRACE_MIN_CASES)
    plan = [len(b["case_ms"]) for b in plain]
    spanned = runner.measure(w, seed, "traced", plan=plan, traced=True)
    n = sum(plan)
    rows_plain, rows_traced = _rows(plain), _rows(spanned)
    problems = check_outputs(w.kind, spanned)
    for a, b in zip(rows_plain, rows_traced):
        if (a["case_id"], a.get("digest")) != (b["case_id"], b.get("digest")):
            problems.append(f"{a['case_id']}: traced output differs from untraced output")

    spans: list[list] = []
    for b in spanned:
        base = len(spans)
        for s in b["spans"]:
            s[3] = s[3] + base if s[3] >= 0 else -1
            spans.append(s)
    plain_ms = sum(t for b in plain for t in b["case_ms"])
    traced_ms = sum(t for b in spanned for t in b["case_ms"])
    metrics = tracer.per_layer(spans, n, traced_ms, plain_ms)
    failed = sum(_failed(r) for r in rows_traced)
    info = {
        "n": n,
        "batches": len(plan),
        "spans": len(spans),
        "overhead_s": (traced_ms - plain_ms) / 1e3,
        "failed_frac": failed / n,
        "digest_untraced": digest(rows_plain),
        "digest_traced": digest(rows_traced),
    }
    return {"metrics": metrics, "units": tracer.PER_LAYER_UNITS, "info": info,
            "problems": problems, "attempted": n, "failed": failed}


def run_workload(w, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    out = HERE / "out" / f"{w.name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(out, tiny)
    env = environment()
    result = (traced if trace else end_to_end)(w, runner, seed, seconds)
    env["loadavg_end"] = _loadavg()
    result.update(workload=w.name, seed=seed, seconds=seconds, trace=trace, env=env,
                  wall_s=time.monotonic() - runner.started)
    (out / "results.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    result["results_path"] = str((out / "results.json").relative_to(ROOT))
    return result


def print_result(r: dict) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"({r['attempted']} cases, {r['failed']} failed, wall {r['wall_s']:.1f} s)")
    for name, value in r["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {r['units'][name]}")
    info = r["info"]
    if "tail_pct" in info:
        print(f"  case_ms_tail is p{info['tail_pct']:g} of n={info['n']} cases "
              f"({info['beyond_tail']} beyond it)")
        for name, value in info["wall"].items():
            unit = r["units"][name].replace("ref-", "")
            print(f"  {'wall ' + name:28s} {value:14.6g} {unit}")
        lo, hi = info["kernel_ms_range"]
        print(f"  {'reference kernel':28s} {info['kernel_ms_median']:14.4f} ms "
              f"median, {lo:.4f}-{hi:.4f} ms range")
    for key in ("sen_acc", "ned", "failed_frac"):
        if key in info:
            print(f"  {key:28s} {info[key]:14.4f} frac")
    for key in ("overhead_s", "spans"):
        if key in info:
            print(f"  {key:28s} {info[key]:14.6g}")
    for key in sorted(k for k in info if k.startswith("digest")):
        print(f"  {key:28s} {info[key]}")
    env = r["env"]
    print(f"  env: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
          f"numpy {env['numpy']}, loadavg {env['loadavg_start']} -> {env['loadavg_end']}, "
          f"blas threads {env['blas_threads']}")
    for p in r["problems"][:20]:
        print(f"  CHECK FAILED: {p}")
    print(f"  results: {r['results_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "slantext" / "__init__.py").is_file():
        print(f"error: no slantext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    try:
        results = [
            run_workload(workloads.WORKLOADS[n], args.seed, args.seconds, args.trace, args.tiny)
            for n in names
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_result(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
        units = results[0]["units"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
        units = {f"{r['workload']}.{k}": u for r in results for k, u in r["units"].items()}
    print(json.dumps({
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
