"""perfbench's seeded inputs, loaded from perfbench/workloads.py, for the
tests that pin the division and `generate` on them."""
import importlib.util
import sys
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=None)
def curved_cases_0(seed: int) -> tuple:
    """perfbench's curved batch 0 at `seed`: 40 case dicts (vertices, text,
    scene_id, seed, ...) of arc and S-curve bands of 8-128 vertices a side."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return tuple(workloads.curved_cases(seed, 0, workloads.CURVED_BATCH))
