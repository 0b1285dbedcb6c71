"""PINS.json's shape, and the bitwise gate's comparison against it."""
import copy
import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

from pins import PINS, pinned

ROOT = Path(__file__).resolve().parents[1]
GATE_ENTRIES = ("reports", "reads", "curved_images")


@pytest.fixture(scope="module")
def gate():
    """tools/gate_reads.py loaded by path, with the OpenBLAS setting and the
    import paths it sets for itself put back."""
    environ, path = os.environ.copy(), sys.path[:]
    spec = importlib.util.spec_from_file_location("gate_reads", ROOT / "tools" / "gate_reads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    os.environ.clear()
    os.environ.update(environ)
    sys.path[:] = path
    return module


def digests(tree):
    """Every string in a nested dict of pins."""
    if isinstance(tree, dict):
        for value in tree.values():
            yield from digests(value)
    else:
        yield tree


def test_every_entry_says_what_it_covers():
    for name, entry in PINS.items():
        assert set(entry) == {"covers", "pins"}, name
        assert entry["covers"].strip(), name


def test_digests_are_sha256_hex():
    for name in PINS.keys() - {"curved_read"}:
        for digest in digests(pinned(name)):
            assert re.fullmatch("[0-9a-f]{64}", digest), (name, digest)
    curved = pinned("curved_read")
    assert curved["decoded"]
    assert [float.fromhex(c).hex() for c in curved["confidences"]] == curved["confidences"]


def test_reports_cover_the_30_gate_runs():
    configs = ("none", "rectify", "rectify+inject", "full", "both_off")
    keys = {f"{seed}/{config}" for seed in (0, 1, 2, 3, 4, 101) for config in configs}
    assert set(pinned("reports")) == keys
    for files in pinned("reports").values():
        assert set(files) == {"report.json", "report.csv"}


def test_gate_measures_every_gate_entry(gate):
    assert len(gate.CONFIGS) * len(gate.GATE_SEEDS) == len(pinned("reports"))
    assert set(gate.CURVED_IMAGE_CONFIGS) == set(pinned("curved_images"))


def test_gate_names_each_altered_pin(gate, capsys):
    # the measured values of a tree whose outputs equal the pins
    measured = {entry: pinned(entry) for entry in GATE_ENTRIES}
    assert gate.check_pins(PINS, measured) == 0
    assert capsys.readouterr().out == "entries equal to PINS.json: 37 of 37\n"
    altered = copy.deepcopy(PINS)
    altered["reads"]["pins"]["held-out"] = "0" * 64
    altered["curved_images"]["pins"]["no_sib"] = "f" * 64
    assert gate.check_pins(altered, measured) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"reads held-out: pinned {'0' * 64}, measured {pinned('reads')['held-out']}",
        f"curved_images no_sib: pinned {'f' * 64}, measured {pinned('curved_images')['no_sib']}",
        "entries equal to PINS.json: 35 of 37",
    ]
