"""The pinned outputs in PINS.json at the repository root, which
tools/gate_reads.py reads too.  Loaded at import, so that `parametrize` can
use the values; a deliberate change repins by editing that file."""
import json
from pathlib import Path

PINS = json.loads((Path(__file__).resolve().parents[1] / "PINS.json").read_text())


def pinned(entry: str) -> dict:
    """The values of one PINS.json entry, without its `covers` line."""
    return PINS[entry]["pins"]
