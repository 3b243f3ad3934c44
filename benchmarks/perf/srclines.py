"""``<package>.src_lines``: the lines-per-package table.

Non-blank, non-comment lines of every package under ``src/repro``,
emitted with every traced run so a simplicity change can point at a
measured row instead of asserting "less code".
"""

from __future__ import annotations

import pathlib
from typing import Dict

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _count(path: pathlib.Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(
            1
            for line in handle
            if line.strip() and not line.lstrip().startswith("#")
        )


def src_lines() -> Dict[str, int]:
    """``{"lld.src_lines": n, ..., "total.src_lines": n}``."""
    table: Dict[str, int] = {}
    total = 0
    for entry in sorted(SRC.iterdir()):
        if entry.is_dir():
            lines = sum(_count(path) for path in entry.rglob("*.py"))
            if lines:
                table[f"{entry.name}.src_lines"] = lines
        elif entry.suffix == ".py":
            lines = _count(entry)
        else:
            continue
        total += lines
    table["total.src_lines"] = total
    return table
