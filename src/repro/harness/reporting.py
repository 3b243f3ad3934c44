"""Rendering experiment results as paper-style tables."""

from __future__ import annotations

from typing import Dict, List, Sequence


def percent_difference(baseline: float, other: float) -> float:
    """Percent by which ``other`` is worse than ``baseline``.

    Positive = ``other`` is slower (lower throughput), matching how
    the paper quotes overheads ("the difference ... amounts to
    7.2%").
    """
    if baseline == 0:
        return 0.0
    return (baseline - other) / baseline * 100.0


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Dict[str, Sequence[float]],
    unit: str = "",
    precision: int = 1,
) -> str:
    """Render a fixed-width table: one row label + numeric columns."""
    label_width = max([len(name) for name in rows] + [8]) + 2
    col_width = max([len(col) for col in columns] + [10]) + 2
    lines = [title]
    header = " " * label_width + "".join(
        col.rjust(col_width) for col in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, values in rows.items():
        cells = "".join(
            f"{value:>{col_width}.{precision}f}" for value in values
        )
        lines.append(label.ljust(label_width) + cells)
    if unit:
        lines.append(f"(values in {unit})")
    return "\n".join(lines)


def format_deltas(
    title: str,
    baseline_name: str,
    columns: Sequence[str],
    rows: Dict[str, Sequence[float]],
) -> str:
    """Render percent-differences of every row against the baseline."""
    baseline = rows[baseline_name]
    delta_rows: Dict[str, List[float]] = {}
    for name, values in rows.items():
        if name == baseline_name:
            continue
        delta_rows[name] = [
            percent_difference(base, value)
            for base, value in zip(baseline, values)
        ]
    return format_table(
        title,
        columns,
        delta_rows,
        unit=f"% slower than '{baseline_name}'",
    )
