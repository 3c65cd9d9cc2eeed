"""Plain-text reporting of experiment results.

A sweep's :class:`~repro.experiments.runner.SweepResult` and every
plain runner's result object carry a ``render()`` built on these two
helpers, which prints the rows/series the paper's table or figure shows,
so the CLI can regenerate each artefact as text.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = [
    "format_table",
    "format_series",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as an aligned monospace table."""
    str_rows: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[object], ys: Sequence[object]
) -> str:
    """Render one figure series as ``name: (x, y) ...`` pairs, one per line."""
    if len(xs) != len(ys):
        raise ValueError("series x and y lengths differ")
    lines = [name]
    for x, y in zip(xs, ys):
        lines.append("  %s\t%s" % (_cell(x), _cell(y)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)
