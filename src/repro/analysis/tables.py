"""Fixed-width table and ASCII chart rendering.

Every experiment report prints its table or figure as text: the
tables as aligned columns, the figures as rows of series values (and,
where a shape matters, a crude ASCII chart).
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render rows as a fixed-width text table."""
    if not headers:
        raise ValueError("need at least one column")
    cells = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def ascii_chart(values: Sequence[float], width: int = 60,
                label: str = "") -> str:
    """One-line-per-point horizontal bar chart (monotone visual check)."""
    data = list(values)
    if not data:
        raise ValueError("need at least one value")
    top = max(max(data), 1e-12)
    lines = [label] if label else []
    for index, value in enumerate(data):
        bar = "#" * max(0, int(round(width * value / top)))
        lines.append(f"{index:4d} | {value:10.3f} | {bar}")
    return "\n".join(lines)
