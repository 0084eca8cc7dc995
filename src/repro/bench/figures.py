"""Series containers + ASCII plots for figure-style experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..units import fmt_size

__all__ = ["Series", "render_series_table", "ascii_plot"]


@dataclass
class Series:
    """One labelled curve: x (message sizes etc.) against y values."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.x.append(x)
        self.y.append(y)

    def __len__(self) -> int:
        return len(self.x)


def render_series_table(
    series: Sequence[Series],
    x_label: str = "size",
    x_is_size: bool = True,
    title: Optional[str] = None,
) -> str:
    """All curves side by side, one row per x value."""
    from .tables import render_table

    xs = sorted({x for s in series for x in s.x})
    headers = [x_label] + [s.label for s in series]
    rows = []
    for x in xs:
        row = [fmt_size(x) if x_is_size else x]
        for s in series:
            try:
                row.append(s.y[s.x.index(x)])
            except ValueError:
                row.append(None)
        rows.append(row)
    return render_table(headers, rows, title)


def ascii_plot(
    series: Sequence[Series],
    width: int = 68,
    height: int = 18,
    logx: bool = True,
    title: Optional[str] = None,
) -> str:
    """A rough gnuplot-style dot plot (one marker letter per curve)."""
    pts = [(x, y) for s in series for x, y in zip(s.x, s.y) if len(s)]
    if not pts:
        return "(empty plot)"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0

    def xpos(x: float) -> int:
        if x_hi == x_lo:
            return 0
        if logx and x_lo > 0:
            f = (math.log(x) - math.log(x_lo)) / (math.log(x_hi) - math.log(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return min(width - 1, int(f * (width - 1)))

    def ypos(y: float) -> int:
        f = (y - y_lo) / (y_hi - y_lo)
        return min(height - 1, int(f * (height - 1)))

    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    for si, s in enumerate(series):
        m = markers[si % len(markers)]
        for x, y in zip(s.x, s.y):
            grid[height - 1 - ypos(y)][xpos(x)] = m
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{y_lo:10.3g} +" + "-" * width)
    lines.append(" " * 12 + f"{fmt_size(x_lo)}".ljust(width - 8) + f"{fmt_size(x_hi)}")
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {s.label}" for i, s in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
