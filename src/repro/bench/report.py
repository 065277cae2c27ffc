"""Paper-style result formatting for the benchmark harness.

The benchmarks print the same rows and series the paper plots, as plain
text: throughput tables (one row per approach, one column per dataset or
parameter setting) and tracked series (filled factor per batch) rendered
as compact sparklines plus summary statistics.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str | None = None, float_fmt: str = "{:.1f}") -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_fmt.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) if i == 0 else h.rjust(widths[i])
                            for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered_rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)))
    return "\n".join(lines)


def unit_fraction(value: float) -> str:
    """A unit fraction ``1/n`` as its exact text, ``"1/n"`` (a
    ``format_table`` float column would round ``1/32`` to ``0.0``)."""
    return f"1/{round(1 / value)}"


def sparkline(series: Sequence[float], lo: float | None = None,
              hi: float | None = None, width: int = 60) -> str:
    """Compress a series into a unicode sparkline of at most ``width``."""
    values = list(series)
    if not values:
        return ""
    if len(values) > width:
        # Average adjacent points down to the target width.
        chunk = len(values) / width
        values = [sum(values[int(i * chunk):max(int(i * chunk) + 1,
                                                int((i + 1) * chunk))])
                  / max(1, len(values[int(i * chunk):max(int(i * chunk) + 1,
                                                         int((i + 1) * chunk))]))
                  for i in range(width)]
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = (hi - lo) or 1.0
    chars = []
    for v in values:
        level = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        level = max(0, min(len(_SPARK_LEVELS) - 1, level))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def format_series(title: str, series_by_name: Mapping[str, Sequence[float]],
                  lo: float | None = None, hi: float | None = None,
                  value_fmt: str = "{:.2f}") -> str:
    """Render several tracked series as labelled sparklines with stats."""
    lines = [title]
    name_width = max((len(n) for n in series_by_name), default=0)
    for name, series in series_by_name.items():
        series = list(series)
        if not series:
            lines.append(f"  {name.ljust(name_width)}  (empty)")
            continue
        stats = (f"min={value_fmt.format(min(series))} "
                 f"max={value_fmt.format(max(series))} "
                 f"last={value_fmt.format(series[-1])}")
        lines.append(f"  {name.ljust(name_width)}  "
                     f"{sparkline(series, lo, hi)}  {stats}")
    return "\n".join(lines)


def shape_check(label: str, condition: bool) -> str:
    """One-line PASS/FAIL marker for an expected qualitative shape."""
    marker = "PASS" if condition else "FAIL"
    return f"  [{marker}] {label}"
