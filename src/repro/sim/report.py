"""Plain-text table and series rendering used by the benchmark harness.

Benchmarks print the same rows/series the paper's tables and figures report;
this module keeps the formatting uniform so EXPERIMENTS.md stays readable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class Table:
    """Monospace table builder.

    >>> t = Table("Demo", ["mode", "value"])
    >>> t.add_row(["a", 1.5])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    Demo
    mode | value
    ---- | -----
    a    | 1.50
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable[object]) -> None:
        row = [_fmt_cell(v) for v in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(" | ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print()
        print(self.render())
        print()


def _fmt_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 0.01:
            return f"{value:.4f}"
        return f"{value:.2f}"
    return str(value)


def format_pct(value: float) -> str:
    """Render a fraction as a signed percentage string.

    >>> format_pct(0.19)
    '+19.0%'
    >>> format_pct(-0.43)
    '-43.0%'
    """
    return f"{value * 100.0:+.1f}%"
