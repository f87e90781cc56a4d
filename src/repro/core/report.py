"""Rendering experiment results as the paper's rows and series.

The benchmark harness must "print the same rows/series the paper
reports".  This module holds the small formatting toolkit the
experiment runners share: fixed-width tables, labelled series, and a
standard experiment-result container that EXPERIMENTS.md entries are
generated from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["Table", "Series", "ExperimentResult", "format_number"]

Number = Union[int, float]


def format_number(value: Number) -> str:
    """Human-friendly numeric formatting for table cells."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if value != value:  # NaN
        return "nan"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


@dataclass(slots=True)
class Table:
    """A fixed-width text table with a title (one paper table/figure)."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Union[str, Number]]] = field(default_factory=list)

    def add_row(self, *cells: Union[str, Number]) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append(cells)

    def render(self) -> str:
        rendered_rows = [
            [
                cell if isinstance(cell, str) else format_number(cell)
                for cell in row
            ]
            for row in self.rows
        ]
        widths = [
            max(
                len(str(self.columns[i])),
                *(len(row[i]) for row in rendered_rows),
            )
            if rendered_rows
            else len(str(self.columns[i]))
            for i in range(len(self.columns))
        ]
        lines = [self.title]
        header = "  ".join(
            str(col).ljust(widths[i]) for i, col in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered_rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)


@dataclass(slots=True)
class Series:
    """A labelled numeric series (one curve of a paper figure)."""

    label: str
    x: List[Number] = field(default_factory=list)
    y: List[Number] = field(default_factory=list)

    def add(self, x: Number, y: Number) -> None:
        self.x.append(x)
        self.y.append(y)

    def render(self, max_points: int = 12) -> str:
        """Compact textual rendering: label plus sampled points."""
        n = len(self.x)
        if n == 0:
            return f"{self.label}: (empty)"
        step = max(1, n // max_points)
        points = ", ".join(
            f"({format_number(self.x[i])}, {format_number(self.y[i])})"
            for i in range(0, n, step)
        )
        return f"{self.label} [{n} points]: {points}"


@dataclass(slots=True)
class ExperimentResult:
    """The standardized output of one experiment runner.

    ``measurements`` maps named quantities to values; ``expectations``
    maps the same names to the paper's reported value or range
    ``(low, high)``.  :meth:`check` verifies shape agreement and is what
    the benchmark assertions call.
    """

    experiment_id: str
    description: str
    tables: List[Table] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)
    measurements: Dict[str, Number] = field(default_factory=dict)
    expectations: Dict[str, Union[Number, tuple]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def record(
        self,
        name: str,
        value: Number,
        expect: Optional[Union[Number, tuple]] = None,
    ) -> None:
        self.measurements[name] = value
        if expect is not None:
            self.expectations[name] = expect

    def check(self, name: str) -> bool:
        """True if measurement ``name`` falls within its expectation.

        A tuple expectation is an inclusive range; a scalar expectation
        demands agreement within 25% (shape, not absolute, fidelity).
        """
        value = self.measurements[name]
        expected = self.expectations[name]
        if isinstance(expected, tuple):
            low, high = expected
            return low <= value <= high
        if expected == 0:
            return value == 0
        return abs(value - expected) / abs(expected) <= 0.25

    def all_checks(self) -> Dict[str, bool]:
        return {name: self.check(name) for name in self.expectations}

    def render(self) -> str:
        """Full textual report (what the bench harness prints)."""
        lines = [f"=== {self.experiment_id}: {self.description} ==="]
        for table in self.tables:
            lines.append("")
            lines.append(table.render())
        for series in self.series:
            lines.append("")
            lines.append(series.render())
        if self.measurements:
            lines.append("")
            lines.append("Measurements (measured vs paper):")
            for name, value in self.measurements.items():
                expected = self.expectations.get(name)
                if expected is None:
                    lines.append(f"  {name}: {format_number(value)}")
                else:
                    status = "OK" if self.check(name) else "MISMATCH"
                    if isinstance(expected, tuple):
                        expect_text = (
                            f"[{format_number(expected[0])}"
                            f"..{format_number(expected[1])}]"
                        )
                    else:
                        expect_text = format_number(expected)
                    lines.append(
                        f"  {name}: {format_number(value)}"
                        f"  (paper: {expect_text})  {status}"
                    )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
