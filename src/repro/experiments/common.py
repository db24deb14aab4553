"""Shared infrastructure for the experiment harness.

Every experiment module exposes ``run(quick=False) -> ExperimentResult``
and ``main()`` which prints the paper-style table.  ``quick=True``
trims the model list / item counts so the test suite can regenerate
every table in reasonable time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["ExperimentResult", "format_table", "ALL_MODELS", "LLAMA_MODELS"]

ALL_MODELS = [
    "opt-1.3b",
    "phi-2b",
    "yi-6b",
    "llama-2-7b",
    "llama-2-13b",
    "llama-3-8b",
]

LLAMA_MODELS = ["llama-2-7b", "llama-2-13b", "llama-3-8b"]


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[list] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def to_dict(self) -> Dict:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (journal replay)."""
        return cls(
            experiment=d["experiment"],
            title=d["title"],
            columns=list(d["columns"]),
            rows=[list(r) for r in d["rows"]],
            notes=d.get("notes", ""),
        )

    def cell(self, row_label, column: str):
        """Look up a value by first-column label and column name.

        Misses raise a :class:`KeyError` listing what *is* there, so a
        typo'd lookup is diagnosable from the message alone.
        """
        if column not in self.columns:
            raise KeyError(
                f"unknown column {column!r} in experiment "
                f"{self.experiment!r}; known columns: {', '.join(map(repr, self.columns))}"
            )
        cidx = self.columns.index(column)
        for row in self.rows:
            if row[0] == row_label:
                return row[cidx]
        labels = ", ".join(repr(row[0]) for row in self.rows)
        raise KeyError(
            f"no row labelled {row_label!r} in experiment "
            f"{self.experiment!r}; known row labels: {labels}"
        )

    def __str__(self) -> str:
        return format_table(self.title, self.columns, self.rows, self.notes)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v != v:  # NaN
            return "-"
        if abs(v) >= 1000:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)


def format_table(
    title: str, columns: Sequence[str], rows: Sequence[Sequence], notes: str = ""
) -> str:
    """Render an ASCII table in the paper's row/column layout."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in str_rows)) if str_rows else len(col)
        for i, col in enumerate(columns)
    ]
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines = [title, "=" * len(title), header, sep]
    for row in str_rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    if notes:
        lines += ["", notes]
    return "\n".join(lines)
