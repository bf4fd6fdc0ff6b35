"""Plain-text result tables and shape claims printed by ``repro <artefact>``."""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: One paper shape claim: its text and whether the measured result
#: upholds it.  Claims are stated on the paper's grid; a result missing
#: a grid point they need reports one failing coverage claim instead.
Claim = Tuple[str, bool]


class ResultTable:
    """Aligned text table (each artefact prints a paper-style table)."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        """Append one row; cells are str()-ed, floats get 1 decimal."""
        formatted = []
        for cell in cells:
            if isinstance(cell, float):
                formatted.append(f"{cell:.1f}")
            else:
                formatted.append(str(cell))
        if len(formatted) != len(self.headers):
            raise ValueError("row width does not match headers")
        self.rows.append(formatted)

    def to_text(self) -> str:
        """Render with column alignment."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

        separator = "-+-".join("-" * w for w in widths)
        parts = [self.title, line(self.headers), separator]
        parts.extend(line(row) for row in self.rows)
        return "\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
