"""ASCII timelines of object transmissions.

Renders a server transmission log as one row per object and one column
per time bucket -- the quickest way to *see* multiplexing (rows
overlap) versus the attack's serialization (a staircase).  Used by the
examples; handy when debugging calibrations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.metrics import ServeSpanIndex, serve_spans

#: Rows shown (earliest first) and characters per object label.
MAX_ROWS = 30
LABEL_WIDTH = 30
#: Columns of the time axis.
TIMELINE_COLUMNS = 88


def wire_timeline(tx_log: Sequence, since: float = 0.0,
                  until: Optional[float] = None) -> str:
    """Render the transmission log as an ASCII Gantt chart.

    Each row is one serve instance (duplicates marked ``*``); ``#``
    cells carry that object's bytes.  Rows are ordered by first
    transmission.
    """
    spans = [span for span in serve_spans(tx_log).values()
             if span.end_time >= since
             and (until is None or span.start_time <= until)]
    if not spans:
        return "(no transmissions in window)"
    spans.sort(key=lambda span: span.start_time)
    spans = spans[:MAX_ROWS]

    t0 = min(span.start_time for span in spans)
    t1 = max(span.end_time for span in spans)
    t1 = max(t1, t0 + 1e-6)
    width = TIMELINE_COLUMNS
    scale = (width - 1) / (t1 - t0)

    lines = [f"time {t0:.2f}s .. {t1:.2f}s "
             f"({(t1 - t0):.2f}s across {width} columns)"]
    for span in spans:
        start = int((span.start_time - t0) * scale)
        end = int((span.end_time - t0) * scale)
        row = [" "] * width
        for i in range(start, min(end + 1, width)):
            row[i] = "#"
        name = span.object_path.rsplit("/", 1)[-1][:LABEL_WIDTH - 2]
        marker = "*" if span.duplicate else " "
        lines.append(f"{name:>{LABEL_WIDTH}}{marker}|{''.join(row)}|")
    return "\n".join(lines)


def degree_summary(tx_log: Sequence, paths: Sequence[str]) -> str:
    """One line per path: its first-serve degree of multiplexing."""
    index = ServeSpanIndex(tx_log)
    lines = []
    for path in paths:
        try:
            degree = index.degree(path)
        except KeyError:
            lines.append(f"  {path}: (not served)")
            continue
        bar = "#" * int(degree * 20)
        lines.append(f"  {path}: degree {degree * 100:5.1f}% |{bar:<20}|")
    return "\n".join(lines)
