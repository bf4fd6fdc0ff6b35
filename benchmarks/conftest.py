"""Benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures and
prints the measured-vs-paper comparison.  Repetition counts default to
values that keep the whole suite around 10-20 minutes; set
``REPRO_BENCH_N`` to scale them (e.g. 100 reproduces the paper's
100-download experiments exactly).

Runner-backed benchmarks additionally honor:

* ``REPRO_BENCH_WORKERS`` -- persistent worker processes for the
  experiment grid (default 0, inline; results are identical at any
  worker count).
* ``REPRO_CACHE_DIR`` -- location of the on-disk run cache (default
  ``~/.cache/repro-runs``); a warm cache makes a re-run near-instant.

See docs/EXPERIMENTS_GUIDE.md for the full workflow.
"""

import os

import pytest


def bench_n(default: int) -> int:
    """Loads per measurement point, overridable via REPRO_BENCH_N."""
    value = os.environ.get("REPRO_BENCH_N")
    return int(value) if value else default


def bench_workers(default: int = 0) -> int:
    """Grid worker processes, overridable via REPRO_BENCH_WORKERS."""
    value = os.environ.get("REPRO_BENCH_WORKERS")
    return int(value) if value else default


@pytest.fixture
def show():
    """Print a result table (and runner telemetry) under the benchmark."""

    def _show(table, telemetry=None) -> None:
        text = table.to_text() if hasattr(table, "to_text") else str(table)
        if telemetry is not None:
            text += "\n" + telemetry.line()
        print("\n" + text + "\n")

    return _show
