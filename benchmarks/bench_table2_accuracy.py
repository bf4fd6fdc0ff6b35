"""E5: Table II -- end-to-end prediction accuracy (DESIGN.md E5).

Paper: single-target success 100 % on every object; all-objects success
90 % for the HTML and decaying from 90 % (I1) to the low 60s for the
later images.
"""

from benchmarks.conftest import bench_n, bench_workers
from repro.experiments.table2 import run_table2


def test_table2_prediction_accuracy(benchmark, show):
    n = bench_n(40)
    result = benchmark.pedantic(
        lambda: run_table2(n_loads=n, workers=bench_workers()),
        rounds=1, iterations=1)
    show(result.table(), result.telemetry)
    # Single-target: near-perfect on the images (paper: 100 %).
    assert all(pct >= 80.0 for pct in result.single_pct[1:])
    # All-objects: the image sequence is recovered in the large
    # majority of loads (paper: 62-90 %).
    assert all(pct >= 60.0 for pct in result.all_pct[1:])
    # The HTML is recovered in the majority of loads (paper: 90 %).
    assert result.all_pct[0] >= 50.0
    # Who wins is unambiguous: far above the 12.5 % order-guess chance.
    assert min(result.all_pct[1:]) > 40.0
