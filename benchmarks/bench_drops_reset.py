"""E4: Section IV-D -- the reset-forcing drop burst (DESIGN.md E4).

Paper: 80 % drops until the client resets gives ~90 % of loads with the
object of interest transmitted non-multiplexed afterwards; pushing the
drop rate higher breaks connections instead.
"""

from benchmarks.conftest import bench_n, bench_workers
from repro.experiments.drops import run_drops


def test_drop_burst_forces_serialized_reserve(benchmark, show):
    n = bench_n(25)
    result = benchmark.pedantic(
        lambda: run_drops(n_per_point=n, drop_rates=(0.5, 0.8, 0.95),
                          workers=bench_workers()),
        rounds=1, iterations=1)
    show(result.table(), result.telemetry)
    by_rate = {p.drop_rate: p for p in result.points}
    operating = by_rate[0.8]
    # The paper's operating point: resets happen and the HTML comes back
    # clean in the large majority of loads.
    assert operating.reset_happened_pct >= 60.0
    assert operating.html_serialized_pct >= 70.0
