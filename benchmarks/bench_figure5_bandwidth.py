"""E3: Figure 5 -- effect of bandwidth limitation (DESIGN.md E3).

Paper: with 50 ms jitter, retransmissions fall as the throttle
tightens; success peaks near 800 Mbps and collapses at 1 Mbps, where
connections start breaking.
"""

from benchmarks.conftest import bench_n, bench_workers
from repro.experiments.figure5 import run_figure5


def test_figure5_bandwidth(benchmark, show):
    n = bench_n(20)
    result = benchmark.pedantic(
        lambda: run_figure5(n_per_point=n, workers=bench_workers()),
        rounds=1, iterations=1)
    show(result.table(), result.telemetry)
    points = {p.bandwidth_bps: p for p in result.points}
    # The 1 Mbps point must visibly degrade the experience: broken loads
    # or much slower pages (the paper's "broken connection" regime).
    slowest = points[1e6]
    fastest = points[1_000e6]
    assert (slowest.broken_pct > 0
            or slowest.mean_duration_s > 2 * fastest.mean_duration_s)
    # Success must not *improve* at 1 Mbps over the 800 Mbps point.
    assert points[1e6].nonmux_pct <= points[800e6].nonmux_pct + 10
