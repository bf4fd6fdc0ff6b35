"""E2: Table I -- effect of jitter on multiplexing (DESIGN.md E2).

Paper: non-multiplexed loads rise 32 -> 46 -> 54 and plateau; the
retransmission count inflates with jitter.  The spacing-ramp style
reproduces the non-mux column; netem-style jitter reproduces the
retransmission inflation (see DESIGN.md on the two implementations).
"""

from benchmarks.conftest import bench_n, bench_workers
from repro.experiments.table1 import run_table1


def test_table1_spacing_style(benchmark, show):
    n = bench_n(30)
    result = benchmark.pedantic(
        lambda: run_table1(n_per_point=n, style="spacing",
                           workers=bench_workers()),
        rounds=1, iterations=1)
    show(result.table(), result.telemetry)
    nonmux = [p.nonmux_pct for p in result.points]
    # Rising from the baseline, then flattening (the paper's plateau).
    assert nonmux[1] > nonmux[0]
    assert nonmux[2] > nonmux[0] + 10
    assert abs(nonmux[3] - nonmux[2]) < 25


def test_table1_netem_style(benchmark, show):
    n = bench_n(20)
    result = benchmark.pedantic(
        lambda: run_table1(n_per_point=n, style="netem",
                           workers=bench_workers()),
        rounds=1, iterations=1)
    show(result.table(), result.telemetry)
    retx = [p.mean_retransmissions for p in result.points]
    # Jitter inflates retransmissions well above baseline at every level.
    assert all(r > retx[0] + 3 for r in retx[1:])
