"""E7b: defenses against the serialization attack (DESIGN.md E7)."""

from benchmarks.conftest import bench_n, bench_workers
from repro.experiments.defenses_eval import run_defenses


def test_defenses(benchmark, show):
    n = bench_n(15)
    result = benchmark.pedantic(
        lambda: run_defenses(n_per_defense=n, workers=bench_workers()),
        rounds=1, iterations=1)
    show(result.table(), result.telemetry)
    by_name = {o.name: o for o in result.outcomes}
    undefended = by_name["none"].sequence_accuracy_pct
    assert undefended >= 60.0
    # Every defense collapses order recovery toward chance.
    for name in ("padding", "morphing", "random-order", "push", "batching"):
        assert by_name[name].sequence_accuracy_pct < undefended / 2, name
    # Defenses must not break the page itself.
    for outcome in result.outcomes:
        assert outcome.load_success_pct >= 80.0, outcome.name
