"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
from artefacts import (
    OUT_DIR,
    ROOT,
    WORKLOADS,
    Workload,
    ensure_importable,
    run_iteration,
)
from run import END_TO_END, PER_LAYER
from spans import LAYER_ID, Tracer, layer_of_class, layer_of_module

ensure_importable()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _self_ms(tracer: Tracer, layer: str) -> float:
    return tracer.self_s[LAYER_ID[layer]] * 1000.0


def test_self_time_subtracts_children_and_merges_same_layer_nesting():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():                      # http2, 1 ms per call
        clock.advance(0.001)

    http2 = tracer.wrap(leaf, "http2")

    def inner():                     # tcp inside tcp: one span, not two
        clock.advance(0.002)
        http2()
        clock.advance(0.001)

    tcp_inner = tracer.wrap(inner, "tcp")

    def outer():
        clock.advance(0.003)
        tcp_inner()
        clock.advance(0.004)

    tcp_outer = tracer.wrap(outer, "tcp")

    def event():
        clock.advance(0.005)
        tcp_outer()
        http2()

    tracer.wrap(event, "simnet")()

    assert _self_ms(tracer, "simnet") == pytest.approx(5.0)
    assert _self_ms(tracer, "tcp") == pytest.approx(10.0)
    assert _self_ms(tracer, "http2") == pytest.approx(2.0)
    assert tracer.calls[LAYER_ID["simnet"]] == 1
    assert tracer.calls[LAYER_ID["tcp"]] == 1
    assert tracer.calls[LAYER_ID["http2"]] == 2
    # Self times partition the root span: nothing double-counted.
    assert sum(tracer.self_s) == pytest.approx(clock.now)
    assert tracer.stack == [[-1, pytest.approx(clock.now)]]


def test_span_cost_is_taken_off_the_layer_that_paid_it():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.span_cost = (0.0001, 0.0002, 0.00005)    # inner, outer, passing
    http2 = tracer.wrap(lambda: clock.advance(0.001), "http2")
    tcp_inner = tracer.wrap(lambda: clock.advance(0.002), "tcp")

    def outer():
        clock.advance(0.003)
        tcp_inner()                  # passes through: costs tcp `passing`
        http2()                      # a span: costs tcp `outer`
        clock.advance(0.001)

    tracer.wrap(outer, "tcp")()
    # 7 ms in tcp's span, less http2's 1 ms, its outer cost, one
    # pass-through and tcp's own inner cost.
    assert _self_ms(tracer, "tcp") == pytest.approx(7 - 1 - 0.2 - 0.05 - 0.1)
    assert _self_ms(tracer, "http2") == pytest.approx(1 - 0.1)

    measured = Tracer()
    measured.calibrate(calls=2000, repeats=3)
    assert all(cost >= 0.0 for cost in measured.span_cost)
    assert measured.span_cost[1] > 0.0


def test_reference_slice_is_fixed_work_and_restores_the_collector():
    assert hostspeed.reference_work() == hostspeed.reference_work()
    gc.disable()
    try:
        assert hostspeed.slice_s() > 0.0
        assert not gc.isenabled()
    finally:
        gc.enable()
    hostspeed.slice_s()
    assert gc.isenabled()


def test_child_cpu_counts_the_child_and_launch_reference_runs():
    spin = "import time\nend = time.process_time() + 0.05\n" \
           "while time.process_time() < end: pass\n"
    cpu, proc = hostspeed.child_cpu_s([sys.executable, "-c", spin])
    assert proc.returncode == 0 and cpu >= 0.05
    assert hostspeed.launch_s() > 0.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(0.002)
        raise ValueError("boom")

    wrapped = tracer.wrap(boom, "core")
    with pytest.raises(ValueError):
        tracer.wrap(lambda: (clock.advance(0.001), wrapped()), "browser")()
    assert _self_ms(tracer, "core") == pytest.approx(2.0)
    assert _self_ms(tracer, "browser") == pytest.approx(1.0)
    assert len(tracer.stack) == 1


def test_layer_mapping():
    from repro.defenses.batching import BatchingBrowser
    from repro.experiments.chaos import ChaosSite

    assert layer_of_module("repro.experiments.runner") == "runner"
    assert layer_of_module("repro.experiments.workers") == "runner"
    assert layer_of_module("repro.experiments.session") == "experiments"
    assert layer_of_module("repro.http2.hpack") == "http2"
    assert layer_of_module("repro.faults.injector") is None
    assert layer_of_module("json") is None
    assert layer_of_class(ChaosSite) == "website"
    assert layer_of_class(BatchingBrowser) == "browser"


def _small(name: str, run) -> Workload:
    return dataclasses.replace(WORKLOADS[name], run=run)


def _table2(seed, cache, _scratch):
    from repro.experiments.table2 import run_table2
    return run_table2(n_loads=1, base_seed=seed, cache=cache, workers=0)


def _figure5(seed, cache, _scratch):
    from repro.experiments.figure5 import run_figure5
    return run_figure5(n_per_point=1, base_seed=seed, bandwidths=(1e9, 1e6),
                       cache=cache, workers=1)


def _chaos(seed, cache, scratch):
    from repro.experiments.chaos import run_chaos
    return run_chaos(seeds=3, master_seed=seed, shrink=False,
                     out_dir=str(scratch), cache=cache)


@pytest.mark.parametrize("name,run", [("table2_attack", _table2),
                                      ("figure5_bandwidth", _figure5),
                                      ("chaos_monitored", _chaos)])
def test_traced_run_is_byte_identical_to_untraced(name, run):
    workload = _small(name, run)
    OUT_DIR.mkdir(exist_ok=True)
    plain = run_iteration(workload, 1, OUT_DIR)
    tracer = Tracer().install()
    try:
        traced = run_iteration(workload, 1, OUT_DIR)
    finally:
        tracer.uninstall()
    assert plain.error is None and plain.failed == 0
    assert len(plain.cell_ref_s) == len(plain.cell_cpu_s) == plain.cells
    assert json.dumps(traced.output) == json.dumps(plain.output)
    assert len(traced.summaries) == traced.cells == plain.cells
    assert not plain.summaries
    assert all(s["layers"]["simnet"][1] > 0 for s in traced.summaries)
    # Every patch came off again.
    from repro.experiments import runner
    from repro.simnet.engine import Simulator
    assert not hasattr(Simulator.run, "__perfbench_span__")
    assert runner.execute_spec.__module__ == "repro.experiments.runner"
    assert not hasattr(runner.execute_spec, "__wrapped__")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2_attack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
