"""The determinism & layering linter (repro.lint).

Per-rule positive/negative fixture snippets, suppression handling,
output formats, CLI exit codes -- and the gating self-check: the shipped
tree must lint clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.lint import (
    ALL_CODES,
    RULES,
    UNKNOWN_CODE,
    UNUSED_CODE,
    lint_paths,
    lint_source,
    module_name_for,
    resolve_codes,
)

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
REPO_SRC = os.path.dirname(PACKAGE_ROOT)


def findings_for(source: str, module: str = "repro.simnet.fixture",
                 **kwargs):
    return lint_source(textwrap.dedent(source), module, **kwargs)


def codes(source: str, module: str = "repro.simnet.fixture", **kwargs):
    return [finding.code for finding in findings_for(source, module,
                                                     **kwargs)]


# -- rule catalogue sanity ----------------------------------------------------

def test_all_rule_families_are_registered():
    assert set(ALL_CODES) == {
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        "CACHE001", "CACHE002", "PERF001", "PERF002",
        "DOS002", "LEAK001", "LEAK002",
    }
    for code in ALL_CODES:
        assert RULES[code]


# -- DET001: set iteration ----------------------------------------------------

class TestDet001:
    def test_bad_for_loop_over_set_variable(self):
        # The PR-1 browser bug class: ordering re-requests by iterating
        # a set makes the run depend on hash randomization.
        bad = """
            def rerequest(needed):
                residue = set(needed)
                order = []
                for path in residue:
                    order.append(path)
                return order
        """
        assert codes(bad) == ["DET001"]

    def test_bad_self_attribute_set_comprehended_into_list(self):
        bad = """
            class Browser:
                def __init__(self, plan):
                    self._needed = set(plan)

                def order(self):
                    return [path for path in self._needed]
        """
        assert codes(bad) == ["DET001"]

    def test_bad_list_materializes_set_expression(self):
        bad = """
            def merge(a, b):
                joined = set(a) | set(b)
                return list(joined)
        """
        assert codes(bad) == ["DET001"]

    def test_good_sorted_iteration_and_membership(self):
        good = """
            def rerequest(needed):
                residue = set(needed)
                order = [path for path in sorted(residue)]
                if "x" in residue:
                    order.append("x")
                return order
        """
        assert codes(good) == []

    def test_good_order_insensitive_consumers(self):
        good = """
            def stats(xs):
                seen = set(xs)
                return len(seen), sum(seen), min(seen), max(seen), \\
                    all(x > 0 for x in seen)
        """
        assert codes(good) == []


# -- DET002: wall clock -------------------------------------------------------

class TestDet002:
    def test_bad_wall_clock_in_simulation_layer(self):
        bad = """
            import time

            def delay():
                return time.time()
        """
        assert codes(bad) == ["DET002"]

    def test_bad_from_import_alias(self):
        bad = """
            from time import perf_counter as clock

            def delay():
                return clock()
        """
        assert codes(bad, module="repro.http2.fixture") == ["DET002"]

    def test_good_runner_telemetry_is_allowlisted(self):
        allowed = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert codes(allowed, module="repro.experiments.runner") == []

    def test_good_simulated_clock(self):
        good = """
            def delay(sim):
                return sim.now
        """
        assert codes(good) == []


# -- DET003: global random state ---------------------------------------------

class TestDet003:
    def test_bad_global_random_call(self):
        bad = """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
        """
        assert codes(bad) == ["DET003"]

    def test_bad_function_level_import_random(self):
        # The idiom the linter converges the tree on: module-level
        # import + seeded random.Random (website/generator.py).
        bad = """
            def build(seed):
                import random
                return random.Random(seed)
        """
        assert codes(bad, module="repro.website.fixture") == ["DET003"]

    def test_bad_numpy_global_state(self):
        bad = """
            import numpy as np

            def noise():
                return np.random.rand(4)
        """
        assert codes(bad, module="repro.analysis.fixture") == ["DET003"]

    def test_good_seeded_streams(self):
        good = """
            import random
            import numpy as np

            def build(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng, gen
        """
        assert codes(good, module="repro.website.fixture") == []


# -- DET004: layering ---------------------------------------------------------

class TestDet004:
    def test_bad_substrate_importing_experiments(self):
        bad = "from repro.experiments.session import run_session\n"
        assert codes(bad, module="repro.simnet.fixture") == ["DET004"]

    def test_bad_transport_importing_application_relatively(self):
        bad = "from ..browser import browser\n"
        assert codes(bad, module="repro.tcp.fixture") == ["DET004"]

    def test_bad_protocol_importing_analysis(self):
        bad = "from repro.core.observer import WireView\n"
        assert codes(bad, module="repro.http2.fixture") == ["DET004"]

    def test_good_downward_and_same_layer_imports(self):
        good = """
            from repro.simnet.engine import Simulator
            from repro.tcp.connection import TcpStack
            from repro.http2.frames import DataFrame
        """
        assert codes(good, module="repro.experiments.fixture") == []

    def test_good_unmapped_modules_are_exempt(self):
        assert codes("import os\n", module="not_in_the_map") == []


def test_exemptions_name_existing_modules():
    """Every DET002-allowlisted module and every layer-map prefix names a
    module or package under src/repro, so deleting a package cannot leave
    a stale exemption behind."""
    from repro.lint.layers import PACKAGE_LAYERS
    from repro.lint.rules import DET002_ALLOWED_MODULES

    names = set(DET002_ALLOWED_MODULES)
    names.update(prefix for prefix, _layer in PACKAGE_LAYERS)
    for name in sorted(names):
        path = os.path.join(REPO_SRC, *name.split("."))
        assert (os.path.isfile(path + ".py")
                or os.path.isfile(os.path.join(path, "__init__.py"))), name


# -- DET005: shared mutable state --------------------------------------------

class TestDet005:
    def test_bad_class_level_dict(self):
        bad = """
            class Registry:
                entries = {}
        """
        assert codes(bad) == ["DET005"]

    def test_bad_module_level_accumulator(self):
        assert codes("_cache = {}\n") == ["DET005"]

    def test_bad_mutable_default_argument(self):
        bad = """
            def record(event, log=[]):
                log.append(event)
                return log
        """
        assert codes(bad) == ["DET005"]

    def test_good_init_built_state_and_constant_table(self):
        good = """
            SIZES = {"html": 2048}

            class Registry:
                def __init__(self):
                    self.entries = {}
        """
        assert codes(good) == []

    def test_good_dataclass_default_factory(self):
        good = """
            from dataclasses import dataclass, field
            from typing import Dict

            @dataclass
            class Meta:
                extra: Dict[str, int] = field(default_factory=dict)
        """
        assert codes(good) == []


# -- DET006: simulated-time equality ------------------------------------------

class TestDet006:
    def test_bad_equality_on_now(self):
        bad = """
            def fired(sim, deadline):
                return sim.now == deadline
        """
        assert codes(bad) == ["DET006"]

    def test_bad_inequality_on_timestamp_field(self):
        bad = """
            def same(event, other):
                return event.requested_at != other.requested_at
        """
        assert codes(bad) == ["DET006"]

    def test_good_ordering_comparisons(self):
        good = """
            def due(sim, deadline):
                return sim.now >= deadline and sim.now - deadline < 1e-9
        """
        assert codes(good) == []


# -- suppressions -------------------------------------------------------------

class TestSuppressions:
    def test_inline_suppression_silences_the_finding(self):
        source = """
            def rerequest(needed):
                residue = set(needed)
                out = []
                for path in residue:  # repro-lint: ignore[DET001]
                    out.append(path)
                return out
        """
        assert codes(source) == []

    def test_suppression_is_code_specific(self):
        source = """
            def rerequest(needed):
                residue = set(needed)
                out = []
                for path in residue:  # repro-lint: ignore[DET002]
                    out.append(path)
                return out
        """
        assert sorted(codes(source)) == ["DET001", UNUSED_CODE]

    def test_unused_suppression_is_reported(self):
        assert codes("x = 1  # repro-lint: ignore[DET003]\n") == [UNUSED_CODE]

    def test_unused_suppression_for_deselected_rule_is_silent(self):
        source = "x = 1  # repro-lint: ignore[DET003]\n"
        findings = lint_source(source, "repro.simnet.fixture",
                               ignore=["DET003"])
        assert findings == []

    def test_marker_inside_string_literal_is_not_a_suppression(self):
        source = """
            def doc(needed):
                text = "# repro-lint: ignore[DET001]"
                residue = set(needed)
                return [p for p in residue]
        """
        assert codes(source) == ["DET001"]


# -- select / ignore ----------------------------------------------------------

def test_select_and_ignore_narrow_the_rule_set():
    source = """
        import random

        def f():
            x = random.uniform(0, 1)
            return random.Random(int(x))
    """
    assert codes(source, select=["DET003"]) == ["DET003"]
    assert codes(source, ignore=["DET003"]) == []


def test_unknown_codes_are_rejected():
    with pytest.raises(ValueError):
        resolve_codes(select=["DET999"])
    with pytest.raises(ValueError):
        resolve_codes(ignore=["NOPE"])
    # Retired rules are unknown codes, not silent no-ops.
    for retired in ("RES001", "RES002", "DOS001", "DOS003", "RES",
                    "PROTO001", "PROTO002", "PROTO", "SIM001", "LEAK003",
                    "SIM"):
        with pytest.raises(ValueError):
            resolve_codes(select=[retired])


# -- engine: files, module names, JSON ---------------------------------------

def test_module_name_resolution_walks_packages():
    engine_py = os.path.join(PACKAGE_ROOT, "simnet", "engine.py")
    assert module_name_for(engine_py) == "repro.simnet.engine"
    init_py = os.path.join(PACKAGE_ROOT, "simnet", "__init__.py")
    assert module_name_for(init_py) == "repro.simnet"


def test_lint_paths_reports_over_files(tmp_path):
    bad = tmp_path / "bad_fixture.py"
    bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 1
    assert [f.code for f in report.findings] == ["DET002"]
    payload = report.to_dict()
    assert payload["version"] == 1
    assert payload["summary"] == {"total": 1, "by_code": {"DET002": 1},
                                  "baselined": 0, "stale_baseline": 0,
                                  "stale_entries": []}
    finding = payload["findings"][0]
    # trace/law are omitted when empty so the schema is stable for
    # intraprocedural findings.
    assert set(finding) == {"path", "line", "col", "code", "message"}
    assert finding["line"] == 5


def test_syntax_errors_are_findings_not_crashes(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    report = lint_paths([str(broken)])
    assert [f.code for f in report.findings] == ["E999"]


# -- the gating self-check ----------------------------------------------------

def test_repro_package_lints_clean():
    """`repro lint src/repro` exits 0: the shipped tree honours its own
    determinism contract."""
    report = lint_paths([PACKAGE_ROOT])
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings)
    assert report.files_checked > 90


def test_cli_exit_codes_and_json(tmp_path):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    good = tmp_path / "clean_fixture.py"
    good.write_text("def f(xs):\n    return sorted(set(xs))\n")
    clean = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(good),
         "--format", "json"],
        capture_output=True, text=True, env=env)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    payload = json.loads(clean.stdout)
    assert payload["findings"] == []
    assert payload["files_checked"] == 1

    bad = tmp_path / "bad_fixture.py"
    bad.write_text("registry = {}\n")
    dirty = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(bad)],
        capture_output=True, text=True, env=env)
    assert dirty.returncode == 1
    assert "DET005" in dirty.stdout

    usage = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(bad),
         "--select", "DET999"],
        capture_output=True, text=True, env=env)
    assert usage.returncode == 2


# -- interprocedural DET001: sets escaping through helpers --------------------

class TestInterproceduralDet001:
    def test_bad_set_returned_by_helper_iterated_elsewhere(self):
        # The tentpole case: the set is built in a utility and iterated
        # order-sensitively in a different function; the per-file visitor
        # of PR 2 could not see across the call.
        bad = """
            def residue(needed):
                return set(needed)

            def rerequest(needed):
                order = []
                for path in residue(needed):
                    order.append(path)
                return order
        """
        findings = findings_for(bad)
        assert [f.code for f in findings] == ["DET001"]
        assert findings[0].trace, "interprocedural finding must carry " \
                                  "the escape path"
        assert any("residue" in hop for hop in findings[0].trace)

    def test_bad_escape_through_two_helpers_binds_a_name(self):
        bad = """
            def inner(xs):
                return set(xs)

            def outer(xs):
                return inner(xs)

            def consume(xs):
                leaked = outer(xs)
                return list(leaked)
        """
        findings = findings_for(bad)
        assert [f.code for f in findings] == ["DET001"]
        trace = "\n".join(findings[0].trace)
        assert "outer" in trace and "inner" in trace

    def test_bad_cross_module_escape_path_has_file_hops(self, tmp_path):
        (tmp_path / "util.py").write_text(textwrap.dedent("""
            def residue(needed):
                return set(needed)
        """))
        (tmp_path / "consumer.py").write_text(textwrap.dedent("""
            from util import residue

            def rerequest(needed):
                return [p for p in residue(needed)]
        """))
        report = lint_paths([str(tmp_path)])
        assert [f.code for f in report.findings] == ["DET001"]
        trace = "\n".join(report.findings[0].trace)
        assert "util.py" in trace

    def test_good_sorted_wrap_of_helper_call(self):
        good = """
            def residue(needed):
                return set(needed)

            def rerequest(needed):
                return [p for p in sorted(residue(needed))]
        """
        assert codes(good) == []


# -- CACHE: cell-function purity ----------------------------------------------

_CELL_PREAMBLE = textwrap.dedent("""
    from repro.experiments.runner import RunSpec

    CELL = "repro.experiments.fixture:run_cell"
    SPEC = RunSpec.make(CELL, seed=1)
""")


def cell_source(body: str) -> str:
    """Preamble registering run_cell as a RunSpec cell, plus ``body``."""
    return _CELL_PREAMBLE + textwrap.dedent(body)


class TestCache001:
    def test_bad_env_read_through_helper(self):
        bad = cell_source("""
            import os

            def helper():
                return os.getenv("HOME")

            def run_cell(seed):
                return helper()
        """)
        findings = findings_for(bad, module="repro.experiments.fixture")
        assert [f.code for f in findings] == ["CACHE001"]
        assert findings[0].trace, "cell-reachability witness expected"
        assert any("run_cell" in hop for hop in findings[0].trace)

    def test_bad_open_and_environ_subscript(self):
        bad = cell_source("""
            import os

            def run_cell(seed):
                with open("params.json") as fh:
                    data = fh.read()
                return data, os.environ["HOME"]
        """)
        assert codes(bad, module="repro.experiments.fixture") \
            == ["CACHE001", "CACHE001"]

    def test_good_env_read_outside_cell_reach(self):
        good = cell_source("""
            import os

            def harness_only():
                return os.getenv("HOME")

            def run_cell(seed):
                return seed * 2
        """)
        assert codes(good, module="repro.experiments.fixture") == []

    def test_good_runner_module_is_allowlisted(self):
        good = """
            import os

            CELL = "repro.experiments.runner:run_cell"

            def run_cell(seed):
                return os.getenv("REPRO_CACHE_DIR")
        """
        assert codes(good, module="repro.experiments.runner") == []


class TestCache002:
    def test_bad_global_statement_in_cell(self):
        bad = cell_source("""
            _counter = 0

            def run_cell(seed):
                global _counter
                _counter += 1
                return _counter
        """)
        assert codes(bad, module="repro.experiments.fixture",
                     select=["CACHE002"]) == ["CACHE002"]

    def test_bad_module_dict_mutation_in_cell(self):
        bad = cell_source("""
            _memo = {}

            def run_cell(seed):
                _memo[seed] = seed * 2
                return _memo[seed]
        """)
        findings = findings_for(bad, module="repro.experiments.fixture",
                                select=["CACHE002"])
        assert [f.code for f in findings] == ["CACHE002"]
        assert findings[0].trace

    def test_good_local_state_in_cell(self):
        good = cell_source("""
            def run_cell(seed):
                memo = {}
                memo[seed] = seed * 2
                return memo[seed]
        """)
        assert codes(good, module="repro.experiments.fixture",
                     select=["CACHE002"]) == []


# -- DOS002: peer-driven exhaustion ------------------------------------------

#: An event handler appending its peer-controlled argument with no bound.
_UNBOUNDED_HANDLER = """
    class Server:
        def __init__(self):
            self.sim.schedule(0.0, self.on_packet)

        def on_packet(self, pkt):
            self.backlog.append(pkt)
"""


class TestDos002:
    def test_bad_unbounded_append_in_event_handler(self):
        findings = findings_for(_UNBOUNDED_HANDLER, select=["DOS002"])
        assert [f.code for f in findings] == ["DOS002"]
        assert findings[0].law == "DOS_UNBOUNDED_QUEUE"
        assert findings[0].line == 7
        trace = "\n".join(findings[0].trace)
        assert "event loop enters Server.on_packet()" in trace
        assert "appended to self.backlog with no size guard" in trace

    def test_good_len_guard_bounds_the_queue(self):
        assert not findings_for("""
            class Server:
                def __init__(self):
                    self.sim.schedule(0.0, self.on_packet)

                def on_packet(self, pkt):
                    if len(self.backlog) >= self.max_depth:
                        return
                    self.backlog.append(pkt)
        """, select=["DOS002"])

    def test_good_append_of_non_peer_data(self):
        # The appended value is not derived from the handler's input.
        assert not findings_for("""
            class Server:
                def __init__(self):
                    self.sim.schedule(0.0, self.on_packet)

                def on_packet(self, pkt):
                    self.ticks.append(self.sim.now)
        """, select=["DOS002"])


# -- PERF: event-loop hot paths -----------------------------------------------

class TestPerf:
    def test_bad_pop0_in_event_reachable_method(self):
        findings = findings_for("""
            class Loop:
                def __init__(self, sim):
                    self.queue = []
                    sim.schedule(0.1, self._tick)

                def _tick(self):
                    item = self.queue.pop(0)
                    return item
        """)
        assert [f.code for f in findings] == ["PERF001"]
        assert findings[0].trace, "event-reachability witness expected"

    def test_bad_pop0_in_tap_subscribed_observer(self):
        # x.taps.append(fn) is how an observer subscribes, so the
        # subscribed method runs on every probed event.
        findings = findings_for("""
            class Watch:
                def __init__(self, link):
                    self.recent = []
                    link.taps.append(self.handle)

                def handle(self, event, packet):
                    self.recent.append(packet)
                    self.recent.pop(0)
        """)
        assert [f.code for f in findings] == ["PERF001"]
        assert findings[0].trace, "event-reachability witness expected"

    def test_bad_linear_membership_in_event_reachable_method(self):
        findings = findings_for("""
            class Loop:
                def __init__(self, sim):
                    self.done = []
                    sim.schedule(0.1, self._tick)

                def _tick(self):
                    return "x" in self.done
        """)
        assert [f.code for f in findings] == ["PERF002"]

    def test_good_not_event_reachable(self):
        good = """
            class Offline:
                def __init__(self):
                    self.queue = []

                def drain(self):
                    return self.queue.pop(0)
        """
        assert codes(good) == []

    def test_good_experiments_layer_is_exempt(self):
        good = """
            def tabulate(sim, rows):
                sim.schedule(0.1, lambda: None)
                while rows:
                    rows.pop(0)
        """
        assert codes(good, module="repro.experiments.fixture") == []

    def test_good_deque_popleft_and_set_membership(self):
        good = """
            from collections import deque

            class Loop:
                def __init__(self, sim):
                    self.queue = deque()
                    self.done = set()
                    sim.schedule(0.1, self._tick)

                def _tick(self):
                    item = self.queue.popleft()
                    return item in self.done
        """
        assert codes(good) == []


# -- suppression granularity (SUP001 per code, SUP002 unknown) ----------------

class TestSuppressionGranularity:
    def test_partially_used_multi_code_suppression_warns_per_code(self):
        source = """
            def rerequest(needed):
                residue = set(needed)
                out = []
                for path in residue:  # repro-lint: ignore[DET001,DET005]
                    out.append(path)
                return out
        """
        findings = findings_for(source)
        assert [f.code for f in findings] == [UNUSED_CODE]
        assert "DET005" in findings[0].message

    def test_unknown_code_in_suppression_is_flagged(self):
        source = """
            def rerequest(needed):
                residue = set(needed)
                out = []
                for path in residue:  # repro-lint: ignore[DET001,DET9X]
                    out.append(path)
                return out
        """
        findings = findings_for(source)
        assert [f.code for f in findings] == [UNKNOWN_CODE]
        assert "DET9X" in findings[0].message

    def test_fully_unused_multi_code_suppression_warns_for_each(self):
        findings = findings_for(
            "x = 1  # repro-lint: ignore[DET002,DET003]\n")
        assert [f.code for f in findings] == [UNUSED_CODE, UNUSED_CODE]
        messages = " ".join(f.message for f in findings)
        assert "DET002" in messages and "DET003" in messages


# -- encoding robustness (E902) -----------------------------------------------

class TestEncoding:
    def test_non_utf8_file_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"# caf\xe9\nx = 1\n")
        report = lint_paths([str(bad)])
        assert [f.code for f in report.findings] == ["E902"]
        assert "UTF-8" in report.findings[0].message

    def test_bom_file_is_flagged_and_still_linted(self, tmp_path):
        bom = tmp_path / "bom.py"
        bom.write_bytes(b"\xef\xbb\xbfimport time\n\n\n"
                        b"def f():\n    return time.time()\n")
        report = lint_paths([str(bom)])
        assert sorted(f.code for f in report.findings) \
            == ["DET002", "E902"]

    def test_cli_exits_nonzero_on_bad_encoding(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"# caf\xe9\n")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "E902" in proc.stdout


# -- JSON golden for interprocedural payloads ---------------------------------

def test_json_payload_carries_trace_and_law(tmp_path):
    fixture = tmp_path / "dos_fixture.py"
    fixture.write_text(textwrap.dedent(_UNBOUNDED_HANDLER))
    report = lint_paths([str(fixture)])
    payload = report.to_dict()
    (finding,) = payload["findings"]
    assert finding["code"] == "DOS002"
    assert finding["law"] == "DOS_UNBOUNDED_QUEUE"
    assert isinstance(finding["trace"], list) and finding["trace"]


# -- baseline workflow --------------------------------------------------------

class TestBaseline:
    def test_write_then_filter_then_stale(self, tmp_path):
        fixture = tmp_path / "legacy.py"
        fixture.write_text("registry = {}\n")
        baseline = tmp_path / "baseline.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        wrote = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(fixture),
             "--write-baseline", str(baseline)],
            capture_output=True, text=True, env=env)
        assert wrote.returncode == 0, wrote.stdout + wrote.stderr
        assert baseline.is_file()

        report = lint_paths([str(fixture)],
                            baseline_path=str(baseline))
        assert report.findings == []
        assert report.baselined == 1
        assert report.stale_baseline == 0

        fixture.write_text("registry = None\n")
        report = lint_paths([str(fixture)],
                            baseline_path=str(baseline))
        assert report.findings == []
        assert report.baselined == 0
        assert report.stale_baseline == 1

    def test_baseline_does_not_absorb_new_findings(self, tmp_path):
        fixture = tmp_path / "legacy.py"
        fixture.write_text("registry = {}\n")
        baseline = tmp_path / "baseline.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        subprocess.run(
            [sys.executable, "-m", "repro.lint", str(fixture),
             "--write-baseline", str(baseline)],
            capture_output=True, text=True, env=env)
        fixture.write_text("registry = {}\nother = {}\n")
        report = lint_paths([str(fixture)],
                            baseline_path=str(baseline))
        assert [f.code for f in report.findings] == ["DET005"]
        assert report.baselined == 1

    def test_missing_baseline_is_a_usage_error(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path),
             "--baseline", str(tmp_path / "nope.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2

    def test_stats_names_stale_entries(self, tmp_path):
        fixture = tmp_path / "legacy.py"
        fixture.write_text("registry = {}\n")
        baseline = tmp_path / "baseline.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        subprocess.run(
            [sys.executable, "-m", "repro.lint", str(fixture),
             "--write-baseline", str(baseline)],
            capture_output=True, text=True, env=env)
        fixture.write_text("registry = None\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(fixture),
             "--baseline", str(baseline), "--stats"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "stale: " in proc.stdout
        assert "'registry = {}'" in proc.stdout


# -- zero-argument invocation -------------------------------------------------

def _stand_in_package(tmp_path):
    """A two-file clean tree that stands in for the installed package,
    so the one whole-package run stays test_repro_package_lints_clean."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "clean.py").write_text("def f(xs):\n"
                                   "    return sorted(set(xs))\n")
    return root


def test_zero_arg_lint_defaults_to_package_root(tmp_path, monkeypatch,
                                                capsys):
    """`repro lint` with no paths lints the installed package, from any
    working directory."""
    from repro.lint import cli as lint_cli
    root = _stand_in_package(tmp_path)
    monkeypatch.setattr(lint_cli, "package_root", lambda: str(root))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert lint_cli.main(["--stats"]) == 0
    out = capsys.readouterr().out
    # Two files checked: the stand-in tree, not the real package.
    assert "0 findings (2 files checked)" in out
    assert "per-rule summary" in out


def test_zero_arg_via_repro_cli(tmp_path, monkeypatch, capsys):
    from repro import cli as repro_cli
    from repro.lint import cli as lint_cli
    root = _stand_in_package(tmp_path)
    monkeypatch.setattr(lint_cli, "package_root", lambda: str(root))
    monkeypatch.chdir(tmp_path)
    assert repro_cli.main(["lint"]) == 0
    assert "0 findings (2 files checked)" in capsys.readouterr().out
