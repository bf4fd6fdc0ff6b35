"""The LEAK taint engine (repro.lint.taint).

Per-rule fixtures with exact code/trace assertions: the adversary's
information boundary (LEAK001) and the no-attacker-in-the-loop defense
rule (LEAK002), plus sanitizer exemptions, field-sensitivity through
``dataclass(slots=True)`` records, interprocedural propagation through
helper chains, and family selection by prefix.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_source, resolve_codes


def findings_for(source: str, module: str, select, path="fixture.py"):
    return lint_source(textwrap.dedent(source), module, path=path,
                       select=select)


def codes(source: str, module: str, select, path="fixture.py"):
    return [f.code for f in findings_for(source, module, select, path)]


# -- LEAK001: the adversary's information boundary ----------------------------

class TestLeak001:
    def test_param_typed_source_flagged_with_branch_trace(self):
        (finding,) = findings_for("""\
            from repro.website.objects import WebObject


            class Observer:
                def __init__(self):
                    self._census = []

                def on_transit(self, view, obj: WebObject):
                    if view.size > 0:
                        self._census.append(obj.size)
        """, "repro.core.observer", ["LEAK001"], path="observer.py")
        assert finding.code == "LEAK001"
        assert finding.law == "ADV_INFO_BOUNDARY"
        assert (finding.line, finding.col) == (10, 12)
        assert finding.trace == (
            "observer.py:8: parameter 'obj' of Observer.on_transit() is "
            "typed WebObject (ground truth)",
            "observer.py:10: ground truth flows into self._census "
            "(adversary state)",
        )

    def test_ground_truth_attribute_read_flagged(self):
        (finding,) = findings_for("""\
            class Adversary:
                def read(self, server, clock):
                    self.seen = clock.now
                    self.secret = server.tx_log
        """, "repro.core.adversary", ["LEAK001"])
        assert finding.code == "LEAK001"
        assert finding.line == 4
        assert finding.trace == (
            "fixture.py:4: reads ground truth attribute '.tx_log'",
            "fixture.py:4: ground truth flows into self.secret "
            "(adversary state)",
        )

    def test_interprocedural_helper_chain_stitches_one_trace(self):
        """A secret crossing two helper calls before the store is still
        caught, and the finding's via trace walks the whole chain."""
        (finding,) = findings_for("""\
            from repro.website.objects import WebObject


            class Estimator:
                def _stash(self, value):
                    self._sizes.append(value)

                def _relay(self, value):
                    self._stash(value)

                def learn(self, obj: WebObject):
                    self._relay(obj.size)
        """, "repro.core.estimator", ["LEAK001"])
        assert finding.code == "LEAK001"
        assert finding.line == 12
        assert finding.trace == (
            "fixture.py:11: parameter 'obj' of Estimator.learn() is "
            "typed WebObject (ground truth)",
            "fixture.py:12: Estimator.learn() passes the tainted value "
            "into Estimator._relay()",
            "fixture.py:9: Estimator._relay() passes the tainted value "
            "into Estimator._stash()",
            "fixture.py:6: ground truth flows into self._sizes "
            "(adversary state)",
        )

    def test_returning_the_secret_is_a_sink(self):
        (finding,) = findings_for("""\
            from repro.website.objects import WebObject


            def peek(obj: WebObject):
                return obj.body
        """, "repro.core.predictor", ["LEAK001"])
        assert finding.code == "LEAK001"
        assert "returned from peek()" in finding.message

    def test_imported_producer_call_is_a_source(self):
        (finding,) = findings_for("""\
            from repro.website.sitemap import load_site


            class Predictor:
                def cheat(self, name):
                    self.site = load_site(name)
        """, "repro.core.predictor", ["LEAK001"])
        assert finding.code == "LEAK001"
        assert finding.trace[0] == (
            "fixture.py:6: calls load_site() imported from "
            "repro.website.sitemap")

    def test_aggregate_count_folds_are_sanctioned(self):
        """len()/sum()/count() reduce a secret collection to a size the
        wire exposes anyway -- the sanitizer escape hatch."""
        assert codes("""\
            from repro.website.objects import WebObject


            class Observer:
                def tally(self, obj: WebObject):
                    self._n = len(obj.body)
                    self._total = sum(len(o.body) for o in obj.children)
        """, "repro.core.observer", ["LEAK001"]) == []

    def test_wire_serialization_is_sanctioned(self):
        assert codes("""\
            from repro.simnet.packet import Packet


            class Observer:
                def on_packet(self, pkt: Packet):
                    self.views.append(pkt.wire_view())
        """, "repro.core.observer", ["LEAK001"]) == []

    def test_field_sensitive_through_dataclass_slots(self):
        """A record wrapping a secret is tainted; the sibling record
        built from sanctioned wire facts stays clean."""
        (finding,) = findings_for("""\
            from dataclasses import dataclass

            from repro.website.objects import WebObject


            @dataclass(slots=True)
            class Cell:
                size: int


            class Estimator:
                def learn(self, obj: WebObject, view):
                    cell = Cell(size=obj.size)
                    clean = Cell(size=view.size)
                    self.clean_cells = clean
                    self.cells = cell
        """, "repro.core.estimator", ["LEAK001"])
        assert finding.line == 16
        assert "self.cells" in finding.message
        assert finding.trace == (
            "fixture.py:12: parameter 'obj' of Estimator.learn() is "
            "typed WebObject (ground truth)",
            "fixture.py:13: wraps the tainted value in Cell",
            "fixture.py:13: tainted value flows into cell",
            "fixture.py:16: ground truth flows into self.cells "
            "(adversary state)",
        )

    def test_sanctioned_wire_surface_is_clean(self):
        """The real pipeline shape: WireView/RecordInfo fields all the
        way down."""
        assert codes("""\
            class Observer:
                def on_transit(self, view):
                    self.sizes.append(view.size)
                    for record in view.records:
                        self.starts.append(record.is_start)
        """, "repro.core.observer", ["LEAK001"]) == []

    def test_only_adversary_modules_are_sinks(self):
        """The same store in evaluation code is not a finding: ground
        truth is exactly what the scorer compares against."""
        assert codes("""\
            from repro.website.objects import WebObject


            class Scorer:
                def truth(self, obj: WebObject):
                    self.expected = obj.size
        """, "repro.analysis.metrics", ["LEAK001"]) == []


# -- LEAK002: no attacker-in-the-loop defenses --------------------------------

class TestLeak002:
    def test_defense_importing_the_pipeline_is_flagged(self):
        found = findings_for("""\
            from repro.core.estimator import SizeEstimator


            class Padder:
                def tune(self, est: SizeEstimator):
                    self.target = est.estimates
        """, "repro.defenses.padding", ["LEAK002"])
        assert [f.code for f in found] == ["LEAK002", "LEAK002"]
        import_finding, flow_finding = found
        assert import_finding.line == 1
        assert "imports SizeEstimator from repro.core.estimator" \
            in import_finding.message
        assert flow_finding.line == 6
        assert flow_finding.law == "DEFENSE_NO_FEEDBACK"
        assert flow_finding.trace == (
            "fixture.py:6: reads adversary output attribute "
            "'.estimates'",
            "fixture.py:6: adversary output flows into self.target "
            "(defense state)",
        )

    def test_oblivious_defense_is_clean(self):
        assert codes("""\
            from repro.http2.settings import Http2Settings


            class Shaper:
                def apply(self, settings: Http2Settings):
                    self.frame_cap = settings.max_frame_size
        """, "repro.defenses.shaping", ["LEAK002"]) == []


# -- family selection ---------------------------------------------------------

class TestSelection:
    def test_family_prefix_selects_every_leak_code(self):
        assert resolve_codes(select=["LEAK"]) \
            == frozenset({"LEAK001", "LEAK002"})

    def test_family_prefix_ignore_drops_the_family(self):
        enabled = resolve_codes(ignore=["LEAK"])
        assert not any(code.startswith("LEAK") for code in enabled)
        assert "DET001" in enabled

    def test_exact_codes_still_work_and_unknown_still_raise(self):
        assert resolve_codes(select=["LEAK002"]) == frozenset({"LEAK002"})
        with pytest.raises(ValueError):
            resolve_codes(select=["LEAK999"])
