"""The adversary's information boundary, enforced structurally.

The paper's adversary is non-intrusive: cleartext headers and sizes
only.  These tests pin the boundary down so refactors cannot quietly
hand the attack code ground truth.  The structural pins are backed by
the interprocedural LEAK taint pass (repro.lint.taint): the mutation
test below injects a synthetic leak into a fixture observer and proves
LEAK001 catches it with the exact multi-hop ``via`` trace, so the
boundary holds even for flows the token scan cannot see.
"""

import inspect
import textwrap

import pytest

from repro.simnet.packet import RecordInfo, TcpWireView, WireView


def test_wireview_fields_are_cleartext_only():
    field_names = set(WireView._fields)
    assert field_names == {"pid", "src", "dst", "size", "tcp", "records",
                           "is_retransmit"}


def test_recordinfo_carries_no_plaintext():
    field_names = set(RecordInfo._fields)
    # Header-derivable facts only: no payload, no object reference.
    assert field_names == {"record_id", "content_type", "record_wire_len",
                           "bytes_in_packet", "is_start", "is_end"}
    assert "payload" not in field_names


def test_tcp_view_has_no_payload_reference():
    field_names = set(TcpWireView._fields)
    assert "slices" not in field_names
    assert "payload" not in field_names


@pytest.mark.parametrize("module_name", [
    "repro.core.observer",
    "repro.core.controller",
    "repro.core.estimator",
    "repro.core.predictor",
    "repro.core.deinterleave",
    "repro.core.wire",
])
def test_adversary_modules_never_import_ground_truth(module_name):
    """Attack-side modules must not read the server's transmission log,
    website objects, or frame plaintext."""
    import importlib
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    forbidden = (
        "tx_log",                      # server ground truth
        "object_ref",                  # frame attribution
        "repro.website",               # site internals
        "frame.headers",               # plaintext header dicts
        "record.payload",              # record plaintext
    )
    for token in forbidden:
        assert token not in source, (module_name, token)


def test_metrics_module_is_evaluation_only():
    """The degree metric is allowed to read ground truth -- and the
    attack pipeline must not call it."""
    import inspect

    import repro.core.adversary as adversary
    source = inspect.getsource(adversary)
    assert "ServeSpanIndex" not in source


def test_quic_wire_view_is_opaque():
    from repro.quic.frames import QuicPacket, StreamFrame
    from repro.simnet.packet import Packet
    packet = Packet(src="a", dst="b", size=100,
                    segment=QuicPacket(frames=(StreamFrame(0, 0, 50),)))
    view = packet.wire_view()
    assert view.tcp is None
    assert view.records == ()
    assert not view.is_retransmit


# -- mutation test: the static boundary actually bites ------------------------

#: A faithful observer shape, with one injected leak: the handler reads
#: ``obj.size`` off the ground-truth WebObject instead of ``view.size``
#: off the sanctioned wire view.
_LEAKY_OBSERVER = textwrap.dedent("""\
    from repro.website.objects import WebObject


    class TrafficMonitor:
        def __init__(self):
            self._census = []

        def on_transit(self, view, obj: WebObject):
            if view.size > 0:
                self._census.append(obj.size)
""")


def test_injected_leak_is_caught_by_leak001_with_exact_trace():
    """Mutation test: hand a fixture observer ground truth and the
    taint pass must fail it -- with the full source->sink via trace,
    not just a line number."""
    from repro.lint import lint_source
    findings = lint_source(_LEAKY_OBSERVER, "repro.core.observer",
                           path="observer.py", select=["LEAK001"])
    (finding,) = findings
    assert finding.code == "LEAK001"
    assert finding.law == "ADV_INFO_BOUNDARY"
    assert (finding.line, finding.col) == (10, 12)
    assert finding.trace == (
        "observer.py:8: parameter 'obj' of TrafficMonitor.on_transit() "
        "is typed WebObject (ground truth)",
        "observer.py:10: ground truth flows into self._census "
        "(adversary state)",
    )


def test_repaired_observer_passes_leak001():
    """The same fixture reading the sanctioned wire view instead is
    clean: the mutation test fails for the right reason."""
    from repro.lint import lint_source
    repaired = _LEAKY_OBSERVER.replace("obj.size", "view.size")
    assert lint_source(repaired, "repro.core.observer",
                       path="observer.py", select=["LEAK001"]) == []


#: A fixture observer handed a ground-truth ``RecordSlice``.  Slices are
#: NamedTuples, so besides attribute reads the secret can leave through
#: the tuple surface; each ``{body}`` below is one such escape.
_TUPLE_OBSERVER = textwrap.dedent("""\
    from typing import NamedTuple

    from repro.tcp.segment import RecordSlice


    class Sample(NamedTuple):
        size: int


    class TrafficMonitor:
        def __init__(self):
            self._census = []

        def on_transit(self, view, piece: RecordSlice):
    {body}""")


@pytest.mark.parametrize("body", [
    "record, offset, length = piece\nself._census.append(length)",
    "self._census.append(piece[0])",
    "for part in piece:\n    self._census.append(part)",
    "self._census.append(Sample(piece.length))",
], ids=["unpack", "index", "iterate", "namedtuple"])
def test_tuple_surface_leaks_are_caught_by_leak001(body):
    """Unpacking, indexing or iterating a NamedTuple secret, or wrapping
    it in a project NamedTuple, each yields exactly one LEAK001."""
    from repro.lint import lint_source
    source = _TUPLE_OBSERVER.format(body=textwrap.indent(body, " " * 8))
    findings = lint_source(source, "repro.core.observer",
                           path="observer.py", select=["LEAK001"])
    assert [f.code for f in findings] == ["LEAK001"]
    assert findings[0].trace[0] == (
        "observer.py:14: parameter 'piece' of TrafficMonitor.on_transit() "
        "is typed RecordSlice (ground truth)")


def test_namedtuple_built_from_wire_facts_passes_leak001():
    """The control: the same NamedTuple built from the wire view is
    clean, so the cases above fail for the secret, not the tuple."""
    from repro.lint import lint_source
    source = _TUPLE_OBSERVER.format(
        body=" " * 8 + "self._census.append(Sample(view.size))\n")
    assert lint_source(source, "repro.core.observer",
                       path="observer.py", select=["LEAK001"]) == []
