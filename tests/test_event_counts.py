"""Exact event counts on the hot paths, pinned.

Each pin runs one committed input through the full stack and checks the
simulator's ``processed_events`` plus a short sha256 digest of what the
run returned.  Both are pure functions of the source tree: a change to
either is a semantic change to a hot path (the event heap, capture, TCP
reassembly, HPACK, the HTTP/2 server, the adversary, the monitors), so
it has to be re-pinned deliberately and explained in the change that
makes it (to re-pin, call ``PINS[name][0]()`` and record the count and
``digest`` of the view it returns).  Wall time is measured elsewhere
(``perfbench/``); these pins only guard that the work done stays the
work intended.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacks import ATTACK_KINDS
from repro.core.phases import AttackConfig
from repro.experiments import chaos, defenses_eval, dos_eval, figure5, table2
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import Http2Server
from repro.invariants.chaos import generate_spec
from repro.simnet.export import packet_to_dict

REPO_ROOT = Path(__file__).resolve().parents[1]


def digest(value) -> str:
    """Short, order-stable fingerprint of a JSON-able value."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _capture(trace) -> list:
    """Every captured packet's wire fields.  Packet and record ids come
    from process-wide counters, so they are renumbered in order of first
    appearance: the view must not depend on what ran earlier."""
    ids: dict = {}
    packets = []
    for captured in trace.packets(include_dropped=True):
        packet = packet_to_dict(captured)
        packet["pid"] = ids.setdefault(("pid", packet["pid"]), len(ids))
        for record in packet["records"]:
            record[0] = ids.setdefault(("record", record[0]), len(ids))
        packets.append(packet)
    return packets


def _session(seed: int):
    """One default attacked load: its event count and a JSON view of its
    capture and the adversary's report."""
    result = run_session(SessionConfig(seed=seed, attack=AttackConfig()))
    view = {
        "capture": _capture(result.trace),
        "predicted": list(result.report.predicted_labels),
        "duration_s": result.duration_s,
        "retransmissions": result.retransmissions,
    }
    return result.processed_events, view


def _cell(metrics: dict):
    return metrics["processed_events"], metrics


def _dos_hardened():
    """The hardened server profile at reference intensity: one cell per
    attack kind plus the slow-client control.  Their summed event count
    and every cell's metrics."""
    cells = [dos_eval.run_cell(0, kind, "hardened", 1.0,
                               dos_eval.attack_spec(kind, 1.0).to_jsonable())
             for kind in ATTACK_KINDS]
    cells.append(dos_eval.run_cell(0, dos_eval.CONTROL_KIND, "hardened", 1.0,
                                   None))
    return sum(cell["processed_events"] for cell in cells), cells


#: name -> (run, processed_events, digest of the returned JSON view).
PINS = {
    "session_seed0": (lambda: _session(0), 15_037, "5718320ad79d9346"),
    "session_seed1": (lambda: _session(1), 19_319, "b1846665b7a3eca8"),
    "table2_cell7": (lambda: _cell(table2.run_cell(7)),
                     20_171, "e01535ab9f3c34b8"),
    # Paper jitter at 1 Mbps: the broken, heavy-loss regime (145
    # retransmissions) where re-request ordering once depended on set
    # iteration order.
    "figure5_1mbps": (lambda: _cell(figure5.run_cell(0, 0.05, 1e6)),
                      20_563, "ca4ae66ead536b7f"),
    "chaos_monitored": (
        lambda: _cell(chaos.run_cell(0, generate_spec(0, 5).to_jsonable())),
        4_119, "438b0de99522213d"),
    # Every deadline, budget and the reaper of the hardened server.
    "dos_hardened": (_dos_hardened, 177_194, "278ecda1fb376b30"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_event_count_and_digest_pinned(name):
    run, events, expected = PINS[name]
    count, view = run()
    assert (count, digest(view)) == (events, expected)


def _wire(run):
    """Every server's ``combined_tx_log`` over one cell, as JSON rows."""
    servers = []
    init = Http2Server.__init__

    def recording(server, *args, **kwargs):
        init(server, *args, **kwargs)
        servers.append(server)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Http2Server, "__init__", recording)
        run()
    return [[list(entry) for entry in server.combined_tx_log()]
            for server in servers]


#: name -> (cell, entries the servers logged, digest of the logs).  The
#: frames the server sends, with their timing and ground truth, over a
#: cell each for resets at 1 Mbps, padded totals, server push, and the
#: attack's resets and dynamic HTML.
WIRE_PINS = {
    "figure5_1mbps": (lambda: figure5.run_cell(0, 0.05, 1e6),
                      1331, "498668e10687b326"),
    "defenses_padding": (lambda: defenses_eval.run_cell(0, "padding"),
                         1534, "0390afc62df736d4"),
    "defenses_push": (lambda: defenses_eval.run_cell(0, "push"),
                      1492, "537b5cf46ee58c0f"),
    "table2_cell0": (lambda: table2.run_cell(0), 1108, "96ae5db1ce784b5b"),
}


@pytest.mark.parametrize("name", sorted(WIRE_PINS))
def test_server_wire_pinned(name):
    run, entries, expected = WIRE_PINS[name]
    logs = _wire(run)
    assert (sum(map(len, logs)), digest(logs)) == (entries, expected)


_FIGURE5_CHILD = (
    "import json\n"
    "from repro.experiments.figure5 import run_cell\n"
    "print(json.dumps(run_cell(0, 0.05, 1e6), sort_keys=True))\n"
)


def test_figure5_pin_is_stable_across_hash_seeds():
    """Two interpreters with different string-hash seeds reproduce the
    1 Mbps figure5 pin exactly."""
    _, events, expected = PINS["figure5_1mbps"]
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", _FIGURE5_CHILD],
                             env=env, capture_output=True, text=True,
                             check=True)
        metrics = json.loads(out.stdout)
        assert (metrics["processed_events"], digest(metrics)) \
            == (events, expected), hash_seed
