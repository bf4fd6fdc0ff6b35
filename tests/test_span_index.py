"""The serve-span index answers exactly what the per-call metric did.

``ServeSpanIndex`` groups a transmission log once and answers every
degree and serialization question from that grouping.  The oracle below
is the per-call implementation it replaced, kept verbatim: it regroups
the whole log and rescans every other span for each question.  Every
answer must be equal with ``==``, since Table II, Fig. 5 and the
baseline compare degrees against exactly 0.0.
"""

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import metrics
from repro.core.metrics import ServeSpan, ServeSpanIndex, serve_spans
from repro.core.phases import AttackConfig, jitter_plus_throttle_config
from repro.experiments.evaluation import evaluate_table2
from repro.experiments.session import SessionConfig, run_session
from repro.http2.server import TxEntry
from tests.test_core_units import METRIC_LOGS


# -- the oracle: the per-call metric as it stood before the index -------------

def _merge_intervals(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _gap_contains_foreign(gap_lo: int, gap_hi: int,
                          intervals: List[Tuple[int, int]]) -> bool:
    for start, end in intervals:
        if end <= gap_lo:
            continue
        if start >= gap_hi:
            break
        return True
    return False


def _select_span(spans: Dict[Tuple[str, int], ServeSpan], object_path: str,
                 serve_id: Optional[int]) -> ServeSpan:
    if serve_id is not None:
        return spans[(object_path, serve_id)]
    candidates = [span for (path, _), span in spans.items()
                  if path == object_path and not span.duplicate]
    if not candidates:
        raise KeyError(f"object {object_path!r} not in transmission log")
    return min(candidates, key=lambda span: span.start_offset)


def oracle_degree(tx_log, object_path: str,
                  serve_id: Optional[int] = None) -> float:
    spans = serve_spans(tx_log)
    target = _select_span(spans, object_path, serve_id)
    others = [span for key, span in spans.items()
              if key != (target.object_path, target.serve_id)]
    foreign = _merge_intervals(
        (piece_offset, piece_offset + piece_len)
        for span in others for piece_offset, piece_len in span.pieces
        if piece_offset + piece_len > target.start_offset
        and piece_offset < target.end_offset
    )
    if not foreign or target.total_bytes == 0:
        return 0.0
    pieces = sorted(target.pieces)
    largest = 0
    current = 0
    prev_end: Optional[int] = None
    for offset, length in pieces:
        if prev_end is not None and (
                offset > prev_end
                and _gap_contains_foreign(prev_end, offset, foreign)):
            largest = max(largest, current)
            current = 0
        current += length
        prev_end = offset + length
    largest = max(largest, current)
    return 1.0 - largest / target.total_bytes


def oracle_serialized(tx_log, object_path: str,
                      require_completed: bool = True) -> bool:
    spans = serve_spans(tx_log)
    for (path, serve_id), span in spans.items():
        if path != object_path or span.duplicate:
            continue
        if require_completed and not span.completed:
            continue
        if oracle_degree(tx_log, path, serve_id) == 0.0:
            return True
    return False


def assert_index_matches_oracle(tx_log) -> int:
    """Compare every answer the index gives on ``tx_log``; returns the
    number of serve instances checked."""
    index = ServeSpanIndex(tx_log)
    for (path, serve_id), span in index.spans.items():
        assert index._span_degree(span) == oracle_degree(
            tx_log, path, serve_id), (path, serve_id)
    for path in sorted({path for path, _ in index.spans} | {"/never-served"}):
        try:
            expected = oracle_degree(tx_log, path)
        except KeyError:
            with pytest.raises(KeyError):
                index.degree(path)
        else:
            assert index.degree(path) == expected, path
        assert index.serialized(path) == oracle_serialized(tx_log, path), path
    return len(index.spans)


# -- recorded sessions --------------------------------------------------------

@pytest.fixture(scope="module")
def attacked():
    """Default attacked loads, seeds 0-3."""
    return [run_session(SessionConfig(seed=seed, attack=AttackConfig()))
            for seed in range(4)]


@pytest.fixture(scope="module")
def recorded_logs(attacked):
    logs = {f"attacked_seed{r.config.seed}": r.tx_log for r in attacked}
    logs["clean_seed0"] = run_session(SessionConfig(seed=0)).tx_log
    # The Fig. 5 1 Mbps cell: broken load, heavy loss, many re-serves.
    logs["figure5_1mbps"] = run_session(SessionConfig(
        seed=0, attack=jitter_plus_throttle_config(0.05, 1e6))).tx_log
    return logs


def test_index_matches_oracle_on_recorded_sessions(recorded_logs):
    for name, tx_log in recorded_logs.items():
        assert assert_index_matches_oracle(tx_log) > 1, name


@pytest.mark.parametrize("name", sorted(METRIC_LOGS))
def test_index_matches_oracle_on_hand_built_logs(name):
    assert assert_index_matches_oracle(METRIC_LOGS[name]) >= 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["/a", "/b", "/c"]),
                          st.integers(min_value=1, max_value=3),
                          st.integers(min_value=0, max_value=3000),
                          st.integers(min_value=0, max_value=600),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=30))
def test_index_matches_oracle_on_arbitrary_logs(entries):
    # Offsets are unconstrained: pieces may overlap, repeat, arrive out
    # of order or be empty, which a real server log never produces.
    log = [TxEntry(time=0.0, stream_id=serve_id, object_path=path,
                   serve_id=serve_id, tcp_offset=offset, length=length,
                   is_data=True, end_stream=end, duplicate=dup)
           for path, serve_id, offset, length, end, dup in entries]
    assert_index_matches_oracle(log)


# -- SessionResult reads one index --------------------------------------------

def test_evaluate_table2_groups_the_log_once_per_session(attacked,
                                                         monkeypatch):
    calls = []

    def counting(tx_log):
        calls.append(tx_log)
        return serve_spans(tx_log)

    monkeypatch.setattr(metrics, "serve_spans", counting)
    for result in attacked:
        # A fresh copy: the fixture's results may have built their index.
        fresh = dataclasses.replace(result)
        calls.clear()
        evaluate_table2(fresh)
        evaluate_table2(fresh)
        assert len(calls) == 1
        assert calls[0] is result.tx_log


def test_unserved_path_is_not_serialized_and_has_no_degree(attacked):
    result = attacked[0]
    assert result.serialized("/never-served") is False
    with pytest.raises(KeyError):
        result.degree("/never-served")
