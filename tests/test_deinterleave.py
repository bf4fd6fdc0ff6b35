"""Partial-multiplexing analyzer tests (Section VII extension)."""

import gc

import pytest

from repro.core import deinterleave
from repro.core.deinterleave import (
    PartialMultiplexAnalyzer,
    tail_payload,
)
from repro.simnet.trace import CompletedRecord

CHUNK = 1370
FRAMING = 30


def test_tail_payload():
    assert tail_payload(1370, CHUNK) == 1370
    assert tail_payload(1371, CHUNK) == 1
    assert tail_payload(9500, CHUNK) == 9500 - 6 * 1370
    assert tail_payload(500, CHUNK) == 500
    with pytest.raises(ValueError):
        tail_payload(0, CHUNK)


def make_records(objects, interleave=False, start=0.0):
    """Record streams for a list of object sizes.

    ``interleave`` round-robins the objects' records, the worst case for
    the plain estimator.
    """
    per_object = []
    for size in objects:
        records = []
        remaining = size
        while remaining > 0:
            chunk = min(CHUNK, remaining)
            remaining -= chunk
            records.append(chunk)
        per_object.append(records)

    sequence = []
    if interleave:
        cursor = [0] * len(per_object)
        while any(c < len(r) for c, r in zip(cursor, per_object)):
            for i, records in enumerate(per_object):
                if cursor[i] < len(records):
                    sequence.append(records[cursor[i]])
                    cursor[i] += 1
    else:
        for records in per_object:
            sequence.extend(records)

    out = []
    clock = start
    for i, payload in enumerate(sequence):
        out.append(CompletedRecord(
            record_id=i + 1, content_type=23, wire_len=payload + FRAMING,
            start_time=clock, end_time=clock, direction="s2c",
            final_packet_size=payload + FRAMING + 54))
        clock += 0.001
    return out


CENSUS = [9_500, 5_742, 7_158, 8_571, 10_420, 11_390, 12_805, 14_218,
          15_632, 2_050, 30_400, 46_600]


def test_identifies_serialized_run():
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    records = make_records([9_500, 5_742])
    matches = analyzer.analyze(records)
    assert [m.size for m in matches] == [9_500, 5_742]
    assert all(m.confident for m in matches)


def test_identifies_fully_interleaved_run():
    """The headline: identities recovered where Fig. 1's estimator fails."""
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    records = make_records([9_500, 14_218, 5_742], interleave=True)
    matches = analyzer.analyze(records)
    assert sorted(m.size for m in matches) == [5_742, 9_500, 14_218]
    assert all(m.confident for m in matches)


def test_analysis_leaves_no_cyclic_garbage():
    # Cells run with the collector off, so garbage only reference
    # counting cannot free stays until the cell ends.
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    records = make_records([9_500, 14_218, 5_742], interleave=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(analyzer.analyze(records)) == 3
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_duplicate_objects_both_found():
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    records = make_records([5_742, 5_742], interleave=True)
    matches = analyzer.analyze(records)
    assert [m.size for m in matches] == [5_742, 5_742]


def test_conservation_disambiguates_residue_collision():
    # Two census sizes share a tail residue; only the sum identifies
    # which one is present alongside the 9_500 object.
    colliding = [9_500, 5_742, 5_742 + CHUNK]
    analyzer = PartialMultiplexAnalyzer(colliding)
    records = make_records([9_500, 5_742 + CHUNK], interleave=True)
    matches = analyzer.analyze(records)
    assert sorted(m.size for m in matches) == [5_742 + CHUNK, 9_500]
    assert all(m.confident for m in matches)


def test_truncated_object_degrades_to_residue_only():
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    records = make_records([9_500, 5_742])
    # Drop one full record: conservation now fails.
    records = [r for i, r in enumerate(records) if i != 0]
    matches = analyzer.analyze(records)
    assert matches  # residue-only fallback still names unique tails
    assert all(not m.confident for m in matches)


def test_unknown_tail_degrades_gracefully():
    analyzer = PartialMultiplexAnalyzer([9_500])
    records = make_records([9_500, 4_444])  # 4_444 not in census
    matches = analyzer.analyze(records)
    assert [m.size for m in matches] == [9_500]
    assert not matches[0].confident


def test_runs_split_on_time_gaps(monkeypatch):
    monkeypatch.setattr(deinterleave, "RUN_GAP_S", 0.25)
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    first = make_records([9_500], start=0.0)
    second = make_records([5_742], start=10.0)
    matches = analyzer.analyze(first + second)
    assert [m.size for m in matches] == [9_500, 5_742]
    assert all(m.confident for m in matches)


def test_control_records_ignored():
    analyzer = PartialMultiplexAnalyzer(CENSUS)
    records = make_records([9_500])
    records.insert(1, CompletedRecord(
        record_id=999, content_type=23, wire_len=34, start_time=0.0005,
        end_time=0.0005, direction="s2c", final_packet_size=88))
    matches = analyzer.analyze(records)
    assert [m.size for m in matches] == [9_500]
    assert matches[0].confident


def test_empty_census_rejected():
    with pytest.raises(ValueError):
        PartialMultiplexAnalyzer([])


def test_attack_report_carries_partial_labels():
    from repro.core.phases import AttackConfig
    from repro.experiments.session import SessionConfig, run_session
    result = run_session(SessionConfig(seed=0, attack=AttackConfig()))
    report = result.report
    assert report.partial_matches
    # The partial channel should at minimum see the emblem burst.
    assert len([l for l in report.partial_labels if l != "html"]) >= 4
