"""Object-size estimation from encrypted traffic (Fig. 1).

The estimator consumes the server -> client TLS application-data records
of a capture (sizes and timestamps only) and recovers object sizes with
the classic delimiter rule: interior records of an object ride full
(MTU-sized) packets; a record smaller than full size marks the object's
last packet.  Summing the per-record HTTP/2 payloads between delimiters
yields the object size.

The adversary knows the stack's constant framing overheads (TLS record
header + AEAD tag, HTTP/2 frame header) the same way the paper's
adversary knows its target's; both are public protocol constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.http2.frames import FRAME_HEADER_LEN
from repro.simnet.middlebox import SERVER_TO_CLIENT
from repro.simnet.trace import CompletedRecord, TraceRecorder
from repro.tls.record import AEAD_OVERHEAD, RECORD_HEADER_LEN

#: Per-record framing bytes between wire length and object payload.
RECORD_FRAMING = RECORD_HEADER_LEN + AEAD_OVERHEAD + FRAME_HEADER_LEN

#: Records at or below this wire length are HTTP/2 control frames or
#: response headers, not object data; they are skipped entirely.
CONTROL_RECORD_MAX_WIRE = 120

#: Wire length of a full (MSS-sized) data record; anything shorter
#: delimits an object.
FULL_RECORD_WIRE = 1400

#: How far (bytes) an estimate may sit from a known size and still
#: identify it: the paper's 400-byte tolerance.
SIZE_TOLERANCE = 400

#: A quiet gap this long between data records also delimits an object.
#: The sub-MTU rule alone misses boundaries that follow a full-sized
#: record (e.g. loss-recovery retransmissions right before a re-served
#: object); under the serializing attack consecutive objects are
#: separated by the enforced request spacing, so a modest time
#: threshold is unambiguous.
TIME_GAP_DELIMITER_S = 0.06


@dataclass(frozen=True)
class ObjectEstimate:
    """One recovered object transmission."""

    size: int
    start_time: float
    end_time: float
    n_records: int

    def matches(self, true_size: int) -> bool:
        """Whether the estimate identifies an object of ``true_size``."""
        return abs(self.size - true_size) <= SIZE_TOLERANCE


class SizeEstimator:
    """Delimiter-based size recovery over a capture."""

    def estimate_from_trace(self, trace: TraceRecorder,
                            since: float = 0.0) -> List[ObjectEstimate]:
        """Recover object sizes from the server->client records."""
        records = trace.completed_records(SERVER_TO_CLIENT, content_type=23)
        records = [r for r in records if r.end_time >= since]
        return self.estimate_from_records(records)

    def estimate_from_records(self, records: Sequence[CompletedRecord],
                              ) -> List[ObjectEstimate]:
        """Core delimiter algorithm over an ordered record sequence."""
        estimates: List[ObjectEstimate] = []
        current_size = 0
        current_records = 0
        current_start = 0.0
        last_end = 0.0

        def close(end_time: float) -> None:
            nonlocal current_size, current_records
            estimates.append(ObjectEstimate(
                size=current_size, start_time=current_start,
                end_time=end_time, n_records=current_records))
            current_size = 0
            current_records = 0

        for record in records:
            if record.wire_len <= CONTROL_RECORD_MAX_WIRE:
                continue
            if (current_records > 0
                    and record.start_time - last_end > TIME_GAP_DELIMITER_S):
                close(last_end)
            if current_records == 0:
                current_start = record.start_time
            current_size += max(0, record.wire_len - RECORD_FRAMING)
            current_records += 1
            last_end = record.end_time
            if record.wire_len < FULL_RECORD_WIRE:
                # Sub-full record: the delimiting last packet of Fig. 1.
                close(record.end_time)
        if current_records:
            # Trailing run without a delimiter (capture cut mid-object).
            close(last_end)
        return estimates
