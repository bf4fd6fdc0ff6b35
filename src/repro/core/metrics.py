"""Degree of multiplexing (Section II-A) and related ground-truth metrics.

The paper defines the degree of multiplexing of an object as "the
fraction of bytes of the object that is interleaved with those of
another object within the same TCP stream".  We operationalise it on
the server's transmission log: split the object's bytes into maximal
*runs* uninterrupted by foreign bytes (bytes of any other serve
instance landing inside the object's stream-offset span); the degree is
``1 - largest_run / total``.  An object transmitted as one
uninterrupted run has degree 0 -- the attack succeeds on an object only
when it reaches exactly that (Section V's criterion) -- and a heavily
interleaved object approaches 1.

These metrics read ground truth (which object each DATA frame belongs
to) and are therefore for evaluation only -- the adversary never sees
them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class ServeSpan:
    """One serve instance's footprint in the TCP stream."""

    object_path: str
    serve_id: int
    duplicate: bool
    start_offset: int
    end_offset: int
    total_bytes: int
    #: (offset, length) of each DATA frame, in stream order.
    pieces: List[Tuple[int, int]]
    start_time: float
    end_time: float
    completed: bool


def serve_spans(tx_log: Sequence) -> Dict[Tuple[str, int], ServeSpan]:
    """Group a server transmission log into per-serve-instance spans."""
    spans: Dict[Tuple[str, int], ServeSpan] = {}
    for entry in tx_log:
        if not entry.is_data or not entry.object_path:
            continue
        key = (entry.object_path, entry.serve_id)
        span = spans.get(key)
        if span is None:
            spans[key] = ServeSpan(
                object_path=entry.object_path,
                serve_id=entry.serve_id,
                duplicate=entry.duplicate,
                start_offset=entry.tcp_offset,
                end_offset=entry.tcp_offset + entry.length,
                total_bytes=entry.length,
                pieces=[(entry.tcp_offset, entry.length)],
                start_time=entry.time,
                end_time=entry.time,
                completed=entry.end_stream,
            )
        else:
            span.end_offset = max(span.end_offset,
                                  entry.tcp_offset + entry.length)
            span.total_bytes += entry.length
            span.pieces.append((entry.tcp_offset, entry.length))
            span.end_time = entry.time
            span.completed = span.completed or entry.end_stream
    return spans


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
    """Any foreign bytes in the half-open stream span [gap_lo, gap_hi)?"""
    for start, end in intervals:
        if end <= gap_lo:
            continue
        if start >= gap_hi:
            break
        return True
    return False


class ServeSpanIndex:
    """The serve spans of one transmission log, grouped once.

    Every degree and serialization question about the log is answered
    from this one grouping.  The DATA pieces of all serves are also kept
    sorted by stream offset, so the foreign bytes near a target serve
    are found by bisection instead of a scan over every other span.
    """

    def __init__(self, tx_log: Sequence):
        self.spans = serve_spans(tx_log)
        self._by_path: Dict[str, List[ServeSpan]] = {}
        #: (start, end, owner key) of every DATA piece, by start offset.
        self._pieces: List[Tuple[int, int, Tuple[str, int]]] = []
        for key, span in self.spans.items():
            self._by_path.setdefault(span.object_path, []).append(span)
            self._pieces.extend((offset, offset + length, key)
                                for offset, length in span.pieces)
        self._pieces.sort(key=itemgetter(0))
        self._starts = [piece[0] for piece in self._pieces]
        self._longest = max((end - start for start, end, _ in self._pieces),
                            default=0)

    def degree(self, object_path: str) -> float:
        """Degree of multiplexing of the *first non-duplicate* serve
        instance of ``object_path`` (the transmission the client's
        browser assembles).  Returns a fraction in [0, 1]; raises
        ``KeyError`` when the object never appears in the log.
        """
        candidates = [span for span in self._by_path.get(object_path, ())
                      if not span.duplicate]
        if not candidates:
            raise KeyError(f"object {object_path!r} not in transmission log")
        return self._span_degree(
            min(candidates, key=lambda span: span.start_offset))

    def serialized(self, object_path: str) -> bool:
        """True when *some* completed, non-duplicate serve of the object
        has degree 0.

        This is the attack's per-object success condition on the ground
        truth side: the object crossed the wire fully un-interleaved at
        least once (e.g. the post-reset re-serve).  An object the log
        never served is not serialized.
        """
        return any(self._span_degree(span) == 0.0
                   for span in self._by_path.get(object_path, ())
                   if span.completed and not span.duplicate)

    def _span_degree(self, target: ServeSpan) -> float:
        key = (target.object_path, target.serve_id)
        lo, hi = target.start_offset, target.end_offset
        # Only pieces starting within one longest piece of ``lo`` can
        # reach past it; none starting at or after ``hi`` can overlap.
        window = self._pieces[bisect_right(self._starts, lo - self._longest):
                              bisect_left(self._starts, hi)]
        foreign = _merge_intervals((start, end) for start, end, owner in window
                                   if end > lo and owner != key)
        if not foreign or target.total_bytes == 0:
            return 0.0

        # Split the object's pieces into maximal runs uninterrupted by
        # foreign bytes; degree = 1 - largest run / total bytes.
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


def degree_of_multiplexing(tx_log: Sequence, object_path: str) -> float:
    """One-shot :meth:`ServeSpanIndex.degree` over ``tx_log``."""
    return ServeSpanIndex(tx_log).degree(object_path)


def object_serialized(tx_log: Sequence, object_path: str) -> bool:
    """One-shot :meth:`ServeSpanIndex.serialized` over ``tx_log``."""
    return ServeSpanIndex(tx_log).serialized(object_path)
