"""Partial-multiplexing inference (the paper's Section VII extension).

"Another possible extension would be to infer the object identity even
when the object is partly multiplexed.  Our preliminary experiments
suggest that this is indeed possible, however, at the cost of employing
complex analysis techniques."

The analysis implemented here exploits two wire-derivable facts about an
interleaved run of TLS records:

1. **Tail residues.**  The server chunks every object into full DATA
   records (fixed payload, e.g. 1370 bytes) plus one final sub-full
   record.  However thoroughly the records interleave, each object
   contributes exactly one sub-full record, and its size equals
   ``size - (ceil(size / chunk) - 1) * chunk`` -- a residue the
   adversary can precompute for every object in its census.
2. **Byte conservation.**  The total application payload of the run
   equals the sum of the sizes of the objects inside it, so among the
   objects whose residues match the observed tails, the correct
   assignment is the one whose sizes sum to the observed total.

The result is the multiset of object identities inside the run (in tail
= completion order), recovered without ever serializing the traffic --
at the cost of a backtracking search over residue-ambiguous candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimator import CONTROL_RECORD_MAX_WIRE, RECORD_FRAMING
from repro.simnet.trace import CompletedRecord

#: The server's full DATA payload per record.
CHUNK_PAYLOAD = 1370
#: Bound on backtracking nodes per run before conservation gives up.
MAX_SEARCH_NODES = 200_000
#: A quiet gap this long between records ends a run.
RUN_GAP_S = 0.06


@dataclass(frozen=True)
class PartialMatch:
    """One object identified inside an interleaved run."""

    size: int
    end_time: float
    #: False when the run's byte conservation check could not single out
    #: an assignment and this match is residue-only.
    confident: bool


def tail_payload(size: int, chunk: int) -> int:
    """Payload bytes of an object's final (sub-full or only) record."""
    if size <= 0:
        raise ValueError("size must be positive")
    full_records = (size - 1) // chunk
    return size - full_records * chunk


class PartialMultiplexAnalyzer:
    """Identify known-size objects inside interleaved record runs."""

    def __init__(self, census_sizes: Sequence[int]):
        if not census_sizes:
            raise ValueError("empty census")
        self.census_sizes = sorted(set(census_sizes))

        self._by_tail: Dict[int, List[int]] = {}
        for size in self.census_sizes:
            tail = tail_payload(size, CHUNK_PAYLOAD)
            self._by_tail.setdefault(tail, []).append(size)

    # -- public API --------------------------------------------------------

    def analyze(self, records: Sequence[CompletedRecord],
                ) -> List[PartialMatch]:
        """Identify objects across all runs of a record sequence."""
        matches: List[PartialMatch] = []
        for run in self._split_runs(records):
            matches.extend(self._analyze_run(run))
        return matches

    # -- internals -------------------------------------------------------------

    def _split_runs(self, records: Sequence[CompletedRecord],
                    ) -> List[List[CompletedRecord]]:
        runs: List[List[CompletedRecord]] = []
        current: List[CompletedRecord] = []
        last_end: Optional[float] = None
        for record in records:
            if record.wire_len <= CONTROL_RECORD_MAX_WIRE:
                continue
            if (last_end is not None
                    and record.start_time - last_end > RUN_GAP_S
                    and current):
                runs.append(current)
                current = []
            current.append(record)
            last_end = record.end_time
        if current:
            runs.append(current)
        return runs

    def _analyze_run(self, run: List[CompletedRecord]) -> List[PartialMatch]:
        full_wire = CHUNK_PAYLOAD + RECORD_FRAMING
        tails = [(record.wire_len - RECORD_FRAMING, record.end_time)
                 for record in run if record.wire_len < full_wire]
        if not tails:
            return []
        total_payload = sum(record.wire_len - RECORD_FRAMING
                            for record in run)

        candidates: List[List[int]] = []
        for tail, _ in tails:
            candidates.append(self._by_tail.get(tail, []))
        if any(not c for c in candidates):
            # Some tail matches nothing in the census; identify what we
            # can by residue alone, without conservation confidence.
            return self._residue_only(tails)

        assignment = self._search(candidates, total_payload)
        if assignment is None:
            return self._residue_only(tails)
        return [PartialMatch(size=size, end_time=when, confident=True)
                for size, (_, when) in zip(assignment, tails)]

    def _residue_only(self, tails: List[Tuple[int, float]],
                      ) -> List[PartialMatch]:
        matches = []
        for tail, when in tails:
            sizes = self._by_tail.get(tail, [])
            if len(sizes) == 1:
                matches.append(PartialMatch(size=sizes[0], end_time=when,
                                            confident=False))
        return matches

    def _search(self, candidates: List[List[int]],
                target: int) -> Optional[List[int]]:
        """Backtracking assignment: one candidate per tail, summing to
        ``target``.  Prunes with min/max remaining-sum bounds."""
        n = len(candidates)
        min_suffix = [0] * (n + 1)
        max_suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            min_suffix[i] = min_suffix[i + 1] + min(candidates[i])
            max_suffix[i] = max_suffix[i + 1] + max(candidates[i])

        nodes = 0
        chosen: List[int] = []

        def backtrack(index: int, remaining: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > MAX_SEARCH_NODES:
                return False
            if index == n:
                return remaining == 0
            if not (min_suffix[index] <= remaining <= max_suffix[index]):
                return False
            for size in candidates[index]:
                chosen.append(size)
                if backtrack(index + 1, remaining - size):
                    return True
                chosen.pop()
            return False

        found = backtrack(0, target)
        # backtrack reaches itself through its closure; unbinding it
        # lets reference counting free the search without the collector.
        backtrack = None
        return list(chosen) if found else None
