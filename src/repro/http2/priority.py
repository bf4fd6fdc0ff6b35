"""Stream priority tree (RFC 7540 section 5.3).

The paper's future-work defense shuffles priorities/order per load, so
the tree is a first-class object here.  Scheduling uses the weights of
streams that are ready to send; dependencies collapse into weight
shares of the parent's allocation, as real servers approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class _Node:
    stream_id: int
    parent: int = 0
    weight: int = 16
    children: List[int] = field(default_factory=list)


class PriorityTree:
    """Dependency tree rooted at stream 0."""

    def __init__(self):
        self._nodes: Dict[int, _Node] = {0: _Node(stream_id=0, weight=0)}

    def add_stream(self, stream_id: int, depends_on: int = 0,
                   weight: int = 16, exclusive: bool = False) -> None:
        """Insert a stream (idempotent for re-prioritisation)."""
        if not 1 <= weight <= 256:
            raise ValueError(f"weight {weight} out of [1, 256]")
        if depends_on == stream_id:
            raise ValueError("stream cannot depend on itself")
        if depends_on not in self._nodes:
            # Unknown parent: RFC says treat as depending on the root.
            depends_on = 0
        if stream_id in self._nodes:
            self._detach(stream_id)
            node = self._nodes[stream_id]
            node.parent = depends_on
            node.weight = weight
        else:
            node = _Node(stream_id=stream_id, parent=depends_on, weight=weight)
            self._nodes[stream_id] = node
        parent = self._nodes[depends_on]
        if exclusive:
            for child_id in parent.children:
                self._nodes[child_id].parent = stream_id
                node.children.append(child_id)
            parent.children.clear()
        parent.children.append(stream_id)

    def effective_weight(self, stream_id: int) -> float:
        """Share of bandwidth the stream gets among all known streams.

        The share of a node is its weight divided by the sibling weight
        sum, multiplied by its parent's share.
        """
        node = self._nodes.get(stream_id)
        if node is None:
            return 1.0
        share = 1.0
        while node.stream_id != 0:
            parent = self._nodes[node.parent]
            sibling_total = sum(self._nodes[c].weight for c in parent.children)
            share *= node.weight / sibling_total if sibling_total else 1.0
            node = parent
        return share

    def scheduling_weights(self, ready: Iterable[int]) -> Dict[int, float]:
        """Normalized weights for the ready streams."""
        ready = list(ready)
        weights = {sid: self.effective_weight(sid) for sid in ready}
        total = sum(weights.values())
        if total <= 0:
            return {sid: 1.0 / len(ready) for sid in ready} if ready else {}
        return {sid: w / total for sid, w in weights.items()}

    def _detach(self, stream_id: int) -> None:
        node = self._nodes[stream_id]
        parent = self._nodes.get(node.parent)
        if parent is not None and stream_id in parent.children:
            parent.children.remove(stream_id)
