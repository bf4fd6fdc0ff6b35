"""HPACK-style header compression (RFC 7541 subset).

The simulation does not move literal bytes, but request/response record
sizes must be realistic because the adversary counts GET-carrying
records and could in principle use their sizes.  This module implements
the real HPACK size accounting: a static table, a dynamic table with
entry eviction, indexed representations (1-2 bytes) and literal
representations with incremental indexing, including the standard
integer prefix encoding and an approximation of Huffman string
compression.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple

#: Subset of the RFC 7541 Appendix A static table that web traffic hits.
STATIC_TABLE: Tuple[Tuple[str, str], ...] = (
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept", ""),
    ("cache-control", ""),
    ("content-length", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("host", ""),
    ("referer", ""),
    ("server", ""),
    ("user-agent", ""),
)

#: RFC 7541: dynamic-table entry overhead.
ENTRY_OVERHEAD = 32
#: Approximate Huffman compaction ratio for header strings.
HUFFMAN_RATIO = 0.8


def _integer_size(value: int, prefix_bits: int) -> int:
    """Bytes needed by the HPACK integer encoding."""
    limit = (1 << prefix_bits) - 1
    if value < limit:
        return 1
    size = 1
    value -= limit
    while True:
        size += 1
        if value < 128:
            return size
        value >>= 7


def _string_size(text: str) -> int:
    """Length byte(s) plus Huffman-compressed octets."""
    compressed = max(1, int(len(text) * HUFFMAN_RATIO))
    return _integer_size(compressed, 7) + compressed


class HpackToken(NamedTuple):
    """One encoded header field, as handed to the decoder."""

    kind: str  # "indexed" | "literal-indexed" | "literal"
    index: int = 0
    name: str = ""
    value: str = ""
    size: int = 0


#: Dynamic-table capacity in RFC 7541 size units: the protocol default
#: of SETTINGS_HEADER_TABLE_SIZE, which neither endpoint changes.
HEADER_TABLE_SIZE = 4096


class _DynamicTable:
    def __init__(self, max_size: int):
        self.max_size = max_size
        self.entries: List[Tuple[str, str]] = []  # newest first
        self.size = 0
        #: Insertion serial of the newest entry; ``entries[i]`` was
        #: inserted as serial ``_serial - i``.
        self._serial = 0
        #: Each held pair's newest insertion serial.
        self._newest: Dict[Tuple[str, str], int] = {}

    def add(self, name: str, value: str) -> None:
        entry_size = len(name) + len(value) + ENTRY_OVERHEAD
        self.entries.insert(0, (name, value))
        self._serial += 1
        self._newest[(name, value)] = self._serial
        self.size += entry_size
        while self.size > self.max_size and self.entries:
            oldest = self._serial - len(self.entries) + 1
            old = self.entries.pop()
            if self._newest[old] == oldest:  # no newer copy remains
                del self._newest[old]
            self.size -= len(old[0]) + len(old[1]) + ENTRY_OVERHEAD

    def find(self, name: str, value: str) -> int:
        """1-based dynamic index of the newest exact match, or 0."""
        serial = self._newest.get((name, value))
        return 0 if serial is None else self._serial - serial + 1

    def get(self, index: int) -> Tuple[str, str]:
        return self.entries[index - 1]


class HpackEncoder:
    """Stateful encoder producing tokens plus exact encoded sizes."""

    def __init__(self):
        self._dynamic = _DynamicTable(HEADER_TABLE_SIZE)
        # Hash lookups instead of a linear static-table scan per field
        # (~1.5x on encode/decode churn).  Built per instance to keep
        # module state immutable; 28 entries, so construction is noise.
        self._static_exact: Dict[Tuple[str, str], int] = {}
        self._static_name: Dict[str, int] = {}
        for i, (name, value) in enumerate(STATIC_TABLE):
            if value != "" and (name, value) not in self._static_exact:
                self._static_exact[(name, value)] = i + 1
            if name not in self._static_name:
                self._static_name[name] = i + 1

    @property
    def table_size(self) -> int:
        """Current dynamic-table occupancy in RFC 7541 size units."""
        return self._dynamic.size

    @property
    def max_table_size(self) -> int:
        """Dynamic-table capacity (SETTINGS_HEADER_TABLE_SIZE)."""
        return self._dynamic.max_size

    def encode(self, headers: Iterable[Tuple[str, str]]) -> Tuple[int, List[HpackToken]]:
        """Encode a header list; returns ``(block_size_bytes, tokens)``."""
        total = 0
        tokens: List[HpackToken] = []
        for name, value in headers:
            token = self._encode_field(name, value)
            total += token.size
            tokens.append(token)
        return total, tokens

    def encode_size(self, headers: Iterable[Tuple[str, str]]) -> int:
        """Size-only convenience wrapper."""
        size, _ = self.encode(headers)
        return size

    def _encode_field(self, name: str, value: str) -> HpackToken:
        # Exact match in static table -> indexed representation.
        static = self._static_exact.get((name, value), 0)
        if static:
            return HpackToken("indexed", index=static,
                              size=_integer_size(static, 7))
        dyn = self._dynamic.find(name, value)
        if dyn:
            index = len(STATIC_TABLE) + dyn
            return HpackToken("indexed", index=index,
                              size=_integer_size(index, 7))
        # Literal with incremental indexing; name may be indexed.
        name_index = self._static_name.get(name, 0)
        size = _integer_size(name_index, 6) if name_index else (
            _integer_size(0, 6) + _string_size(name))
        size += _string_size(value)
        self._dynamic.add(name, value)
        return HpackToken("literal-indexed", index=name_index,
                          name=name, value=value, size=size)


class HpackDecoder:
    """Stateful decoder consuming the encoder's tokens."""

    def __init__(self):
        self._dynamic = _DynamicTable(HEADER_TABLE_SIZE)

    @property
    def table_size(self) -> int:
        """Current dynamic-table occupancy in RFC 7541 size units."""
        return self._dynamic.size

    @property
    def max_table_size(self) -> int:
        """Dynamic-table capacity (SETTINGS_HEADER_TABLE_SIZE)."""
        return self._dynamic.max_size

    def decode(self, tokens: Iterable[HpackToken]) -> List[Tuple[str, str]]:
        """Reconstruct the header list from tokens."""
        headers: List[Tuple[str, str]] = []
        for token in tokens:
            if token.kind == "indexed":
                headers.append(self._lookup(token.index))
            else:
                name = token.name
                if not name and token.index:
                    name = self._lookup(token.index)[0]
                headers.append((name, token.value))
                if token.kind == "literal-indexed":
                    self._dynamic.add(name, token.value)
        return headers

    def _lookup(self, index: int) -> Tuple[str, str]:
        if index <= 0:
            raise ValueError("HPACK index 0 is invalid")
        if index <= len(STATIC_TABLE):
            return STATIC_TABLE[index - 1]
        return self._dynamic.get(index - len(STATIC_TABLE))
