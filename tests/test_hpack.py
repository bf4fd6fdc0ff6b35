"""HPACK size accounting and round-trip tests."""

import pytest

from repro.http2 import hpack
from repro.http2.hpack import (
    ENTRY_OVERHEAD,
    HpackDecoder,
    HpackEncoder,
    _integer_size,
    _string_size,
)

REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.isidewith.com"),
    (":path", "/polls/results"),
    ("user-agent", "Mozilla/5.0 Firefox/74.0"),
    ("accept", "*/*"),
]


def test_integer_size_single_byte_below_prefix():
    assert _integer_size(5, 7) == 1
    assert _integer_size(126, 7) == 1


def test_integer_size_multi_byte():
    assert _integer_size(127, 7) == 2
    assert _integer_size(300, 7) == 3


def test_string_size_includes_length_prefix():
    assert _string_size("abcd") >= 2


def test_static_table_exact_match_is_one_byte():
    encoder = HpackEncoder()
    size, tokens = encoder.encode([(":method", "GET")])
    assert size == 1
    assert tokens[0].kind == "indexed"


def test_repeat_request_shrinks_dramatically():
    encoder = HpackEncoder()
    first = encoder.encode_size(REQUEST)
    second = encoder.encode_size(REQUEST)
    assert second < first / 3
    # Every field indexed on the repeat.
    _, tokens = encoder.encode(REQUEST)
    assert all(t.kind == "indexed" for t in tokens)


def test_distinct_paths_stay_literal():
    encoder = HpackEncoder()
    encoder.encode([(":path", "/a")])
    size, tokens = encoder.encode([(":path", "/b")])
    assert tokens[0].kind == "literal-indexed"
    assert size > 1


def test_roundtrip_through_decoder():
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    for _ in range(3):
        _, tokens = encoder.encode(REQUEST)
        assert decoder.decode(tokens) == REQUEST


def test_roundtrip_multiple_header_sets():
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    first = [(":path", "/one"), ("x-custom", "abc")]
    second = [(":path", "/two"), ("x-custom", "abc")]
    for headers in (first, second, first):
        _, tokens = encoder.encode(headers)
        assert decoder.decode(tokens) == headers


def test_dynamic_table_eviction(monkeypatch):
    monkeypatch.setattr(hpack, "HEADER_TABLE_SIZE", 2 * ENTRY_OVERHEAD + 40)
    encoder = HpackEncoder()
    decoder = HpackDecoder()
    headers = [(f"x-{i}", f"value-{i}") for i in range(10)]
    for header in headers:
        _, tokens = encoder.encode([header])
        assert decoder.decode(tokens) == [header]
    # Early entries were evicted: re-encoding the first is literal again.
    _, tokens = encoder.encode([headers[0]])
    assert tokens[0].kind == "literal-indexed"
    assert decoder.decode(tokens) == [headers[0]]


def test_decoder_rejects_index_zero():
    from repro.http2.hpack import HpackToken
    with pytest.raises(ValueError):
        HpackDecoder().decode([HpackToken("indexed", index=0)])
