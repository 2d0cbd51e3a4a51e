"""Unit and property tests for the encoding subpackage."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import (
    bitpacking,
    decode_values,
    delta,
    delta_string,
    encode_values,
    get_codec,
    plain,
    rle,
    varint,
)
from repro.model.errors import EncodingError


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_uvarint_round_trip(self, value):
        out = bytearray()
        varint.encode_uvarint(value, out)
        decoded, offset = varint.decode_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(EncodingError):
            varint.encode_uvarint(-1, bytearray())

    def test_truncated_uvarint(self):
        with pytest.raises(EncodingError):
            varint.decode_uvarint(b"\xff", 0)

    @pytest.mark.parametrize("value", [0, -1, 1, -64, 63, 2**40, -(2**40)])
    def test_svarint_round_trip(self, value):
        out = bytearray()
        varint.encode_svarint(value, out)
        decoded, _ = varint.decode_svarint(bytes(out), 0)
        assert decoded == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_zigzag_round_trip(self, value):
        assert varint.zigzag_decode(varint.zigzag_encode(value)) == value


class TestBitpacking:
    def test_width_for(self):
        assert bitpacking.bit_width_for(0) == 0
        assert bitpacking.bit_width_for(1) == 1
        assert bitpacking.bit_width_for(7) == 3
        assert bitpacking.bit_width_for(8) == 4

    def test_zero_width_round_trip(self):
        assert bitpacking.pack([0, 0, 0], 0) == b""
        assert bitpacking.unpack(b"", 0, 3) == [0, 0, 0]

    def test_value_too_large(self):
        with pytest.raises(EncodingError):
            bitpacking.pack([8], 3)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=200),
    )
    def test_round_trip(self, values):
        width = bitpacking.bit_width_for(max(values) if values else 0)
        packed = bitpacking.pack(values, width)
        assert bitpacking.unpack(packed, width, len(values)) == values

    def test_packed_size(self):
        assert bitpacking.packed_size(10, 3) == 4
        assert bitpacking.packed_size(0, 5) == 0


class TestRle:
    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=300))
    def test_round_trip(self, values):
        payload, width = rle.encoded_with_width(values)
        assert rle.decode(payload, width, len(values)) == values

    def test_long_runs_compress(self):
        values = [3] * 1000
        payload, width = rle.encoded_with_width(values)
        assert len(payload) < 10

    def test_truncated_stream(self):
        values = list(range(20))
        payload, width = rle.encoded_with_width(values)
        with pytest.raises(EncodingError):
            rle.decode(payload[:2], width, len(values) + 50)

    def test_zero_width(self):
        assert rle.decode(b"", 0, 5) == [0, 0, 0, 0, 0]


class TestPlain:
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=100))
    def test_int64_round_trip(self, values):
        data = plain.encode_int64(values)
        assert plain.decode_int64(data, len(values)) == values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100))
    def test_double_round_trip(self, values):
        data = plain.encode_double(values)
        assert plain.decode_double(data, len(values)) == values

    @given(st.lists(st.booleans(), max_size=100))
    def test_boolean_round_trip(self, values):
        data = plain.encode_boolean(values)
        assert plain.decode_boolean(data, len(values)) == values

    @given(st.lists(st.text(max_size=40), max_size=60))
    def test_strings_round_trip(self, values):
        data = plain.encode_strings(values)
        assert plain.decode_strings(data, len(values)) == values

    def test_truncated_int64(self):
        with pytest.raises(EncodingError):
            plain.decode_int64(b"\x00" * 7, 1)


class TestDelta:
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=400))
    def test_round_trip(self, values):
        assert delta.decode(delta.encode(values)) == values

    def test_monotone_sequences_compress(self):
        values = list(range(100000, 101000))
        encoded = delta.encode(values)
        assert len(encoded) < len(plain.encode_int64(values)) / 4

    def test_empty(self):
        assert delta.decode(delta.encode([])) == []

    def test_single(self):
        assert delta.decode(delta.encode([42])) == [42]


class TestDeltaStrings:
    @given(st.lists(st.text(max_size=30), max_size=80))
    def test_delta_length_round_trip(self, values):
        data = delta_string.encode_delta_length(values)
        assert delta_string.decode_delta_length(data, len(values)) == values

    @given(st.lists(st.text(max_size=30), max_size=80))
    def test_delta_strings_round_trip(self, values):
        data = delta_string.encode_delta_strings(values)
        assert delta_string.decode_delta_strings(data, len(values)) == values

    def test_shared_prefixes_compress(self):
        values = [f"https://example.com/user/{i}" for i in range(500)]
        incremental = delta_string.encode_delta_strings(values)
        plain_size = len(plain.encode_strings(values))
        assert len(incremental) < plain_size / 2


class TestRegistry:
    @pytest.mark.parametrize(
        "type_tag,values",
        [
            ("int64", [1, 2, 3, 1000, -5]),
            ("int64", list(range(2000))),
            ("double", [1.5, -2.25, 3e10]),
            ("string", ["a", "bb", "ccc", ""]),
            ("boolean", [True, False, True]),
            ("null", [None, None]),
            ("int64", []),
            ("string", []),
        ],
    )
    def test_round_trip(self, type_tag, values):
        encoding_id, payload = encode_values(type_tag, values)
        decoded = decode_values(type_tag, encoding_id, payload, len(values))
        if type_tag == "null":
            assert decoded == [None] * len(values)
        else:
            assert decoded == values

    def test_unknown_type_rejected(self):
        with pytest.raises(EncodingError):
            encode_values("object", [{"a": 1}])

    def test_numeric_domain_compresses_well(self):
        values = [1000000 + i * 3 for i in range(5000)]
        _, payload = encode_values("int64", values)
        assert len(payload) < 5000 * 2


class TestBoundaryValues:
    """Boundary-value round-trips at the encoders' representation edges."""

    @pytest.mark.parametrize(
        "value",
        [
            2**7 - 1, 2**7, 2**7 + 1,          # 1 -> 2 byte uvarint edge
            2**14 - 1, 2**14, 2**14 + 1,       # 2 -> 3 byte uvarint edge
            2**63 - 1, 2**63, 2**63 + 1,       # beyond-64-bit values
        ],
    )
    def test_uvarint_byte_width_edges(self, value):
        out = bytearray()
        varint.encode_uvarint(value, out)
        assert len(out) == max(1, (value.bit_length() + 6) // 7)
        decoded, offset = varint.decode_uvarint(bytes(out), 0)
        assert decoded == value and offset == len(out)

    @pytest.mark.parametrize(
        "values",
        [
            [0, 2**40, 0, 2**40],                   # large negative jumps
            [2**62, -(2**62), 2**62],                # full-range swings
            [5, 4, 3, 2, 1, 0, -1, -2],              # strictly decreasing
            [-(2**31), 2**31, -(2**31)],
        ],
    )
    def test_delta_negative_jumps(self, values):
        assert delta.decode(delta.encode(values)) == values

    def test_rle_runs_of_length_one(self):
        values = list(range(20))  # every run has length 1
        payload, width = rle.encoded_with_width(values)
        assert rle.decode(payload, width, len(values)) == values

    def test_rle_maximal_run(self):
        values = [7] * 10_000
        payload, width = rle.encoded_with_width(values)
        assert rle.decode(payload, width, len(values)) == values
        # One header + one packed value: far below one byte per input value.
        assert len(payload) < 8

    def test_rle_run_boundaries_around_min_run(self):
        # _MIN_RLE_RUN is 8: check runs of 7, 8, and 9 between noise values.
        for run in (7, 8, 9):
            values = [1, 2, 3] + [9] * run + [4, 5]
            payload, width = rle.encoded_with_width(values)
            assert rle.decode(payload, width, len(values)) == values

    @pytest.mark.parametrize(
        "type_tag", ["int64", "double", "string", "boolean", "null"]
    )
    def test_empty_inputs_for_every_registered_encoder(self, type_tag):
        encoding_id, payload = encode_values(type_tag, [])
        assert payload == b""
        assert decode_values(type_tag, encoding_id, payload, 0) == []

    def test_empty_inputs_for_raw_encoders(self):
        assert rle.decode(rle.encode([], 3), 3, 0) == []
        assert delta.decode(delta.encode([])) == []
        assert bitpacking.unpack(bitpacking.pack([], 5), 5, 0) == []
        assert plain.decode_int64(plain.encode_int64([]), 0) == []
        assert plain.decode_double(plain.encode_double([]), 0) == []
        assert plain.decode_strings(plain.encode_strings([]), 0) == []
        assert plain.decode_boolean(plain.encode_boolean([]), 0) == []
        assert delta_string.decode_delta_length(
            delta_string.encode_delta_length([]), 0
        ) == []
        assert delta_string.decode_delta_strings(
            delta_string.encode_delta_strings([]), 0
        ) == []


class TestCompression:
    @pytest.mark.parametrize("name", ["none", "zlib", "snappy"])
    @given(data=st.binary(max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, name, data):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data

    def test_snappy_compresses_repetitive_payloads(self):
        codec = get_codec("snappy")
        data = (b'{"name": "user", "age": 30, "city": "irvine"}' * 200)
        assert len(codec.compress(data)) < len(data) / 3

    def test_unknown_codec(self):
        with pytest.raises(EncodingError):
            get_codec("lz4")


def _snappy_stream(expected: int, tokens) -> bytes:
    """Hand-assemble a snappy-like stream: ``bytes`` = literal run,
    ``(size, distance)`` = back-reference."""
    out = bytearray()
    varint.encode_uvarint(expected, out)
    for token in tokens:
        if isinstance(token, bytes):
            varint.encode_uvarint(len(token) << 1, out)
            out.extend(token)
        else:
            size, distance = token
            varint.encode_uvarint((size << 1) | 1, out)
            varint.encode_uvarint(distance, out)
    return bytes(out)


def _reference_expand(tokens) -> bytes:
    """The byte-at-a-time copy loop the slice-based decoder replaced."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, bytes):
            out.extend(token)
        else:
            size, distance = token
            start = len(out) - distance
            for index in range(size):
                out.append(out[start + index])
    return bytes(out)


@st.composite
def _snappy_tokens(draw):
    """A literal run followed by literals and back-references whose distances
    fall on both sides of their sizes (overlapping and disjoint copies)."""
    tokens = [draw(st.binary(min_size=1, max_size=12))]
    produced = len(tokens[0])
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            literal = draw(st.binary(min_size=1, max_size=12))
            tokens.append(literal)
            produced += len(literal)
        else:
            size = draw(st.integers(1, 64))
            tokens.append((size, draw(st.integers(1, min(produced, 70)))))
            produced += size
    return tokens


class TestSnappyLikeDecoder:
    codec = get_codec("snappy")

    @given(tokens=_snappy_tokens())
    @settings(max_examples=200, deadline=None)
    def test_back_references_match_the_bytewise_copy(self, tokens):
        expected = _reference_expand(tokens)
        stream = _snappy_stream(len(expected), tokens)
        assert self.codec.decompress(stream) == expected

    @given(
        pattern=st.binary(min_size=1, max_size=5),
        repeats=st.integers(2, 400),
        tail=st.binary(max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_of_short_period_runs(self, pattern, repeats, tail):
        # Short periods make the compressor emit copies with distance < size.
        data = pattern * repeats + tail
        assert self.codec.decompress(self.codec.compress(data)) == data

    def test_overlapping_copy_replicates_the_pattern(self):
        stream = _snappy_stream(11, [b"ab", (9, 2)])
        assert self.codec.decompress(stream) == b"abababababa"
        assert self.codec.decompress(_snappy_stream(6, [b"x", (5, 1)])) == b"x" * 6

    def test_truncated_stream(self):
        with pytest.raises(EncodingError, match="truncated snappy-like stream"):
            self.codec.decompress(_snappy_stream(10, [b"abc"]))

    def test_truncated_literal_run(self):
        stream = _snappy_stream(8, [b"abcdefgh"])[:-3]
        with pytest.raises(EncodingError, match="truncated literal run"):
            self.codec.decompress(stream)

    @pytest.mark.parametrize("distance", [0, 4])
    def test_invalid_back_reference(self, distance):
        with pytest.raises(EncodingError, match="invalid back-reference"):
            self.codec.decompress(_snappy_stream(8, [b"abc", (5, distance)]))

    def test_copy_past_the_declared_length(self):
        with pytest.raises(EncodingError, match="length mismatch"):
            self.codec.decompress(_snappy_stream(4, [b"ab", (9, 2)]))
