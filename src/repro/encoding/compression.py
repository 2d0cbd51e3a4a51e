"""Page-level compression codecs.

The paper's evaluation enables AsterixDB page-level compression with Snappy
for every layout.  Snappy itself is not available offline, so we provide:

* :class:`SnappyLikeCodec` — a pure-Python byte-oriented LZ77 variant with a
  Snappy-like format (literal runs + back-references with a 64 KiB window).
  It is intentionally simple; what matters for the reproduction is the
  *relative* compressibility of row-major pages (field names repeated in every
  record) versus columnar pages (already-encoded homogeneous values).
* :class:`ZlibCodec` — stdlib zlib, for users who prefer a stronger codec.
* :class:`NoopCodec` — disables compression.

Codecs are looked up by name through :func:`get_codec`.
"""

from __future__ import annotations

import zlib
from typing import Dict, Protocol

from ..model.errors import EncodingError
from .varint import decode_uvarint, encode_uvarint

_WINDOW = 1 << 16
_MIN_MATCH = 4
_MAX_MATCH = 64
_HASH_BYTES = 4


class Codec(Protocol):
    """Protocol implemented by all page codecs."""

    name: str

    def compress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decompress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...


class NoopCodec:
    """Identity codec."""

    name = "none"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


class ZlibCodec:
    """zlib (DEFLATE) codec at a fast compression level."""

    name = "zlib"

    def __init__(self, level: int = 1) -> None:
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class SnappyLikeCodec:
    """A greedy LZ77 codec with a Snappy-flavoured token stream.

    Token stream: ``[uncompressed_length uvarint]`` then tokens; each token is
    a uvarint ``t``: if ``t & 1 == 0`` it is a literal run of ``t >> 1`` bytes
    that follow verbatim, otherwise it is a copy of ``(t >> 1) copy-length``
    bytes starting at a uvarint back-distance.
    """

    name = "snappy"

    def compress(self, data: bytes) -> bytes:
        out = bytearray()
        encode_uvarint(len(data), out)
        length = len(data)
        if length == 0:
            return bytes(out)
        table: Dict[bytes, int] = {}
        position = 0
        literal_start = 0

        def flush_literals(end: int) -> None:
            run = end - literal_start
            if run <= 0:
                return
            encode_uvarint(run << 1, out)
            out.extend(data[literal_start:end])

        while position + _HASH_BYTES <= length:
            key = data[position:position + _HASH_BYTES]
            candidate = table.get(key)
            table[key] = position
            if candidate is not None and position - candidate <= _WINDOW:
                match_length = _HASH_BYTES
                limit = min(_MAX_MATCH, length - position)
                while (
                    match_length < limit
                    and data[candidate + match_length] == data[position + match_length]
                ):
                    match_length += 1
                flush_literals(position)
                encode_uvarint((match_length << 1) | 1, out)
                encode_uvarint(position - candidate, out)
                position += match_length
                literal_start = position
            else:
                position += 1
        flush_literals(length)
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        expected, position = decode_uvarint(data, 0)
        out = bytearray()
        while len(out) < expected:
            if position >= len(data):
                raise EncodingError("truncated snappy-like stream")
            token, position = decode_uvarint(data, position)
            size = token >> 1
            if token & 1:
                distance, position = decode_uvarint(data, position)
                if distance <= 0 or distance > len(out):
                    raise EncodingError("invalid back-reference")
                start = len(out) - distance
                if distance >= size:
                    out.extend(out[start:start + size])
                else:
                    # The copy overlaps its own output: the last ``distance``
                    # bytes repeat until ``size`` bytes have been produced.
                    pattern = bytes(out[start:])
                    out.extend((pattern * (size // distance + 1))[:size])
            else:
                end = position + size
                if end > len(data):
                    raise EncodingError("truncated literal run")
                out.extend(data[position:end])
                position = end
        if len(out) != expected:
            raise EncodingError("snappy-like length mismatch")
        return bytes(out)


_CODECS: Dict[str, Codec] = {
    "none": NoopCodec(),
    "zlib": ZlibCodec(),
    "snappy": SnappyLikeCodec(),
}


def get_codec(name: str) -> Codec:
    """Return a codec by name (``"none"``, ``"zlib"``, ``"snappy"``)."""
    try:
        return _CODECS[name]
    except KeyError as exc:
        raise EncodingError(f"unknown compression codec {name!r}") from exc


def register_codec(codec: Codec) -> None:
    """Register a custom codec (used by tests and extensions)."""
    _CODECS[codec.name] = codec
