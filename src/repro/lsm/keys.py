"""Primary-key codec and comparison helpers.

Primary keys are either 64-bit integers or strings (homogeneous per dataset).
They appear in row pages, secondary-index runs, and component metadata, so the
codec lives in its own module.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

from ..model.errors import StorageError

#: Identifier of the partition-routing hash scheme, recorded in dataset
#: manifests so a reopened datastore can refuse to route with a different
#: function than the one that placed the data.
KEY_HASH_SCHEME = "crc32-keycodec-v1"

_KEY_INT = 0
_KEY_STRING = 1


def encode_key(key, out: bytearray) -> None:
    """Append one primary key to ``out``."""
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise StorageError(f"unsupported primary key type {type(key).__name__!r}")
    if isinstance(key, int):
        out.append(_KEY_INT)
        out.extend(struct.pack("<q", key))
    else:
        raw = key.encode("utf-8")
        out.append(_KEY_STRING)
        out.extend(struct.pack("<I", len(raw)))
        out.extend(raw)


def decode_key(data: bytes, offset: int) -> Tuple[object, int]:
    """Decode one primary key; returns ``(key, next_offset)``."""
    kind = data[offset]
    offset += 1
    if kind == _KEY_INT:
        return struct.unpack_from("<q", data, offset)[0], offset + 8
    if kind == _KEY_STRING:
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        return data[offset:offset + length].decode("utf-8"), offset + length
    raise StorageError(f"unknown key tag {kind}")


def stable_key_hash(key) -> int:
    """A process-stable hash of a primary key (partition routing).

    The builtin ``hash`` is salted per process for strings (PYTHONHASHSEED),
    so it must never decide data placement that outlives the process: a
    reopened datastore would route the same key to a different partition.
    CRC-32 over the canonical key encoding is stable across processes,
    platforms, and Python versions.

    Example:
        >>> stable_key_hash("user-42")
        690092174
        >>> stable_key_hash(42) == stable_key_hash(42)
        True
    """
    out = bytearray()
    encode_key(key, out)
    return zlib.crc32(bytes(out))
