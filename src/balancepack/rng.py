"""Seeded randomness and hashing shared across the toolkit.

All stochastic code draws from Philox, a counter-based generator whose
output is a pure function of its 128-bit key. Keys are built from
(seed, stream, index), so independent substreams (per purpose, per
shard) can be evaluated in any order or in parallel and still produce
byte-identical results.
"""

from __future__ import annotations

from collections.abc import Iterable

# hashlib's blake2b is this builtin; importing it from hashlib would also map
# OpenSSL into every command, about 3.4 MB of RSS that nothing here uses.
from _blake2 import blake2b

import numpy as np

# Stream labels; each (seed, stream, index) triple owns one Philox key.
STREAM_LENGTHS = 0
STREAM_SOURCES = 1
STREAM_CONCEPTS = 2
STREAM_SAMPLING = 4

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def philox(seed: int, stream: int = 0, index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream, index). Same key, same bytes."""
    key = np.array(
        [seed & _MASK64, ((stream & _MASK32) << 32) | (index & _MASK32)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _digests(sample_ids: Iterable[str], seed: int) -> np.ndarray:
    """8-byte BLAKE2b of each id keyed by the seed, read little-endian.

    The keyed state is built once and copied per id; the digests go into
    one ``bytearray``, 8 bytes an id, with no object per id.
    """
    keyed = blake2b(digest_size=8, key=(seed & _MASK64).to_bytes(8, "little"))
    digests = bytearray()
    for sample_id in sample_ids:
        h = keyed.copy()
        h.update(sample_id.encode("utf-8", "surrogatepass"))  # a lone surrogate hashes as 3 bytes
        digests += h.digest()
    return np.frombuffer(digests, dtype="<u8")


def shard_of(sample_id: str, seed: int, shards: int) -> int:
    """Deterministic shard for a sample id under a seeded keyed hash."""
    return int(_digests([sample_id], seed)[0]) % shards


def shards_of(sample_ids: Iterable[str], seed: int, shards: int) -> np.ndarray:
    """``shard_of`` of every id, as int64; ``shards`` must fit an int64."""
    return (_digests(sample_ids, seed) % np.uint64(shards)).astype(np.int64)
