"""Seeded randomness and hashing shared across the toolkit.

All stochastic code draws from Philox, a counter-based generator whose
output is a pure function of its 128-bit key. Keys are built from
(seed, stream, index), so independent substreams (per purpose, per
shard) can be evaluated in any order or in parallel and still produce
byte-identical results.
"""

from __future__ import annotations

import hashlib

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


def shard_of(sample_id: str, seed: int, shards: int) -> int:
    """Deterministic shard for a sample id under a seeded keyed hash."""
    digest = hashlib.blake2b(
        sample_id.encode("utf-8", "surrogatepass"),  # a lone surrogate hashes as 3 bytes
        digest_size=8,
        key=(seed & _MASK64).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little") % shards
