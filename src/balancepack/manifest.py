"""Corpus manifests: ingestion, token-length estimation, synthetic generation.

Visual token counts follow the 2x2 patch-grouping arithmetic: an image is
cut into patch-size tiles (ceiling per side), then adjacent groups of
merge x merge tiles collapse into one token (again ceiling per side, so
boundary remainder tiles are kept). A 336x336 image at patch 14 and
merge 2 yields a 24x24 grid -> 12x12 = 144 visual tokens.

The synthetic generator reproduces, at desk scale, a long-tail corpus:
concept marginals follow Zipf(s), per-sample concepts are k distinct
draws without replacement, and lengths follow a truncated log-normal.
Generation runs in fixed-size shards with Philox substreams keyed by
(seed, stream, shard), so output never depends on worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .concepts import ConceptAssignment
from .packing import PackItem, json_field
from .rng import STREAM_CONCEPTS, STREAM_LENGTHS, STREAM_SOURCES, philox

DEFAULT_PATCH = 14
DEFAULT_MERGE = 2

# Declared reconstruction of the corpus length profile: mean ~745 tokens,
# consistent with an 8192-token capacity packing ~11 samples per row.
DEFAULT_LENGTH_MU = math.log(700.0)
DEFAULT_LENGTH_SIGMA = 0.35
DEFAULT_LENGTH_MIN = 32
DEFAULT_LENGTH_MAX = 8192

_GEN_SHARD = 16384
_ROW_CHUNK = 2048


@dataclass(frozen=True)
class SampleRecord:
    """Manifest entry: identity, source tag, and token-length components."""

    id: str
    source: str
    text_tokens: int
    image: tuple[int, int] | None = None
    patch: int = DEFAULT_PATCH
    merge: int = DEFAULT_MERGE

    def __post_init__(self) -> None:
        if self.text_tokens < 0:
            raise ValueError(f"record {self.id!r}: text_tokens must be >= 0")
        if self.patch < 1 or self.merge < 1:
            raise ValueError(f"record {self.id!r}: patch and merge must be >= 1")
        if self.image is not None:
            w, h = self.image
            if w < self.patch or h < self.patch:
                raise ValueError(
                    f"record {self.id!r}: image {w}x{h} smaller than one {self.patch}px patch"
                )
        if self.text_tokens == 0 and self.image is None:
            raise ValueError(f"record {self.id!r}: empty record (no text tokens, no image)")


def estimate_tokens(rec: SampleRecord) -> int:
    """Total token length: text tokens plus merged patch-grid visual tokens."""
    if rec.image is None:
        return rec.text_tokens
    w, h = rec.image
    grid_w = -(-w // rec.patch)
    grid_h = -(-h // rec.patch)
    visual = -(-grid_w // rec.merge) * -(-grid_h // rec.merge)
    return rec.text_tokens + visual


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int
    vocab_size: int = 1000
    k: int = 5
    zipf_exponent: float = 1.5
    length_mu: float = DEFAULT_LENGTH_MU
    length_sigma: float = DEFAULT_LENGTH_SIGMA
    length_min: int = DEFAULT_LENGTH_MIN
    length_max: int = DEFAULT_LENGTH_MAX
    sources: tuple[tuple[str, float], ...] = (("web", 0.5), ("docs", 0.3), ("images", 0.2))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not 1 <= self.k <= self.vocab_size:
            raise ValueError(f"k={self.k} out of range [1, {self.vocab_size}]")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if self.length_sigma < 0:
            raise ValueError("length_sigma must be >= 0")
        if not 1 <= self.length_min <= self.length_max:
            raise ValueError("need 1 <= length_min <= length_max")
        if not self.sources:
            raise ValueError("source mixture must not be empty")
        total = sum(p for _, p in self.sources)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"source probabilities sum to {total!r}, not 1")
        if any(p < 0 for _, p in self.sources):
            raise ValueError("source probabilities must be non-negative")

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "vocab_size": self.vocab_size,
            "k": self.k,
            "zipf_exponent": self.zipf_exponent,
            "length_mu": self.length_mu,
            "length_sigma": self.length_sigma,
            "length_min": self.length_min,
            "length_max": self.length_max,
            "sources": {tag: p for tag, p in self.sources},
            "seed": self.seed,
        }


def zipf_weights(vocab_size: int, exponent: float) -> np.ndarray:
    """Normalized rank weights p(r) ~ r^-s; concept index = rank - 1."""
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    w = ranks ** -float(exponent)
    return w / w.sum()


def _truncated_lognormal(
    rng: np.random.Generator, size: int, mu: float, sigma: float, lo: int, hi: int
) -> np.ndarray:
    values = np.exp(rng.normal(mu, sigma, size=size))
    bad = np.flatnonzero((values < lo) | (values > hi))
    while bad.size:
        values[bad] = np.exp(rng.normal(mu, sigma, size=bad.size))
        bad = bad[(values[bad] < lo) | (values[bad] > hi)]
    return np.rint(values).astype(np.int64)


def _distinct_weighted_rows(
    rng: np.random.Generator, rows: int, weights: np.ndarray, k: int
) -> np.ndarray:
    """Per row, k distinct indices via exponential-race keys over weights.

    Taking the k smallest -ln(u)/w keys reproduces sequential weighted
    sampling without replacement. Rows come back index-sorted ascending
    (= weight-descending for Zipf weights).
    """
    m = weights.size
    out = np.empty((rows, k), dtype=np.int64)
    for start in range(0, rows, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, rows)
        u = rng.random((stop - start, m))
        keys = -np.log(u) / weights
        if k < m:
            chosen = np.argpartition(keys, k - 1, axis=1)[:, :k]
        else:
            chosen = np.broadcast_to(np.arange(m), (stop - start, m)).copy()
        out[start:stop] = np.sort(chosen, axis=1)
    return out


def synth_corpus(
    cfg: SynthConfig, threads: int = 1
) -> tuple[list[SampleRecord], list[ConceptAssignment]]:
    """Generate a manifest plus concept assignments, fully seed-determined.

    Shards can run on parallel workers; output is shard-major and
    independent of ``threads``.
    """
    concept_w = zipf_weights(cfg.vocab_size, cfg.zipf_exponent)
    source_tags = [tag for tag, _ in cfg.sources]
    source_cdf = np.cumsum([p for _, p in cfg.sources])
    n_shards = -(-cfg.n_samples // _GEN_SHARD)

    def gen_shard(shard: int) -> tuple[list[SampleRecord], list[ConceptAssignment]]:
        base = shard * _GEN_SHARD
        count = min(_GEN_SHARD, cfg.n_samples - base)
        lengths = _truncated_lognormal(
            philox(cfg.seed, STREAM_LENGTHS, shard),
            count,
            cfg.length_mu,
            cfg.length_sigma,
            cfg.length_min,
            cfg.length_max,
        )
        u_src = philox(cfg.seed, STREAM_SOURCES, shard).random(count)
        src_idx = np.minimum(
            np.searchsorted(source_cdf, u_src, side="right"), len(source_tags) - 1
        )
        concept_rows = _distinct_weighted_rows(
            philox(cfg.seed, STREAM_CONCEPTS, shard), count, concept_w, cfg.k
        )
        records = [
            SampleRecord(
                id=f"synth-{base + i:08d}",
                source=source_tags[src_idx[i]],
                text_tokens=int(lengths[i]),
            )
            for i in range(count)
        ]
        assignments = [
            ConceptAssignment(
                sample_index=base + i,
                concepts=tuple((int(c), float(concept_w[c])) for c in concept_rows[i]),
            )
            for i in range(count)
        ]
        return records, assignments

    if threads > 1 and n_shards > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(gen_shard, range(n_shards)))
    else:
        parts = [gen_shard(s) for s in range(n_shards)]

    all_records: list[SampleRecord] = []
    all_assignments: list[ConceptAssignment] = []
    for records, assignments in parts:
        all_records.extend(records)
        all_assignments.extend(assignments)
    return all_records, all_assignments


def emit_manifest(path: str | Path, records: Iterable[SampleRecord]) -> None:
    """JSON Lines manifest; patch/merge are written only when non-default."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            obj: dict = {"id": rec.id, "source": rec.source, "text_tokens": rec.text_tokens}
            if rec.image is not None:
                obj["image"] = {"w": rec.image[0], "h": rec.image[1]}
            if rec.patch != DEFAULT_PATCH:
                obj["patch"] = rec.patch
            if rec.merge != DEFAULT_MERGE:
                obj["merge"] = rec.merge
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _record_from_json(obj) -> SampleRecord:
    """A manifest record from one parsed line, with strict JSON types."""
    sample_id = json_field(obj, "id", str)
    image = json_field(obj, "image", dict, None)
    if image is not None:
        image = (json_field(image, "w", int), json_field(image, "h", int))
    return SampleRecord(
        id=sample_id,
        source=json_field(obj, "source", str, ""),
        text_tokens=json_field(obj, "text_tokens", int, 0),
        image=image,
        patch=json_field(obj, "patch", int, DEFAULT_PATCH),
        merge=json_field(obj, "merge", int, DEFAULT_MERGE),
    )


def _parse_lines(path: str | Path, parse, id_of) -> list:
    """Apply ``parse`` to each non-blank JSON line; errors and duplicate
    ids (``id_of`` a parsed value) name the line."""
    out = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: malformed JSON: {e}") from None
            try:
                value = parse(obj)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
            sample_id = id_of(value)
            if sample_id in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate id {sample_id!r}")
            seen.add(sample_id)
            out.append(value)
    return out


def ingest_manifest(path: str | Path) -> list[SampleRecord]:
    """Parse and validate a manifest; rejects duplicate ids and any field
    whose JSON type differs from what emit_manifest writes."""
    return _parse_lines(path, _record_from_json, attrgetter("id"))


def _pack_item_from_json(obj) -> PackItem:
    if type(obj) is dict and "length" in obj:
        return PackItem(
            sample_id=json_field(obj, "id", str),
            length=json_field(obj, "length", int),
            source=json_field(obj, "source", str, ""),
        )
    rec = _record_from_json(obj)
    return PackItem(sample_id=rec.id, length=estimate_tokens(rec), source=rec.source)


def load_pack_items(path: str | Path) -> list[PackItem]:
    """Read a packing manifest.

    Accepts the plain form {"id", "source", "length"} or the richer
    manifest records, whose lengths are computed via estimate_tokens.
    Types are strict: ids and sources are JSON strings, lengths and token
    counts JSON integers.
    """
    return _parse_lines(path, _pack_item_from_json, attrgetter("sample_id"))


def records_to_pack_items(records: Sequence[SampleRecord]) -> list[PackItem]:
    return [
        PackItem(sample_id=r.id, length=estimate_tokens(r), source=r.source) for r in records
    ]
