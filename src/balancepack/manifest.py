"""Corpus manifests: ingestion, token-length estimation, synthetic generation.

Visual token counts follow the 2x2 patch-grouping arithmetic: an image is
cut into patch-size tiles (ceiling per side), then adjacent groups of
merge x merge tiles collapse into one token (again ceiling per side, so
boundary remainder tiles are kept). A 336x336 image at patch 14 and
merge 2 yields a 24x24 grid -> 12x12 = 144 visual tokens.

The synthetic generator reproduces, at desk scale, a long-tail corpus:
concept marginals follow Zipf(s), per-sample concepts are k distinct
draws without replacement, and lengths follow a truncated log-normal.
The k concepts are drawn column by column: each next concept falls in
one of the gaps between the concepts already drawn, picked by gap mass
(a difference of suffix sums of the Zipf weights), then placed inside
the gap by binary search, at O(k^2 + k log m) per sample.
Generation runs shard by shard on one thread, each fixed-size shard on
Philox substreams keyed by (seed, stream, shard), filling preallocated
columns: the records come back as one ``SynthRecords`` (an int64 length
column and an int32 source-code column; ids are ``synth-%08d`` of the
row) and the concepts as one ``concepts.Assignments``. No ``SampleRecord``
is built unless a row is read. ``emit_manifest`` writes ``SynthRecords``
from the columns a block of rows at a time, and ``SynthRecords.take``
gives the pack items of chosen rows, so the pipeline never holds one
object per sample.

Both manifest readers run one loop over parsed lines that skips blank
lines, since manifests come from outside the toolkit, and rejects
duplicate ids. ``load_pack_items`` reads straight into one
``packing.ItemColumns``: the record rules and the token arithmetic apply
to the parsed fields, with no ``SampleRecord`` or ``PackItem`` per line.
Blocks of ``emit_manifest``'s compact rich records are parsed by their
grammar (``jsonl.canonical_lines``), and ``_rule_breaks`` and
``_token_length`` apply to their columns as they do to one record's
fields; the loop takes the file from the first block that is not, and
appends its rows to the same columns.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .concepts import Assignments
from .jsonl import (
    INT,
    TEXT,
    canonical,
    canonical_lines,
    json_field,
    json_lines,
    json_value,
    output,
    write_rows,
)
from .packing import ItemColumns, Items, check_length, source_codes
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

# The largest float64 below 2**63: a drawn length <= length_max <= this
# bound casts to int64 exactly.
_LENGTH_LIMIT = 2**63 - 1024

# Least log-normal mass the length window may hold: the generator redraws
# every length outside the window, so a window with (almost) no mass
# would have it redraw (almost) forever.
_MIN_WINDOW_MASS = 1e-3

# The compact rich record form emit_manifest writes: id, source and
# text_tokens, then an optional image, patch and merge.
_RECORD_LINE = (
    r'\{"id":"(%s)","source":"(%s)","text_tokens":(%s)' % (TEXT, TEXT, INT)
    + r'(?:,"image":\{"w":(%s),"h":(%s)\})?(?:,"patch":(%s))?(?:,"merge":(%s))?\}\n' % ((INT,) * 4)
)
_RECORD_LINES = canonical(_RECORD_LINE)
_RECORD_TOKENS = re.compile(_RECORD_LINE)
# Image sides, patch and merge below this keep the token arithmetic of a
# block within int64: a grid is below 2**62 cells and text_tokens below 10**18.
_SIDE_LIMIT = 2**31


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
        json_value("id", self.id, str)
        json_value("source", self.source, str)
        _record_rules(self.id, self.text_tokens, self.image, self.patch, self.merge)


def _rule_breaks(text_tokens, has_image, w, h, patch, merge) -> tuple:
    """The rules every manifest record obeys, in the order checked, as
    (broken, reason): ``broken`` is a bool for one record's fields and a
    bool column for columns of them. Without an image, w and h are 0."""
    return (
        (text_tokens < 0, "text_tokens must be >= 0"),
        ((patch < 1) | (merge < 1), "patch and merge must be >= 1"),
        (has_image & ((w < patch) | (h < patch)), "image {w}x{h} smaller than one {patch}px patch"),
        ((text_tokens == 0) & (has_image == 0), "empty record (no text tokens, no image)"),
    )


def _record_rules(
    sample_id: str, text_tokens: int, image: tuple[int, int] | None, patch: int, merge: int
) -> int:
    """Raise for a size that is not a JSON integer, with the readers' text,
    then for the first rule of ``_rule_breaks`` that a record breaks, then
    for a token length beyond int64 (``check_length``); return that length."""
    w, h = (0, 0) if image is None else image
    sides = () if image is None else (("w", w), ("h", h))
    for key, value in (*sides, ("text_tokens", text_tokens), ("patch", patch), ("merge", merge)):
        json_value(key, value, int)
    for broken, reason in _rule_breaks(text_tokens, image is not None, w, h, patch, merge):
        if broken:
            raise ValueError(f"record {sample_id!r}: " + reason.format(w=w, h=h, patch=patch))
    return check_length(sample_id, _token_length(text_tokens, w, h, patch, merge))


def _token_length(text_tokens, w, h, patch, merge):
    """Text tokens plus the merged patch grid of a w x h image (0 x 0 for
    none), for one record's integers or for int64 columns of them."""
    grid_w, grid_h = -(-w // patch), -(-h // patch)
    return text_tokens + -(-grid_w // merge) * -(-grid_h // merge)


def estimate_tokens(rec: SampleRecord) -> int:
    """Total token length: text tokens plus merged patch-grid visual tokens."""
    return _record_rules(rec.id, rec.text_tokens, rec.image, rec.patch, rec.merge)


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
        if not self.zipf_exponent >= 0:  # NaN too
            raise ValueError("zipf_exponent must be >= 0")
        if not (math.isfinite(self.length_mu) and math.isfinite(self.length_sigma)):
            raise ValueError("length_mu and length_sigma must be finite")
        if self.length_sigma < 0:
            raise ValueError("length_sigma must be >= 0")
        if not 1 <= self.length_min <= self.length_max:
            raise ValueError("need 1 <= length_min <= length_max")
        if self.length_max > _LENGTH_LIMIT:
            raise ValueError(
                f"length_max={self.length_max} is beyond the int64 range: lengths are drawn "
                f"as float64, and {_LENGTH_LIMIT} is the largest that casts to int64"
            )
        lo, hi = self.length_min, self.length_max
        mass = _window_mass(self.length_mu, self.length_sigma, lo, hi)
        if mass < _MIN_WINDOW_MASS:
            raise ValueError(
                f"log-normal(mu={self.length_mu}, sigma={self.length_sigma}) lengths put "
                f"mass {mass:.3g} in the window [{lo}, {hi}], below {_MIN_WINDOW_MASS}"
            )
        if not self.sources:
            raise ValueError("source mixture must not be empty")
        if not all(math.isfinite(p) for _, p in self.sources):
            raise ValueError("source probabilities must be finite")
        total = sum(p for _, p in self.sources)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"source probabilities sum to {total!r}, not 1")
        if any(p < 0 for _, p in self.sources):
            raise ValueError("source probabilities must be non-negative")


def _window_mass(mu: float, sigma: float, lo: int, hi: int) -> float:
    """P(lo <= exp(X) <= hi) for X ~ Normal(mu, sigma), as the generator draws.

    With sigma 0 every draw is ``np.exp(mu)``, so the test uses that value.
    """
    if sigma == 0:
        with np.errstate(over="ignore"):
            return float(lo <= np.exp(np.float64(mu)) <= hi)
    z_lo, z_hi = ((math.log(b) - mu) / (sigma * math.sqrt(2)) for b in (lo, hi))
    return 0.5 * (math.erf(z_hi) - math.erf(z_lo))


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
    """Per row, k distinct indices by sequential weighted sampling without
    replacement, drawn one column at a time for all rows at once.

    ``weights`` must be non-increasing (Zipf rank weights), with at least
    k of them positive. A row's j picks so far, kept sorted, split [0, m)
    into j+1 gaps; gap [a, b) has mass ``suffix[a] - suffix[b]``, where
    ``suffix[i] = weights[i:].sum()``. Because the weights do not
    increase, that difference is exact to about m ulp, unlike
    ``1 - taken``, which cancels. The target ``u * R`` (R the row's mass
    left) picks the first gap whose cumulative mass passes it, so an
    empty gap is never picked; ``searchsorted`` on ``-suffix`` finds the
    index inside that gap, and clipping it into [a, b-1] makes a repeated
    index impossible. One ``rng.random((rows, k))`` feeds every column.

    Cost O(k^2 + k log m) per row, with no retries, so it does not depend
    on the exponent; memory O(rows * k). At m = 1000 and 16,384 rows it
    is faster than an exponential race over the whole vocabulary up to
    k of about 32. Rows come back ascending (= weight-descending for Zipf
    weights).
    """
    m = weights.size
    positive = int(np.count_nonzero(weights))
    if positive < k:
        raise ValueError(f"only {positive} of {m} concept weights are positive, fewer than k={k}")
    if k == m:
        return np.broadcast_to(np.arange(m, dtype=np.int64), (rows, m)).copy()
    suffix = np.zeros(m + 1)
    suffix[:m] = np.cumsum(weights[::-1])[::-1]
    neg_suffix = -suffix
    u = rng.random((rows, k))
    picked = np.empty((rows, 0), dtype=np.int64)
    for j in range(k):
        starts = np.concatenate([np.zeros((rows, 1), dtype=np.int64), picked + 1], axis=1)
        ends = np.concatenate([picked, np.full((rows, 1), m, dtype=np.int64)], axis=1)
        # cum[:, g] is the mass before gap g; cum[:, -1] the mass left.
        cum = np.zeros((rows, j + 2))
        np.cumsum(suffix[starts] - suffix[ends], axis=1, out=cum[:, 1:])
        # A target below the mass left, even where u * R rounds up to R,
        # is passed first by the cumulative mass of a gap that has mass.
        total = cum[:, -1:]
        target = np.minimum(u[:, j : j + 1] * total, np.nextafter(total, 0.0))
        gap = (cum[:, 1:] <= target).sum(axis=1, keepdims=True)
        a = np.take_along_axis(starts, gap, axis=1)
        b = np.take_along_axis(ends, gap, axis=1)
        inside = suffix[a] - (target - np.take_along_axis(cum, gap, axis=1))
        pick = np.clip(np.searchsorted(neg_suffix, -inside, side="right") - 1, a, b - 1)
        picked = np.sort(np.concatenate([picked, pick], axis=1), axis=1)
    return picked


@dataclass(frozen=True, eq=False)
class SynthRecords(Sequence[SampleRecord]):
    """Synthetic manifest records as columns: record i is
    ``SampleRecord(f"synth-{i:08d}", tags[source[i]], text_tokens[i])``,
    with no image and the default patch and merge. ``synth_corpus`` builds
    it with every length in [length_min, length_max], at least 1 and within
    int64, so no row is checked. ``len``, indexing and iteration build
    ``SampleRecord`` rows on demand; ``==`` compares rows with any sequence
    of rows."""

    text_tokens: np.ndarray  # int64[n]
    source: np.ndarray  # int32[n], codes into tags
    tags: tuple[str, ...]

    def __len__(self) -> int:
        return self.text_tokens.size

    def __getitem__(self, i: int) -> SampleRecord:
        i = range(len(self))[i]  # a negative i counts from the end, as for lists
        return SampleRecord(f"synth-{i:08d}", self.tags[self.source[i]], int(self.text_tokens[i]))

    def __iter__(self) -> Iterator[SampleRecord]:
        ids = map("synth-%08d".__mod__, range(len(self)))
        sources = map(self.tags.__getitem__, self.source.tolist())
        return map(SampleRecord, ids, sources, self.text_tokens.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def take(self, rows: np.ndarray) -> Items:
        """Pack items of records ``rows``, in order, as ``records_to_pack_items``
        builds them: a synth record's token length is its ``text_tokens``."""
        rows = np.asarray(rows, dtype=np.int64)
        bad = np.flatnonzero((rows < 0) | (rows >= len(self)))
        if bad.size:
            raise ValueError(f"record index {rows[bad[0]]} out of range [0, {len(self)})")
        ids = list(map("synth-%08d".__mod__, rows.tolist()))
        return Items(ids, self.text_tokens[rows], self.source[rows], self.tags)


def synth_corpus(cfg: SynthConfig) -> tuple[SynthRecords, Assignments]:
    """Generate a manifest plus concept assignments, fully seed-determined.

    Shards run in order, each on its own Philox substreams, and fill the
    columns shard-major.
    """
    n, k = cfg.n_samples, cfg.k
    concept_w = zipf_weights(cfg.vocab_size, cfg.zipf_exponent)
    code_of, tags = source_codes([tag for tag, _ in cfg.sources])  # a repeated tag is one source
    source_cdf = np.cumsum([p for _, p in cfg.sources])
    text_tokens = np.empty(n, dtype=np.int64)
    source = np.empty(n, dtype=np.int32)
    picked = np.empty((n, k), dtype=np.int64)
    for shard in range(-(-n // _GEN_SHARD)):
        rows = slice(shard * _GEN_SHARD, min((shard + 1) * _GEN_SHARD, n))
        count = rows.stop - rows.start
        text_tokens[rows] = _truncated_lognormal(
            philox(cfg.seed, STREAM_LENGTHS, shard),
            count,
            cfg.length_mu,
            cfg.length_sigma,
            cfg.length_min,
            cfg.length_max,
        )
        u_src = philox(cfg.seed, STREAM_SOURCES, shard).random(count)
        src_idx = np.minimum(np.searchsorted(source_cdf, u_src, side="right"), code_of.size - 1)
        source[rows] = code_of[src_idx]
        concept_rng = philox(cfg.seed, STREAM_CONCEPTS, shard)
        picked[rows] = _distinct_weighted_rows(concept_rng, count, concept_w, k)
    picked = picked.reshape(-1)
    assignments = Assignments(np.arange(0, picked.size + 1, k), picked, concept_w[picked])
    return SynthRecords(text_tokens, source, tags), assignments


def emit_manifest(path: str | Path, records: Iterable[SampleRecord]) -> None:
    """JSON Lines manifest; patch/merge are written only when non-default.

    ``SynthRecords`` are written from their columns, with each source tag
    JSON-encoded once; the bytes are those of the row loop below. Rows with
    a repeated id, which the manifest readers reject, are refused.
    """
    with output(path) as f:
        if isinstance(records, SynthRecords):
            tags = np.array([json.dumps(tag) for tag in records.tags], dtype=object)

            def columns(lo: int, hi: int) -> tuple:
                return range(lo, hi), tags[records.source[lo:hi]], records.text_tokens[lo:hi]

            line = '{"id":"synth-%08d","source":%s,"text_tokens":%d}\n'
            write_rows(f, line, len(records), columns)
            return
        seen: set[str] = set()
        for rec in records:
            if rec.id in seen:
                raise ValueError(f"duplicate id {rec.id!r}")
            seen.add(rec.id)
            obj: dict = {"id": rec.id, "source": rec.source, "text_tokens": rec.text_tokens}
            if rec.image is not None:
                obj["image"] = {"w": rec.image[0], "h": rec.image[1]}
            if rec.patch != DEFAULT_PATCH:
                obj["patch"] = rec.patch
            if rec.merge != DEFAULT_MERGE:
                obj["merge"] = rec.merge
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _record_fields(obj) -> tuple[str, str, int, tuple[int, int] | None, int, int]:
    """(id, source, text_tokens, image, patch, merge) of one parsed manifest
    line, with strict JSON types."""
    sample_id = json_field(obj, "id", str)
    image = json_field(obj, "image", dict, None)
    if image is not None:
        image = (json_field(image, "w", int), json_field(image, "h", int))
    return (
        sample_id,
        json_field(obj, "source", str, ""),
        json_field(obj, "text_tokens", int, 0),
        image,
        json_field(obj, "patch", int, DEFAULT_PATCH),
        json_field(obj, "merge", int, DEFAULT_MERGE),
    )


def _parse_lines(records: Iterator, parse, seen: set[str]) -> Iterator:
    """Yield ``parse`` of each parsed line; an id in ``seen`` raises, and
    each new one joins it."""
    for obj in records:
        value = parse(obj)  # reads obj["id"] as a JSON string first
        if obj["id"] in seen:
            raise ValueError(f"duplicate id {obj['id']!r}")
        seen.add(obj["id"])
        yield value


def ingest_manifest(path: str | Path) -> list[SampleRecord]:
    """Parse and validate a manifest; rejects duplicate ids and any field
    whose JSON type differs from what emit_manifest writes."""
    with json_lines(path, skip_blank=True) as records:
        return list(_parse_lines(records, lambda obj: SampleRecord(*_record_fields(obj)), set()))


def _pack_fields(obj) -> tuple[str, int, str]:
    """(id, token length, source) of one packing-manifest line: the plain
    form's ``length`` under ``check_length``, or a rich record's under the
    rules of ``SampleRecord``."""
    if type(obj) is dict and "length" in obj:
        sample_id = json_field(obj, "id", str)
        length = json_field(obj, "length", int)
        source = json_field(obj, "source", str, "")
        check_length(sample_id, length)
    else:
        sample_id, source, text_tokens, image, patch, merge = _record_fields(obj)
        length = _record_rules(sample_id, text_tokens, image, patch, merge)
    return sample_id, length, source


def load_pack_items(path: str | Path) -> Items:
    """Read a packing manifest into columns.

    Accepts the plain form {"id", "source", "length"} or the richer
    manifest records, whose lengths are computed as estimate_tokens does.
    Types are strict: ids and sources are JSON strings, lengths and token
    counts JSON integers. Blank lines are skipped; no ``SampleRecord`` or
    ``PackItem`` is built: blocks and lines append to one ``ItemColumns``.
    """
    seen: set[str] = set()
    columns = ItemColumns()
    convert = partial(_record_block, seen=seen, columns=columns)
    with canonical_lines(path, _RECORD_LINES, convert) as records:
        for fields in _parse_lines(records, _pack_fields, seen):
            columns.append(*fields)
    return columns.items()


def _ints(tokens: Sequence[str], default: str = "") -> np.ndarray:
    """An int64 column of integer tokens of at most 18 digits, which numpy
    parses exactly; ``default`` where a token is empty."""
    return np.fromstring(",".join([t or default for t in tokens]), dtype=np.int64, sep=",")


def _record_block(text: str, row: int, seen: set[str], columns: ItemColumns) -> None:
    """Append the ids, token lengths and sources of a block of compact rich
    records to ``columns``; the ids join ``seen``. A record that breaks a
    rule of ``_rule_breaks``, an id already seen, or a size that could
    overflow int64 raises, with ``seen`` and ``columns`` left as they were."""
    ids, sources, text_tokens, w, h, patch, merge = zip(*_RECORD_TOKENS.findall(text))
    has_image = np.fromiter(map(bool, w), bool, len(w))
    text_tokens, w, h = _ints(text_tokens), _ints(w, "0"), _ints(h, "0")
    patch, merge = _ints(patch, str(DEFAULT_PATCH)), _ints(merge, str(DEFAULT_MERGE))
    if np.any(np.stack([w, h, patch, merge]) >= _SIDE_LIMIT):
        raise ValueError("a size may overflow int64")
    rules = _rule_breaks(text_tokens, has_image, w, h, patch, merge)
    if any(np.any(broken) for broken, _ in rules):
        raise ValueError("a record breaks a rule")
    new = set(ids)
    if len(new) != len(ids) or not seen.isdisjoint(new):
        raise ValueError("repeated id")
    seen |= new
    columns.extend(ids, _token_length(text_tokens, w, h, patch, merge), sources)


def records_to_pack_items(records: Sequence[SampleRecord]) -> Items:
    columns = ItemColumns()
    for r in records:
        columns.append(r.id, estimate_tokens(r), r.source)
    return columns.items()
