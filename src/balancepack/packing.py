"""Offline consolidation of variable-length samples into fixed-capacity packs.

One engine, ``pack_bucketed``, does all packing. It shards items by a
seeded hash of sample_id, sorts each shard by length descending (ties by
sample_id ascending), routes the items into geometric length buckets,
first-fit packs every bucket under the per-pack sample/source caps, then
runs one refill pass that jointly re-packs a shard's underfilled packs
(kept only when it reduces the pack count). Shard outputs concatenate in
shard order. Strategy "ffd" (``pack_ffd``, the baseline) is this engine
with one bucket and one shard, where the refill pass never applies: plain
first-fit decreasing.

First fit is indexed under every cap by one kind of index, a dict-backed
max-tree over remaining capacity (``_FirstFitBins``): one tree over the
packs that can take any source, and, under a source cap, one per source
over the packs whose source slots are all used and that hold it. The
leftmost hit of the two is the pack a left-to-right scan would pick, at
O(log P) per item.

Items longer than the capacity are never truncated; they divert to an
overflow list. Every emitted pack represents exactly ``capacity`` tokens
after padding. ``load_plan`` accepts only what ``emit_plan`` writes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .rng import shard_of

DEFAULT_CAPACITY = 8192


@dataclass(frozen=True)
class PackItem:
    """One sample in a packing manifest: identity, token length, source tag."""

    sample_id: str
    length: int
    source: str = ""

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"item {self.sample_id!r} has length {self.length}, must be >= 1")


@dataclass(frozen=True)
class PackingConfig:
    capacity: int = DEFAULT_CAPACITY
    strategy: str = "bucket"
    num_buckets: int = 6
    max_samples_per_pack: int | None = None
    min_utilization: float = 0.9
    max_sources_per_pack: int | None = None
    shards: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.strategy not in ("ffd", "bucket"):
            raise ValueError(f"unknown strategy {self.strategy!r}, expected 'ffd' or 'bucket'")
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if not 0.0 < self.min_utilization <= 1.0:
            raise ValueError("min_utilization must be in (0, 1]")
        if self.max_samples_per_pack is not None and self.max_samples_per_pack < 1:
            raise ValueError("max_samples_per_pack must be >= 1")
        if self.max_sources_per_pack is not None and self.max_sources_per_pack < 1:
            raise ValueError("max_sources_per_pack must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PackPlan:
    """Partition of the input into capacity-bounded packs plus overflow."""

    capacity: int
    packs: list[list[PackItem]] = field(default_factory=list)
    overflow: list[PackItem] = field(default_factory=list)

    def paddings(self) -> list[int]:
        return [self.capacity - sum(it.length for it in pack) for pack in self.packs]

    def num_items(self) -> int:
        return sum(len(p) for p in self.packs) + len(self.overflow)

    def validate(self) -> None:
        seen: set[str] = set()
        for i, pack in enumerate(self.packs):
            if not pack:
                raise ValueError(f"pack {i} is empty")
            total = sum(it.length for it in pack)
            if total > self.capacity:
                raise ValueError(f"pack {i} holds {total} tokens > capacity {self.capacity}")
            for it in pack:
                if it.sample_id in seen:
                    raise ValueError(f"partition violation: sample {it.sample_id!r} repeated")
                seen.add(it.sample_id)
        for it in self.overflow:
            if it.sample_id in seen:
                raise ValueError(f"partition violation: sample {it.sample_id!r} repeated")
            seen.add(it.sample_id)


@dataclass
class PackingStats:
    num_samples: int
    num_packs: int
    overflow_count: int
    empty: bool
    compression_ratio: float | None
    compression_ratio_packed: float | None
    utilization: float | None
    success_rate: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _packing_order(items: Iterable[PackItem]) -> list[PackItem]:
    # Length descending, ties by sample_id ascending: two stable passes
    # avoid building a key tuple per item.
    ordered = sorted(items, key=attrgetter("sample_id"))
    ordered.sort(key=attrgetter("length"), reverse=True)
    return ordered


def _sparse_set(tree: dict[int, int], pos: int, value: int) -> None:
    """Set heap position ``pos`` of a dict-backed max-tree and its ancestors.

    Absent nodes read as -1, so the tree holds only the root paths of the
    leaves ever set.
    """
    tree[pos] = value
    get = tree.get
    while pos > 1:
        sibling = get(pos ^ 1, -1)
        if sibling > value:
            value = sibling
        pos >>= 1
        tree[pos] = value


def _sparse_find(tree: dict[int, int], size: int, need: int) -> int:
    """Leftmost leaf of a dict-backed max-tree with value >= need, or -1."""
    get = tree.get
    if get(1, -1) < need:
        return -1
    pos = 1
    while pos < size:
        pos *= 2
        if get(pos, -1) < need:
            pos += 1
    return pos - size


class _FirstFitBins:
    """First-fit placement over an ordered pack list, O(log P) per item.

    Every index is a dict-backed max-tree over per-pack remaining capacity
    (``_sparse_set``/``_sparse_find``) that answers "leftmost pack with
    room"; a pack that reaches the sample cap is closed by setting its
    leaf to -1.

    Under a source cap, a pack takes an item of source ``s`` when it has a
    free source slot or already holds ``s``. Packs with a free slot stay in
    the any-source tree ``_tree``. A pack that fills its last slot leaves
    it and enters, for each source it holds, that source's tree in
    ``_full``. The first fit is the leftmost hit of the any-source tree and
    the item's source tree, which is the pack a left-to-right scan picks.
    Trees hold only their members' root paths, so memory is
    O(P * max_sources * log P) however many sources there are.
    """

    def __init__(
        self,
        capacity: int,
        max_samples: int | None = None,
        max_sources: int | None = None,
    ) -> None:
        self.capacity = capacity
        self.max_samples = max_samples
        self.max_sources = max_sources
        self.packs: list[list[PackItem]] = []
        self._remaining: list[int] = []
        self._sources: list[set[str]] = []
        self._size = 1
        self._tree: dict[int, int] = {}
        self._full: dict[str, dict[int, int]] = {}

    def _grow(self) -> None:
        # Doubling the leaf count makes each old tree the left subtree of a
        # new root: a node at depth d moves from heap position p to p + 2^d.
        def shifted(tree: dict[int, int]) -> dict[int, int]:
            out = {pos + (1 << (pos.bit_length() - 1)): value for pos, value in tree.items()}
            if out:
                out[1] = out[2]
            return out

        self._size *= 2
        self._tree = shifted(self._tree)
        self._full = {src: shifted(tree) for src, tree in self._full.items()}

    def place(self, item: PackItem) -> None:
        need = item.length
        max_sources = self.max_sources
        idx = _sparse_find(self._tree, self._size, need)
        if max_sources is not None:
            sparse = self._full.get(item.source)
            if sparse is not None:
                hit = _sparse_find(sparse, self._size, need)
                if hit != -1 and (idx == -1 or hit < idx):
                    idx = hit
        if idx == -1:
            idx = len(self.packs)
            if idx >= self._size:
                self._grow()
            self.packs.append([])
            self._remaining.append(self.capacity)
            self._sources.append(set())
        pack = self.packs[idx]
        pack.append(item)
        self._remaining[idx] -= need
        value = self._remaining[idx]
        if self.max_samples is not None and len(pack) >= self.max_samples:
            value = -1
        sources = self._sources[idx]
        was_full = len(sources) == max_sources
        sources.add(item.source)
        pos = self._size + idx
        if max_sources is None or len(sources) < max_sources:
            _sparse_set(self._tree, pos, value)
            return
        if not was_full:
            _sparse_set(self._tree, pos, -1)
        full = self._full
        for src in sources:
            sparse = full.get(src)
            if sparse is None:
                sparse = full[src] = {}
            _sparse_set(sparse, pos, value)


def _ffd(
    ordered: Sequence[PackItem],
    capacity: int,
    max_samples: int | None,
    max_sources: int | None,
) -> list[list[PackItem]]:
    bins = _FirstFitBins(capacity, max_samples, max_sources)
    for it in ordered:
        bins.place(it)
    return bins.packs


def _bucket_index(length: int, capacity: int, num_buckets: int) -> int:
    # Bucket b holds lengths in (capacity/2^(b+1), capacity/2^b]; the last
    # bucket also absorbs everything shorter.
    b = 0
    while b < num_buckets - 1 and length * (1 << (b + 1)) <= capacity:
        b += 1
    return b


def _pack_shard(
    shard_items: list[PackItem], config: PackingConfig
) -> tuple[list[list[PackItem]], list[PackItem]]:
    ordered = _packing_order(shard_items)
    overflow = [it for it in ordered if it.length > config.capacity]
    in_range = [it for it in ordered if it.length <= config.capacity]

    buckets: list[list[PackItem]] = [[] for _ in range(config.num_buckets)]
    for it in in_range:
        buckets[_bucket_index(it.length, config.capacity, config.num_buckets)].append(it)

    caps = (config.capacity, config.max_samples_per_pack, config.max_sources_per_pack)
    packs = [p for bucket in buckets for p in _ffd(bucket, *caps)]

    # One refill pass: dismantle packs below the utilization threshold and
    # re-pack their items jointly. Applied only when it actually merges
    # residuals (fewer packs); otherwise the original packs stand. With one
    # bucket it never applies: first fit over the residual packs' items, in
    # their original order, rebuilds exactly those packs.
    threshold = config.min_utilization * config.capacity
    residual_at = [i for i, p in enumerate(packs) if sum(it.length for it in p) < threshold]
    if len(residual_at) >= 2:
        refilled = _ffd(_packing_order(it for i in residual_at for it in packs[i]), *caps)
        if len(refilled) < len(residual_at):
            residual_set = set(residual_at)
            packs = [p for i, p in enumerate(packs) if i not in residual_set] + refilled
    return packs, overflow


def pack_bucketed(
    items: Iterable[PackItem], config: PackingConfig, threads: int = 1
) -> PackPlan:
    """Hash-sharded, length-bucketed packing with a residual refill pass.

    Shards are independent: each is bucketed, FFD-packed under the
    configured caps, and refilled; outputs concatenate in shard-index
    order. The plan is a pure function of (items, config). Shards run one
    after another: packing is pure Python and holds the interpreter lock,
    so worker threads gave no speedup. ``threads`` is accepted for
    interface compatibility and has no effect.
    """
    shard_lists: list[list[PackItem]] = [[] for _ in range(config.shards)]
    if config.shards == 1:
        shard_lists[0] = list(items)
    else:
        for it in items:
            shard_lists[shard_of(it.sample_id, config.seed, config.shards)].append(it)

    plan = PackPlan(capacity=config.capacity)
    for shard_items in shard_lists:
        packs, overflow = _pack_shard(shard_items, config)
        plan.packs.extend(packs)
        plan.overflow.extend(overflow)
    return plan


def pack(items: Iterable[PackItem], config: PackingConfig, threads: int = 1) -> PackPlan:
    """Pack under ``config``. ``threads`` has no effect (see pack_bucketed).

    Strategy "ffd" is the bucket path with one bucket and one shard, where
    the refill pass never applies: that is plain first-fit decreasing.
    """
    if config.strategy == "ffd":
        config = replace(config, num_buckets=1, shards=1)
    return pack_bucketed(items, config, threads=threads)


def pack_ffd(
    items: Iterable[PackItem],
    capacity: int,
    *,
    max_samples_per_pack: int | None = None,
    max_sources_per_pack: int | None = None,
) -> PackPlan:
    """First-fit-decreasing baseline: ``pack`` with strategy "ffd".

    Items are sorted by length descending (ties by sample_id ascending);
    each goes to the first pack with room, or opens a new pack. Items
    longer than the capacity land in overflow.
    """
    config = PackingConfig(
        capacity=capacity,
        strategy="ffd",
        max_samples_per_pack=max_samples_per_pack,
        max_sources_per_pack=max_sources_per_pack,
    )
    return pack(items, config)


def pack_optimal_oracle(items: Sequence[PackItem], capacity: int) -> int:
    """Provably minimal pack count for up to 16 items (test oracle).

    Exact DP over item subsets tracking (packs used, fill of the last
    pack) with lexicographic minimization; O(2^n * n). A greedy upper
    bound short-circuits instances where the volume lower bound is tight.
    """
    n = len(items)
    if n > 16:
        raise ValueError(f"instance too large for the exhaustive oracle: {n} items > 16")
    if n == 0:
        return 0
    lengths = [it.length for it in items]
    if max(lengths) > capacity:
        raise ValueError("an item exceeds the capacity; no packing exists")

    total = sum(lengths)
    lower = -(-total // capacity)

    # Greedy first-fit on descending lengths, independent of pack_ffd.
    desc = sorted(lengths, reverse=True)
    fills: list[int] = []
    for length in desc:
        for i in range(len(fills)):
            if fills[i] + length <= capacity:
                fills[i] += length
                break
        else:
            fills.append(length)
    if len(fills) == lower:
        return lower

    full = 1 << n
    inf = n + 1
    packs_used = [inf] * full
    last_fill = [0] * full
    packs_used[0] = 1
    last_fill[0] = 0
    for mask in range(full):
        base_packs = packs_used[mask]
        if base_packs == inf:
            continue
        base_fill = last_fill[mask]
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            if base_fill + lengths[i] <= capacity:
                cand = (base_packs, base_fill + lengths[i])
            else:
                cand = (base_packs + 1, lengths[i])
            nxt = mask | bit
            if cand < (packs_used[nxt], last_fill[nxt]):
                packs_used[nxt], last_fill[nxt] = cand
    return packs_used[full - 1]


def _stats(
    num_packs: int,
    packed: int,
    overflow: int,
    tokens: int,
    capacity: int,
    successes: int | None,
) -> PackingStats:
    num_samples = packed + overflow
    if num_packs == 0:
        return PackingStats(
            num_samples=num_samples,
            num_packs=0,
            overflow_count=overflow,
            empty=True,
            compression_ratio=None,
            compression_ratio_packed=None,
            utilization=None,
            success_rate=None,
        )
    return PackingStats(
        num_samples=num_samples,
        num_packs=num_packs,
        overflow_count=overflow,
        empty=False,
        compression_ratio=num_samples / num_packs,
        compression_ratio_packed=packed / num_packs,
        utilization=tokens / (num_packs * capacity),
        success_rate=None if successes is None else successes / num_packs,
    )


def packing_stats(plan: PackPlan, config: PackingConfig) -> PackingStats:
    """Compression, utilization, and success-rate accounting for a plan."""
    fills = [sum(it.length for it in p) for p in plan.packs]
    threshold = config.min_utilization * plan.capacity
    return _stats(
        num_packs=len(plan.packs),
        packed=sum(len(p) for p in plan.packs),
        overflow=len(plan.overflow),
        tokens=sum(fills),
        capacity=plan.capacity,
        successes=sum(1 for fill in fills if fill >= threshold),
    )


def emit_plan(
    plan: PackPlan, path: str | Path, config: PackingConfig | None = None
) -> PackingStats:
    """Write a plan as JSON Lines: one record per pack, then a trailer.

    Pack records carry per-item offsets (prefix sums of lengths) and the
    padding count so downstream loaders can build attention-segment
    boundaries. The trailer holds overflow items and summary stats, which
    are also returned.
    """
    cfg = config if config is not None else PackingConfig(capacity=plan.capacity)
    stats = packing_stats(plan, cfg)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for pack_idx, items in enumerate(plan.packs):
            off = 0
            recs = []
            for it in items:
                recs.append({"id": it.sample_id, "len": it.length, "off": off, "src": it.source})
                off += it.length
            rec = {
                "pack": pack_idx,
                "capacity": plan.capacity,
                "items": recs,
                "pad": plan.capacity - off,
            }
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
        trailer = {
            "capacity": plan.capacity,
            "overflow": [
                {"id": it.sample_id, "len": it.length, "src": it.source}
                for it in plan.overflow
            ],
            "stats": stats.to_dict(),
        }
        f.write(json.dumps(trailer, separators=(",", ":")) + "\n")
    return stats


_REQUIRED = object()
_JSON_TYPE_NAMES = {int: "integer", float: "float", str: "string", list: "array", dict: "object"}


def json_field(obj: dict, key: str, kind: type, default=_REQUIRED):
    """``obj[key]``, required to be exactly JSON type ``kind``.

    ``obj`` must be a JSON object. Nothing is coerced: a float, a bool or a
    numeric string is not an integer, an integer is not a float, and a
    number is not a string. An absent key gives ``default`` or, without
    one, a ValueError.
    """
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"field {key!r} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _plan_item(rec: dict) -> PackItem:
    return PackItem(
        sample_id=json_field(rec, "id", str),
        length=json_field(rec, "len", int),
        source=json_field(rec, "src", str, ""),
    )


def load_plan(path: str | Path) -> PackPlan:
    """Read a plan file back, validating structure, the partition and the trailer.

    Every field must have the JSON type emit_plan writes. Overflow items
    must exceed the capacity, and the trailer's capacity and stats must
    agree with the packs read before it; ``success_rate`` is not checked,
    since it depends on a min_utilization the file does not record.
    """
    packs: list[list[PackItem]] = []
    overflow: list[PackItem] = []
    capacity: int | None = None
    saw_trailer = False
    packed = tokens = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            if saw_trailer:
                raise ValueError(f"{path}: line {lineno}: records after the trailer")
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: malformed JSON: {e}") from None
            try:
                if type(rec) is not dict:
                    raise ValueError("unrecognized record")
                if "pack" in rec:
                    pack_idx = json_field(rec, "pack", int)
                    cap = json_field(rec, "capacity", int)
                    raw_items = json_field(rec, "items", list)
                    pad = json_field(rec, "pad", int)
                    if pack_idx != len(packs):
                        raise ValueError(f"pack index {pack_idx}, expected {len(packs)}")
                    if capacity is None:
                        capacity = cap
                    elif cap != capacity:
                        raise ValueError(f"capacity {cap} != {capacity}")
                    items = []
                    off = 0
                    for r in raw_items:
                        it = _plan_item(r)
                        item_off = json_field(r, "off", int)
                        if item_off != off:
                            raise ValueError(
                                f"offset {item_off} for {it.sample_id!r}, expected {off}"
                            )
                        off += it.length
                        items.append(it)
                    if pad != cap - off:
                        raise ValueError(f"padding {pad}, expected {cap - off}")
                    packs.append(items)
                    packed += len(items)
                    tokens += off
                elif "stats" in rec:
                    saw_trailer = True
                    cap = json_field(rec, "capacity", int)
                    if capacity is None:
                        capacity = cap
                    elif cap != capacity:
                        raise ValueError(f"trailer capacity {cap} != pack capacity {capacity}")
                    for r in json_field(rec, "overflow", list):
                        it = _plan_item(r)
                        if it.length <= capacity:
                            raise ValueError(
                                f"overflow item {it.sample_id!r} of length {it.length} "
                                f"fits the capacity {capacity}"
                            )
                        overflow.append(it)
                    stats = json_field(rec, "stats", dict)
                    want = _stats(len(packs), packed, len(overflow), tokens, capacity, None)
                    for key, value in want.to_dict().items():
                        got = stats.get(key, _REQUIRED)
                        if key != "success_rate" and (type(got) is not type(value) or got != value):
                            raise ValueError(
                                f"trailer stats {key} is {got!r}, the plan gives {value!r}"
                            )
                else:
                    raise ValueError("unrecognized record")
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    if not saw_trailer:
        raise ValueError(f"{path}: plan file is missing its stats trailer (truncated?)")
    assert capacity is not None
    plan = PackPlan(capacity=capacity, packs=packs, overflow=overflow)
    plan.validate()
    return plan
