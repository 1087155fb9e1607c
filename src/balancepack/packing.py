"""Offline consolidation of variable-length samples into fixed-capacity packs.

Pack items are columns, not one object per sample: an ``Items`` holds the
ids, an int64 length column and an int32 source-code column into a tag
table, checked once with vector operations. A ``PackPlan`` holds the
packed items in emitted order, pack bounds and the overflow items, also
as columns. ``PackItem`` is a row view built on demand (``Items[i]``,
``PackPlan.packs``). Items read from a file or built from rows grow in
one ``ItemColumns``, which numbers source tags in first-seen order.

One engine, ``pack_bucketed``, does all packing. It shards items by a
seeded hash of sample_id, sorts each shard by length descending (ties by
sample_id ascending; a repeated id raises ValueError, so a plan never
depends on input order), routes the items into geometric length buckets,
first-fit packs every bucket under the per-pack sample/source caps, then
runs one refill pass that jointly re-packs a shard's underfilled packs
(kept only when it reduces the pack count). Only shards and buckets that
hold items are visited. Shard outputs concatenate in shard order; with
``threads`` > 1 the shards run on a fork pool of worker processes, with
the same plan.
Strategy "ffd" (``pack_ffd``, the baseline) is this engine with one
bucket and one shard, which skips the refill pass (with one bucket it
could not merge anything): plain first-fit decreasing.

First fit (``_ffd``) is indexed under every cap by one kind of index, a
max-tree over remaining capacity: one list-backed tree over the packs
that can take any source, and, under a source cap, one dict-backed tree
per source over the packs whose source slots are all used and that hold
it. The leftmost hit of the two is the pack a left-to-right scan would
pick, at O(log P) per item. Sorting, bucketing, fills and the assembly
of the plan run as numpy operations over the columns; only the placement
loop is per item.

Items longer than the capacity are never truncated; they divert to an
overflow list. Every emitted pack represents exactly ``capacity`` tokens
after padding. ``load_plan`` accepts only what ``emit_plan`` writes, read
through ``jsonl.json_lines``, which rejects blank lines.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import parallel
from .jsonl import _REQUIRED, json_field, json_lines, output, refuse_unknown, write_rows
from .rng import shards_of

DEFAULT_CAPACITY = 8192
_INT64_MAX = 2**63 - 1


def check_length(sample_id: str, length: int) -> int:
    """``length``, if at least 1 and within an int64 column."""
    if length < 1:
        raise ValueError(f"item {sample_id!r} has length {length}, must be >= 1")
    if length > _INT64_MAX:
        raise ValueError(f"item {sample_id!r} has length {length}, beyond the int64 range")
    return length


@dataclass(frozen=True)
class PackItem:
    """One row of an ``Items``: identity, token length, source tag."""

    sample_id: str
    length: int
    source: str = ""

    def __post_init__(self) -> None:
        check_length(self.sample_id, self.length)


def source_codes(sources: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes of source tags into a tag table in first-seen order."""
    code = {tag: i for i, tag in enumerate(dict.fromkeys(sources))}
    return np.fromiter(map(code.__getitem__, sources), np.int32, len(sources)), tuple(code)


@dataclass(frozen=True, eq=False)
class Items(Sequence[PackItem]):
    """Pack items as columns: item i is ``ids[i]``, ``length[i]`` tokens
    long, with source tag ``tags[source[i]]``. The constructor checks once,
    with vector operations, that the columns have equal lengths, every
    length is at least 1 and every source code names a tag. ``len``,
    indexing and iteration build ``PackItem`` rows on demand."""

    ids: list[str] = field(default_factory=list)
    length: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))  # int64[n]
    source: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))  # int32[n]
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.length.dtype != np.int64 or self.source.dtype != np.int32:
            raise ValueError("length must be an int64 column and source an int32 column")
        if self.length.shape != (n,) or self.source.shape != (n,):
            raise ValueError(
                f"columns of unequal length: {n} ids, {self.length.size} lengths, "
                f"{self.source.size} sources"
            )
        if n == 0:
            return
        if self.length.min() < 1:
            i = int(np.argmax(self.length < 1))
            raise ValueError(f"item {self.ids[i]!r} has length {self.length[i]}, must be >= 1")
        if self.source.min() < 0 or self.source.max() >= len(self.tags):
            i = int(np.argmax((self.source < 0) | (self.source >= len(self.tags))))
            raise ValueError(
                f"item {self.ids[i]!r} has source code {self.source[i]}, "
                f"outside its {len(self.tags)} tags"
            )

    @classmethod
    def of(cls, rows: Iterable[PackItem]) -> Items:
        """Checked columns of hand-built rows; an ``Items`` is returned as is.
        A length that is not an integer is rejected, not truncated."""
        if isinstance(rows, Items):
            return rows
        columns = ItemColumns()
        for i, r in enumerate(rows):
            if not isinstance(r.length, (int, np.integer)):
                raise ValueError(f"row {i}: length {r.length!r} is not an integer")
            columns.append(r.sample_id, r.length, r.source)
        return columns.items()

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> PackItem:
        i = range(len(self))[i]  # a negative i counts from the end, as for lists
        return PackItem(self.ids[i], int(self.length[i]), self.tags[self.source[i]])

    def __iter__(self) -> Iterator[PackItem]:
        tags = self.tags
        sources = [tags[c] for c in self.source.tolist()]
        return map(PackItem, self.ids, self.length.tolist(), sources)

    def take(self, rows: np.ndarray) -> Items:
        """Item j of the result is item ``rows[j]``; the tag table is shared.
        The ids are gathered as an object column, with no Python int per row."""
        ids = np.array(self.ids, dtype=object)[rows].tolist()
        return Items(ids, self.length[rows], self.source[rows], self.tags)


class ItemColumns:
    """Columns of ``Items`` as they are read: one id list, an int64 length
    column and int32 source codes into tags numbered in first-seen order,
    which is the order ``source_codes`` gives. Rows join one at a time
    (``append``) or a block at a time (``extend``); ``items`` checks the
    columns once and hands the id list to the ``Items``."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.lengths = array("q")
        self.codes = array("i")
        self.tags: dict[str, int] = {}

    def append(self, sample_id: str, length: int, source: str) -> None:
        self.ids.append(sample_id)
        self.lengths.append(length)
        self.codes.append(self.tags.setdefault(source, len(self.tags)))

    def extend(self, ids: Sequence[str], length: np.ndarray, sources: Sequence[str]) -> None:
        """Append a block: its ids, int64 lengths and source tags."""
        tags = self.tags
        for tag in dict.fromkeys(sources):
            tags.setdefault(tag, len(tags))
        codes = np.fromiter(map(tags.__getitem__, sources), np.int32, len(sources))
        self.ids += ids
        self.lengths.frombytes(length.tobytes())
        self.codes.frombytes(codes.tobytes())

    def items(self) -> Items:
        length, source = np.frombuffer(self.lengths, np.int64), np.frombuffer(self.codes, np.int32)
        return Items(self.ids, length, source, tuple(self.tags))


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
        for name in ("capacity", "shards"):  # both index int64 and uint64 columns
            if getattr(self, name) > _INT64_MAX:
                raise ValueError(f"{name}={getattr(self, name)} is beyond the int64 range")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class PackPlan:
    """Partition of the input into capacity-bounded packs plus overflow.

    Pack p holds ``packed[bounds[p]:bounds[p + 1]]``, in emitted order;
    ``overflowed`` holds the items longer than the capacity. The columns
    are the plan. ``packs`` and ``overflow`` are read-only row views, built
    once and then the same lists; an edit to them does not reach the
    columns, and ``validate`` and ``emit_plan`` refuse a plan whose views
    were edited. Build a plan of hand-made rows with ``PackPlan.of``.
    """

    capacity: int
    packed: Items = field(default_factory=Items)
    bounds: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))  # int64[P + 1]
    overflowed: Items = field(default_factory=Items)

    def __post_init__(self) -> None:
        b = self.bounds
        rising = b.ndim == 1 and b.size >= 1 and b[0] == 0 and not np.any(b[1:] < b[:-1])
        if not rising or b[-1] != len(self.packed):
            raise ValueError("bounds must rise from 0 to the number of packed items")
        PackingConfig(capacity=self.capacity)  # its capacity rule: >= 1 and within int64

    @classmethod
    def of(
        cls,
        capacity: int,
        packs: Iterable[Iterable[PackItem]] = (),
        overflow: Iterable[PackItem] = (),
    ) -> PackPlan:
        """A plan of hand-built rows, pack by pack."""
        packs = [list(p) for p in packs]
        sizes = np.array([len(p) for p in packs], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        packed = Items.of([it for p in packs for it in p])
        return cls(capacity, packed, bounds, Items.of(overflow))

    @property
    def num_packs(self) -> int:
        return self.bounds.size - 1

    @cached_property
    def fills(self) -> np.ndarray:
        """Tokens per pack, int64[P]."""
        ends = np.concatenate(([0], np.cumsum(self.packed.length)))
        return ends[self.bounds[1:]] - ends[self.bounds[:-1]]

    def _pack_rows(self) -> list[list[PackItem]]:
        rows = list(self.packed)
        b = self.bounds.tolist()
        return [rows[lo:hi] for lo, hi in zip(b, b[1:])]

    @cached_property
    def packs(self) -> list[list[PackItem]]:
        return self._pack_rows()

    @cached_property
    def overflow(self) -> list[PackItem]:
        return list(self.overflowed)

    def _check_views(self) -> None:
        """Raise if ``packs`` or ``overflow`` was built and then edited."""
        views = self.__dict__
        if "packs" in views and views["packs"] != self._pack_rows():
            raise ValueError("plan.packs was edited; it is a read-only view of the columns")
        if "overflow" in views and views["overflow"] != list(self.overflowed):
            raise ValueError("plan.overflow was edited; it is a read-only view of the columns")

    def paddings(self) -> list[int]:
        return (self.capacity - self.fills).tolist()

    def num_items(self) -> int:
        return len(self.packed) + len(self.overflowed)

    def validate(self) -> None:
        """The plan rules, run by ``emit_plan`` and ``load_plan``: packs non-empty and
        within capacity, no id twice, overflow items past the capacity. Edited row
        views are refused first, then the first fault in pack order, then the overflow's."""
        self._check_views()
        faults = []
        empty = np.flatnonzero(self.bounds[1:] == self.bounds[:-1])
        if empty.size:
            faults.append((int(empty[0]), 0, f"pack {empty[0]} is empty"))
        over = np.flatnonzero(self.fills > self.capacity)
        if over.size:
            p = int(over[0])
            faults.append(
                (p, 1, f"pack {p} holds {self.fills[p]} tokens > capacity {self.capacity}")
            )
        ids = self.packed.ids + self.overflowed.ids
        # A set takes about 40 bytes an id and would set ``pack``'s peak RSS; a
        # repeat needs equal hashes, so the set is built only when two ids hash alike.
        hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
        hashes.sort()
        if np.any(hashes[1:] == hashes[:-1]) and len(set(ids)) != len(ids):
            seen: set[str] = set()
            for j, sample_id in enumerate(ids):
                if sample_id in seen:
                    break
                seen.add(sample_id)
            pack = int(np.searchsorted(self.bounds, j, side="right")) - 1
            faults.append((pack, 2, f"partition violation: sample {sample_id!r} repeated"))
        fits = np.flatnonzero(self.overflowed.length <= self.capacity)
        if fits.size:
            it = self.overflowed[int(fits[0])]
            fault = f"overflow item {it.sample_id!r} of length {it.length} fits the capacity"
            faults.append((self.num_packs, 3, f"{fault} {self.capacity}"))
        if faults:
            raise ValueError(min(faults)[2])


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


def _id_rank(ids: list[str]) -> np.ndarray:
    """Rank of each id in Python string order; a repeated id is refused.

    The ids sort as an object column, which compares them with Python's
    ``<``: a numpy "<U" array would drop trailing NUL characters and tie
    "a" with "a\\x00".
    """
    n = len(ids)
    column = np.array(ids, dtype=object)
    order = np.argsort(column, kind="stable")
    in_order = column[order]
    repeated = np.flatnonzero(in_order[1:] == in_order[:-1])
    if repeated.size:
        raise ValueError(f"sample {in_order[repeated[0]]!r} repeated; pack items need distinct ids")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def _sparse_set(tree: dict[int, int], root: int, pos: int, value: int) -> None:
    """Set heap position ``pos`` of a dict-backed max-tree and its ancestors
    up to ``root``.

    Absent nodes read as -1, so the tree holds only the root paths of the
    leaves ever set.
    """
    tree[pos] = value
    get = tree.get
    while pos > root:
        sibling = get(pos ^ 1, -1)
        if sibling > value:
            value = sibling
        pos >>= 1
        tree[pos] = value


def _sparse_find(tree: dict[int, int], root: int, base: int, need: int) -> int:
    """Leftmost leaf under ``root`` of a dict-backed max-tree, whose leaves
    start at heap position ``base``, with value >= need, or -1."""
    get = tree.get
    if get(root, -1) < need:
        return -1
    pos = root
    while pos < base:
        pos *= 2
        if get(pos, -1) < need:
            pos += 1
    return pos - base


def _ffd(
    lengths: list[int],
    sources: list[int],
    capacity: int,
    max_samples: int | None,
    max_sources: int | None,
) -> tuple[list[int], int]:
    """First fit of items in the given order, O(log P) per item: each
    item's pack index, and the number of packs opened.

    Every index is a max-tree over per-pack remaining capacity that
    answers "leftmost pack with room"; a pack that reaches the sample cap
    is closed, with room -1. Leaf p of every tree sits at heap position
    ``base + p``, with ``base`` the power of two >= the number of items,
    since no more packs open than there are items. The trees answer from
    ``root``, the node over leaves 0 to ``base // root - 1``, which climbs
    one level when the open packs outgrow it; no node is ever re-keyed.

    The any-source tree ``tree`` is one list of ``2 * base`` entries,
    allocated once, with its find and set inlined. After a climb, the new
    pack's leaf is set in it up to the new root before the next find, so
    the climb re-seeds only the dict trees.

    Under a source cap, a pack takes an item of source ``s`` when it has a
    free source slot or already holds ``s``. Packs with a free slot stay in
    ``tree``. A pack that fills its last slot leaves it and enters, for
    each source it holds, that source's dict-backed tree in ``full``
    (``_sparse_set``/``_sparse_find``). The first fit is the leftmost hit
    of the any-source tree and the item's source tree, which is the pack a
    left-to-right scan picks. The dict trees hold only their members' root
    paths, so their memory is O(P * max_sources * log P) however many
    sources there are.

    A source tree is not set when an item lands in a pack already in it:
    room only shrinks, so every node still bounds the room below it from
    above. A find that lands on a pack with less room than the item needs
    sets that leaf to the pack's room and looks again. Every pack left of
    the hit sits under a node whose bound, so also whose room, is below
    the need, so the hit is the leftmost pack with room. Each such set
    follows a placement that left the leaf stale, so the cost stays
    O(log P) per item and source slot.
    """
    remaining: list[int] = []  # room per pack, -1 once closed
    count: list[int] = []  # items per pack, kept under a sample cap
    held: list[set[int]] = []  # sources per pack, kept under a source cap
    full: dict[int, dict[int, int]] = {}
    base = root = 1 << max(len(lengths) - 1, 0).bit_length()
    tree = [-1] * (2 * base)
    placed: list[int] = []
    find, put = _sparse_find, _sparse_set
    for need, source in zip(lengths, sources):
        idx = -1
        if tree[root] >= need:
            pos = root
            while pos < base:
                pos *= 2
                if tree[pos] < need:
                    pos += 1
            idx = pos - base
        if max_sources is not None:
            sparse = full.get(source)
            if sparse is not None:
                hit = find(sparse, root, base, need)
                while hit != -1 and remaining[hit] < need:
                    # A stale leaf: set it to the pack's room, and look again.
                    put(sparse, root, base + hit, remaining[hit])
                    hit = find(sparse, root, base, need)
                if hit != -1 and (idx == -1 or hit < idx):
                    idx = hit
        if idx == -1:
            idx = len(remaining)
            if idx >= base // root:
                # The new root's right subtree holds no open pack yet.
                root >>= 1
                for sparse in full.values():
                    sparse[root] = sparse.get(2 * root, -1)
            remaining.append(capacity)
            if max_samples is not None:
                count.append(0)
            if max_sources is not None:
                held.append(set())
        placed.append(idx)
        value = remaining[idx] - need
        if max_samples is not None:
            count[idx] = n = count[idx] + 1
            if n >= max_samples:
                value = -1
        remaining[idx] = value
        pos = base + idx
        if max_sources is not None:
            held_sources = held[idx]
            if len(held_sources) == max_sources:
                continue  # its source trees keep an upper bound of its room
            held_sources.add(source)
            if len(held_sources) == max_sources:
                for src in held_sources:
                    sparse = full.get(src)
                    if sparse is None:
                        sparse = full[src] = {}
                    put(sparse, root, pos, value)
                value = -1  # the pack leaves the any-source tree
        tree[pos] = value
        while pos > root:
            sibling = tree[pos ^ 1]
            if sibling > value:
                value = sibling
            pos >>= 1
            tree[pos] = value
    return placed, len(remaining)


def _bucket_index(length: np.ndarray, capacity: int, num_buckets: int) -> np.ndarray:
    # Bucket b holds lengths in (capacity/2^(b+1), capacity/2^b]; the last
    # bucket also absorbs everything shorter. An item's bucket counts the
    # b in 1..num_buckets-1 with length * 2^b <= capacity, i.e. with
    # length <= capacity >> b (the bound shrinks as b grows). Past
    # capacity.bit_length() every bound is 0, below any length.
    top = min(num_buckets - 1, capacity.bit_length())
    bounds = np.array([capacity >> b for b in range(top, 0, -1)], dtype=np.int64)
    return bounds.size - np.searchsorted(bounds, length, side="left")


def _runs(keys: np.ndarray) -> Iterator[tuple[int, int]]:
    """(lo, hi) of each run of equal values of a sorted column, in order."""
    ends = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), keys.size]
    return zip(ends, ends[1:]) if keys.size else iter(())


def _pack_shard(
    length: np.ndarray, source: np.ndarray, config: PackingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Pack one shard's in-range items, given in packing order.

    Returns the positions in emitted order and the size of each pack.
    """
    caps = (config.capacity, config.max_samples_per_pack, config.max_sources_per_pack)
    lengths, sources = length.tolist(), source.tolist()
    # In packing order the bucket index never decreases: each bucket is a run.
    pack_of: list[int] = []
    num_packs = 0
    for lo, hi in _runs(_bucket_index(length, config.capacity, config.num_buckets)):
        placed, opened = _ffd(lengths[lo:hi], sources[lo:hi], *caps)
        pack_of += [p + num_packs for p in placed] if num_packs else placed
        num_packs += opened
    pack_of = np.array(pack_of, dtype=np.int64)

    # One refill pass: dismantle packs below the utilization threshold and
    # re-pack their items jointly. Applied only when it actually merges
    # residuals (fewer packs); otherwise the original packs stand. With one
    # bucket it is skipped, as it could never apply: first fit over the
    # residual packs' items, in their original order, rebuilds those packs.
    if config.num_buckets > 1:
        fills = np.bincount(pack_of, weights=length, minlength=num_packs)
        residual = fills < config.min_utilization * config.capacity
        num_residual = int(np.count_nonzero(residual))
        if num_residual >= 2:
            # Residual items, in position order, which is packing order.
            moved = np.flatnonzero(residual[pack_of])
            picked = moved.tolist()
            placed, opened = _ffd(
                [lengths[i] for i in picked], [sources[i] for i in picked], *caps
            )
            if opened < num_residual:
                kept = ~residual
                renumber = np.cumsum(kept) - 1
                pack_of = renumber[pack_of]
                num_kept = num_packs - num_residual
                pack_of[moved] = np.add(placed, num_kept)
                num_packs = num_kept + opened
    # No pack mixes kept and moved items, so position order is placement order.
    return np.argsort(pack_of, kind="stable"), np.bincount(pack_of, minlength=num_packs)


def pack_bucketed(
    items: Iterable[PackItem] | Items, config: PackingConfig, *, threads: int = 1
) -> PackPlan:
    """Hash-sharded, length-bucketed packing with a residual refill pass.

    Shards are independent: each is bucketed, FFD-packed under the
    configured caps, and refilled; outputs concatenate in shard-index
    order. The plan is a pure function of the item set and config, and
    never depends on ``threads``. With ``threads`` > 1 the shards that hold
    in-range items run on a fork pool of at most that many processes, one
    per shard and core at most (``parallel.starmap``): packing is pure
    Python and holds the interpreter lock, so threads would not speed it up.
    """
    items = Items.of(items)
    length, source = items.length, items.source
    if config.shards == 1:
        shard = np.zeros(len(items), dtype=np.int64)
    else:
        shard = shards_of(items.ids, config.seed, config.shards)
    rank = _id_rank(items.ids)
    # Shard by shard, each in packing order; overflow keeps that order.
    order = np.lexsort((rank, -length, shard))
    too_long = length[order] > config.capacity
    in_range = order[~too_long]
    runs = [in_range[lo:hi] for lo, hi in _runs(shard[in_range])]
    tasks = ((length[at], source[at], config) for at in runs)
    packed = parallel.starmap(_pack_shard, tasks, parallel.workers(threads, len(runs)))
    # The empty heads keep the concatenations typed when every item overflows.
    emitted = [in_range[:0]] + [at[shard_order] for at, (shard_order, _) in zip(runs, packed)]
    sizes = [np.zeros(0, np.int64)] + [shard_sizes for _, shard_sizes in packed]
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(sizes)))).astype(np.int64)
    return PackPlan(
        config.capacity, items.take(np.concatenate(emitted)), bounds, items.take(order[too_long])
    )


def pack(
    items: Iterable[PackItem] | Items, config: PackingConfig, *, threads: int = 1
) -> PackPlan:
    """Pack under ``config``; ``threads`` > 1 packs shards on worker
    processes (``pack_bucketed``), with the same plan.

    Strategy "ffd" is the bucket path with one bucket and one shard, which
    skips the refill pass: that is plain first-fit decreasing.
    """
    if config.strategy == "ffd":
        config = replace(config, num_buckets=1, shards=1)
    return pack_bucketed(items, config, threads=threads)


def pack_ffd(
    items: Iterable[PackItem] | Items,
    capacity: int,
    *,
    max_samples_per_pack: int | None = None,
    max_sources_per_pack: int | None = None,
) -> PackPlan:
    """First-fit-decreasing baseline: ``pack`` with strategy "ffd".

    Items are sorted by length descending, ties by sample_id ascending
    (a repeated id raises ValueError); each goes to the first pack with
    room, or opens a new pack. Items longer than the capacity overflow.
    """
    config = PackingConfig(
        capacity=capacity,
        strategy="ffd",
        max_samples_per_pack=max_samples_per_pack,
        max_sources_per_pack=max_sources_per_pack,
    )
    return pack(items, config)


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
    fills = plan.fills
    return _stats(
        num_packs=plan.num_packs,
        packed=len(plan.packed),
        overflow=len(plan.overflowed),
        tokens=int(fills.sum()),
        capacity=plan.capacity,
        successes=int(np.count_nonzero(fills >= config.min_utilization * plan.capacity)),
    )


def emit_plan(
    plan: PackPlan, path: str | Path, config: PackingConfig | None = None
) -> PackingStats:
    """Write a plan as JSON Lines: one record per pack, then a trailer.

    Pack records carry per-item offsets (prefix sums of lengths) and the
    padding count so downstream loaders can build attention-segment
    boundaries. The trailer holds overflow items and summary stats, which
    are also returned. Every line is what ``json.dumps`` with separators
    (",", ":") writes for the record; a pack's first item carries the text
    that opens it and its last item the text that closes it. Nothing is
    written unless the plan passes ``PackPlan.validate``, as ``load_plan``
    does; edited row views fail it, because the columns are written, not the views.
    """
    plan.validate()
    bounds, cap, packed = plan.bounds, plan.capacity, plan.packed
    stats = packing_stats(plan, config or PackingConfig(capacity=cap))
    before = np.concatenate(([0], np.cumsum(packed.length)))  # tokens before each item
    tags = np.array([encode_basestring_ascii(tag) for tag in packed.tags], dtype=object)

    def columns(lo: int, hi: int) -> tuple:
        rows = np.arange(lo, hi)
        p = np.searchsorted(bounds, rows, side="right") - 1
        opens, closes = bounds[p] == rows, bounds[p + 1] == rows + 1
        head = np.full(hi - lo, ",", dtype=object)
        head[opens] = ['{"pack":%d,"capacity":%d,"items":[' % (q, cap) for q in p[opens].tolist()]
        tail = np.full(hi - lo, "", dtype=object)
        tail[closes] = ['],"pad":%d}\n' % pad for pad in (cap - plan.fills[p[closes]]).tolist()]
        ids = list(map(encode_basestring_ascii, packed.ids[lo:hi]))
        offsets = before[lo:hi] - before[bounds[p]]
        return head, ids, packed.length[lo:hi], offsets, tags[packed.source[lo:hi]], tail

    with output(path) as f:
        write_rows(f, '%s{"id":%s,"len":%d,"off":%d,"src":%s}%s', len(packed), columns)
        ov = plan.overflowed
        fields = zip(ov.ids, ov.length.tolist(), ov.source.tolist())
        overflow = [dict(id=i, len=n, src=ov.tags[c]) for i, n, c in fields]
        trailer = {"capacity": cap, "overflow": overflow, "stats": stats.to_dict()}
        f.write(json.dumps(trailer, separators=(",", ":")) + "\n")
    return stats


# The keys emit_plan writes in a pack record, a trailer and their items.
_PACK_FIELDS = ("pack", "capacity", "items", "pad")
_TRAILER_FIELDS = ("capacity", "overflow", "stats")
_ITEM_FIELDS = ("id", "len", "off", "src")
_OVERFLOW_FIELDS = ("id", "len", "src")


def _plan_fields(r, fields: tuple[str, ...], unwritten: list[dict]) -> tuple[str, int, str]:
    """id, length and source of one plan item, with strict JSON types.

    A well-formed item, with the keys ``fields`` the writer writes, passes
    one inline test; anything else goes through ``json_field`` and
    ``check_length``, which decide and name a type or length fault. An item
    that passes those has another key or no "src": it joins ``unwritten``,
    for ``_refuse_unwritten`` to refuse after the other checks of its line.
    """
    try:
        sample_id, length, source = r["id"], r["len"], r["src"]
        if (
            type(sample_id) is str
            and type(length) is int
            and type(source) is str
            and 0 < length <= _INT64_MAX
            and len(r) == len(fields)
        ):
            return sample_id, length, source
    except (TypeError, KeyError):
        pass
    sample_id = json_field(r, "id", str)
    length = json_field(r, "len", int)
    source = json_field(r, "src", str, "")
    check_length(sample_id, length)
    unwritten.append(r)
    return sample_id, length, source


def _refuse_unwritten(unwritten: list[dict], fields: tuple[str, ...]) -> None:
    """Refuse the first item held by ``_plan_fields``: a key outside
    ``fields``, else the missing "src"."""
    for r in unwritten:
        refuse_unknown(r, fields)
        json_field(r, "src", str)


def load_plan(path: str | Path) -> PackPlan:
    """Read a plan file back, validating structure, the partition and the trailer.

    Every record holds exactly the keys emit_plan writes, each of the JSON
    type it writes. Overflow items must exceed the capacity, and the
    trailer's capacity and stats must agree with the packs read before it.
    ``success_rate`` depends on a min_utilization the file does not record,
    so it is only checked to be a float in [0, 1], or null for a plan with
    no packs. Items go straight into columns; no ``PackItem``, per-item
    ``int`` or per-item source ``str`` is kept.
    """
    packed, overflow = ItemColumns(), ItemColumns()
    bounds = [0]
    unwritten: list[dict] = []  # items held for ``_refuse_unwritten``
    capacity: int | None = None
    saw_trailer = False
    tokens = 0
    with json_lines(path) as records:
        for rec in records:
            if saw_trailer:
                raise ValueError("records after the trailer")
            if type(rec) is not dict:
                raise ValueError("unrecognized record")
            if "pack" in rec:
                pack_idx = json_field(rec, "pack", int)
                cap = json_field(rec, "capacity", int)
                raw_items = json_field(rec, "items", list)
                pad = json_field(rec, "pad", int)
                if pack_idx != len(bounds) - 1:
                    raise ValueError(f"pack index {pack_idx}, expected {len(bounds) - 1}")
                if capacity is None:
                    capacity = cap
                elif cap != capacity:
                    raise ValueError(f"capacity {cap} != {capacity}")
                off = 0
                for r in raw_items:
                    sample_id, length, source = _plan_fields(r, _ITEM_FIELDS, unwritten)
                    item_off = r.get("off")
                    if type(item_off) is not int:
                        item_off = json_field(r, "off", int)
                    if item_off != off:
                        raise ValueError(f"offset {item_off} for {sample_id!r}, expected {off}")
                    off += length
                    packed.append(sample_id, length, source)
                if pad != cap - off:
                    raise ValueError(f"padding {pad}, expected {cap - off}")
                if len(rec) != len(_PACK_FIELDS):  # every field was read above
                    refuse_unknown(rec, _PACK_FIELDS)
                if unwritten:
                    _refuse_unwritten(unwritten, _ITEM_FIELDS)
                bounds.append(len(packed.lengths))
                tokens += off
            elif "stats" in rec:
                saw_trailer = True
                cap = json_field(rec, "capacity", int)
                if capacity is None:
                    capacity = cap
                elif cap != capacity:
                    raise ValueError(f"trailer capacity {cap} != pack capacity {capacity}")
                raw_overflow = json_field(rec, "overflow", list)
                for r in raw_overflow:
                    sample_id, length, source = _plan_fields(r, _OVERFLOW_FIELDS, unwritten)
                    if length <= capacity:
                        raise ValueError(
                            f"overflow item {sample_id!r} of length {length} "
                            f"fits the capacity {capacity}"
                        )
                    overflow.append(sample_id, length, source)
                stats = json_field(rec, "stats", dict)
                num_packs, num_packed = len(bounds) - 1, len(packed.lengths)
                want = _stats(num_packs, num_packed, len(overflow.lengths), tokens, capacity, None)
                written = want.to_dict()
                for key, value in written.items():
                    got = stats.get(key, _REQUIRED)
                    if key != "success_rate" and (type(got) is not type(value) or got != value):
                        raise ValueError(f"trailer stats {key} is {got!r}, the plan gives {value!r}")
                rate = stats.get("success_rate", _REQUIRED)
                if num_packs == 0 and rate is not None:
                    raise ValueError(f"trailer stats success_rate is {rate!r}, the plan has no packs")
                if num_packs and not (type(rate) is float and 0.0 <= rate <= 1.0):
                    raise ValueError(f"trailer stats success_rate is {rate!r}, not a float in [0, 1]")
                refuse_unknown(stats, written)
                refuse_unknown(rec, _TRAILER_FIELDS)
                _refuse_unwritten(unwritten, _OVERFLOW_FIELDS)
            else:
                raise ValueError("unrecognized record")
        if not saw_trailer:
            raise ValueError("plan file is missing its stats trailer (truncated?)")
        assert capacity is not None
        plan = PackPlan(capacity, packed.items(), np.array(bounds, np.int64), overflow.items())
        plan.validate()
    return plan
