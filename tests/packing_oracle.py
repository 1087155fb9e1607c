"""Object-based packing engine, writer and readers, kept as differential oracles.

This is the engine, the plan writer and the two readers as they were
before pack items became columns: one ``PackItem`` per sample, packs as
lists of items. ``FirstFitBins``, ``pack_shard`` and ``pack_bucketed``
are the earlier ``packing._FirstFitBins``, ``_pack_shard`` and
``pack_bucketed``; ``id_rank`` the earlier ``packing._id_rank``, which
sorted positions by a Python key; ``emit_plan``, ``load_pack_items`` and
``load_plan`` the earlier plan writer and manifest and plan readers,
``load_plan`` with the later rules that a plan holds only the keys the
writer writes, "src" in every item, a ``success_rate`` in [0, 1] (null
with no packs) and a capacity of at least 1.
``LinearFirstFitBins`` is older still: a segment tree without a source
cap and a left-to-right scan with one. ``dict_tree_ffd`` is the later
``packing._ffd``, whose any-source tree was a dict like the per-source
trees, and which set every source tree of a pack on each placement, with
its ``_sparse_set`` and ``_sparse_find`` as ``_rooted_set`` and
``_rooted_find``. The columnar engine, writer and readers must agree
with these on every input. ``pack_optimal_oracle`` is the exhaustive
optimum that first fit is measured against.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from balancepack.manifest import SampleRecord, estimate_tokens
from balancepack.packing import _REQUIRED, PackingConfig, PackItem, _stats, json_field
from balancepack.rng import shard_of

# ------------------------------------------------------------------ engine


def packing_order(items: Iterable[PackItem]) -> list[PackItem]:
    ordered = sorted(items, key=attrgetter("sample_id"))
    ordered.sort(key=attrgetter("length"), reverse=True)
    return ordered


def id_rank(ids: list[str]) -> np.ndarray:
    n = len(ids)
    order = np.fromiter(sorted(range(n), key=ids.__getitem__), np.int64, n)
    in_order = np.array(ids, dtype=object)[order]
    repeated = np.flatnonzero(in_order[1:] == in_order[:-1])
    if repeated.size:
        raise ValueError(f"sample {in_order[repeated[0]]!r} repeated; pack items need distinct ids")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def _sparse_set(tree: dict[int, int], pos: int, value: int) -> None:
    tree[pos] = value
    get = tree.get
    while pos > 1:
        sibling = get(pos ^ 1, -1)
        if sibling > value:
            value = sibling
        pos >>= 1
        tree[pos] = value


def _sparse_find(tree: dict[int, int], size: int, need: int) -> int:
    get = tree.get
    if get(1, -1) < need:
        return -1
    pos = 1
    while pos < size:
        pos *= 2
        if get(pos, -1) < need:
            pos += 1
    return pos - size


class FirstFitBins:
    """First fit over dict-backed max-trees: one over packs with a free
    source slot, one per source over the full-slotted packs holding it."""

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


class LinearFirstFitBins:
    """A segment tree over remaining capacity without a source cap; with
    one, a left-to-right scan of every pack."""

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
        self._tree = [-1, -1]

    def _grow(self) -> None:
        self._size *= 2
        tree = [-1] * (2 * self._size)
        for i, rem in enumerate(self._remaining):
            tree[self._size + i] = rem if self._open(i) else -1
        for i in range(self._size - 1, 0, -1):
            tree[i] = max(tree[2 * i], tree[2 * i + 1])
        self._tree = tree

    def _open(self, idx: int) -> bool:
        return self.max_samples is None or len(self.packs[idx]) < self.max_samples

    def _tree_set(self, idx: int, value: int) -> None:
        pos = self._size + idx
        self._tree[pos] = value
        pos //= 2
        while pos:
            self._tree[pos] = max(self._tree[2 * pos], self._tree[2 * pos + 1])
            pos //= 2

    def _tree_find(self, need: int) -> int:
        if self._tree[1] < need:
            return -1
        pos = 1
        while pos < self._size:
            pos *= 2
            if self._tree[pos] < need:
                pos += 1
        return pos - self._size

    def _find_linear(self, item: PackItem) -> int:
        for i, rem in enumerate(self._remaining):
            if rem < item.length or not self._open(i):
                continue
            src = self._sources[i]
            if (
                self.max_sources is not None
                and item.source not in src
                and len(src) >= self.max_sources
            ):
                continue
            return i
        return -1

    def place(self, item: PackItem) -> None:
        if self.max_sources is None:
            idx = self._tree_find(item.length)
        else:
            idx = self._find_linear(item)
        if idx == -1:
            idx = len(self.packs)
            if idx >= self._size:
                self._grow()
            self.packs.append([])
            self._remaining.append(self.capacity)
            self._sources.append(set())
        self.packs[idx].append(item)
        self._remaining[idx] -= item.length
        self._sources[idx].add(item.source)
        self._tree_set(idx, self._remaining[idx] if self._open(idx) else -1)


def ffd(
    ordered: Sequence[PackItem],
    capacity: int,
    max_samples: int | None,
    max_sources: int | None,
    bins=FirstFitBins,
) -> list[list[PackItem]]:
    placer = bins(capacity, max_samples, max_sources)
    for it in ordered:
        placer.place(it)
    return placer.packs


def _rooted_set(tree: dict[int, int], root: int, pos: int, value: int) -> None:
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


def _rooted_find(tree: dict[int, int], root: int, base: int, need: int) -> int:
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


def dict_tree_ffd(
    lengths: list[int],
    sources: list[int],
    capacity: int,
    max_samples: int | None,
    max_sources: int | None,
) -> tuple[list[int], int]:
    """First fit of items in the given order, O(log P) per item: each
    item's pack index, and the number of packs opened.

    Every index is a dict-backed max-tree over per-pack remaining capacity
    (``_rooted_set``/``_rooted_find``) that answers "leftmost pack with
    room"; a pack that reaches the sample cap is closed by setting its
    leaf to -1. Leaf p of every tree sits at heap position ``base + p``,
    with ``base`` the power of two >= the number of items, since no more
    packs open than there are items. The trees answer from ``root``, the
    node over leaves 0 to ``base // root - 1``, which climbs one level when
    the open packs outgrow it; no node is ever re-keyed.

    Under a source cap, a pack takes an item of source ``s`` when it has a
    free source slot or already holds ``s``. Packs with a free slot stay in
    the any-source tree ``tree``. A pack that fills its last slot leaves
    it and enters, for each source it holds, that source's tree in
    ``full``. The first fit is the leftmost hit of the any-source tree and
    the item's source tree, which is the pack a left-to-right scan picks.
    Trees hold only their members' root paths, so memory is
    O(P * max_sources * log P) however many sources there are.
    """
    remaining: list[int] = []
    count: list[int] = []  # items per pack, kept under a sample cap
    held: list[set[int]] = []  # sources per pack, kept under a source cap
    tree: dict[int, int] = {}
    full: dict[int, dict[int, int]] = {}
    base = root = 1 << max(len(lengths) - 1, 0).bit_length()
    placed: list[int] = []
    find, put = _rooted_find, _rooted_set
    for need, source in zip(lengths, sources):
        idx = find(tree, root, base, need)
        if max_sources is not None:
            sparse = full.get(source)
            if sparse is not None:
                hit = find(sparse, root, base, need)
                if hit != -1 and (idx == -1 or hit < idx):
                    idx = hit
        if idx == -1:
            idx = len(remaining)
            if idx >= base // root:
                # The new root's right subtree holds no open pack yet.
                root >>= 1
                for t in (tree, *full.values()):
                    t[root] = t.get(2 * root, -1)
            remaining.append(capacity)
            if max_samples is not None:
                count.append(0)
            if max_sources is not None:
                held.append(set())
        placed.append(idx)
        value = remaining[idx] = remaining[idx] - need
        if max_samples is not None:
            count[idx] = n = count[idx] + 1
            if n >= max_samples:
                value = -1
        pos = base + idx
        if max_sources is None:
            put(tree, root, pos, value)
            continue
        held_sources = held[idx]
        was_full = len(held_sources) == max_sources
        held_sources.add(source)
        if len(held_sources) < max_sources:
            put(tree, root, pos, value)
            continue
        if not was_full:
            put(tree, root, pos, -1)
        for src in held_sources:
            sparse = full.get(src)
            if sparse is None:
                sparse = full[src] = {}
            put(sparse, root, pos, value)
    return placed, len(remaining)


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


def bucket_index(length: int, capacity: int, num_buckets: int) -> int:
    b = 0
    while b < num_buckets - 1 and length * (1 << (b + 1)) <= capacity:
        b += 1
    return b


def pack_shard(
    shard_items: list[PackItem], config: PackingConfig, bins=FirstFitBins
) -> tuple[list[list[PackItem]], list[PackItem]]:
    ordered = packing_order(shard_items)
    overflow = [it for it in ordered if it.length > config.capacity]
    in_range = [it for it in ordered if it.length <= config.capacity]

    buckets: list[list[PackItem]] = [[] for _ in range(config.num_buckets)]
    for it in in_range:
        buckets[bucket_index(it.length, config.capacity, config.num_buckets)].append(it)

    caps = (config.capacity, config.max_samples_per_pack, config.max_sources_per_pack)
    packs = [p for bucket in buckets for p in ffd(bucket, *caps, bins)]

    if config.num_buckets == 1:
        return packs, overflow
    threshold = config.min_utilization * config.capacity
    residual_at = [i for i, p in enumerate(packs) if sum(it.length for it in p) < threshold]
    if len(residual_at) >= 2:
        refilled = ffd(packing_order(it for i in residual_at for it in packs[i]), *caps, bins)
        if len(refilled) < len(residual_at):
            residual_set = set(residual_at)
            packs = [p for i, p in enumerate(packs) if i not in residual_set] + refilled
    return packs, overflow


def pack_bucketed(
    items: Iterable[PackItem], config: PackingConfig, bins=FirstFitBins
) -> tuple[list[list[PackItem]], list[PackItem]]:
    """(packs, overflow) of the object-based engine; strategy is ignored."""
    shard_lists: list[list[PackItem]] = [[] for _ in range(config.shards)]
    if config.shards == 1:
        shard_lists[0] = list(items)
    else:
        for it in items:
            shard_lists[shard_of(it.sample_id, config.seed, config.shards)].append(it)
    packs: list[list[PackItem]] = []
    overflow: list[PackItem] = []
    for shard_items in shard_lists:
        shard_packs, shard_overflow = pack_shard(shard_items, config, bins)
        packs.extend(shard_packs)
        overflow.extend(shard_overflow)
    return packs, overflow


def emit_plan(path, capacity: int, packs, overflow, stats: dict) -> None:
    """The plan writer over pack lists: one ``json.dumps`` per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for pack_idx, items in enumerate(packs):
            off = 0
            recs = []
            for it in items:
                recs.append({"id": it.sample_id, "len": it.length, "off": off, "src": it.source})
                off += it.length
            rec = {"pack": pack_idx, "capacity": capacity, "items": recs, "pad": capacity - off}
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
        trailer = {
            "capacity": capacity,
            "overflow": [
                {"id": it.sample_id, "len": it.length, "src": it.source} for it in overflow
            ],
            "stats": stats,
        }
        f.write(json.dumps(trailer, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------- readers


def _record_from_json(obj) -> SampleRecord:
    sample_id = json_field(obj, "id", str)
    image = json_field(obj, "image", dict, None)
    if image is not None:
        image = (json_field(image, "w", int), json_field(image, "h", int))
    return SampleRecord(
        id=sample_id,
        source=json_field(obj, "source", str, ""),
        text_tokens=json_field(obj, "text_tokens", int, 0),
        image=image,
        patch=json_field(obj, "patch", int, 14),
        merge=json_field(obj, "merge", int, 2),
    )


def _pack_item_from_json(obj) -> PackItem:
    if type(obj) is dict and "length" in obj:
        return PackItem(
            sample_id=json_field(obj, "id", str),
            length=json_field(obj, "length", int),
            source=json_field(obj, "source", str, ""),
        )
    rec = _record_from_json(obj)
    return PackItem(sample_id=rec.id, length=estimate_tokens(rec), source=rec.source)


def load_pack_items(path) -> list[PackItem]:
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
                value = _pack_item_from_json(obj)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
            if value.sample_id in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate id {value.sample_id!r}")
            seen.add(value.sample_id)
            out.append(value)
    return out


def _plan_item(rec: dict) -> PackItem:
    return PackItem(
        sample_id=json_field(rec, "id", str),
        length=json_field(rec, "len", int),
        source=json_field(rec, "src", str, ""),
    )


def _written_keys_only(rec: dict, keys: Sequence[str]) -> None:
    extra = [key for key in rec if key not in keys]
    if extra:
        raise ValueError(f"unknown field {extra[0]!r}")


def _written_item(rec: dict, keys: Sequence[str]) -> None:
    _written_keys_only(rec, keys)
    if "src" not in rec:
        raise ValueError("missing field 'src'")


def _validate(capacity: int, packs: list[list[PackItem]], overflow: list[PackItem]) -> None:
    seen: set[str] = set()
    for i, pack in enumerate(packs):
        if not pack:
            raise ValueError(f"pack {i} is empty")
        total = sum(it.length for it in pack)
        if total > capacity:
            raise ValueError(f"pack {i} holds {total} tokens > capacity {capacity}")
        for it in pack:
            if it.sample_id in seen:
                raise ValueError(f"partition violation: sample {it.sample_id!r} repeated")
            seen.add(it.sample_id)
    for it in overflow:
        if it.sample_id in seen:
            raise ValueError(f"partition violation: sample {it.sample_id!r} repeated")
        seen.add(it.sample_id)


def load_plan(path) -> tuple[int, list[list[PackItem]], list[PackItem]]:
    """(capacity, packs, overflow) of a plan file, with every check."""
    packs: list[list[PackItem]] = []
    overflow: list[PackItem] = []
    capacity: int | None = None
    saw_trailer = False
    packed = tokens = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                raise ValueError(f"{path}: line {lineno}: blank line")
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
                    _written_keys_only(rec, ("pack", "capacity", "items", "pad"))
                    for r in raw_items:
                        _written_item(r, ("id", "len", "off", "src"))
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
                    rate = stats.get("success_rate", _REQUIRED)
                    if not packs:
                        if rate is not None:
                            raise ValueError(
                                f"trailer stats success_rate is {rate!r}, the plan has no packs"
                            )
                    elif type(rate) is not float or not 0.0 <= rate <= 1.0:
                        raise ValueError(
                            f"trailer stats success_rate is {rate!r}, not a float in [0, 1]"
                        )
                    _written_keys_only(stats, want.to_dict())
                    _written_keys_only(rec, ("capacity", "overflow", "stats"))
                    for r in rec["overflow"]:
                        _written_item(r, ("id", "len", "src"))
                else:
                    raise ValueError("unrecognized record")
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    if not saw_trailer:
        raise ValueError(f"{path}: plan file is missing its stats trailer (truncated?)")
    assert capacity is not None
    try:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if capacity > 2**63 - 1:
            raise ValueError(f"capacity={capacity} is beyond the int64 range")
        _validate(capacity, packs, overflow)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return capacity, packs, overflow
