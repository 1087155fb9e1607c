"""Differential tests of the indexed first-fit kernel against the linear scan.

``OracleFirstFitBins`` is the earlier ``packing._FirstFitBins``, kept
verbatim: without a source cap it uses the segment tree, with one it
scans every pack from the left. The production kernel must produce the
same pack lists (``==``) on any input, placement order and cap, both
when ``_ffd`` is called directly and through ``pack_bucketed`` (bucket
FFD plus the refill pass). ``pack_ffd``, which runs the bucket path with
one bucket and one shard, must equal plain oracle FFD: there the refill
pass may never change a pack.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from balancepack import packing
from balancepack.packing import (
    PackingConfig,
    PackItem,
    _ffd,
    _packing_order,
    pack_bucketed,
    pack_ffd,
)

# ------------------------------------------------------------------ oracle


class OracleFirstFitBins:
    """First-fit placement over an ordered pack list.

    Without a source cap, a segment tree over per-pack remaining capacity
    answers "leftmost pack with room" in O(log P); packs that reach the
    sample cap are closed by zeroing their tree slot. The source cap makes
    fit depend on which tags a pack holds, so that path falls back to a
    linear scan (only used at test scale here).
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


def oracle_ffd(ordered, capacity, max_samples, max_sources):
    bins = OracleFirstFitBins(capacity, max_samples, max_sources)
    for it in ordered:
        bins.place(it)
    return bins.packs


def oracle_pack_bucketed(items, config, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(packing, "_FirstFitBins", OracleFirstFitBins)
        return pack_bucketed(items, config)


# ------------------------------------------------------------------ inputs


def criterion3_instances(seed, trials):
    """Criterion 3's generator: the same (items, config) pairs for a seed.

    ``pack_bucketed`` ignores ``strategy``; it is drawn to keep the stream.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(0, 50))
        cap = int(rng.integers(4, 64))
        items = [
            PackItem(
                f"t{trial}-{j}",
                int(rng.integers(1, int(cap * 1.3) + 2)),
                f"src{int(rng.integers(4))}",
            )
            for j in range(n)
        ]
        cfg = PackingConfig(
            capacity=cap,
            strategy="ffd" if rng.random() < 0.5 else "bucket",
            num_buckets=int(rng.integers(1, 8)),
            shards=int(rng.integers(1, 5)),
            min_utilization=float(rng.uniform(0.05, 1.0)),
            max_samples_per_pack=int(rng.integers(1, 8)) if rng.random() < 0.3 else None,
            max_sources_per_pack=int(rng.integers(1, 4)) if rng.random() < 0.3 else None,
            seed=int(rng.integers(1 << 31)),
        )
        yield items, cfg


def capped_instance(rng, trial, tie_heavy=False):
    """Source-capped instance: 1-3 source slots, 1-6 sources, up to 300 items."""
    n = int(rng.integers(1, 300))
    cap = int(rng.integers(4, 80))
    n_sources = int(rng.integers(1, 7))
    if tie_heavy:
        choices = rng.integers(1, cap + 1, size=int(rng.integers(1, 4)))
        lengths = rng.choice(choices, size=n)
    else:
        lengths = rng.integers(1, cap + 1, size=n)
    items = [
        PackItem(f"c{trial}-{j:03d}", int(lengths[j]), f"s{int(rng.integers(n_sources))}")
        for j in range(n)
    ]
    cfg = PackingConfig(
        capacity=cap,
        num_buckets=int(rng.integers(1, 6)),
        shards=int(rng.integers(1, 4)),
        min_utilization=float(rng.uniform(0.05, 1.0)),
        max_samples_per_pack=int(rng.integers(1, 12)) if rng.random() < 0.5 else None,
        max_sources_per_pack=int(rng.integers(1, 4)),
        seed=int(rng.integers(1 << 31)),
    )
    return items, cfg


def assert_kernels_agree(items, cfg, monkeypatch, rng=None):
    """Both _ffd orders (sorted and, given rng, shuffled) and pack_bucketed."""
    in_range = [it for it in _packing_order(items) if it.length <= cfg.capacity]
    orders = [in_range]
    if rng is not None:
        shuffled = list(in_range)
        rng.shuffle(shuffled)
        orders.append(shuffled)
    caps = (cfg.capacity, cfg.max_samples_per_pack, cfg.max_sources_per_pack)
    for ordered in orders:
        assert _ffd(ordered, *caps) == oracle_ffd(ordered, *caps)
    want = oracle_pack_bucketed(items, cfg, monkeypatch)
    for threads in (1, 2):
        got = pack_bucketed(items, cfg, threads=threads)
        assert got.packs == want.packs
        assert got.overflow == want.overflow


# ------------------------------------------------------------------- tests


def test_packing_order_matches_tuple_key_sort():
    rng = np.random.default_rng(41)
    items = [
        PackItem(f"o{int(rng.integers(0, 400)):03d}-{j}", int(rng.integers(1, 6)))
        for j in range(500)
    ]
    rng.shuffle(items)
    assert _packing_order(items) == sorted(items, key=lambda it: (-it.length, it.sample_id))


def test_differential_criterion3_generator(monkeypatch):
    rng = np.random.default_rng(42)
    for items, cfg in criterion3_instances(1003, 10_000):
        assert_kernels_agree(items, cfg, monkeypatch, rng)


def test_pack_ffd_is_oracle_ffd_under_every_cap_combination():
    rng = np.random.default_rng(47)
    for items, cfg in criterion3_instances(1003, 10_000):
        ordered = _packing_order(items)
        in_range = [it for it in ordered if it.length <= cfg.capacity]
        overflow = [it for it in ordered if it.length > cfg.capacity]
        samples_caps = (None, int(rng.integers(1, 8)))
        sources_caps = (None, int(rng.integers(1, 4)))
        for max_samples, max_sources in itertools.product(samples_caps, sources_caps):
            plan = pack_ffd(
                items,
                cfg.capacity,
                max_samples_per_pack=max_samples,
                max_sources_per_pack=max_sources,
            )
            assert plan.packs == oracle_ffd(in_range, cfg.capacity, max_samples, max_sources)
            assert plan.overflow == overflow


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_differential_source_capped(monkeypatch, tie_heavy):
    rng = np.random.default_rng(43 + tie_heavy)
    for trial in range(300):
        items, cfg = capped_instance(rng, trial, tie_heavy)
        assert_kernels_agree(items, cfg, monkeypatch, rng)


def test_differential_one_sample_per_pack(monkeypatch):
    rng = np.random.default_rng(45)
    for trial in range(50):
        items, cfg = capped_instance(rng, trial)
        cfg = PackingConfig(
            capacity=cfg.capacity,
            shards=cfg.shards,
            max_samples_per_pack=1,
            max_sources_per_pack=cfg.max_sources_per_pack if trial % 2 else None,
        )
        assert_kernels_agree(items, cfg, monkeypatch, rng)
        plan = pack_bucketed(items, cfg)
        assert all(len(p) == 1 for p in plan.packs)


def test_differential_many_packs_past_tree_growth(monkeypatch):
    # Enough packs that both trees are rebuilt several times mid-run.
    rng = np.random.default_rng(46)
    items = [
        PackItem(f"g{j:05d}", int(rng.integers(20, 101)), f"s{int(rng.integers(6))}")
        for j in range(3000)
    ]
    for max_sources in (1, 2, 3):
        cfg = PackingConfig(capacity=100, num_buckets=3, max_sources_per_pack=max_sources)
        assert_kernels_agree(items, cfg, monkeypatch, rng)


def test_source_index_memory_is_sparse():
    # Every item its own source and one source slot per pack: 4,000 packs,
    # each in its own source tree. A dense 2 * 4096-slot list per source
    # would need ~260 MB; the sparse trees hold ~13 nodes each.
    items = [PackItem(f"m{j:05d}", 1 + j % 7, f"src{j:05d}") for j in range(4000)]
    ordered = _packing_order(items)
    tracemalloc.start()
    try:
        packs = _ffd(ordered, 64, None, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(packs) == 4000
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
