"""Differential tests of the columnar packing engine against the object engine.

``packing_oracle`` keeps the engine as it was before items became
columns: one ``PackItem`` per sample, packs as lists, dict-backed
max-trees (``FirstFitBins``) and, older still, a linear scan under a
source cap (``LinearFirstFitBins``). It also keeps the columnar ``_ffd``
whose any-source tree was a dict and whose source trees were set on every
placement (``dict_tree_ffd``): ``_ffd``, with a list-backed any-source
tree and source trees that hold upper bounds, must place every item where
that one did. The columnar engine must
produce the same packs and overflow (``==``) as the oracle over either
bins on any input, placement order and cap, both when ``_ffd`` is called
directly and through ``pack_bucketed`` (bucket FFD plus the refill pass).
``pack_ffd``, which runs the bucket path with one bucket and one shard,
must equal plain FFD over the linear-scan bins: there the refill pass may
never change a pack.
"""

import itertools
import tracemalloc

import numpy as np
import packing_oracle as oracle
import pytest

from balancepack.packing import (
    Items,
    PackingConfig,
    PackItem,
    PackPlan,
    _bucket_index,
    _ffd,
    _id_rank,
    emit_plan,
    load_plan,
    pack,
    pack_bucketed,
    pack_ffd,
    source_codes,
)

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
    ids = [f"c{trial}-{j:03d}" for j in range(n)]
    items = [
        PackItem(ids[j], int(lengths[j]), f"s{int(rng.integers(n_sources))}") for j in range(n)
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


# ----------------------------------------------------------------- helpers


def columnar_ffd(ordered, capacity, max_samples, max_sources):
    """``_ffd`` over the columns of ``ordered``, regrouped into pack lists;
    its placements are those of the dict-tree ``_ffd`` it replaced."""
    items = Items.of(ordered)
    columns = (items.length.tolist(), items.source.tolist(), capacity, max_samples, max_sources)
    placed, opened = _ffd(*columns)
    assert (placed, opened) == oracle.dict_tree_ffd(*columns)
    packs = [[] for _ in range(opened)]
    for it, p in zip(ordered, placed):
        packs[p].append(it)
    return packs


def assert_engines_agree(items, cfg, rng=None):
    """``_ffd`` on the sorted order (and, given rng, a shuffled one) and
    ``pack_bucketed``, against the oracle engine over both its tree bins
    and its linear-scan bins, and ``_ffd`` against the dict-tree ``_ffd``."""
    in_range = [it for it in oracle.packing_order(items) if it.length <= cfg.capacity]
    orders = [in_range]
    if rng is not None:
        shuffled = list(in_range)
        rng.shuffle(shuffled)
        orders.append(shuffled)
    caps = (cfg.capacity, cfg.max_samples_per_pack, cfg.max_sources_per_pack)
    all_bins = (oracle.FirstFitBins, oracle.LinearFirstFitBins)
    for ordered in orders:
        got = columnar_ffd(ordered, *caps)
        for bins in all_bins:
            assert got == oracle.ffd(ordered, *caps, bins=bins)
    got = pack_bucketed(items, cfg)
    for bins in all_bins:
        want_packs, want_overflow = oracle.pack_bucketed(items, cfg, bins)
        assert got.packs == want_packs
        assert got.overflow == want_overflow
    assert got.fills.tolist() == [sum(it.length for it in p) for p in want_packs]


# ------------------------------------------------------------------- tests


def test_packing_order_matches_tuple_key_sort():
    rng = np.random.default_rng(41)
    items = [
        PackItem(f"o{int(rng.integers(0, 400)):03d}-{j}", int(rng.integers(1, 6)))
        for j in range(500)
    ]
    rng.shuffle(items)
    cols = Items.of(items)
    order = np.lexsort((_id_rank(cols.ids), -cols.length)).tolist()
    assert order == sorted(range(len(items)), key=lambda i: (-items[i].length, items[i].sample_id))


def test_id_rank_keeps_trailing_nul_characters():
    # A numpy "<U" array would drop the trailing NUL and tie "a" with "a\x00".
    assert _id_rank(["a\x00", "a", "b", "a\x00\x00"]).tolist() == [1, 0, 3, 2]
    with pytest.raises(ValueError, match="sample 'a\\\\x00' repeated"):
        _id_rank(["a\x00", "a", "b", "a\x00"])
    shuffled = [f"r{j:05d}" for j in range(10_000)]
    np.random.default_rng(47).shuffle(shuffled)
    odd = ["é", "e\u0301", "日本語", "\U0001f600", "\ud800", "b\udfff", "\udfff", "", "\x00", "z"]
    for ids in ([], [""], odd, odd[::-1], shuffled, shuffled[:5000] + odd):
        assert _id_rank(ids).tolist() == oracle.id_rank(ids).tolist()
    for ids in (["", "a", ""], ["\ud800", "x", "\ud800"], shuffled + [shuffled[1234]]):
        with pytest.raises(ValueError) as got:
            _id_rank(ids)
        with pytest.raises(ValueError) as want:
            oracle.id_rank(ids)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"sample {ids[-1]!r} repeated; pack items need distinct ids"


@pytest.mark.parametrize("num_buckets", [1, 2, 3, 6, 40, 70])
def test_bucket_index_matches_the_loop(num_buckets):
    for capacity in (1, 7, 64, 100, 8192):
        lengths = np.arange(1, 2 * capacity + 2, dtype=np.int64)
        got = _bucket_index(lengths, capacity, num_buckets).tolist()
        want = [oracle.bucket_index(int(x), capacity, num_buckets) for x in lengths]
        assert got == want


def test_differential_criterion3_generator():
    rng = np.random.default_rng(42)
    for items, cfg in criterion3_instances(1003, 10_000):
        assert_engines_agree(items, cfg, rng)


def test_pack_ffd_is_oracle_ffd_under_every_cap_combination():
    rng = np.random.default_rng(47)
    for items, cfg in criterion3_instances(1003, 10_000):
        ordered = oracle.packing_order(items)
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
            want = oracle.ffd(
                in_range, cfg.capacity, max_samples, max_sources, bins=oracle.LinearFirstFitBins
            )
            assert plan.packs == want
            assert plan.overflow == overflow


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_differential_source_capped(tie_heavy):
    rng = np.random.default_rng(43 + tie_heavy)
    for trial in range(300):
        items, cfg = capped_instance(rng, trial, tie_heavy)
        assert_engines_agree(items, cfg, rng)


def test_list_tree_ffd_places_as_the_dict_tree_ffd_under_every_cap():
    # Up to 2,000 items, so the root climbs many levels; few lengths give
    # ties. The source trees' stale leaves are set when a find lands on
    # them, so lengths come in random order as well as decreasing, and up
    # to 60 sources leave many small source trees.
    rng = np.random.default_rng(48)
    for trial in range(60):
        n = int(rng.integers(1, 2000))
        cap = int(rng.integers(4, 120))
        lengths = rng.integers(1, cap + 1, size=n)
        if trial % 3 == 0:
            lengths = rng.choice(lengths[:3], size=n)
        elif trial % 3 == 1:
            lengths = np.sort(lengths)[::-1]
        lengths = lengths.tolist()
        sources = rng.integers(0, int(rng.choice([1, 2, 3, 5, 8, 60])), size=n).tolist()
        samples_caps = (None, int(rng.integers(1, 12)))
        sources_caps = (None, int(rng.integers(1, 4)))
        for max_samples, max_sources in itertools.product(samples_caps, sources_caps):
            columns = (lengths, sources, cap, max_samples, max_sources)
            assert _ffd(*columns) == oracle.dict_tree_ffd(*columns)


def test_every_pack_entry_refuses_a_repeated_id():
    # "b" comes twice with different lengths and sources, so no order of
    # the two could make the plan a partition of the input.
    items = [PackItem("a", 3, "x"), PackItem("b", 4, "x"), PackItem("c", 2), PackItem("b", 5)]
    entries = [
        lambda: pack(items, PackingConfig(capacity=8, strategy="ffd")),
        lambda: pack(items, PackingConfig(capacity=8, strategy="bucket", num_buckets=3)),
        lambda: pack_bucketed(items, PackingConfig(capacity=8, shards=1)),
        lambda: pack_bucketed(items, PackingConfig(capacity=8, shards=3, seed=5)),
        lambda: pack_ffd(items, 8),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="sample 'b' repeated; pack items need distinct ids"):
            entry()


def test_plan_does_not_depend_on_input_order(tmp_path):
    rng = np.random.default_rng(49)
    for items, cfg in criterion3_instances(1004, 300):
        shuffled = list(items)
        rng.shuffle(shuffled)
        a, b = pack(items, cfg), pack(shuffled, cfg)
        # Source codes follow first-seen order, so compare rows, which carry tags.
        assert list(a.packed) == list(b.packed)
        assert a.bounds.tolist() == b.bounds.tolist()
        assert list(a.overflowed) == list(b.overflowed)
        emit_plan(a, tmp_path / "a.jsonl", cfg)
        emit_plan(b, tmp_path / "b.jsonl", cfg)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_differential_one_sample_per_pack():
    rng = np.random.default_rng(45)
    for trial in range(50):
        items, cfg = capped_instance(rng, trial)
        cfg = PackingConfig(
            capacity=cfg.capacity,
            shards=cfg.shards,
            max_samples_per_pack=1,
            max_sources_per_pack=cfg.max_sources_per_pack if trial % 2 else None,
        )
        assert_engines_agree(items, cfg, rng)
        plan = pack_bucketed(items, cfg)
        assert all(len(p) == 1 for p in plan.packs)


def test_differential_many_packs_past_tree_growth():
    # Enough packs that the root of both trees climbs several levels mid-run.
    rng = np.random.default_rng(46)
    items = [
        PackItem(f"g{j:05d}", int(rng.integers(20, 101)), f"s{int(rng.integers(6))}")
        for j in range(3000)
    ]
    for max_sources in (1, 2, 3):
        cfg = PackingConfig(capacity=100, num_buckets=3, max_sources_per_pack=max_sources)
        assert_engines_agree(items, cfg, rng)


def test_source_index_memory_is_sparse():
    # Every item its own source and one source slot per pack: 4,000 packs,
    # each in its own source tree. A dense 2 * 4096-slot list per source
    # would need ~260 MB; the sparse trees hold ~13 nodes each.
    items = Items.of(PackItem(f"m{j:05d}", 1 + j % 7, f"src{j:05d}") for j in range(4000))
    order = np.lexsort((_id_rank(items.ids), -items.length))
    lengths, sources = items.length[order].tolist(), items.source[order].tolist()
    tracemalloc.start()
    try:
        _, opened = _ffd(lengths, sources, 64, None, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert opened == 4000
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_load_plan_temporaries_stay_under_a_fixed_bound(tmp_path):
    # 100k items of 5 sources in packs of 10, about 8 MB of columns, most of
    # them id strings. Keeping an int and a source str per item until the
    # end took 10.4 MB over the columns.
    n = 100_000
    rng = np.random.default_rng(49)
    ids = [f"doc-{j:08d}" for j in range(n)]
    sources = [("web", "docs", "images", "code", "books")[c] for c in rng.integers(0, 5, n)]
    items = Items(ids, rng.integers(1, 800, n), *source_codes(sources))
    path = tmp_path / "plan.jsonl"
    emit_plan(PackPlan(8192, items, np.arange(0, n + 1, 10, dtype=np.int64)), path)
    tracemalloc.start()
    try:
        plan = load_plan(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    got = plan.packed
    assert got.ids == ids and got.length.tolist() == items.length.tolist()
    assert got.tags == items.tags and got.source.tolist() == items.source.tolist()
    assert peak - held < 4 * 2**20, f"load_plan peaked {(peak - held) / 2**20:.1f} MB over the plan"
