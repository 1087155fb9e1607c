import itertools
from collections import Counter

import numpy as np
import packing_oracle as oracle
import pytest
from packing_oracle import pack_optimal_oracle

from balancepack.packing import (
    PackingConfig,
    PackItem,
    PackPlan,
    emit_plan,
    load_plan,
    pack,
    pack_bucketed,
    pack_ffd,
    packing_stats,
)
from balancepack.rng import shards_of


def items_from_lengths(lengths, prefix="s", source=""):
    return [PackItem(f"{prefix}{i:04d}", length, source) for i, length in enumerate(lengths)]


def random_items(rng, n, max_len, n_sources=3, prefix="r"):
    return [
        PackItem(
            f"{prefix}{i:04d}",
            int(rng.integers(1, max_len + 1)),
            f"src{int(rng.integers(n_sources))}",
        )
        for i in range(n)
    ]


def plan_id_multiset(plan):
    return Counter(
        [it.sample_id for p in plan.packs for it in p] + [it.sample_id for it in plan.overflow]
    )


def min_packs_by_exhaustion(lengths, capacity):
    """Independent optimum for tiny instances: try every packing order and
    every bin choice via recursion over items."""
    best = [len(lengths)]

    def go(remaining, fills):
        if len(fills) >= best[0]:
            return
        if not remaining:
            best[0] = len(fills)
            return
        x = remaining[0]
        rest = remaining[1:]
        for i in range(len(fills)):
            if fills[i] + x <= capacity:
                fills[i] += x
                go(rest, fills)
                fills[i] -= x
        fills.append(x)
        go(rest, fills)
        fills.pop()

    go(sorted(lengths, reverse=True), [])
    return best[0]


# ------------------------------------------------------------------------ ffd


def test_ffd_worked_example():
    plan = pack_ffd(items_from_lengths([5, 5, 4, 3, 3]), capacity=10)
    assert [[it.length for it in p] for p in plan.packs] == [[5, 5], [4, 3, 3]]
    stats = packing_stats(plan, PackingConfig(capacity=10))
    assert stats.compression_ratio == 2.5
    assert stats.utilization == 1.0
    assert plan.paddings() == [0, 0]


def test_ffd_saturated_items_one_per_pack():
    plan = pack_ffd(items_from_lengths([10, 10, 10]), capacity=10)
    assert [len(p) for p in plan.packs] == [1, 1, 1]
    assert plan.paddings() == [0, 0, 0]
    stats = packing_stats(plan, PackingConfig(capacity=10))
    assert stats.compression_ratio == 1.0


def test_ffd_oversize_goes_to_overflow():
    plan = pack_ffd(items_from_lengths([11]), capacity=10)
    assert plan.packs == []
    assert len(plan.overflow) == 1
    stats = packing_stats(plan, PackingConfig(capacity=10))
    assert stats.empty and stats.overflow_count == 1
    assert stats.compression_ratio is None


def test_ffd_sorts_by_length_then_id():
    items = [PackItem("b", 4), PackItem("a", 4), PackItem("c", 6)]
    plan = pack_ffd(items, capacity=10)
    assert [it.sample_id for it in plan.packs[0]] == ["c", "a"]
    assert [it.sample_id for it in plan.packs[1]] == ["b"]


def test_ffd_max_samples_cap():
    plan = pack_ffd(items_from_lengths([2, 2, 2, 2]), capacity=10, max_samples_per_pack=2)
    assert [len(p) for p in plan.packs] == [2, 2]
    plan = pack_ffd(items_from_lengths([2, 2, 2, 2]), capacity=10, max_samples_per_pack=1)
    assert [len(p) for p in plan.packs] == [1, 1, 1, 1]


def test_ffd_max_sources_cap():
    items = [
        PackItem("a", 2, "s0"),
        PackItem("b", 2, "s1"),
        PackItem("c", 2, "s2"),
        PackItem("d", 2, "s0"),
    ]
    plan = pack_ffd(items, capacity=100, max_sources_per_pack=2)
    for p in plan.packs:
        assert len({it.source for it in p}) <= 2
    assert plan_id_multiset(plan) == Counter(["a", "b", "c", "d"])


@pytest.mark.parametrize("cap", ["max_samples_per_pack", "max_sources_per_pack"])
def test_ffd_rejects_a_zero_cap(cap):
    with pytest.raises(ValueError, match=f"{cap} must be >= 1"):
        pack_ffd(items_from_lengths([2, 2]), capacity=10, **{cap: 0})


def test_one_bucket_skips_the_refill_pass(monkeypatch):
    # Every pack below is underfilled, so a refill pass would re-pack them.
    from balancepack import packing

    calls = []
    real_ffd = packing._ffd
    monkeypatch.setattr(packing, "_ffd", lambda *a: calls.append(1) or real_ffd(*a))
    items = items_from_lengths([6, 6, 6, 6])
    plan = pack(items, PackingConfig(capacity=10, strategy="ffd", min_utilization=0.9))
    assert len(plan.packs) == 4 and len(calls) == 1
    calls.clear()
    pack_bucketed(items, PackingConfig(capacity=10, num_buckets=1, shards=3))
    assert len(calls) == len(set(shards_of([it.sample_id for it in items], 0, 3).tolist()))


class CallBudget:
    """Wraps a function and raises on the call past ``limit``."""

    def __init__(self, monkeypatch, module, name, limit):
        real, self.calls = getattr(module, name), 0

        def counted(*args):
            self.calls += 1
            if self.calls > limit:
                raise AssertionError(f"{name} called more than {limit} times")
            return real(*args)

        monkeypatch.setattr(module, name, counted)


def test_only_shards_that_hold_items_are_packed(monkeypatch):
    from balancepack import packing

    items = random_items(np.random.default_rng(3), 50, 90) + items_from_lengths([500], "x")
    held = len(set(shards_of([it.sample_id for it in items[:50]], 0, 10**6).tolist()))
    budget = CallBudget(monkeypatch, packing, "_pack_shard", held)
    plan = pack_bucketed(items, PackingConfig(capacity=100, shards=10**6))
    assert budget.calls == held and plan.num_items() == 51 and len(plan.overflow) == 1
    budget = CallBudget(monkeypatch, packing, "_pack_shard", 0)
    plan = pack_bucketed(items[50:], PackingConfig(capacity=100, shards=10**6))
    assert budget.calls == 0 and plan.num_packs == 0 and len(plan.overflow) == 1


def test_only_buckets_that_hold_items_are_packed(monkeypatch):
    # Every bucket bound past capacity.bit_length() is 0, so capacity 100
    # packs as with 8 buckets: at most 7 runs, then one refill pass.
    from balancepack import packing

    items = random_items(np.random.default_rng(4), 50, 100, prefix="b")
    few = pack_bucketed(items, PackingConfig(capacity=100, num_buckets=8, min_utilization=1.0))
    budget = CallBudget(monkeypatch, packing, "_ffd", 8)
    many = pack_bucketed(items, PackingConfig(capacity=100, num_buckets=10**6, min_utilization=1.0))
    assert budget.calls <= 8 and many.packs == few.packs
    assert many.bounds.tolist() == few.bounds.tolist()


# --------------------------------------------------------------------- oracle


def test_oracle_worked_examples():
    assert pack_optimal_oracle(items_from_lengths([6, 6, 5, 5]), 11) == 2
    assert pack_optimal_oracle(items_from_lengths([4]), 11) == 1
    assert pack_optimal_oracle(items_from_lengths([10, 10]), 10) == 2


def test_oracle_rejects_large_instance():
    with pytest.raises(ValueError, match="too large"):
        pack_optimal_oracle(items_from_lengths([1] * 17), 10)


def test_oracle_rejects_oversize_item():
    with pytest.raises(ValueError, match="exceeds the capacity"):
        pack_optimal_oracle(items_from_lengths([12]), 10)


def test_oracle_matches_exhaustive_search():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        cap = int(rng.integers(4, 20))
        lengths = [int(rng.integers(1, cap + 1)) for _ in range(n)]
        assert pack_optimal_oracle(items_from_lengths(lengths), cap) == min_packs_by_exhaustion(
            lengths, cap
        )


def test_ffd_within_classical_bound_of_optimal():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        cap = int(rng.integers(8, 50))
        items = [
            PackItem(f"q{i}", int(rng.integers(1, cap + 1))) for i in range(n)
        ]
        opt = pack_optimal_oracle(items, cap)
        got = len(pack_ffd(items, cap).packs)
        assert got <= -(-11 * opt // 9) + 1


# ------------------------------------------------------------------- bucketed


def test_bucketed_degenerate_config_equals_ffd():
    rng = np.random.default_rng(23)
    for trial in range(60):
        items = random_items(rng, int(rng.integers(1, 80)), 24)
        cfg = PackingConfig(
            capacity=16,
            strategy="bucket",
            num_buckets=1,
            shards=1,
            min_utilization=float(rng.uniform(0.05, 1.0)),
        )
        ffd_plan = pack_ffd(items, 16)
        bucket_plan = pack_bucketed(items, cfg)
        assert bucket_plan.packs == ffd_plan.packs
        assert bucket_plan.overflow == ffd_plan.overflow


def test_bucketed_max_samples_one_forces_identity_packing():
    rng = np.random.default_rng(24)
    items = random_items(rng, 50, 8)
    cfg = PackingConfig(capacity=8, max_samples_per_pack=1, num_buckets=4, shards=2)
    plan = pack_bucketed(items, cfg)
    in_range = [it for it in items if it.length <= 8]
    assert len(plan.packs) == len(in_range)
    stats = packing_stats(plan, cfg)
    assert stats.compression_ratio_packed == 1.0


def test_bucketed_partition_and_capacity_randomized():
    rng = np.random.default_rng(25)
    for trial in range(100):
        items = random_items(rng, int(rng.integers(0, 120)), 40)
        cfg = PackingConfig(
            capacity=int(rng.integers(8, 40)),
            num_buckets=int(rng.integers(1, 8)),
            shards=int(rng.integers(1, 5)),
            min_utilization=float(rng.uniform(0.05, 1.0)),
            max_samples_per_pack=int(rng.integers(1, 10)) if rng.random() < 0.4 else None,
            max_sources_per_pack=int(rng.integers(1, 3)) if rng.random() < 0.4 else None,
            seed=int(rng.integers(1 << 31)),
        )
        plan = pack_bucketed(items, cfg)
        plan.validate()
        assert plan_id_multiset(plan) == Counter(it.sample_id for it in items)
        for p, pad in zip(plan.packs, plan.paddings()):
            assert pad >= 0
            assert sum(it.length for it in p) + pad == cfg.capacity
        if cfg.max_sources_per_pack is not None:
            for p in plan.packs:
                assert len({it.source for it in p}) <= cfg.max_sources_per_pack
        if cfg.max_samples_per_pack is not None:
            for p in plan.packs:
                assert len(p) <= cfg.max_samples_per_pack


def test_bucketed_deterministic():
    rng = np.random.default_rng(26)
    items = random_items(rng, 500, 30)
    cfg = PackingConfig(capacity=32, num_buckets=4, shards=8, seed=99)
    a = pack_bucketed(items, cfg)
    b = pack_bucketed(items, cfg)
    assert a.packs == b.packs
    assert a.overflow == b.overflow


def test_bucketed_input_order_irrelevant_under_sharding():
    rng = np.random.default_rng(27)
    items = random_items(rng, 200, 20)
    cfg = PackingConfig(capacity=24, num_buckets=3, shards=4, seed=5)
    a = pack_bucketed(items, cfg)
    shuffled = list(items)
    rng.shuffle(shuffled)
    b = pack_bucketed(shuffled, cfg)
    assert a.packs == b.packs


def test_bucketed_refill_merges_cross_bucket_residuals():
    # One item just over capacity/2 strands in bucket 0; small items fill
    # bucket 2 leaving a short residual pack. The refill joins them.
    items = [PackItem("big", 55)] + [PackItem(f"tiny{i}", 10) for i in range(4)]
    cfg = PackingConfig(capacity=100, num_buckets=3, shards=1, min_utilization=0.99)
    plan = pack_bucketed(items, cfg)
    assert len(plan.packs) == 1
    assert sum(it.length for it in plan.packs[0]) == 95


def test_bucketed_all_overflow_is_not_an_error():
    items = items_from_lengths([50, 60])
    cfg = PackingConfig(capacity=10)
    plan = pack_bucketed(items, cfg)
    assert plan.packs == [] and len(plan.overflow) == 2


def test_pack_dispatches_on_strategy():
    items = items_from_lengths([5, 5, 4, 3, 3])
    ffd_cfg = PackingConfig(capacity=10, strategy="ffd")
    assert pack(items, ffd_cfg).packs == pack_ffd(items, 10).packs
    bucket_cfg = PackingConfig(capacity=10, strategy="bucket")
    assert plan_id_multiset(pack(items, bucket_cfg)) == plan_id_multiset(pack_ffd(items, 10))


# --------------------------------------------------------------- monotonicity


def test_ffd_monotone_in_capacity_and_sample_cap():
    rng = np.random.default_rng(28)
    for _ in range(150):
        items = random_items(rng, int(rng.integers(1, 40)), 20)
        cap = int(rng.integers(20, 40))  # all items in range
        base = len(pack_ffd(items, cap).packs)
        assert len(pack_ffd(items, cap + int(rng.integers(1, 10))).packs) <= base
        for cap_samples in (1, 2, 4):
            small = len(pack_ffd(items, cap, max_samples_per_pack=cap_samples).packs)
            large = len(pack_ffd(items, cap, max_samples_per_pack=cap_samples + 1).packs)
            assert large <= small


# ---------------------------------------------------------------------- stats


def test_stats_worked_example():
    plan = pack_ffd(items_from_lengths([5, 5, 4, 3, 3]), 10)
    stats = packing_stats(plan, PackingConfig(capacity=10, min_utilization=0.9))
    assert stats.num_samples == 5
    assert stats.num_packs == 2
    assert stats.compression_ratio == 2.5
    assert stats.utilization == 1.0
    assert stats.success_rate == 1.0


def test_stats_empty_plan_flagged():
    stats = packing_stats(PackPlan(capacity=10), PackingConfig(capacity=10))
    assert stats.empty
    assert stats.num_packs == 0
    assert stats.compression_ratio is None
    assert stats.utilization is None


def test_stats_single_underfilled_pack():
    plan = pack_ffd(items_from_lengths([8]), 10)
    stats = packing_stats(plan, PackingConfig(capacity=10, min_utilization=0.9))
    assert stats.success_rate == 0.0
    assert stats.utilization == 0.8


def test_stats_overflow_in_both_ratios():
    plan = pack_ffd(items_from_lengths([5, 5, 12]), 10)
    stats = packing_stats(plan, PackingConfig(capacity=10))
    assert stats.num_samples == 3
    assert stats.compression_ratio == 3.0
    assert stats.compression_ratio_packed == 2.0


# -------------------------------------------------------------------- plan io


def test_plan_offsets_and_padding(tmp_path):
    plan = pack_ffd(items_from_lengths([5, 3]), 10)
    path = tmp_path / "plan.jsonl"
    emit_plan(plan, path)
    import json

    first = json.loads(path.read_text().splitlines()[0])
    assert [it["off"] for it in first["items"]] == [0, 5]
    assert first["pad"] == 10 - 8


def test_plan_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(29)
    for trial in range(50):
        items = random_items(rng, int(rng.integers(1, 60)), 30, prefix=f"t{trial}-")
        cfg = PackingConfig(
            capacity=int(rng.integers(8, 40)),
            num_buckets=int(rng.integers(1, 5)),
            shards=int(rng.integers(1, 4)),
        )
        plan = pack_bucketed(items, cfg)
        path = tmp_path / f"p{trial}.jsonl"
        emit_plan(plan, path, cfg)
        loaded = load_plan(path)
        assert loaded.capacity == plan.capacity
        assert loaded.packs == plan.packs
        assert loaded.overflow == plan.overflow
        # emitting the loaded plan reproduces the file byte for byte
        path2 = tmp_path / f"p{trial}b.jsonl"
        emit_plan(loaded, path2, cfg)
        assert path.read_bytes() == path2.read_bytes()


def test_plan_load_rejects_duplicate_sample(tmp_path):
    plan = PackPlan.of(
        capacity=10,
        packs=[[PackItem("x", 4)], [PackItem("x", 4)]],
    )
    path = tmp_path / "dup.jsonl"
    # emit_plan refuses this plan, so the oracle writer writes it.
    stats = packing_stats(plan, PackingConfig(capacity=10)).to_dict()
    oracle.emit_plan(path, plan.capacity, plan.packs, plan.overflow, stats)
    with pytest.raises(ValueError, match="partition"):
        load_plan(path)


@pytest.mark.parametrize(
    "capacity, packs, fault",
    [
        (10, [[PackItem("a", 4)], [PackItem("a", 4)]], "partition violation: sample 'a' repeated"),
        (10, [[PackItem("a", 4)], []], "pack 1 is empty"),
        (10, [[PackItem("a", 6), PackItem("b", 6)]], "pack 0 holds 12 tokens > capacity 10"),
        (0, [], "capacity must be >= 1"),
        (2**70, [], f"capacity={2**70} is beyond the int64 range"),
    ],
)
def test_plan_load_names_the_file_for_a_fault_of_the_whole_plan(tmp_path, capacity, packs, fault):
    # emit_plan refuses these plans, so the oracle writer writes them; an
    # empty plan's stats do not depend on its capacity.
    plan = PackPlan.of(capacity=10, packs=packs)
    path = tmp_path / "plan.jsonl"
    stats = packing_stats(plan, PackingConfig(capacity=10)).to_dict()
    oracle.emit_plan(path, capacity, plan.packs, plan.overflow, stats)
    with pytest.raises(ValueError) as e:
        load_plan(path)
    assert str(e.value) == f"{path}: {fault}"


@pytest.mark.parametrize("line", ["[1]", "3", '"x"'])
def test_plan_load_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "plan.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError) as e:
        load_plan(path)
    assert str(e.value) == f"{path}: line 1: unrecognized record"


def test_plan_load_rejects_bad_offsets(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"pack":0,"capacity":10,"items":[{"id":"a","len":5,"off":1,"src":""}],"pad":5}\n'
    )
    with pytest.raises(ValueError, match="offset"):
        load_plan(path)


def test_plan_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="line 1"):
        load_plan(path)


@pytest.mark.parametrize("blank", ["", "  "])
def test_plan_load_rejects_blank_line(tmp_path, blank):
    plan = PackPlan.of(capacity=10, packs=[[PackItem("a", 6)], [PackItem("b", 7)]])
    path = tmp_path / "plan.jsonl"
    emit_plan(plan, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + blank + "\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match="line 2: blank line"):
        load_plan(path)


def _tampered_plan(tmp_path, edit, line=-1):
    """Emit a small valid plan (two packs, one overflow item), apply ``edit``
    to the parsed record at index ``line`` and write it back."""
    import json

    plan = PackPlan.of(
        capacity=10,
        packs=[[PackItem("a", 6, "web"), PackItem("b", 4, "doc")], [PackItem("c", 7, "web")]],
        overflow=[PackItem("d", 12, "web")],
    )
    path = tmp_path / "plan.jsonl"
    emit_plan(plan, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line])
    edit(rec)
    lines[line] = json.dumps(rec, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_plan_load_rejects_overflow_item_that_fits(tmp_path):
    def edit(rec):
        rec["overflow"][0]["len"] = 10

    with pytest.raises(ValueError, match="line 3: overflow item 'd' of length 10 fits"):
        load_plan(_tampered_plan(tmp_path, edit))


def test_plan_load_rejects_trailer_capacity_mismatch(tmp_path):
    def edit(rec):
        rec["capacity"] = 12

    with pytest.raises(ValueError, match="line 3: trailer capacity 12 != pack capacity 10"):
        load_plan(_tampered_plan(tmp_path, edit))


@pytest.mark.parametrize(
    "key, value",
    [
        ("num_samples", 5),
        ("num_packs", 3),
        ("overflow_count", 0),
        ("empty", True),
        ("utilization", 0.8),
        ("compression_ratio", 1.5),
        ("compression_ratio_packed", 2.0),
        ("num_packs", 2.0),
        ("num_packs", None),
    ],
)
def test_plan_load_rejects_trailer_stats_mismatch(tmp_path, key, value):
    def edit(rec):
        rec["stats"][key] = value

    with pytest.raises(ValueError, match=f"line 3: trailer stats {key} is"):
        load_plan(_tampered_plan(tmp_path, edit))


def test_plan_load_ignores_success_rate(tmp_path):
    # success_rate depends on a min_utilization the file does not record.
    def edit(rec):
        rec["stats"]["success_rate"] = 0.0

    assert len(load_plan(_tampered_plan(tmp_path, edit)).packs) == 2


def test_plan_load_checks_stats_of_empty_plan(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit_plan(PackPlan.of(capacity=10, overflow=[PackItem("x", 11)]), path)
    assert load_plan(path).overflow == [PackItem("x", 11)]
    path.write_text(path.read_text().replace('"empty":true', '"empty":false'))
    with pytest.raises(ValueError, match="line 1: trailer stats empty is False"):
        load_plan(path)


@pytest.mark.parametrize(
    "line, edit, field",
    [
        (0, lambda r: r["items"][1].update(len=4.0), "len"),
        (0, lambda r: r["items"][1].update(len="4"), "len"),
        (1, lambda r: r["items"][0].update(len=True), "len"),
        (0, lambda r: r["items"][1].update(off=6.0), "off"),
        (0, lambda r: r["items"][0].update(id=1), "id"),
        (0, lambda r: r["items"][0].update(src=None), "src"),
        (2, lambda r: r["overflow"][0].update(len=12.0), "len"),
        (2, lambda r: r["overflow"][0].update(id=4), "id"),
        (0, lambda r: r.update(capacity=10.0), "capacity"),
        (1, lambda r: r.update(pad="3"), "pad"),
    ],
)
def test_plan_load_rejects_coercible_types(tmp_path, line, edit, field):
    with pytest.raises(ValueError, match=f"line {line + 1}: field '{field}' must be a JSON"):
        load_plan(_tampered_plan(tmp_path, edit, line))


@pytest.mark.parametrize(
    "line, edit",
    [
        (0, lambda r: r.update(x=1)),
        (0, lambda r: r["items"][1].update(x=1)),
        (2, lambda r: r.update(x=1)),
        (2, lambda r: r["overflow"][0].update(x=1)),
        (2, lambda r: r["stats"].update(x=1)),
    ],
    ids=["pack", "item", "trailer", "overflow-item", "stats"],
)
def test_plan_load_rejects_a_key_the_writer_never_writes(tmp_path, line, edit):
    with pytest.raises(ValueError, match=f"line {line + 1}: unknown field 'x'"):
        load_plan(_tampered_plan(tmp_path, edit, line))


@pytest.mark.parametrize(
    "line, edit",
    [(1, lambda r: r["items"][0].pop("src")), (2, lambda r: r["overflow"][0].pop("src"))],
    ids=["item", "overflow-item"],
)
def test_plan_load_requires_the_source_of_every_item(tmp_path, line, edit):
    with pytest.raises(ValueError, match=f"line {line + 1}: missing field 'src'"):
        load_plan(_tampered_plan(tmp_path, edit, line))


def test_plan_load_runs_the_writer_key_rules_after_the_other_checks_of_a_line(tmp_path):
    def edit(rec):
        rec["items"][0].pop("src")
        rec["items"][1]["off"] = 5

    with pytest.raises(ValueError, match="line 1: offset 5 for 'b', expected 6"):
        load_plan(_tampered_plan(tmp_path, edit, 0))

    def edit(rec):
        rec["x"] = 1
        rec["pad"] = 1

    with pytest.raises(ValueError, match="line 2: padding 1, expected 3"):
        load_plan(_tampered_plan(tmp_path, edit, 1))


@pytest.mark.parametrize("rate", ["missing", "lots", 1, 1.5, -0.25, None])
def test_plan_load_rejects_a_success_rate_outside_0_to_1(tmp_path, rate):
    def edit(rec):
        if rate == "missing":
            del rec["stats"]["success_rate"]
        else:
            rec["stats"]["success_rate"] = rate

    with pytest.raises(ValueError, match="line 3: trailer stats success_rate is"):
        load_plan(_tampered_plan(tmp_path, edit))


def test_plan_load_rejects_a_success_rate_without_packs(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit_plan(PackPlan.of(capacity=10), path)
    path.write_text(path.read_text().replace('"success_rate":null', '"success_rate":0.5'))
    with pytest.raises(ValueError, match="line 1: trailer stats success_rate is 0.5, the plan"):
        load_plan(path)


@pytest.mark.parametrize("capacity", [0, -7])
def test_plan_capacity_must_be_at_least_one(tmp_path, capacity):
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        PackPlan(capacity)
    path = tmp_path / "empty.jsonl"
    emit_plan(PackPlan.of(capacity=10), path)
    path.write_text(path.read_text().replace('"capacity":10', f'"capacity":{capacity}'))
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        load_plan(path)


def test_plan_validate_rejects_overfull_pack():
    plan = PackPlan.of(capacity=5, packs=[[PackItem("a", 3), PackItem("b", 3)]])
    with pytest.raises(ValueError, match="capacity"):
        plan.validate()


# -------------------------------------------------------------- config checks


def test_config_validation():
    with pytest.raises(ValueError, match="strategy"):
        PackingConfig(strategy="magic")
    with pytest.raises(ValueError, match="min_utilization"):
        PackingConfig(min_utilization=0.0)
    with pytest.raises(ValueError, match="shards"):
        PackingConfig(shards=0)
    with pytest.raises(ValueError, match="length"):
        PackItem("x", 0)
