"""Columnar pack items and plans: construction rules, row views, the plan
writer against the object-based writer, and the int64 length rule."""

import json
import re
import tracemalloc

import numpy as np
import packing_oracle as oracle
import pytest

from balancepack.manifest import SampleRecord, load_pack_items, records_to_pack_items
from balancepack.packing import (
    Items,
    PackingConfig,
    PackItem,
    PackPlan,
    emit_plan,
    load_plan,
    pack_bucketed,
    packing_stats,
)


def columns(ids, lengths, codes, tags):
    return Items(ids, np.array(lengths, dtype=np.int64), np.array(codes, dtype=np.int32), tags)


# ------------------------------------------------------------------- Items


@pytest.mark.parametrize("length", [1.7, 2.0, np.float64(3.0), "3", None])
def test_of_rejects_a_length_that_is_not_an_integer(length):
    rows = [PackItem("a", 4, "web"), PackItem.__new__(PackItem)]
    object.__setattr__(rows[1], "sample_id", "b")
    object.__setattr__(rows[1], "length", length)
    object.__setattr__(rows[1], "source", "web")
    message = re.escape(f"row 1: length {length!r} is not an integer")
    with pytest.raises(ValueError, match=f"^{message}"):
        Items.of(rows)


def test_of_keeps_integer_lengths_of_any_integer_type():
    items = Items.of([PackItem("a", np.int32(4)), PackItem("b", np.int64(5), "x")])
    assert items.length.tolist() == [4, 5] and items.length.dtype == np.int64
    assert list(items) == [PackItem("a", 4, ""), PackItem("b", 5, "x")]


@pytest.mark.parametrize(
    "ids, lengths, codes, tags, message",
    [
        (["a", "b"], [3], [0, 0], ("",), "columns of unequal length"),
        (["a", "b"], [3, 4], [0], ("",), "columns of unequal length"),
        (["a", "b"], [3, 0], [0, 0], ("",), "item 'b' has length 0, must be >= 1"),
        (["a", "b"], [-2, 4], [0, 0], ("",), "item 'a' has length -2, must be >= 1"),
        (["a", "b"], [3, 4], [0, 1], ("web",), "item 'b' has source code 1, outside its 1 tags"),
        (["a", "b"], [3, 4], [-1, 0], ("web",), "item 'a' has source code -1"),
    ],
)
def test_constructor_checks_every_rule(ids, lengths, codes, tags, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        columns(ids, lengths, codes, tags)


def test_constructor_requires_integer_columns():
    with pytest.raises(ValueError, match="int64 column"):
        Items(["a"], np.array([1.5]), np.zeros(1, np.int32), ("",))


def test_rows_are_views_of_the_columns():
    items = columns(["a", "b", "c"], [5, 7, 9], [1, 0, 1], ("web", "doc"))
    assert len(items) == 3
    assert items[0] == PackItem("a", 5, "doc")
    assert items[-1] == PackItem("c", 9, "doc")
    rows = [PackItem("a", 5, "doc"), PackItem("b", 7, "web"), PackItem("c", 9, "doc")]
    assert list(items) == rows
    with pytest.raises(IndexError):
        items[3]
    taken = items.take(np.array([2, 0, 2]))
    assert list(taken) == [items[2], items[0], items[2]]
    assert Items.of(items) is items


def test_take_makes_no_python_int_per_row():
    # Gathering 100k ids through ``rows.tolist()`` made about 2.7 MB of
    # Python ints beyond the result; an object column of the ids makes none.
    n = 100_000
    ids = [f"doc-{j:08d}" for j in range(n)]
    items = Items(ids, np.arange(1, n + 1, dtype=np.int64), np.zeros(n, np.int32), ("",))
    rows = np.random.default_rng(7).permutation(n)
    tracemalloc.start()
    try:
        taken = items.take(rows)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taken.ids == [ids[i] for i in rows.tolist()]
    assert taken.length.tolist() == (rows + 1).tolist()
    assert peak - held < 2**20, f"take peaked {(peak - held) / 2**20:.1f} MB over its result"


def test_records_become_columns():
    records = [
        SampleRecord("x", "web", 9),
        SampleRecord("y", "doc", 0, image=(336, 336)),
        SampleRecord("z", "web", 3, image=(64, 64), patch=16, merge=4),
    ]
    items = records_to_pack_items(records)
    assert isinstance(items, Items)
    rows = [PackItem("x", 9, "web"), PackItem("y", 144, "doc"), PackItem("z", 4, "web")]
    assert list(items) == rows


# ---------------------------------------------------------------- PackPlan


def test_plan_row_views_are_built_once():
    plan = PackPlan.of(10, [[PackItem("a", 6), PackItem("b", 4)]], [PackItem("c", 12)])
    assert plan.packs is plan.packs and plan.overflow is plan.overflow
    plan.packs[0].append(PackItem("extra", 10))
    assert len(plan.packs[0]) == 3
    assert plan.fills.tolist() == [10] and plan.paddings() == [0]
    assert plan.num_packs == 1 and plan.num_items() == 3


@pytest.mark.parametrize(
    "edit, view",
    [
        (lambda plan: plan.packs[0].append(PackItem("extra", 1)), "packs"),
        (lambda plan: plan.packs.pop(), "packs"),
        (lambda plan: plan.overflow.clear(), "overflow"),
    ],
)
def test_plan_with_edited_views_is_neither_validated_nor_written(tmp_path, edit, view):
    plan = PackPlan.of(10, [[PackItem("a", 6)], [PackItem("b", 4)]], [PackItem("c", 12)])
    assert plan.packs and plan.overflow  # built and read, not edited: accepted
    plan.validate()
    emit_plan(plan, tmp_path / "ok.jsonl")
    edit(plan)
    with pytest.raises(ValueError, match=f"plan.{view} was edited"):
        plan.validate()
    with pytest.raises(ValueError, match=f"plan.{view} was edited"):
        emit_plan(plan, tmp_path / "plan.jsonl")
    assert not (tmp_path / "plan.jsonl").exists()


def test_plan_bounds_must_cover_the_packed_items():
    items = Items.of([PackItem("a", 2)])
    for bounds in ([0], [1, 1], [0, 2], [0, 1, 0, 1]):
        with pytest.raises(ValueError, match="bounds must rise"):
            PackPlan(10, items, np.array(bounds, dtype=np.int64))


@pytest.mark.parametrize(
    "packs, overflow, message",
    [
        ([[PackItem("a", 3)], []], [], "pack 1 is empty"),
        ([[PackItem("a", 3), PackItem("b", 9)]], [], "pack 0 holds 12 tokens > capacity 10"),
        ([[PackItem("a", 3)], [PackItem("a", 4)]], [], "sample 'a' repeated"),
        ([[PackItem("a", 3)], [PackItem("b", 4), PackItem("c", 9)]], [PackItem("a", 11)],
         "pack 1 holds 13 tokens"),
        ([[PackItem("a", 3)], [PackItem("b", 4)]], [PackItem("a", 11)], "sample 'a' repeated"),
        ([[PackItem("a", 3), PackItem("a", 9)], []], [], "pack 0 holds 12 tokens"),
        ([[PackItem("a", 3)], [PackItem("b", 4)]], [PackItem("c", 10)],
         "overflow item 'c' of length 10 fits the capacity 10"),
    ],
)
def test_validate_names_the_first_fault(packs, overflow, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PackPlan.of(10, packs, overflow).validate()


class SameHash(str):
    def __hash__(self):
        return 7


def test_validate_tells_equal_hashes_from_a_repeated_id():
    plan = PackPlan.of(10, [[PackItem(SameHash("a"), 3)], [PackItem(SameHash("b"), 4)]])
    plan.validate()
    plan = PackPlan.of(10, [[PackItem(SameHash("a"), 3)]], [PackItem(SameHash("a"), 11)])
    with pytest.raises(ValueError, match="sample 'a' repeated"):
        plan.validate()


def test_stats_read_only_the_fills():
    plan = PackPlan.of(10, [[PackItem("a", 9)], [PackItem("b", 5)]], [PackItem("c", 30)])
    stats = packing_stats(plan, PackingConfig(capacity=10, min_utilization=0.9))
    assert (stats.num_samples, stats.num_packs, stats.overflow_count) == (3, 2, 1)
    assert stats.utilization == 0.7 and stats.success_rate == 0.5
    assert type(stats.num_packs) is int and type(stats.utilization) is float


# ------------------------------------------------------------ plan writer

ODD_TAGS = ["plain", 'quote"d', "back\\slash", "tab\tnl\n", "nul\x00", "\x7f", "\u00e9",
            "\u2028", "\U0001f600", "\ud800", "", " "]


def test_emit_writes_what_the_object_writer_writes(tmp_path):
    rng = np.random.default_rng(71)
    for trial in range(40):
        rows = [
            PackItem(f"{ODD_TAGS[j % len(ODD_TAGS)]}-{trial}-{j}", int(rng.integers(1, 40)),
                     ODD_TAGS[int(rng.integers(len(ODD_TAGS)))])
            for j in range(int(rng.integers(0, 80)))
        ]
        cfg = PackingConfig(capacity=int(rng.integers(8, 40)), shards=int(rng.integers(1, 4)),
                            max_sources_per_pack=2 if trial % 2 else None)
        plan = pack_bucketed(rows, cfg)
        stats = emit_plan(plan, tmp_path / "new.jsonl", cfg)
        oracle.emit_plan(tmp_path / "old.jsonl", plan.capacity, plan.packs, plan.overflow,
                         stats.to_dict())
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    plan = PackPlan.of(50, [[PackItem(tag + "!", 3, tag) for tag in ODD_TAGS]],
                       [PackItem("\ud800", 51, "\ud800")])
    stats = emit_plan(plan, tmp_path / "new.jsonl")
    oracle.emit_plan(tmp_path / "old.jsonl", 50, plan.packs, plan.overflow, stats.to_dict())
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    assert load_plan(tmp_path / "new.jsonl").packs == plan.packs


# -------------------------------------------------------- int64 length rule


def test_manifest_length_beyond_int64_names_the_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"a","length":3}\n{"id":"b","length":%d}\n' % 2**63)
    with pytest.raises(ValueError, match="line 2: item 'b' has length 9223372036854775808, beyond"):
        load_pack_items(path)
    path.write_text('{"id":"a","length":3}\n{"id":"b","text_tokens":%d}\n' % 2**63)
    with pytest.raises(ValueError, match="line 2: item 'b' has length"):
        load_pack_items(path)


def test_plan_length_beyond_int64_names_the_line(tmp_path):
    path = tmp_path / "p.jsonl"
    emit_plan(PackPlan.of(10, [[PackItem("a", 6)]], [PackItem("b", 2**62)]), path)
    assert load_plan(path).overflow == [PackItem("b", 2**62)]
    path.write_text(path.read_text().replace(str(2**62), str(2**63)))
    with pytest.raises(ValueError, match="line 2: item 'b' has length 9223372036854775808, beyond"):
        load_plan(path)


def test_plan_load_names_a_missing_trailer_stat(tmp_path):
    path = tmp_path / "p.jsonl"
    emit_plan(PackPlan.of(10, [[PackItem("a", 6)]]), path)
    pack_line, trailer_line = path.read_text().splitlines()
    trailer = json.loads(trailer_line)
    del trailer["stats"]["utilization"]
    path.write_text(pack_line + "\n" + json.dumps(trailer) + "\n")
    with pytest.raises(ValueError, match="line 2: trailer stats utilization is missing, the plan"):
        load_plan(path)
