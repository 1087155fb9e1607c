"""The one writer path of ``jsonl``: every block writer gives the same
bytes at any block size, and a file appears under its name only once its
writer finished."""

import json
import re
from types import SimpleNamespace

import numpy as np
import packing_oracle as oracle
import pytest

from balancepack import jsonl
from balancepack.balance import load_weights, save_sampled_indices, save_weights
from balancepack.concepts import Assignments, save_assignments
from balancepack.manifest import (
    SampleRecord,
    SynthRecords,
    emit_manifest,
    ingest_manifest,
    load_pack_items,
)
from balancepack.packing import (
    PackingConfig,
    PackItem,
    PackPlan,
    emit_plan,
    load_plan,
    packing_stats,
)


def synth_records(rng, n):
    tags = ("web", 'q"uote', "été")
    lengths = rng.integers(1, 500, size=n).astype(np.int64)
    return SynthRecords(lengths, rng.integers(0, len(tags), size=n).astype(np.int32), tags)


def assignments(rng, widths):
    offsets = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
    concepts = np.concatenate([rng.permutation(20)[:w] for w in widths] or [[]]).astype(np.int64)
    # One decimal place, so values repeat across rows and blocks.
    sims = np.concatenate([np.sort(rng.uniform(-1, 1, w).round(1))[::-1] for w in widths] or [[]])
    return Assignments(offsets, concepts, sims)


def plan_of(n):
    """n packed items in packs of 2, 4 and 1 items, in turn: with 3 rows a
    block, packs straddle the block boundaries."""
    items = [PackItem(f"itém-{j}", 1 + j % 5, f"s{j % 3}") for j in range(n)]
    packs, at = [], 0
    for size in [2, 4, 1] * n:
        if at >= n:
            break
        packs.append(items[at : at + size])
        at += size
    return PackPlan.of(30, packs, [PackItem("long", 31, "s0")])


def write_every_file(out, n):
    rng = np.random.default_rng([5, n])
    records = synth_records(rng, n)
    emit_manifest(out / "manifest.jsonl", records)
    emit_manifest(out / "manifest_rows.jsonl", list(records))
    for name, widths in (("equal", [3] * n), ("ragged", [1 + j % 4 for j in range(n)])):
        rows = assignments(rng, widths)
        save_assignments(out / f"{name}.jsonl", rows)
        with open(out / f"{name}_rows.jsonl", "w") as f:
            for row in rows:
                c, s = zip(*row.concepts)
                f.write(json.dumps({"i": row.sample_index, "c": c, "s": s}, separators=(",", ":")))
                f.write("\n")
    weights = rng.uniform(0, 1, size=n)
    if n:
        save_weights(out / "weights.jsonl", weights / weights.sum())
    else:
        with pytest.raises(ValueError, match="non-empty"):
            save_weights(out / "weights.jsonl", weights)
    save_sampled_indices(out / "sampled.txt", rng.integers(0, 9000, size=n), 3, False)
    plan = plan_of(n)
    stats = emit_plan(plan, out / "plan.jsonl")
    oracle.emit_plan(out / "plan_oracle.jsonl", plan.capacity, plan.packs, plan.overflow,
                     stats.to_dict())


def test_write_rows_reads_the_block_size_at_call_time(monkeypatch):
    writes = []
    monkeypatch.setattr(jsonl, "WRITE_BLOCK", 3)
    columns = lambda lo, hi: (range(lo, hi), ["ab"] * (hi - lo))  # noqa: E731
    jsonl.write_rows(SimpleNamespace(write=writes.append), "%d:%s\n", 7, columns)
    assert writes == ["0:ab\n1:ab\n2:ab\n", "3:ab\n4:ab\n5:ab\n", "6:ab\n"]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_every_block_writer_writes_the_same_bytes_at_any_block_size(tmp_path, monkeypatch, n):
    default, small = tmp_path / "default", tmp_path / "small"
    default.mkdir()
    small.mkdir()
    write_every_file(default, n)
    monkeypatch.setattr(jsonl, "WRITE_BLOCK", 3)
    write_every_file(small, n)
    names = sorted(p.name for p in default.iterdir())
    assert names == sorted(p.name for p in small.iterdir())
    for name in names:
        assert (small / name).read_bytes() == (default / name).read_bytes()
    for files in (default, small):
        manifest, plan = files / "manifest.jsonl", files / "plan.jsonl"
        assert manifest.read_bytes() == (files / "manifest_rows.jsonl").read_bytes()
        assert plan.read_bytes() == (files / "plan_oracle.jsonl").read_bytes()
        assert len(plan.read_text().splitlines()) == len(plan_of(n).packs) + 1
        for name in ("equal", "ragged"):
            want = (files / f"{name}_rows.jsonl").read_bytes()
            assert (files / f"{name}.jsonl").read_bytes() == want


def test_emit_plan_refuses_an_empty_pack_and_writes_nothing(tmp_path):
    path = tmp_path / "plan.jsonl"
    with pytest.raises(ValueError, match="^pack 1 is empty$"):
        emit_plan(PackPlan.of(10, [[PackItem("a", 3)], []]), path)
    assert list(tmp_path.iterdir()) == []


def unchecked_plan(plan, path):
    stats = packing_stats(plan, PackingConfig(capacity=plan.capacity)).to_dict()
    oracle.emit_plan(path, plan.capacity, plan.packs, plan.overflow, stats)


def unchecked_weights(weights, path):
    with open(path, "w") as f:
        f.writelines('{"i":%d,"w":%r}\n' % (i, w) for i, w in enumerate(weights.tolist()))


def unchecked_manifest(records, path):
    with open(path, "w") as f:
        f.writelines(json.dumps({"id": r.id, "source": r.source, "text_tokens": r.text_tokens})
                     + "\n" for r in records)


PLAN = (emit_plan, unchecked_plan, load_plan)
WEIGHTS = (lambda w, path: save_weights(path, w), unchecked_weights, load_weights)
MANIFEST = (lambda r, path: emit_manifest(path, r), unchecked_manifest, ingest_manifest)


@pytest.mark.parametrize(
    "value, files, message",
    [
        (PackPlan.of(10, [[PackItem("a", 6), PackItem("b", 5)]]), PLAN,
         "pack 0 holds 11 tokens > capacity 10"),
        (PackPlan.of(10, [[PackItem("x", 4)], [PackItem("x", 4)]]), PLAN,
         "partition violation: sample 'x' repeated"),
        (PackPlan.of(10, [[PackItem("a", 3)]], [PackItem("x", 5)]), PLAN,
         "overflow item 'x' of length 5 fits the capacity 10"),
        (np.zeros(0), WEIGHTS, "weights must be a non-empty 1-D vector"),
        (np.array([0.5, 0.6]), WEIGHTS, "weights sum to 1.1, not 1 within 1e-09"),
        (np.array([1.0, 0.1, 5e-324, 1.7976931348623157e308, 1.7976931348623157e308]), WEIGHTS,
         "weights sum to inf, not 1 within 1e-09"),
        ([SampleRecord("a", "", 1), SampleRecord("a", "", 2)], MANIFEST, "duplicate id 'a'"),
    ],
    ids=["over-full-pack", "repeated-id", "overflow-that-fits", "empty-weights",
         "weights-sum-1.1", "weights-sum-inf", "manifest-repeated-id"],
)
def test_writers_refuse_what_their_readers_reject(tmp_path, value, files, message):
    write, write_unchecked, read = files
    path = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write(value, path)
    assert list(tmp_path.iterdir()) == []

    path.write_bytes(b"older\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write(value, path)
    assert path.read_bytes() == b"older\n"
    assert list(tmp_path.iterdir()) == [path]

    # Written without the writer's rules, the same value is what the reader rejects.
    write_unchecked(value, path)
    with pytest.raises(ValueError, match=re.escape(message)):
        read(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        (("a", "web", 3.5), "field 'text_tokens' must be a JSON integer, got 3.5"),
        (("a", "web", True), "field 'text_tokens' must be a JSON integer, got True"),
        (("a", "web", 3, (336.0, 336)), "field 'w' must be a JSON integer, got 336.0"),
        (("a", "web", 3, (336, False)), "field 'h' must be a JSON integer, got False"),
        (("a", "web", 3, None, 14.0), "field 'patch' must be a JSON integer, got 14.0"),
        (("a", "web", 3, None, 14, True), "field 'merge' must be a JSON integer, got True"),
        ((5, "web", 3), "field 'id' must be a JSON string, got 5"),
        (("a", None, 3), "field 'source' must be a JSON string, got None"),
    ],
    ids=["float-tokens", "bool-tokens", "float-width", "bool-height", "float-patch",
         "bool-merge", "int-id", "null-source"],
)
def test_a_record_of_a_type_its_readers_reject_is_refused(tmp_path, fields, message):
    path = tmp_path / "manifest.jsonl"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_manifest(path, (SampleRecord(*f) for f in [("ok", "web", 1), fields]))
    assert list(tmp_path.iterdir()) == []

    # Written as emit_manifest would write the record, the readers reject it with the same text.
    names = ("id", "source", "text_tokens", "image", "patch", "merge")
    obj = dict(zip(names, fields))
    if "image" in obj:
        obj["image"] = None if obj["image"] is None else dict(zip("wh", obj["image"]))
    path.write_text(json.dumps({k: v for k, v in obj.items() if v is not None or k == "source"}))
    for read in (ingest_manifest, load_pack_items):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: {message}')}$"):
            read(path)


def test_a_numpy_integer_is_not_a_json_integer():
    with pytest.raises(ValueError, match=r"^field 'text_tokens' must be a JSON integer, got "):
        SampleRecord("a", "web", np.int64(3))


def rows_then_fail(count):
    for j in range(count):
        yield SampleRecord(f"r{j}", "web", 3)
    raise RuntimeError("writer stopped")


def test_a_writer_that_fails_part_way_publishes_nothing(tmp_path):
    path = tmp_path / "manifest.jsonl"
    with pytest.raises(RuntimeError, match="writer stopped"):
        emit_manifest(path, rows_then_fail(5))
    assert list(tmp_path.iterdir()) == []

    emit_manifest(path, [SampleRecord("old", "web", 7)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="writer stopped"):
        emit_manifest(path, rows_then_fail(5))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_output_publishes_on_success_only(tmp_path):
    path = tmp_path / "f.bin"
    with jsonl.output(path, binary=True) as f:
        f.write(b"\x00\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [".f.bin.partial"]
        assert not path.exists()
    assert path.read_bytes() == b"\x00\n"
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(KeyboardInterrupt):
        with jsonl.output(path) as f:
            f.write("x\r\n")
            raise KeyboardInterrupt
    assert path.read_bytes() == b"\x00\n"
    assert list(tmp_path.iterdir()) == [path]
