"""Columnar synth records and block writers against the loops they replace.

The oracles are the kernels as they were before the columns: the
``emit_manifest`` row loop over ``SampleRecord``s, ``save_assignments``,
``save_weights`` and ``save_sampled_indices`` over one whole-file
``tolist()``, and ``shard_of`` with a keyed BLAKE2b built per id. The
fast paths must write the same bytes, and assign the same shards.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import balancepack.rng
from balancepack.balance import save_sampled_indices, save_weights
from balancepack.concepts import Assignments, load_assignments, save_assignments
from balancepack.jsonl import WRITE_BLOCK
from balancepack.manifest import (
    _GEN_SHARD,
    DEFAULT_MERGE,
    DEFAULT_PATCH,
    SampleRecord,
    SynthConfig,
    SynthRecords,
    emit_manifest,
    load_pack_items,
    records_to_pack_items,
    synth_corpus,
)
from balancepack.packing import PackingConfig, emit_plan, pack
from balancepack.rng import shard_of, shards_of

# ------------------------------------------------------------------ oracles


def oracle_emit_manifest(path, records):
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


def oracle_save_assignments(path, assignments):
    a = Assignments.of(assignments)
    cs, ss, bounds = a.concepts.tolist(), a.sims.tolist(), a.offsets.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(
            '{"i":%d,"c":[%s],"s":[%s]}\n'
            % (i, ",".join(map(str, cs[lo:hi])), ",".join(map(repr, ss[lo:hi])))
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        )


def oracle_save_weights(path, weights):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines('{"i":%d,"w":%r}\n' % iw for iw in enumerate(weights.tolist()))


def oracle_save_sampled_indices(path, indices, seed, replacement):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# seed={seed} n={len(indices)} replacement={str(replacement).lower()}\n")
        for i in indices:
            f.write(f"{int(i)}\n")


def oracle_shard_of(sample_id, seed, shards):
    digest = hashlib.blake2b(
        sample_id.encode("utf-8", "surrogatepass"),
        digest_size=8,
        key=(seed & ((1 << 64) - 1)).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little") % shards


def same_bytes(tmp_path, write, oracle, *args):
    write(tmp_path / "fast", *args)
    oracle(tmp_path / "oracle", *args)
    return (tmp_path / "fast").read_bytes() == (tmp_path / "oracle").read_bytes()


# ------------------------------------------------------------- synth records

# A tag that JSON must escape, one that is not ASCII, and a repeated tag.
ODD_SOURCES = (('we"b\\', 0.4), ("bücher", 0.3), ("x\x01", 0.1), ('we"b\\', 0.2))


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 16385])
def test_synth_writers_match_the_row_loops(tmp_path, n):
    # 8192 is the writers' block, 16384 the generator's shard.
    assert WRITE_BLOCK == 8192 and _GEN_SHARD == 16384
    records, assignments = synth_corpus(
        SynthConfig(n_samples=n, vocab_size=60, k=3, sources=ODD_SOURCES, seed=n)
    )
    assert isinstance(records, SynthRecords)
    rows = list(records)
    assert same_bytes(tmp_path, emit_manifest, oracle_emit_manifest, records)
    emit_manifest(tmp_path / "rows", rows)  # any other iterable takes the row loop
    assert (tmp_path / "rows").read_bytes() == (tmp_path / "fast").read_bytes()
    assert same_bytes(tmp_path, save_assignments, oracle_save_assignments, assignments)


def test_synth_records_are_a_sequence_of_their_row_views():
    records, _ = synth_corpus(SynthConfig(n_samples=300, vocab_size=40, sources=ODD_SOURCES))
    rows = list(records)
    assert records[0] == rows[0] and records[-1] == rows[-1] == records[299]
    assert records[7] == SampleRecord("synth-00000007", rows[7].source, rows[7].text_tokens)
    assert records == rows and rows == list(records)
    assert records != rows[:-1] and records != rows[:-1] + [rows[0]]
    assert records.tags == ('we"b\\', "bücher", "x\x01")  # cfg.sources order, a repeat once
    with pytest.raises(IndexError):
        records[300]


def test_take_equals_records_to_pack_items_and_packs_the_same(tmp_path):
    records, _ = synth_corpus(SynthConfig(n_samples=3000, sources=ODD_SOURCES, seed=4))
    rows = np.unique(np.random.default_rng(4).integers(0, 3000, size=1500))
    taken = records.take(rows)
    listed = records_to_pack_items([records[i] for i in rows])
    assert list(taken) == list(listed)
    config = PackingConfig(max_sources_per_pack=1, max_samples_per_pack=9, shards=3, seed=4)
    emit_plan(pack(taken, config), tmp_path / "taken.jsonl", config)
    emit_plan(pack(listed, config), tmp_path / "listed.jsonl", config)
    assert (tmp_path / "taken.jsonl").read_bytes() == (tmp_path / "listed.jsonl").read_bytes()
    for bad in (-1, 3000):
        with pytest.raises(ValueError, match=f"record index {bad} out of range"):
            records.take(np.array([0, bad]))


# ------------------------------------------------------------- assignments


def ragged(rng, widths, sims_of):
    offsets = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
    concepts = np.concatenate([rng.permutation(50)[:w] for w in widths]).astype(np.int64)
    sims = np.concatenate([-np.sort(-sims_of(w)) for w in widths])
    return Assignments(offsets, concepts, sims)


TINY = np.finfo(np.float64).smallest_subnormal


@pytest.mark.parametrize(
    "case",
    ["mixed widths", "k = 1", "signed zeros", "subnormals", "all distinct", "few distinct"],
)
def test_save_assignments_matches_the_row_loop(tmp_path, case):
    rng = np.random.default_rng(sum(case.encode()))
    n = 2 * WRITE_BLOCK + 5
    pools = {
        "signed zeros": np.array([0.5, 0.0, -0.0, -0.0, 0.0, -0.25]),
        "subnormals": np.array([TINY, -TINY, 3 * TINY, 0.0, -0.0, 1e-310]),
        "few distinct": np.array([0.875, 0.1, 1 / 3, -1.0, 1.0]),
    }
    if case == "mixed widths":
        widths = rng.integers(1, 6, size=n)
        widths[WRITE_BLOCK : 2 * WRITE_BLOCK] = 4  # one block of equal widths among them
    else:
        widths = np.full(n, 1 if case == "k = 1" else 5)
    if case in pools:
        a = ragged(rng, widths, lambda w: rng.choice(pools[case], size=w))
    else:
        a = ragged(rng, widths, lambda w: rng.uniform(-1, 1, size=w))
    assert same_bytes(tmp_path, save_assignments, oracle_save_assignments, a)


def test_save_assignments_of_rows_and_of_nothing(tmp_path):
    # Two distinct bit patterns in 20 values: each is formatted once, and
    # -0.0 keeps its sign although it equals 0.0.
    a = Assignments(np.arange(0, 21, 2), np.tile([4, 1], 10), np.tile([0.0, -0.0], 10))
    assert same_bytes(tmp_path, save_assignments, oracle_save_assignments, list(a))
    assert (tmp_path / "fast").read_text().count('"s":[0.0,-0.0]') == 10
    empty = Assignments(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0))
    assert same_bytes(tmp_path, save_assignments, oracle_save_assignments, empty)
    assert (tmp_path / "fast").read_bytes() == b""


# -------------------------------------------------- weights and indices


@pytest.mark.parametrize("n", [1, WRITE_BLOCK, 2 * WRITE_BLOCK + 1])
def test_weights_and_indices_match_the_whole_file_writers(tmp_path, n):
    rng = np.random.default_rng(n)
    w = rng.random(n)
    w[1::7] = 0.0
    assert same_bytes(tmp_path, save_weights, oracle_save_weights, w / w.sum())
    idx = rng.integers(0, 10**12, size=n)
    assert same_bytes(
        tmp_path, save_sampled_indices, oracle_save_sampled_indices, idx, -3, True
    )


# ------------------------------------------------------------- shard hash


def test_shards_of_matches_the_per_id_keyed_hash():
    ids = ["", "a\x00b", "\x00", "\ud800", "b\udfff", "é", "日本語", "synth-00000042"]
    ids += [f"id-{i}" for i in range(200)]
    for seed in (0, 2**64 - 1, -7, 12345):
        for shards in (1, 2, 8, 1000, 2**63 - 1):
            expected = [oracle_shard_of(s, seed, shards) for s in ids]
            got = shards_of(ids, seed, shards)
            assert got.dtype == np.int64 and got.tolist() == expected, (seed, shards)
            assert [shard_of(s, seed, shards) for s in ids] == expected
    assert oracle_shard_of("x", 5, 2**70) == shard_of("x", 5, 2**70)
    assert shards_of([], 0, 3).tolist() == []


def test_the_shard_hash_is_hashlibs_blake2b():
    # So the hashlib oracle above covers the bits of the builtin rng uses.
    assert balancepack.rng.blake2b is hashlib.blake2b


def test_shards_of_temporaries_stay_under_a_fixed_bound():
    # 100k digests are 0.8 MB; joining a list of 100k small bytes objects
    # took 12.3 MB over the result.
    ids = [f"synth-{i:08d}" for i in range(100_000)]
    tracemalloc.start()
    try:
        shards = shards_of(ids, 3, 8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shards.size == len(ids)
    assert peak - held < 3 * 2**20, f"shards_of peaked {(peak - held) / 2**20:.1f} MB over its result"


# ------------------------------------------------------------------ memory


def test_synth_and_writer_temporaries_stay_a_small_multiple_of_the_columns(tmp_path):
    # Records are two columns (12 bytes a row) next to the assignment
    # columns; the writers hold one block at a time.
    n = 50_000
    cfg = SynthConfig(n_samples=n, seed=3)
    tracemalloc.start()
    try:
        records, assignments = synth_corpus(cfg)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        emit_manifest(tmp_path / "m.jsonl", records)
        save_assignments(tmp_path / "a.jsonl", assignments)
        save_weights(tmp_path / "w.jsonl", np.full(n, 1.0 / n))
        _, writers_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a = assignments
    columns = 12 * n + a.offsets.nbytes + a.concepts.nbytes + a.sims.nbytes
    assert max(peak, writers_peak) < 2.2 * columns, (
        f"synth and writers peaked at {max(peak, writers_peak) / 1e6:.1f} MB; "
        f"the columns are {columns / 1e6:.1f} MB"
    )
    assert writers_peak - held < columns, (
        f"writer temporaries peaked at {(writers_peak - held) / 1e6:.1f} MB; "
        f"the columns are {columns / 1e6:.1f} MB"
    )


def test_load_assignments_temporaries_stay_a_small_multiple_of_the_columns(tmp_path):
    # The loader appends each parsed block to array-backed columns in place,
    # then checks the rows a block at a time. Its parser's own temporaries
    # are a few MB whatever the row count, so the rows are enough to
    # outweigh them; the columns grow about 1/16 past their size.
    _, assignments = synth_corpus(SynthConfig(n_samples=100_000, seed=3))
    save_assignments(tmp_path / "a.jsonl", assignments)
    del assignments
    tracemalloc.start()
    try:
        a = load_assignments(tmp_path / "a.jsonl")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = a.offsets.nbytes + a.concepts.nbytes + a.sims.nbytes
    assert peak - held < 1.15 * columns, (
        f"load_assignments temporaries peaked at {(peak - held) / 1e6:.1f} MB; "
        f"the columns are {columns / 1e6:.1f} MB"
    )


def test_load_pack_items_line_by_line_keeps_no_per_line_lists(tmp_path):
    # The plain form is off the rich-record grammar, so every line goes
    # through the per-line parse. Keeping a Python int length and a source
    # str per line until the end took 16 MB over the items; the columns
    # keep an int64 length and an int32 source code per line.
    n = 100_000
    path = tmp_path / "plain.jsonl"
    sources = ("web", "docs", "images")
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            line = {"id": f"doc-{i:08d}", "source": sources[i % 3], "length": i % 700 + 1}
            f.write(json.dumps(line) + "\n")
    tracemalloc.start()
    try:
        items = load_pack_items(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert items.ids[-1] == f"doc-{n - 1:08d}" and items.tags == sources
    assert items.length.tolist() == [i % 700 + 1 for i in range(n)]
    assert peak - held < 10 * 2**20, f"peaked {(peak - held) / 2**20:.1f} MB over the items"
