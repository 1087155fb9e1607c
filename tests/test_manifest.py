import numpy as np
import pytest

from balancepack.manifest import (
    SampleRecord,
    SynthConfig,
    emit_manifest,
    estimate_tokens,
    ingest_manifest,
    load_pack_items,
    records_to_pack_items,
    synth_corpus,
    zipf_weights,
)


def record(text=0, image=None, patch=14, merge=2, rid="r0"):
    return SampleRecord(
        id=rid, source="web", text_tokens=text, image=image, patch=patch, merge=merge
    )


# ------------------------------------------------------------ token estimate


def test_estimate_336_square_is_144():
    assert estimate_tokens(record(image=(336, 336))) == 144


def test_estimate_448_square_is_256():
    assert estimate_tokens(record(image=(448, 448))) == 256


def test_estimate_text_only():
    assert estimate_tokens(record(text=57)) == 57


def test_estimate_adds_text_and_visual():
    assert estimate_tokens(record(text=10, image=(336, 336))) == 154


def test_estimate_ceils_per_side_before_merging():
    # 100px/14 -> 8 patches, ceil(8/2)=4 per side -> 16 tokens
    assert estimate_tokens(record(image=(100, 100))) == 16
    # 99x15: grids 8x2 -> merged 4x1 = 4
    assert estimate_tokens(record(image=(99, 15))) == 4


def test_estimate_exact_when_grid_divisible():
    w, h = 14 * 8, 14 * 6  # grids 8 and 6, both divisible by merge=2
    assert estimate_tokens(record(image=(w, h))) == (8 // 2) * (6 // 2)


def test_estimate_monotone_in_geometry_and_text():
    base = estimate_tokens(record(text=5, image=(200, 150)))
    assert estimate_tokens(record(text=6, image=(200, 150))) >= base
    assert estimate_tokens(record(text=5, image=(230, 150))) >= base
    assert estimate_tokens(record(text=5, image=(200, 180))) >= base


def test_record_rejects_image_smaller_than_patch():
    with pytest.raises(ValueError, match="smaller than one"):
        record(image=(10, 40))


def test_record_rejects_empty_content():
    with pytest.raises(ValueError, match="empty record"):
        record(text=0, image=None)


# ------------------------------------------------------------------ synthesis


def test_synth_config_validation():
    with pytest.raises(ValueError, match="n_samples"):
        SynthConfig(n_samples=0)
    with pytest.raises(ValueError, match="k="):
        SynthConfig(n_samples=5, vocab_size=3, k=4)
    with pytest.raises(ValueError, match="sum"):
        SynthConfig(n_samples=5, sources=(("a", 0.5), ("b", 0.6)))
    with pytest.raises(ValueError, match="length_min"):
        SynthConfig(n_samples=5, length_min=100, length_max=50)


def test_synth_deterministic_fixed_seed(tmp_path):
    cfg = SynthConfig(n_samples=500, vocab_size=50, k=3, seed=7)
    r1, a1 = synth_corpus(cfg)
    r2, a2 = synth_corpus(cfg)
    assert r1 == r2
    assert a1 == a2
    p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    emit_manifest(p1, r1)
    emit_manifest(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()


def test_synth_seed_changes_output():
    r1, _ = synth_corpus(SynthConfig(n_samples=200, vocab_size=50, seed=1))
    r2, _ = synth_corpus(SynthConfig(n_samples=200, vocab_size=50, seed=2))
    assert r1 != r2


def test_synth_lengths_respect_truncation():
    cfg = SynthConfig(n_samples=2000, length_min=100, length_max=900, seed=3)
    records, _ = synth_corpus(cfg)
    lengths = [r.text_tokens for r in records]
    assert min(lengths) >= 100 and max(lengths) <= 900


def test_synth_assignments_are_k_distinct_and_ranked():
    cfg = SynthConfig(n_samples=300, vocab_size=40, k=4, seed=5)
    _, assigns = synth_corpus(cfg)
    for a in assigns:
        assert len(a.concepts) == 4
        assert len(set(a.indices)) == 4
        sims = [s for _, s in a.concepts]
        assert all(x >= y for x, y in zip(sims, sims[1:]))


def test_synth_source_mixture_respected():
    cfg = SynthConfig(
        n_samples=20_000, vocab_size=20, k=2, sources=(("a", 0.8), ("b", 0.2)), seed=6
    )
    records, _ = synth_corpus(cfg)
    frac_a = sum(r.source == "a" for r in records) / len(records)
    assert abs(frac_a - 0.8) < 0.02


def test_zipf_exponent_zero_is_uniform():
    w = zipf_weights(100, 0.0)
    assert np.allclose(w, 0.01)
    cfg = SynthConfig(n_samples=50_000, vocab_size=20, k=1, zipf_exponent=0.0, seed=8)
    _, assigns = synth_corpus(cfg)
    counts = np.bincount([a.indices[0] for a in assigns], minlength=20)
    assert counts.max() / counts.min() < 1.15


def test_zipf_rank_frequency_slope():
    # Rank-frequency regression over ranks 1..100 recovers the exponent.
    # k=1 keeps the occurrence law exactly Zipf; with k distinct concepts
    # per sample the head ranks saturate (inclusion probability <= 1).
    cfg = SynthConfig(n_samples=100_000, vocab_size=1000, k=1, zipf_exponent=1.5, seed=11)
    _, assigns = synth_corpus(cfg)
    counts = np.bincount([a.indices[0] for a in assigns], minlength=1000)
    x = np.log10(np.arange(1, 101))
    y = np.log10(counts[:100].astype(float))
    slope = np.polyfit(x, y, 1)[0]
    assert abs(slope - (-1.5)) <= 0.1


def test_zipf_chi_squared_goodness_of_fit_top50():
    cfg = SynthConfig(n_samples=100_000, vocab_size=1000, k=1, zipf_exponent=1.5, seed=12)
    _, assigns = synth_corpus(cfg)
    counts = np.bincount([a.indices[0] for a in assigns], minlength=1000)
    expected = cfg.n_samples * zipf_weights(1000, 1.5)[:50]
    stat = float(((counts[:50] - expected) ** 2 / expected).sum())
    # chi-squared critical value at significance 0.01, df = 50
    assert stat <= 76.154


# -------------------------------------------------------------------- file io


def test_ingest_happy_path(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"id":"a","source":"web","text_tokens":5}\n'
        '{"id":"b","source":"web","text_tokens":0,"image":{"w":336,"h":336}}\n'
        '{"id":"c","source":"doc","text_tokens":7,"image":{"w":28,"h":28}}\n'
    )
    records = ingest_manifest(path)
    assert len(records) == 3
    assert [estimate_tokens(r) for r in records] == [5, 144, 8]


def test_ingest_rejects_duplicate_id(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"a","text_tokens":5}\n{"id":"a","text_tokens":6}\n')
    with pytest.raises(ValueError, match="duplicate id 'a'"):
        ingest_manifest(path)


def test_ingest_reports_line_number_for_bad_json(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"a","text_tokens":5}\n{oops\n')
    with pytest.raises(ValueError, match="line 2"):
        ingest_manifest(path)


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    records = []
    for i in range(100):
        if rng.random() < 0.5:
            records.append(record(text=int(rng.integers(1, 500)), rid=f"r{i}"))
        else:
            w = int(rng.integers(14, 600))
            h = int(rng.integers(14, 600))
            records.append(record(text=int(rng.integers(0, 50)), image=(w, h), rid=f"r{i}"))
    path = tmp_path / "m.jsonl"
    emit_manifest(path, records)
    assert ingest_manifest(path) == records
    # second emit is byte-identical
    path2 = tmp_path / "m2.jsonl"
    emit_manifest(path2, ingest_manifest(path))
    assert path.read_bytes() == path2.read_bytes()


def test_manifest_round_trip_preserves_non_default_patch(tmp_path):
    records = [record(text=3, image=(64, 64), patch=16, merge=4, rid="p")]
    path = tmp_path / "m.jsonl"
    emit_manifest(path, records)
    assert ingest_manifest(path) == records


def test_load_pack_items_simple_and_rich(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"id":"a","source":"web","length":40}\n'
        '{"id":"b","source":"doc","text_tokens":0,"image":{"w":336,"h":336}}\n'
    )
    items = load_pack_items(path)
    assert [(it.sample_id, it.length, it.source) for it in items] == [
        ("a", 40, "web"),
        ("b", 144, "doc"),
    ]


def test_records_to_pack_items():
    recs = [record(text=9, rid="x"), record(text=0, image=(336, 336), rid="y")]
    items = records_to_pack_items(recs)
    assert [(it.sample_id, it.length) for it in items] == [("x", 9), ("y", 144)]


# ------------------------------------------------------------- strict types


@pytest.mark.parametrize(
    "line, field",
    [
        ('{"id":"a","length":3.9}', "length"),
        ('{"id":"a","length":true}', "length"),
        ('{"id":"a","length":"12"}', "length"),
        ('{"id":"a","text_tokens":3.9}', "text_tokens"),
        ('{"id":"a","text_tokens":true}', "text_tokens"),
        ('{"id":"a","text_tokens":"12"}', "text_tokens"),
        ('{"id":"a","text_tokens":1,"image":{"w":336.0,"h":336}}', "w"),
        ('{"id":"a","text_tokens":1,"image":{"w":336,"h":"336"}}', "h"),
        ('{"id":"a","text_tokens":1,"image":{"w":336,"h":336},"patch":false}', "patch"),
        ('{"id":"a","text_tokens":1,"image":{"w":336,"h":336},"merge":2.0}', "merge"),
        ('{"id":1,"length":5}', "id"),
        ('{"id":"a","source":3,"length":5}', "source"),
        ('{"id":"a","source":null,"text_tokens":5}', "source"),
    ],
)
def test_pack_items_and_manifest_reject_coercible_types(tmp_path, line, field):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"ok","source":"web","text_tokens":4}\n' + line + "\n")
    with pytest.raises(ValueError, match=f"line 2: field '{field}' must be a JSON"):
        load_pack_items(path)
    if "length" not in line:
        with pytest.raises(ValueError, match=f"line 2: field '{field}' must be a JSON"):
            ingest_manifest(path)


def test_numeric_and_string_ids_do_not_collide(tmp_path):
    # Numeric ids are rejected rather than turned into strings, so 1 and
    # "1" can no longer collide as a duplicate.
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"1","length":4}\n{"id":1,"length":4}\n')
    with pytest.raises(ValueError, match="line 2: field 'id' must be a JSON string"):
        load_pack_items(path)


def test_loaders_reject_non_object_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id":"a","text_tokens":4}\n[1, 2]\n')
    with pytest.raises(ValueError, match="line 2: expected a JSON object"):
        load_pack_items(path)
    with pytest.raises(ValueError, match="line 2: expected a JSON object"):
        ingest_manifest(path)
    for image in ("[336,336]", "null"):
        path.write_text('{"id":"a","text_tokens":4,"image":%s}\n' % image)
        with pytest.raises(ValueError, match="line 1: field 'image' must be a JSON object"):
            load_pack_items(path)


def test_loaders_report_missing_id(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"source":"web","length":4}\n')
    with pytest.raises(ValueError, match="line 1: missing field 'id'"):
        load_pack_items(path)
