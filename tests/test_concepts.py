import json
import math

import numpy as np
import pytest

from balancepack.concepts import (
    ConceptAssignment,
    ConceptVocabulary,
    build_pseudo_caption,
    cosine_similarities,
    l2_normalize,
    load_assignments,
    load_embeddings,
    load_vocabulary,
    save_assignments,
    save_embeddings,
    save_vocabulary,
    topk_concepts,
)


def random_matrix(rng, rows, dim):
    return rng.standard_normal((rows, dim)).astype(np.float32)


def make_vocab(embeddings, prefix="c"):
    return ConceptVocabulary(
        names=[f"{prefix}{i}" for i in range(embeddings.shape[0])], embeddings=embeddings
    )


def scan_sort_topk(images, vocab, k):
    """Brute-force oracle: score every concept, full sort, same tie rule."""
    img = l2_normalize(images)
    con = l2_normalize(vocab.embeddings)
    sims = cosine_similarities(img, con)
    out = []
    for i in range(img.shape[0]):
        order = sorted(range(vocab.size), key=lambda j: (-sims[i, j], j))[:k]
        out.append([(j, sims[i, j]) for j in order])
    return out


# ---------------------------------------------------------------- binary io


def test_embedding_file_round_trip_small(tmp_path):
    m = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "m.emb"
    save_embeddings(path, m)
    loaded = load_embeddings(path)
    assert loaded.shape == (2, 3)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, m)


def test_embedding_round_trip_randomized_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(50):
        rows = int(rng.integers(1, 20))
        dim = int(rng.integers(1, 40))
        m = random_matrix(rng, rows, dim)
        path = tmp_path / f"m{trial}.emb"
        save_embeddings(path, m)
        loaded = load_embeddings(path)
        assert loaded.tobytes() == m.tobytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError, match="bad magic.*byte 0"):
        load_embeddings(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.emb"
    m = np.ones((2, 3), dtype=np.float32)
    save_embeddings(path, m)
    data = path.read_bytes()
    path.write_bytes(data[:-4])  # drop one float: header says 6, payload has 5
    with pytest.raises(ValueError, match="truncated payload"):
        load_embeddings(path)


def test_load_rejects_non_finite_with_offset(tmp_path):
    path = tmp_path / "nan.emb"
    m = np.ones((2, 2), dtype=np.float32)
    save_embeddings(path, m)
    data = bytearray(path.read_bytes())
    data[12 + 3 * 4 : 12 + 4 * 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"byte {12 + 3 * 4}"):
        load_embeddings(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.emb"
    save_embeddings(path, np.ones((2, 3), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(ValueError, match="at byte 40, expected 36 bytes"):
        load_embeddings(path)


def test_load_names_first_non_finite_value_past_the_first_row_block(tmp_path):
    path = tmp_path / "late-nan.emb"
    save_embeddings(path, np.ones((3000, 4), dtype=np.float32))
    data = bytearray(path.read_bytes())
    first, later = 2500 * 4 + 2, 2900 * 4
    data[12 + first * 4 : 12 + first * 4 + 4] = np.float32(np.inf).tobytes()
    data[12 + later * 4 : 12 + later * 4 + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=rf"byte {12 + first * 4} \(element {first}\)"):
        load_embeddings(path)


def test_save_rejects_non_finite():
    m = np.array([[1.0, np.inf]], dtype=np.float32)
    with pytest.raises(ValueError, match="non-finite"):
        save_embeddings("/dev/null", m)


# ------------------------------------------------------------- normalization


def test_l2_normalize_three_four_five():
    m = np.array([[3.0, 4.0]], dtype=np.float32)
    out = l2_normalize(m)
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-7)


def test_l2_normalize_unit_row_unchanged():
    m = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
    assert np.array_equal(l2_normalize(m), m)


def test_l2_normalize_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 8, 16)
    out = l2_normalize(m)
    for i in range(8):
        norm = math.sqrt(sum(float(v) * float(v) for v in m[i]))
        expected = [float(v) / norm for v in m[i]]
        assert np.allclose(out[i], expected, atol=1e-7)
        assert abs(math.sqrt(sum(float(v) ** 2 for v in out[i])) - 1.0) < 1e-6


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 20, 12) * 100
    once = l2_normalize(m)
    twice = l2_normalize(once)
    assert np.max(np.abs(once.astype(np.float64) - twice.astype(np.float64))) < 1e-6


def test_l2_normalize_rejects_near_zero_row():
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]], dtype=np.float32)
    with pytest.raises(ValueError, match="row 1"):
        l2_normalize(m)


# -------------------------------------------------------------------- top-k


def test_topk_self_similarity_rank_one():
    rng = np.random.default_rng(4)
    concepts = l2_normalize(random_matrix(rng, 6, 8))
    vocab = make_vocab(concepts)
    images = concepts[3:4].copy()
    (a,) = topk_concepts(images, vocab, k=1)
    idx, sim = a.concepts[0]
    assert idx == 3
    assert abs(sim - 1.0) <= 1e-6


def test_topk_k_equals_m_is_permutation():
    rng = np.random.default_rng(5)
    vocab = make_vocab(random_matrix(rng, 7, 5))
    images = random_matrix(rng, 3, 5)
    for a in topk_concepts(images, vocab, k=7):
        assert sorted(a.indices) == list(range(7))


def test_topk_matches_scan_sort_oracle_worked_example():
    rng = np.random.default_rng(6)
    images = random_matrix(rng, 5, 3)
    vocab = make_vocab(random_matrix(rng, 4, 3))
    got = topk_concepts(images, vocab, k=2)
    want = scan_sort_topk(images, vocab, k=2)
    for a, w in zip(got, want):
        assert list(a.indices) == [j for j, _ in w]
        assert [s for _, s in a.concepts] == [s for _, s in w]


def test_topk_tie_breaks_to_lower_index():
    row = l2_normalize(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
    emb = np.vstack([row, row, row]).astype(np.float32)  # three identical concepts
    vocab = make_vocab(emb)
    (a,) = topk_concepts(row.copy(), vocab, k=2)
    assert a.indices == (0, 1)


def test_topk_similarities_non_increasing_and_distinct():
    rng = np.random.default_rng(7)
    vocab = make_vocab(random_matrix(rng, 30, 6))
    for a in topk_concepts(random_matrix(rng, 10, 6), vocab, k=5):
        sims = [s for _, s in a.concepts]
        assert all(x >= y for x, y in zip(sims, sims[1:]))
        assert len(set(a.indices)) == 5
        assert all(-1 - 1e-6 <= s <= 1 + 1e-6 for s in sims)


def test_topk_dimension_mismatch_and_bad_k():
    rng = np.random.default_rng(8)
    vocab = make_vocab(random_matrix(rng, 4, 5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        topk_concepts(random_matrix(rng, 2, 3), vocab, k=2)
    with pytest.raises(ValueError, match="out of range"):
        topk_concepts(random_matrix(rng, 2, 5), vocab, k=5)


def test_topk_thread_count_does_not_change_output():
    rng = np.random.default_rng(9)
    images = random_matrix(rng, 40, 8)
    vocab = make_vocab(random_matrix(rng, 25, 8))
    assert topk_concepts(images, vocab, 4, threads=1) == topk_concepts(
        images, vocab, 4, threads=4
    )


def test_chunked_similarities_match_full():
    # Row-chunk boundaries must not perturb the float64 accumulation.
    rng = np.random.default_rng(10)
    img = l2_normalize(random_matrix(rng, 100, 16))
    con = l2_normalize(random_matrix(rng, 32, 16))
    full = cosine_similarities(img, con)
    for start in range(0, 100, 17):
        part = cosine_similarities(img[start : start + 17], con)
        assert np.array_equal(part, full[start : start + 17])


# ----------------------------------------------------------- pseudo-captions


def test_pseudo_caption_join_order():
    vocab = make_vocab(np.eye(3, dtype=np.float32), prefix="")
    vocab.names = ["animal", "cat", "dog"]
    a = ConceptAssignment(sample_index=0, concepts=((2, 0.9), (0, 0.5)))
    assert build_pseudo_caption(a, vocab) == "dog, animal"


def test_pseudo_caption_singleton_has_no_separator():
    vocab = make_vocab(np.eye(2, dtype=np.float32))
    a = ConceptAssignment(sample_index=0, concepts=((1, 0.3),))
    assert build_pseudo_caption(a, vocab) == "c1"


def test_pseudo_caption_rejects_out_of_range_index():
    vocab = make_vocab(np.eye(2, dtype=np.float32))
    a = ConceptAssignment(sample_index=0, concepts=((5, 0.3),))
    with pytest.raises(ValueError, match="out of vocabulary range"):
        build_pseudo_caption(a, vocab)


def test_pseudo_caption_splits_back_to_names():
    rng = np.random.default_rng(11)
    names = [f"concept-{i}" for i in range(12)]
    vocab = ConceptVocabulary(names=names, embeddings=random_matrix(rng, 12, 4))
    for _ in range(20):
        k = int(rng.integers(1, 6))
        idxs = rng.choice(12, size=k, replace=False)
        sims = np.sort(rng.uniform(-1, 1, size=k))[::-1]
        a = ConceptAssignment(
            sample_index=0, concepts=tuple((int(i), float(s)) for i, s in zip(idxs, sims))
        )
        caption = build_pseudo_caption(a, vocab)
        assert caption.split(", ") == [names[i] for i in idxs]


# ------------------------------------------------------- vocab + assignments


def test_vocabulary_rejects_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        ConceptVocabulary(names=["a", " a "], embeddings=np.eye(2, dtype=np.float32))


def test_vocabulary_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    vocab = ConceptVocabulary(
        names=[f"name {i}" for i in range(5)], embeddings=random_matrix(rng, 5, 3)
    )
    save_vocabulary(tmp_path / "v.tsv", tmp_path / "v.emb", vocab)
    loaded = load_vocabulary(tmp_path / "v.tsv", tmp_path / "v.emb")
    assert loaded.names == vocab.names
    assert np.array_equal(loaded.embeddings, vocab.embeddings)


def test_vocabulary_rejects_size_mismatch():
    with pytest.raises(ValueError, match="names but"):
        ConceptVocabulary(names=["a", "b", "c"], embeddings=np.eye(2, dtype=np.float32))


def test_assignments_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    assigns = []
    for i in range(30):
        k = int(rng.integers(1, 5))
        idxs = rng.choice(20, size=k, replace=False)
        sims = np.sort(rng.uniform(-1, 1, size=k))[::-1]
        assigns.append(
            ConceptAssignment(
                sample_index=i, concepts=tuple((int(c), float(s)) for c, s in zip(idxs, sims))
            )
        )
    path = tmp_path / "a.jsonl"
    save_assignments(path, assigns)
    assert load_assignments(path) == assigns
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"i", "c", "s"}


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"i":"1","c":[1,2],"s":[0.5,0.25]}', "field 'i' must be a JSON integer"),
        ('{"i":1.0,"c":[1,2],"s":[0.5,0.25]}', "field 'i' must be a JSON integer"),
        ('{"i":1,"c":[1.0,2],"s":[0.5,0.25]}', "field 'c' must hold JSON integers"),
        ('{"i":1,"c":[1,true],"s":[0.5,0.25]}', "field 'c' must hold JSON integers"),
        ('{"i":1,"c":[1,2],"s":["0.5",0.25]}', "field 's' must hold JSON floats"),
        ('{"i":1,"c":[1,2],"s":[1,0.25]}', "field 's' must hold JSON floats"),
        ('{"i":1,"c":"12","s":[0.5,0.25]}', "field 'c' must be a JSON array"),
        ('{"i":0,"c":[1,2],"s":[0.5,0.25]}', "record index 0, expected 1"),
        ('{"i":1,"c":[1,2]}', "missing field 's'"),
    ],
)
def test_assignments_load_rejects_what_save_never_writes(tmp_path, second, message):
    path = tmp_path / "a.jsonl"
    path.write_text('{"i":0,"c":[3],"s":[0.5]}\n' + second + "\n")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        load_assignments(path)


def test_assignments_load_rejects_an_index_not_at_its_position(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"i":3,"c":[3],"s":[0.5]}\n')
    with pytest.raises(ValueError, match="line 1: record index 3, expected 0"):
        load_assignments(path)
