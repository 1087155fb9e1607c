"""Differential tests of the blocked top-k kernel against the full-sort kernel.

``oracle_topk_concepts`` is the earlier implementation of
``concepts.topk_concepts``, kept verbatim with the full-matrix
normalization it relied on: every row of a chunk is stable-sorted on
``-sims``. The production kernel must return exactly the same
``ConceptAssignment`` list, bit for bit, on any input.
"""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from balancepack.concepts import (
    _ROW_BLOCK,
    NORM_EPS,
    ConceptAssignment,
    ConceptVocabulary,
    EmbeddingFile,
    _row_blocks,
    cosine_similarities,
    l2_normalize,
    load_embeddings,
    save_embeddings,
    topk_concepts,
    validate_embeddings,
)

# ------------------------------------------------------------------ oracle

# Image rows per task of the oracle, as the earlier kernel chunked them.
_TOPK_CHUNK = 8192


def oracle_l2_normalize(m):
    validate_embeddings(m)
    m32 = np.ascontiguousarray(m, dtype=np.float32)
    norms = np.linalg.norm(m32.astype(np.float64), axis=1)
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        raise ValueError(f"row {int(bad[0])} has near-zero norm {norms[bad[0]]:.3e}")
    return (m32.astype(np.float64) / norms[:, None]).astype(np.float32)


def oracle_ensure_normalized(m):
    m32 = np.ascontiguousarray(m, dtype=np.float32)
    norms = np.linalg.norm(m32.astype(np.float64), axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        return oracle_l2_normalize(m32)
    return m32


def oracle_cosine_similarities(images, concepts):
    return images.astype(np.float64) @ concepts.astype(np.float64).T


def oracle_topk_concepts(images, vocab, k, threads=1):
    validate_embeddings(images)
    if images.shape[1] != vocab.embeddings.shape[1]:
        raise ValueError(
            f"dimension mismatch: images have dim {images.shape[1]}, "
            f"vocabulary has dim {vocab.embeddings.shape[1]}"
        )
    if not 1 <= k <= vocab.size:
        raise ValueError(f"k={k} out of range [1, {vocab.size}]")

    img = oracle_ensure_normalized(images)
    con = oracle_ensure_normalized(vocab.embeddings)

    def score_chunk(start):
        chunk = img[start : start + _TOPK_CHUNK]
        sims = oracle_cosine_similarities(chunk, con)
        # Stable sort on -sims: descending similarity, ties keep lower index.
        order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        picked = np.take_along_axis(sims, order, axis=1)
        return [
            ConceptAssignment(
                sample_index=start + r,
                concepts=tuple(
                    (int(order[r, j]), float(picked[r, j])) for j in range(k)
                ),
            )
            for r in range(chunk.shape[0])
        ]

    starts = range(0, img.shape[0], _TOPK_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(score_chunk, starts))
    else:
        parts = [score_chunk(s) for s in starts]
    return [a for part in parts for a in part]


# ----------------------------------------------------------------- inputs


def make_vocab(embeddings):
    return ConceptVocabulary(
        names=[f"c{i}" for i in range(embeddings.shape[0])], embeddings=embeddings
    )


def gaussian(rng, rows, dim):
    return rng.standard_normal((rows, dim)).astype(np.float32)


def small_ints(rng, rows, dim):
    """Vectors with entries in -2..2 and no zero row: many exactly equal dot products."""
    m = rng.integers(-2, 3, size=(rows, dim))
    zero = ~m.any(axis=1)
    m[zero, rng.integers(0, dim, size=int(zero.sum()))] = 1
    return m.astype(np.float32)


def tie_heavy_vocab(rng, m, dim):
    """Small-integer concepts where about half the rows duplicate another row."""
    base = small_ints(rng, max(1, (m + 1) // 2), dim)
    return make_vocab(base[rng.integers(0, base.shape[0], size=m)])


def boundary_tie_rows(images, vocab, k):
    """Rows whose k-th and (k+1)-th largest similarities are equal."""
    if k == vocab.size:
        return 0
    sims = oracle_cosine_similarities(
        oracle_ensure_normalized(images), oracle_ensure_normalized(vocab.embeddings)
    )
    ranked = -np.sort(-sims, axis=1)
    return int(np.count_nonzero(ranked[:, k - 1] == ranked[:, k]))


def sims_bytes(assignments):
    return np.array([s for a in assignments for _, s in a.concepts]).tobytes()


def assert_same_as_oracle(images, vocab, k, threads=1):
    want = oracle_topk_concepts(images, vocab, k)
    got = topk_concepts(images, vocab, k, threads=threads)
    assert got == want
    assert sims_bytes(got) == sims_bytes(want)  # == alone equates -0.0 and 0.0


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 511, 512, 513, 50_000])
@pytest.mark.parametrize("start", [0, 7])
def test_row_blocks_are_aligned_and_never_hold_a_lone_row(n, start):
    blocks = list(_row_blocks(start, start + n))
    assert [r for b in blocks for r in range(b.start, b.stop)] == list(range(start, start + n))
    assert all((b.start - start) % _ROW_BLOCK == 0 for b in blocks)
    assert all(b.stop - b.start == _ROW_BLOCK for b in blocks[:-1])
    if n >= 2:
        assert all(b.stop - b.start >= 2 for b in blocks)
    if n >= _ROW_BLOCK:
        assert _ROW_BLOCK <= blocks[-1].stop - blocks[-1].start < 2 * _ROW_BLOCK


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [2, 257, 513, 2 * 256 + 80, 8192 + 1])
def test_each_rows_scores_are_those_of_one_product_over_all_rows(n, threads):
    # Every block starts where one product over all n rows would start a
    # micro-kernel tile, so a row's "s" has that product's bits and does
    # not depend on which block it falls in. Unit-norm inputs are scored
    # as they are, so the whole product is the reference itself. (40
    # concepts at 16 dimensions is none of the SkylakeX exceptions that
    # concepts._row_blocks names.)
    rng = np.random.default_rng([2015, n])
    images = l2_normalize(gaussian(rng, n, 16))
    vocab = make_vocab(l2_normalize(gaussian(rng, 40, 16)))
    full = cosine_similarities(images, vocab.embeddings)
    got = topk_concepts(images, vocab, 5, threads=threads)
    want = np.argsort(-full, axis=1, kind="stable")[:, :5]
    assert np.array_equal(got.concepts.reshape(n, 5), want)
    assert got.sims.tobytes() == np.take_along_axis(full, want, axis=1).tobytes()


def test_tie_heavy_inputs_hit_the_selection_boundary():
    rng = np.random.default_rng(2001)
    images = small_ints(rng, 300, 3)
    vocab = tie_heavy_vocab(rng, 20, 3)
    for k in (1, 2, 5, 10, 19):
        assert boundary_tie_rows(images, vocab, k) > 0
        assert_same_as_oracle(images, vocab, k)


@pytest.mark.parametrize(
    "n, m, d, k",
    [
        (50, 12, 4, 12),  # k == m
        (50, 12, 4, 1),  # k == 1
        (50, 1, 4, 1),  # m == 1
        (1, 1, 1, 1),
        (3, 7, 1, 3),  # d == 1: every similarity is +-1
    ],
)
def test_edge_shapes_match_oracle(n, m, d, k):
    rng = np.random.default_rng(2002 + n + m + d + k)
    assert_same_as_oracle(gaussian(rng, n, d), make_vocab(gaussian(rng, m, d)), k)
    assert_same_as_oracle(small_ints(rng, n, d), tie_heavy_vocab(rng, m, d), k)


def test_rows_across_block_and_chunk_boundaries_match_oracle():
    rng = np.random.default_rng(2003)
    n = _TOPK_CHUNK + _ROW_BLOCK + 1
    images = small_ints(rng, n, 4)
    vocab = tie_heavy_vocab(rng, 24, 4)
    assert boundary_tie_rows(images, vocab, 5) > 0
    want = oracle_topk_concepts(images, vocab, 5)
    for threads in (1, 2):
        assert topk_concepts(images, vocab, 5, threads=threads) == want
    for m, d, k in ((64, 16, 7), (2, 16, 1), (1, 3, 1)):
        images = gaussian(rng, n, d)
        vocab = make_vocab(gaussian(rng, m, d))
        assert_same_as_oracle(images, vocab, k, threads=1)
        assert_same_as_oracle(images, vocab, k, threads=2)


def test_a_lone_last_row_scores_as_in_a_two_row_input():
    # The oracle scores its final chunk, one row, as a matrix-vector product,
    # which may round unlike the same row in a larger block. The kernel never
    # scores a row alone, so the last row matches the same image in a 2-row
    # input, and every other row matches the oracle.
    rng = np.random.default_rng(2007)
    images = gaussian(rng, 2 * _TOPK_CHUNK + 1, 16)
    vocab = make_vocab(gaussian(rng, 40, 16))
    *head, last = topk_concepts(images, vocab, 3, threads=2)
    want = oracle_topk_concepts(images[:-1], vocab, 3)
    assert head == want
    assert sims_bytes(head) == sims_bytes(want)
    pair = topk_concepts(images[-2:], vocab, 3)
    assert last.concepts == pair[1].concepts
    assert sims_bytes([last]) == sims_bytes([pair[1]])


def test_pre_normalized_inputs_match_oracle():
    # Unit-norm rows skip renormalization; both kernels must agree on that too.
    rng = np.random.default_rng(2004)
    images = l2_normalize(gaussian(rng, 2 * _ROW_BLOCK + 3, 8))
    vocab = make_vocab(l2_normalize(small_ints(rng, 30, 8)))
    assert_same_as_oracle(images, vocab, 4)


def test_seeded_random_instances_match_oracle():
    rng = np.random.default_rng(2005)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 48))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, m + 1))
        if rng.random() < 0.5:
            images, vocab = small_ints(rng, n, d), tie_heavy_vocab(rng, m, d)
        else:
            images, vocab = gaussian(rng, n, d), make_vocab(gaussian(rng, m, d))
        assert_same_as_oracle(images, vocab, k, threads=int(rng.integers(1, 3)))


def test_l2_normalize_matches_full_matrix_oracle():
    rng = np.random.default_rng(2008)
    m = gaussian(rng, 3 * _ROW_BLOCK + 5, 24) * 7
    assert l2_normalize(m).tobytes() == oracle_l2_normalize(m).tobytes()
    m[2 * _ROW_BLOCK + 1] = 0.0
    with pytest.raises(ValueError, match=f"row {2 * _ROW_BLOCK + 1} "):
        l2_normalize(m)


def test_topk_temporaries_stay_well_below_one_chunk_matrix():
    # Peak traced allocation of this process, minus what the result keeps:
    # scoring a whole _TOPK_CHUNK at once needs at least one chunk x m
    # float64 matrix plus its argsort, so a return to chunk-sized
    # temporaries fails by a wide margin.
    rng = np.random.default_rng(2006)
    images = gaussian(rng, 20_000, 64)
    vocab = make_vocab(gaussian(rng, 1000, 64))
    chunk_matrix_bytes = _TOPK_CHUNK * vocab.size * 8
    tracemalloc.start()
    try:
        result = topk_concepts(images, vocab, k=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == images.shape[0]
    assert peak - held < chunk_matrix_bytes / 2, (
        f"top-k temporaries peaked at {(peak - held) / 1e6:.1f} MB; one chunk matrix "
        f"is {chunk_matrix_bytes / 1e6:.1f} MB"
    )


# Most bytes top-k's temporaries may take over its result, at threads 2,
# on 20,000 x 64 images against 1,000 concepts. A figure, not derived from
# _ROW_BLOCK: two workers' aligned blocks take about 10 MB, where the
# earlier near-equal 1024-row blocks took about 35 MB.
_TOPK_TEMPORARIES_MB = 12


def test_topk_temporaries_of_two_workers_stay_under_a_fixed_bound():
    rng = np.random.default_rng(2014)
    images = gaussian(rng, 20_000, 64)
    vocab = make_vocab(gaussian(rng, 1000, 64))
    tracemalloc.start()
    try:
        result = topk_concepts(images, vocab, k=5, threads=2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == images.shape[0]
    assert peak - held < _TOPK_TEMPORARIES_MB * 1e6, (
        f"top-k temporaries peaked at {(peak - held) / 1e6:.1f} MB; "
        f"the bound is {_TOPK_TEMPORARIES_MB} MB"
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_topk_never_copies_the_image_matrix(threads):
    # Non-unit images over many blocks make every row renormalize. Each task
    # normalizes its own block, so the temporaries stay far below one n x d
    # float32 copy; a whole-matrix normalized copy alone would be that copy.
    rng = np.random.default_rng(2009)
    images = gaussian(rng, 20_000, 256) * 3
    vocab = make_vocab(gaussian(rng, 16, 256))
    tracemalloc.start()
    try:
        result = topk_concepts(images, vocab, k=3, threads=threads)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == images.shape[0]
    assert peak - held < images.nbytes / 2, (
        f"top-k temporaries peaked at {(peak - held) / 1e6:.1f} MB; one image copy "
        f"is {images.nbytes / 1e6:.1f} MB"
    )


@pytest.mark.parametrize("n", [1, 2, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5])
@pytest.mark.parametrize("scale", [None, 3.0], ids=["unit", "off-unit"])
def test_topk_over_the_file_reader_equals_topk_over_the_loaded_matrix(tmp_path, n, scale):
    # The reader feeds the same float32 blocks to the same arithmetic, so
    # every similarity keeps its bits.
    rng = np.random.default_rng([2012, n])
    images = gaussian(rng, n, 24)
    images = l2_normalize(images) if scale is None else images * np.float32(scale)
    vocab = make_vocab(gaussian(rng, 40, 24))
    save_embeddings(tmp_path / "img.emb", images)
    want = topk_concepts(load_embeddings(tmp_path / "img.emb"), vocab, 5)
    with EmbeddingFile(tmp_path / "img.emb") as f:
        for threads in (1, 2):
            got = topk_concepts(f, vocab, 5, threads=threads)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.concepts, want.concepts)
            assert got.sims.tobytes() == want.sims.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_topk_over_the_file_reader_never_holds_the_image_matrix(tmp_path, threads):
    # Opening the file and scoring it read one block at a time; the whole
    # n x d payload, as load_embeddings returns it, is never held.
    rng = np.random.default_rng(2013)
    n, d = 40_000, 256
    save_embeddings(tmp_path / "img.emb", gaussian(rng, n, d) * 3)
    vocab = make_vocab(gaussian(rng, 16, d))
    tracemalloc.start()
    try:
        with EmbeddingFile(tmp_path / "img.emb") as f:
            result = topk_concepts(f, vocab, k=3, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == n
    held = result.offsets.nbytes + result.concepts.nbytes + result.sims.nbytes
    payload = n * d * 4
    assert peak - held < payload / 2, (
        f"reading and scoring peaked at {(peak - held) / 1e6:.1f} MB over the result; "
        f"the image payload is {payload / 1e6:.1f} MB"
    )


def test_one_off_norm_row_in_the_last_block_renormalizes_every_block():
    # Every row is within 1e-6 of unit norm but one, in the last block; the
    # decision to renormalize is global, so the first blocks renormalize too.
    rng = np.random.default_rng(2010)
    n = 3 * _ROW_BLOCK + 5
    images = l2_normalize(gaussian(rng, n, 8)) * np.float32(1 + 4e-7)
    norms = np.linalg.norm(images.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6) and np.any(np.abs(norms - 1.0) > 1e-7)
    images[-1] *= 2
    vocab = make_vocab(gaussian(rng, 30, 8))
    for threads in (1, 2):
        assert_same_as_oracle(images, vocab, 4, threads=threads)
    # Without the off-norm row nothing renormalizes, and the scores differ.
    head = topk_concepts(images[:-1], vocab, 4)
    assert sims_bytes(head) != sims_bytes(oracle_topk_concepts(images, vocab, 4)[:-1])


def test_near_zero_rows_in_two_blocks_name_the_lower_row():
    rng = np.random.default_rng(2011)
    images = gaussian(rng, 4 * _ROW_BLOCK, 8)
    images[3 * _ROW_BLOCK + 7] = 0.0
    images[_ROW_BLOCK + 3] = 1e-14
    vocab = make_vocab(gaussian(rng, 12, 8))
    with pytest.raises(ValueError) as want:
        oracle_topk_concepts(images, vocab, 2)
    assert str(want.value).startswith(f"row {_ROW_BLOCK + 3} has near-zero norm ")
    with pytest.raises(ValueError) as got:
        topk_concepts(images, vocab, 2, threads=2)
    assert str(got.value) == str(want.value)
