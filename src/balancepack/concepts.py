"""Embedding storage, exact top-k concept assignment, and pseudo-captions.

Embeddings are plain float32 numpy matrices, one vector per row. They are
ingested precomputed; no encoder runs here. Similarity is the dot product
of L2-normalized rows, computed with float64 accumulation over the float32
values, which matches common embedding dumps while bounding accumulation
error. The top-k scan is exact: every concept is scored, the k largest are
selected by partition and ordered by (-similarity, concept index), and a
row whose k-th value is tied beyond the selection falls back to a full
stable sort, so ties always resolve to the lower concept index. There is
no approximate index.

Memory: finiteness checks, normalization and scoring run over blocks of
at most ``_ROW_BLOCK`` rows, so the float64 temporaries stay at one block
per worker, whatever the number of images.

Binary embedding format: magic ``EMB1``, uint32-LE rows, uint32-LE dim,
then rows*dim float32-LE values, row-major.
"""

from __future__ import annotations

import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .packing import json_field

EMB_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")

# Rows with an L2 norm below this signal upstream corruption; hard error.
NORM_EPS = 1e-12

CAPTION_SEPARATOR = ", "

# Image rows per worker task in topk_concepts. Fixed so results do not
# depend on the thread count.
_TOPK_CHUNK = 8192

# Most rows per block for finiteness checks, normalization and scoring.
# Bounds every float64 temporary to _ROW_BLOCK rows.
_ROW_BLOCK = 1024


def _row_blocks(start: int, stop: int) -> Iterator[slice]:
    """Split rows [start, stop) into the fewest near-equal blocks of <= _ROW_BLOCK rows.

    A range longer than one block never leaves a short tail block: every
    block then holds more than _ROW_BLOCK / 2 rows. BLAS scores a 1-row
    product as a matrix-vector product, which rounds differently from the
    matrix-matrix product the same row gets inside a larger block, so a
    tail sliver would change the last bit of some similarities.
    """
    total = stop - start
    count = -(-total // _ROW_BLOCK)
    for i in range(count):
        yield slice(start + total * i // count, start + total * (i + 1) // count)


def _first_non_finite(m: np.ndarray) -> int | None:
    """Flat index of the first non-finite element of a 2-D matrix, or None."""
    for rows in _row_blocks(0, m.shape[0]):
        bad = np.flatnonzero(~np.isfinite(m[rows]))
        if bad.size:
            return rows.start * m.shape[1] + int(bad[0])
    return None


@dataclass(frozen=True)
class ConceptAssignment:
    """Ranked top-k concepts for one sample.

    ``concepts`` holds (concept_index, cosine_similarity) pairs in
    non-increasing similarity order; indices are distinct.
    """

    sample_index: int
    concepts: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.concepts:
            raise ValueError("assignment must contain at least one concept")
        indices = [c for c, _ in self.concepts]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate concept index in assignment {self.sample_index}")
        sims = [s for _, s in self.concepts]
        for s in sims:
            if not -1.0 - 1e-6 <= s <= 1.0 + 1e-6:
                raise ValueError(f"similarity {s} outside [-1, 1]")
        if any(a < b for a, b in zip(sims, sims[1:])):
            raise ValueError("similarities must be non-increasing in rank order")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.concepts)


@dataclass
class ConceptVocabulary:
    """Concept names plus their embedding matrix, row i = concept i."""

    names: list[str]
    embeddings: np.ndarray

    def __post_init__(self) -> None:
        self.names = [n.strip() for n in self.names]
        if len(set(self.names)) != len(self.names):
            raise ValueError("vocabulary names must be unique after whitespace trimming")
        validate_embeddings(self.embeddings)
        if self.embeddings.shape[0] != len(self.names):
            raise ValueError(
                f"vocabulary has {len(self.names)} names but "
                f"{self.embeddings.shape[0]} embedding rows"
            )

    @property
    def size(self) -> int:
        return len(self.names)


def validate_embeddings(m: np.ndarray) -> None:
    if m.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {m.shape}")
    rows, dim = m.shape
    if rows < 1 or dim < 1:
        raise ValueError(f"embedding matrix must be at least 1x1, got {rows}x{dim}")
    if _first_non_finite(m) is not None:
        raise ValueError("embedding matrix contains non-finite values")


def load_embeddings(path: str | Path) -> np.ndarray:
    """Read an EMB1 file into a float32 (rows, dim) matrix.

    The payload is read once, straight into the returned array. Malformed
    input raises ValueError naming the offending byte offset.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(
                f"{path}: truncated header at byte {len(header)}, need {_HEADER.size}"
            )
        magic, rows, dim = _HEADER.unpack(header)
        if magic != EMB_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r} at byte 0, expected {EMB_MAGIC!r}")
        if rows < 1 or dim < 1:
            raise ValueError(f"{path}: invalid header rows={rows} dim={dim} at byte 4")
        expected = _HEADER.size + rows * dim * 4
        if size != expected:
            raise ValueError(
                f"{path}: truncated payload at byte {size}, expected {expected} bytes"
            )
        m = np.empty((rows, dim), dtype="<f4")
        got = f.readinto(m.reshape(-1).view(np.uint8))
        if got != expected - _HEADER.size:
            raise ValueError(
                f"{path}: truncated payload at byte {_HEADER.size + got}, "
                f"expected {expected} bytes"
            )
    bad = _first_non_finite(m)
    if bad is not None:
        raise ValueError(
            f"{path}: non-finite value at byte {_HEADER.size + bad * 4} (element {bad})"
        )
    return m


def save_embeddings(path: str | Path, m: np.ndarray) -> None:
    """Write a float32 matrix in the EMB1 binary format."""
    validate_embeddings(m)
    rows, dim = m.shape
    payload = np.ascontiguousarray(m, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(EMB_MAGIC, rows, dim))
        f.write(payload)


def load_vocabulary(names_path: str | Path, embeddings_path: str | Path) -> ConceptVocabulary:
    """Load a TSV of ``index<TAB>name`` rows plus the matching EMB1 file."""
    entries: dict[int, str] = {}
    with open(names_path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{names_path}: line {lineno}: expected 'index<TAB>name'")
            try:
                idx = int(parts[0])
            except ValueError:
                raise ValueError(f"{names_path}: line {lineno}: bad index {parts[0]!r}") from None
            if idx in entries:
                raise ValueError(f"{names_path}: line {lineno}: duplicate index {idx}")
            entries[idx] = parts[1]
    if not entries:
        raise ValueError(f"{names_path}: empty vocabulary")
    size = len(entries)
    if set(entries) != set(range(size)):
        raise ValueError(f"{names_path}: indices must cover 0..{size - 1} exactly")
    names = [entries[i] for i in range(size)]
    return ConceptVocabulary(names=names, embeddings=load_embeddings(embeddings_path))


def save_vocabulary(
    names_path: str | Path, embeddings_path: str | Path, vocab: ConceptVocabulary
) -> None:
    with open(names_path, "w", encoding="utf-8", newline="\n") as f:
        for i, name in enumerate(vocab.names):
            f.write(f"{i}\t{name}\n")
    save_embeddings(embeddings_path, vocab.embeddings)


def _row_norms(m32: np.ndarray) -> np.ndarray:
    """Float64 L2 norm of every row, computed one row block at a time."""
    norms = np.empty(m32.shape[0], dtype=np.float64)
    for rows in _row_blocks(0, m32.shape[0]):
        norms[rows] = np.linalg.norm(m32[rows].astype(np.float64), axis=1)
    return norms


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm; output stays float32.

    Each row is divided by its norm in float64 and rounded once to
    float32. Rows with norm below NORM_EPS are rejected with the row index.
    """
    validate_embeddings(m)
    m32 = np.ascontiguousarray(m, dtype=np.float32)
    norms = _row_norms(m32)
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        raise ValueError(f"row {int(bad[0])} has near-zero norm {norms[bad[0]]:.3e}")
    out = np.empty(m32.shape, dtype=np.float32)
    for rows in _row_blocks(0, m32.shape[0]):
        out[rows] = m32[rows].astype(np.float64) / norms[rows, None]
    return out


def _ensure_normalized(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as float32, renormalizing every row if any row is off unit norm."""
    m32 = np.ascontiguousarray(m, dtype=np.float32)
    if np.any(np.abs(_row_norms(m32) - 1.0) > 1e-6):
        return l2_normalize(m32)
    return m32


def cosine_similarities(images: np.ndarray, concepts: np.ndarray) -> np.ndarray:
    """Dot products of float32 rows, accumulated in float64.

    Inputs are assumed L2-normalized; the result is a float64
    (n_images, n_concepts) similarity matrix.
    """
    return images.astype(np.float64) @ concepts.astype(np.float64, copy=False).T


def _topk_block(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of each row's k largest similarities.

    Ranked by (-similarity, concept index), exactly as the first k columns
    of a stable argsort of ``-sims``. The k largest are found by partition;
    a row holding more than k values >= its k-th largest has a tie across
    the selection boundary and is ranked by a stable sort instead.
    """
    m = sims.shape[1]
    top = np.argpartition(sims, m - k, axis=1)[:, m - k :]
    top.sort(axis=1)  # ascending index, so the stable sort breaks ties low
    vals = np.take_along_axis(sims, top, axis=1)
    rank = np.argsort(-vals, axis=1, kind="stable")
    order = np.take_along_axis(top, rank, axis=1)
    picked = np.take_along_axis(vals, rank, axis=1)
    tied = np.flatnonzero(np.count_nonzero(sims >= picked[:, -1:], axis=1) > k)
    if tied.size:
        order[tied] = np.argsort(-sims[tied], axis=1, kind="stable")[:, :k]
        picked[tied] = np.take_along_axis(sims[tied], order[tied], axis=1)
    return order, picked


def topk_concepts(
    images: np.ndarray,
    vocab: ConceptVocabulary,
    k: int,
    threads: int = 1,
) -> list[ConceptAssignment]:
    """Assign each image row its k most cosine-similar concepts.

    The scan is exhaustive and exact: per image, all concepts are scored,
    the k largest are selected by partition and ranked descending, with
    equal similarities resolved to the lower concept index. A row whose
    k-th similarity is tied with a concept outside the selection is ranked
    by a full stable sort, so the result always equals a stable descending
    sort of every row. Rows are scored at most ``_ROW_BLOCK`` at a time, so
    each worker's temporaries are a few ``_ROW_BLOCK`` x ``vocab.size``
    arrays. Tasks of ``_TOPK_CHUNK`` rows may run on parallel workers;
    output order and content are independent of ``threads``.
    """
    validate_embeddings(images)
    if images.shape[1] != vocab.embeddings.shape[1]:
        raise ValueError(
            f"dimension mismatch: images have dim {images.shape[1]}, "
            f"vocabulary has dim {vocab.embeddings.shape[1]}"
        )
    if not 1 <= k <= vocab.size:
        raise ValueError(f"k={k} out of range [1, {vocab.size}]")

    img = _ensure_normalized(images)
    con = _ensure_normalized(vocab.embeddings)

    def score_chunk(start: int) -> list[ConceptAssignment]:
        out: list[ConceptAssignment] = []
        for rows in _row_blocks(start, min(start + _TOPK_CHUNK, img.shape[0])):
            order, picked = _topk_block(cosine_similarities(img[rows], con), k)
            for r, (idx, sim) in enumerate(zip(order.tolist(), picked.tolist()), rows.start):
                out.append(ConceptAssignment(sample_index=r, concepts=tuple(zip(idx, sim))))
        return out

    starts = range(0, img.shape[0], _TOPK_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(score_chunk, starts))
    else:
        parts = [score_chunk(s) for s in starts]
    return [a for part in parts for a in part]


def build_pseudo_caption(assignment: ConceptAssignment, vocab: ConceptVocabulary) -> str:
    """Join the assignment's concept names in rank order with ", "."""
    for idx, _ in assignment.concepts:
        if not 0 <= idx < vocab.size:
            raise ValueError(f"concept index {idx} out of vocabulary range [0, {vocab.size})")
    return CAPTION_SEPARATOR.join(vocab.names[idx] for idx, _ in assignment.concepts)


def save_assignments(path: str | Path, assignments: Iterable[ConceptAssignment]) -> None:
    """Write assignments as JSON Lines: {"i": idx, "c": [...], "s": [...]}."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for a in assignments:
            rec = {
                "i": a.sample_index,
                "c": [c for c, _ in a.concepts],
                "s": [s for _, s in a.concepts],
            }
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_assignments(path: str | Path) -> list[ConceptAssignment]:
    """Read what save_assignments writes: record i is {"i": i, "c": [int], "s": [float]}."""
    out: list[ConceptAssignment] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                index = json_field(rec, "i", int)
                if index != len(out):
                    raise ValueError(f"record index {index}, expected {len(out)}")
                cs = json_field(rec, "c", list)
                sims = json_field(rec, "s", list)
                if not all(type(c) is int for c in cs):
                    raise ValueError(f"field 'c' must hold JSON integers, got {cs!r}")
                if not all(type(s) is float for s in sims):
                    raise ValueError(f"field 's' must hold JSON floats, got {sims!r}")
                out.append(
                    ConceptAssignment(sample_index=index, concepts=tuple(zip(cs, sims, strict=True)))
                )
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


def assignment_indices(assignments: Sequence[ConceptAssignment]) -> np.ndarray:
    """Flatten assignments into one int64 vector of concept indices."""
    return np.fromiter(
        (c for a in assignments for c in a.indices),
        dtype=np.int64,
        count=sum(len(a.concepts) for a in assignments),
    )
