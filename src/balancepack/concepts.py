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

Memory: finiteness checks, norms, normalization and scoring run over
row blocks that start at multiples of ``_ROW_BLOCK`` (256) and hold fewer
than twice that many rows; the alignment keeps each row's similarities
bit-equal to one product over all rows (see ``_row_blocks``).
``EmbeddingFile`` reads an EMB1 file one row block at a time, and
``topk_concepts`` reads, normalizes and scores the images one block per
pool task, from a matrix or straight from such a file. Scoring a file
therefore holds no n x d matrix at all: only the n row norms, the n x k
result columns, and one block's temporaries per worker, whatever the
number of images. ``load_embeddings`` still returns the whole matrix, for
callers that want it.

The assignments of n samples are one ``Assignments``: offsets, concept
and similarity columns in CSR layout, checked once with vector operations
over blocks of ``_CHECK_BLOCK`` (8192) rows, so the check's temporaries
are bounded by one block. Rows may differ in length; a
``ConceptAssignment`` row is built on demand.

Binary embedding format: magic ``EMB1``, uint32-LE rows, uint32-LE dim,
then rows*dim float32-LE values, row-major. ``EmbeddingFile`` is its one
parser.
"""

from __future__ import annotations

import os
import struct
from array import array
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .jsonl import (
    FLOAT,
    INT,
    canonical,
    float_reprs,
    output,
    text_input,
    write_rows,
    writer_lines,
)

EMB_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")

# Rows with an L2 norm below this signal upstream corruption; hard error.
NORM_EPS = 1e-12

CAPTION_SEPARATOR = ", "

# The line form of save_assignments, whatever the row widths.
_ASSIGNMENT_LINES = canonical(
    r'\{"i":%s,"c":\[%s(?:,%s)*\],"s":\[%s(?:,%s)*\]\}\n' % (INT, INT, INT, FLOAT, FLOAT)
)

# Rows per block of ``Assignments.blocks``: bounds the nnz-sized
# temporaries of the row checks and of image_weights to this many rows.
_CHECK_BLOCK = 8192

# Row alignment and size of the blocks of finiteness checks, normalization
# and scoring. Bounds every float64 temporary to 2 * _ROW_BLOCK - 1 rows.
_ROW_BLOCK = 256


def _row_blocks(start: int, stop: int) -> Iterator[slice]:
    """Split rows [start, stop) into blocks that start at multiples of _ROW_BLOCK.

    Every block starts a multiple of _ROW_BLOCK rows after ``start`` and
    holds _ROW_BLOCK rows, except the last, which absorbs the remainder:
    it holds _ROW_BLOCK to 2 * _ROW_BLOCK - 1 rows, or the whole range
    when that is shorter than _ROW_BLOCK. A GEMM micro-kernel handles
    the rows left over after its unroll with other code, so a row's
    similarities keep the bits they get in one product over the whole
    range only if its block starts where that product's unroll would.
    _ROW_BLOCK is a multiple of the row groups of every OpenBLAS kernel
    measured (SkylakeX, Haswell, Zen, Sandybridge, Nehalem, Prescott),
    with two exceptions, both on SkylakeX: more than 192 concepts when
    their number is not a multiple of 8 (rows go in groups of 24), and 2
    to 4 concepts at 64 or 256 dimensions. No block holds a single row
    once the range holds two, since BLAS scores a 1-row product as a
    matrix-vector product.
    """
    total = stop - start
    count = total // _ROW_BLOCK or min(total, 1)  # an empty range has no block
    for i in range(count):
        lo = start + i * _ROW_BLOCK
        yield slice(lo, stop if i == count - 1 else lo + _ROW_BLOCK)


def _first_non_finite(m: np.ndarray | EmbeddingFile) -> int | None:
    """Flat index of the first non-finite element of a 2-D matrix or an
    ``EmbeddingFile``, or None."""
    for rows in _row_blocks(0, m.shape[0]):
        bad = np.flatnonzero(~np.isfinite(m[rows]))
        if bad.size:
            return rows.start * m.shape[1] + int(bad[0])
    return None


@dataclass(frozen=True)
class ConceptAssignment:
    """One row of an ``Assignments``: ranked (concept_index, similarity) pairs, unchecked."""

    sample_index: int
    concepts: tuple[tuple[int, float], ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.concepts)


def _repeat_rows(row: np.ndarray, concepts: np.ndarray) -> np.ndarray:
    """Ascending rows that hold a concept twice, for rows ``row`` (ascending)
    of ``concepts``: a repeat is a pair of equal neighbours once each row's
    concepts are sorted. That is one sort of row * span + concept, where
    span is the range of the concepts, if the product fits int64 (as it
    does for any vocabulary that fits memory), else a two-key sort."""
    if concepts.size == 0:
        return row
    low = int(concepts.min())
    span = int(concepts.max()) - low + 1
    if int(row[-1] + 1) * span <= 2**63 - 1:
        key = np.sort(row * span + (concepts - low))
        return key[1:][key[1:] == key[:-1]] // span
    by_row = concepts[np.lexsort((concepts, row))]
    return row[1:][(row[1:] == row[:-1]) & (by_row[1:] == by_row[:-1])]


def _first_broken_row(o: np.ndarray, c: np.ndarray, s: np.ndarray) -> tuple[int, str] | None:
    """The lowest row of CSR columns (offsets ``o`` from 0 to ``c.size``)
    that breaks a row rule of ``Assignments``, with its reason, or None. Of
    rules broken in the same row, the first listed wins."""
    row = np.repeat(np.arange(o.size - 1), np.diff(o))
    same = row[1:] == row[:-1]
    outside = np.flatnonzero(~((s >= -1.0 - 1e-6) & (s <= 1.0 + 1e-6)))
    rules = (
        (np.flatnonzero(o[1:] == o[:-1]), "assignment must contain at least one concept"),
        (_repeat_rows(row, c), "duplicate concept index"),
        (row[outside], f"similarity {s[outside[0]] if outside.size else 0} outside [-1, 1]"),
        (row[1:][same & (s[1:] > s[:-1])], "similarities must be non-increasing in rank order"),
    )
    broken = [(int(rows[0]), reason) for rows, reason in rules if rows.size]
    return min(broken, key=lambda b: b[0]) if broken else None


class _RowError(ValueError):
    """A row that breaks a rule of ``Assignments``; readers map ``row`` to a line."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True, eq=False)
class Assignments(Sequence[ConceptAssignment]):
    """Ranked concepts of n samples in CSR columns: row i (sample i) holds
    ``concepts[offsets[i]:offsets[i+1]]`` with ``sims`` alongside, and
    ``offsets`` runs from 0 to ``len(concepts) == len(sims)``. Each row holds
    at least one concept, distinct indices, and non-increasing similarities
    within [-1, 1] (1e-6 slack, no NaN); the first row that breaks a rule is
    named in the ValueError. The rules run over the row ranges of
    ``blocks`` in order. Indexing and iteration build ``ConceptAssignment``
    rows on demand; ``==`` compares rows with any sequence of rows."""

    offsets: np.ndarray  # int64[n + 1]
    concepts: np.ndarray  # int64[nnz]
    sims: np.ndarray  # float64[nnz]

    def __post_init__(self) -> None:
        o, c, s = self.offsets, self.concepts, self.sims
        if o.size < 1 or o[0] != 0 or o[-1] != c.size or c.size != s.size or np.any(o[1:] < o[:-1]):
            raise ValueError("offsets must rise from 0 to len(concepts) == len(sims)")
        for lo, hi in self.blocks():
            b = o[lo : hi + 1]
            broken = _first_broken_row(b - b[0], c[b[0] : b[-1]], s[b[0] : b[-1]])
            if broken:  # blocks run in order, so this holds the first broken row
                raise _RowError(lo + broken[0], broken[1])

    @classmethod
    def of(cls, rows: Sequence[ConceptAssignment]) -> Assignments:
        """Checked columns of hand-built rows, each row's position its sample
        index (not ``sample_index``); an ``Assignments`` is returned as is.
        A concept index that is not an integer is rejected, not truncated."""
        if isinstance(rows, Assignments):
            return rows
        offsets = np.concatenate(([0], np.cumsum([len(r.concepts) for r in rows], dtype=np.int64)))
        pairs = [p for r in rows for p in r.concepts]
        for j, (c, _) in enumerate(pairs):
            if not isinstance(c, (int, np.integer)):
                row = int(np.searchsorted(offsets, j, side="right")) - 1
                raise _RowError(row, f"concept index {c!r} is not an integer")
        concepts = np.array([c for c, _ in pairs], dtype=np.int64)
        return cls(offsets, concepts, np.array([s for _, s in pairs], dtype=np.float64))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Consecutive row ranges [lo, hi) of _CHECK_BLOCK rows, the last shorter."""
        n = len(self)
        for lo in range(0, n, _CHECK_BLOCK):
            yield lo, min(lo + _CHECK_BLOCK, n)

    def __getitem__(self, i: int) -> ConceptAssignment:
        i = range(len(self))[i]  # a negative i counts from the end, as for lists
        lo, hi = self.offsets[i], self.offsets[i + 1]
        pairs = zip(self.concepts[lo:hi].tolist(), self.sims[lo:hi].tolist())
        return ConceptAssignment(sample_index=i, concepts=tuple(pairs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def take(self, rows: np.ndarray) -> Assignments:
        """Row j of the result is row ``rows[j]``; rows may repeat."""
        rows = np.asarray(rows, dtype=np.int64)
        bad = np.flatnonzero((rows < 0) | (rows >= len(self)))
        if bad.size:
            raise ValueError(f"sampled index {rows[bad[0]]} out of range [0, {len(self)})")
        sizes = np.diff(self.offsets)[rows]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        at = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], sizes)
        return Assignments(offsets, self.concepts[at], self.sims[at])


@dataclass
class ConceptVocabulary:
    """Concept names plus their embedding matrix, row i = concept i."""

    names: list[str]
    embeddings: np.ndarray

    def __post_init__(self) -> None:
        self.names = [n.strip() for n in self.names]
        for i, name in enumerate(self.names):
            if any(ch in name for ch in "\t\n\r"):
                raise ValueError(f"concept {i} name {name!r} holds a tab or a line break")
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


class EmbeddingFile:
    """An EMB1 file, read one row block at a time.

    Opening it runs every check of the format: the header, the file size,
    and one pass over the payload, a block at a time, that rejects a
    non-finite value. Malformed input raises ValueError naming the offending
    byte offset.

    ``f[a:b]`` reads rows [a, b) into a fresh float32 array with a
    positioned read, so pool threads may read blocks at once. A read that
    ends early, because the file shrank after it was opened, raises the
    ``truncated payload`` ValueError; no short or stale rows are returned.
    Close the file with ``close()`` or a ``with`` block.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._file = open(path, "rb")
        try:
            self.shape = self._read_header()
            bad = _first_non_finite(self)
            if bad is not None:
                raise ValueError(
                    f"{path}: non-finite value at byte {_HEADER.size + bad * 4} (element {bad})"
                )
        except BaseException:
            self._file.close()
            raise

    def _read_header(self) -> tuple[int, int]:
        path = self.path
        size = os.fstat(self._file.fileno()).st_size
        header = self._file.read(_HEADER.size)
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
        if size > expected:
            raise ValueError(
                f"{path}: {size - expected} bytes of trailing data after the payload: "
                f"the file ends at byte {size}, expected {expected} bytes"
            )
        if size < expected:
            raise ValueError(
                f"{path}: truncated payload at byte {size}, expected {expected} bytes"
            )
        self._size = expected
        return rows, dim

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("an EmbeddingFile reads contiguous rows only")
        dim = self.shape[1]
        out = np.empty((max(stop - start, 0), dim), dtype="<f4")
        buf = memoryview(out.reshape(-1).view(np.uint8))
        at, got = _HEADER.size + start * dim * 4, 0
        while got < len(buf):
            n = os.preadv(self._file.fileno(), [buf[got:]], at + got)
            if n == 0:
                end = os.fstat(self._file.fileno()).st_size
                raise ValueError(
                    f"{self.path}: truncated payload at byte {end}, expected {self._size} bytes"
                )
            got += n
        return out

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> EmbeddingFile:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def load_embeddings(path: str | Path) -> np.ndarray:
    """Read a whole EMB1 file into a float32 (rows, dim) matrix, with the
    checks of ``EmbeddingFile``."""
    with EmbeddingFile(path) as f:
        return f[:]


def save_embeddings(path: str | Path, m: np.ndarray) -> None:
    """Write a float32 matrix in the EMB1 binary format. The checks run on the
    float32 values written, so a finite value beyond the float32 range is
    refused rather than written as inf."""
    with np.errstate(over="ignore"):  # an overflow is reported below as non-finite
        m32 = np.asarray(m, dtype="<f4")
    validate_embeddings(m32)
    rows, dim = m32.shape
    payload = np.ascontiguousarray(m32).tobytes()
    with output(path, binary=True) as f:
        f.write(_HEADER.pack(EMB_MAGIC, rows, dim))
        f.write(payload)


def load_vocabulary(names_path: str | Path, embeddings_path: str | Path) -> ConceptVocabulary:
    """Load a TSV of ``index<TAB>name`` rows plus the matching EMB1 file.

    Lines end in ``\\n`` only, as save_vocabulary writes them: a ``\\r``
    anywhere in a line is rejected, and so is a name with leading or
    trailing whitespace. Each index must read as ``str(int)`` writes it, and
    no index or name may repeat. Empty lines are skipped.
    """
    entries: dict[int, str] = {}
    seen: set[str] = set()
    with text_input(names_path) as (f, numbered):
        for line in numbered(f.read().split("\n")):
            if not line:
                continue
            if "\r" in line:
                raise ValueError(f"carriage return in {line!r}")
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("expected 'index<TAB>name'")
            try:
                idx = int(parts[0])
                if parts[0] != str(idx):
                    raise ValueError
            except ValueError:
                raise ValueError(f"bad index {parts[0]!r}") from None
            if idx in entries:
                raise ValueError(f"duplicate index {idx}")
            name = parts[1]
            if name != name.strip():
                raise ValueError(f"whitespace around name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate name {name!r}")
            seen.add(name)
            entries[idx] = name
        if not entries:
            raise ValueError("empty vocabulary")
        if set(entries) != set(range(len(entries))):
            raise ValueError(f"indices must cover 0..{len(entries) - 1} exactly")
    names = [entries[i] for i in range(len(entries))]
    return ConceptVocabulary(names=names, embeddings=load_embeddings(embeddings_path))


def save_vocabulary(
    names_path: str | Path, embeddings_path: str | Path, vocab: ConceptVocabulary
) -> None:
    with np.errstate(over="ignore"):  # fields can change after construction: check as written
        vocab = ConceptVocabulary(vocab.names, np.asarray(vocab.embeddings, dtype="<f4"))
    with output(names_path) as f:
        write_rows(f, "%d\t%s\n", vocab.size, lambda lo, hi: (range(lo, hi), vocab.names[lo:hi]))
    save_embeddings(embeddings_path, vocab.embeddings)


def _block(m: np.ndarray | EmbeddingFile, rows: slice) -> np.ndarray:
    """Rows ``rows`` of a matrix or an ``EmbeddingFile`` as a C-contiguous
    float32 array, so every block reaches BLAS in one layout."""
    return np.ascontiguousarray(m[rows], dtype=np.float32)


def _row_norms(m: np.ndarray | EmbeddingFile) -> np.ndarray:
    """Float64 L2 norm of every float32 row, computed one row block at a time."""
    norms = np.empty(m.shape[0], dtype=np.float64)
    for rows in _row_blocks(0, m.shape[0]):
        norms[rows] = np.linalg.norm(_block(m, rows).astype(np.float64), axis=1)
    return norms


def _check_norms(norms: np.ndarray) -> None:
    """Reject a row with norm below NORM_EPS, naming the lowest such row."""
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        raise ValueError(f"row {int(bad[0])} has near-zero norm {norms[bad[0]]:.3e}")


def _unit_rows(m: np.ndarray | EmbeddingFile, norms: np.ndarray | None, rows: slice) -> np.ndarray:
    """Rows ``rows`` of ``m`` at unit norm: as they are if ``norms`` is None,
    else each divided by its norm in float64 and rounded once to float32."""
    block = _block(m, rows)
    if norms is None:
        return block
    scaled = block.astype(np.float64)
    scaled /= norms[rows, None]
    return scaled.astype(np.float32)


def _renorm_norms(m: np.ndarray | EmbeddingFile) -> np.ndarray | None:
    """Row norms of ``m`` if any row is off unit norm by more than 1e-6, so
    that every row is renormalized; None if all rows are used as they are."""
    norms = _row_norms(m)
    if not np.any(np.abs(norms - 1.0) > 1e-6):
        return None
    _check_norms(norms)
    return norms


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm; output stays float32.

    Each row is divided by its norm in float64 and rounded once to
    float32. Rows with norm below NORM_EPS are rejected with the row index.
    """
    validate_embeddings(m)
    norms = _row_norms(m)
    _check_norms(norms)
    out = np.empty(m.shape, dtype=np.float32)
    for rows in _row_blocks(0, m.shape[0]):
        out[rows] = _unit_rows(m, norms, rows)
    return out


def cosine_similarities(images: np.ndarray, concepts: np.ndarray) -> np.ndarray:
    """Dot products of float32 rows, accumulated in float64.

    Inputs are assumed L2-normalized; the result is a float64
    (n_images, n_concepts) similarity matrix. A float64 ``concepts`` is
    used without a copy.
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
    images: np.ndarray | EmbeddingFile,
    vocab: ConceptVocabulary,
    k: int,
    threads: int = 1,
) -> Assignments:
    """Assign each image row its k most cosine-similar concepts.

    The scan is exhaustive and exact: per image, all concepts are scored,
    the k largest are selected by partition and ranked descending, with
    equal similarities resolved to the lower concept index. A row whose
    k-th similarity is tied with a concept outside the selection is ranked
    by a full stable sort, so the result always equals a stable descending
    sort of every row.

    ``images`` is a matrix or an open ``EmbeddingFile``; either is read one
    row block at a time, as float32, and never copied whole. One serial
    pass over the row norms decides for all rows at once: if any image is
    off unit norm by more than 1e-6, every image is renormalized, and a
    near-zero row raises, naming the lowest such row. The pool's tasks are
    the aligned blocks of ``_row_blocks``, ``_ROW_BLOCK`` rows each but
    the last, which holds fewer than 2 * ``_ROW_BLOCK``; a task reads its
    own rows, normalizes them, then scores them, so a worker's temporaries
    are a few such blocks x ``vocab.size`` arrays. Each task writes its
    rows in place, so the result does not depend on ``threads``, nor on
    whether the images come from a matrix or a file. Because every block
    starts at a multiple of ``_ROW_BLOCK``, a row's similarities have the
    bits of that row in one product over all n rows, but for the kernel
    exceptions named in ``_row_blocks``. n == 1 stays a matrix-vector
    product, which may round unlike the same row among others.
    """
    if not isinstance(images, EmbeddingFile):  # a file was checked when it was opened
        validate_embeddings(images)
    n, dim = images.shape
    if dim != vocab.embeddings.shape[1]:
        raise ValueError(
            f"dimension mismatch: images have dim {dim}, "
            f"vocabulary has dim {vocab.embeddings.shape[1]}"
        )
    if not 1 <= k <= vocab.size:
        raise ValueError(f"k={k} out of range [1, {vocab.size}]")

    img_norms = _renorm_norms(images)
    con32 = np.ascontiguousarray(vocab.embeddings, dtype=np.float32)
    con = _unit_rows(con32, _renorm_norms(con32), slice(None)).astype(np.float64)
    order = np.empty((n, k), dtype=np.int64)
    picked = np.empty((n, k), dtype=np.float64)

    def score_block(rows: slice) -> None:
        sims = cosine_similarities(_unit_rows(images, img_norms, rows), con)
        order[rows], picked[rows] = _topk_block(sims, k)

    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        list(pool.map(score_block, _row_blocks(0, n)))
    return Assignments(np.arange(0, n * k + 1, k, dtype=np.int64), order.ravel(), picked.ravel())


def build_pseudo_caption(assignment: ConceptAssignment, vocab: ConceptVocabulary) -> str:
    """Join the assignment's concept names in rank order with ", "."""
    for idx, _ in assignment.concepts:
        if not 0 <= idx < vocab.size:
            raise ValueError(f"concept index {idx} out of vocabulary range [0, {vocab.size})")
    return CAPTION_SEPARATOR.join(vocab.names[idx] for idx, _ in assignment.concepts)


def save_assignments(path: str | Path, assignments: Sequence[ConceptAssignment]) -> None:
    """Write JSON Lines {"i": row, "c": [...], "s": [...]}, the bytes json.dumps would write.

    If every row is k wide, each concept and similarity is a field of its own;
    otherwise a row's concepts are joined into one field, and so are its sims.
    A concept index of more than 18 digits, which load_assignments does not
    read, is refused before the file is opened.
    """
    a = Assignments.of(assignments)
    o, cs = a.offsets, a.concepts
    wide = cs[(cs >= 10**18) | (cs <= -(10**18))]
    if wide.size:
        raise ValueError(f"concept index {int(wide[0])} has more than 18 digits")
    k = int(o[1]) if len(a) else 1
    if np.all(np.diff(o) == k):
        line = '{"i":%%d,"c":[%s],"s":[%s]}\n' % ((",".join(["%s"] * k),) * 2)

        def columns(lo: int, hi: int) -> tuple:
            rows = slice(lo * k, hi * k)
            return range(lo, hi), cs[rows].reshape(-1, k), float_reprs(a.sims[rows]).reshape(-1, k)

    else:
        line = '{"i":%d,"c":[%s],"s":[%s]}\n'

        def columns(lo: int, hi: int) -> tuple:
            rows, b = slice(o[lo], o[hi]), (o[lo : hi + 1] - o[lo]).tolist()
            strs = cs[rows].astype(str).tolist(), float_reprs(a.sims[rows]).tolist()
            return range(lo, hi), *([",".join(x[i:j]) for i, j in zip(b, b[1:])] for x in strs)

    with output(path) as f:
        write_rows(f, line, len(a), columns)


def load_assignments(path: str | Path) -> Assignments:
    """Read what save_assignments writes, through ``writer_lines``: one
    similarity per concept, and every row rule of ``Assignments``, which run once
    every line is read, so a line off the form names itself before a row above it."""
    offsets, concepts, sims = array("q", [0]), array("q"), array("d")
    convert = partial(_assignments_block, columns=(offsets, concepts, sims))
    with writer_lines(path, _ASSIGNMENT_LINES, convert, "save_assignments"):
        o, c = (np.frombuffer(column, np.int64) for column in (offsets, concepts))
        try:
            return Assignments(o, c, np.frombuffer(sims, np.float64))
        except _RowError as e:
            raise ValueError(f"line {e.row + 1}: {e.reason}") from None


def _assignments_block(text: str, row: int, columns: tuple[array, array, array]) -> None:
    """Append a block of save_assignments lines whose first is record ``row`` to
    the offsets, concepts and similarities ``columns``, or refuse its first line
    with an index out of order or unequal concept and similarity counts."""
    # Split at the quotes, each line '{"i":N,"c":[C],"s":[S]}\n' gives six
    # pieces: from the third on, every sixth is ':N,', from the fifth
    # ':[C],' and from the seventh ':[S]}\n{' (the '{' added for the last).
    pieces = (text + "{").split('"')
    index, c, s = pieces[2::6], pieces[4::6], pieces[6::6]
    widths = list(map(str.count, c, repeat(",")))  # one comma after each concept
    sim_widths = [n + 1 for n in map(str.count, s, repeat(","))]
    if index != [f":{i}," for i in range(row, row + len(index))] or widths != sim_widths:
        for i, (at, k, m) in enumerate(zip(index, widths, sim_widths), start=row):
            if at != f":{i},":
                raise ValueError(f"line {i + 1}: record index {at[1:-1]}, expected {i}")
            if k != m:
                raise ValueError(f"line {i + 1}: {k} concepts in 'c' but {m} similarities in 's'")
    # The grammar holds the integers to 18 digits, which numpy parses exactly;
    # floats go through float(), as json parses them.
    concepts = np.fromstring(",".join(c)[2:-2].replace("],,:[", ","), dtype=np.int64, sep=",")
    sims = ",".join(s)[2:-4].replace("]}\n{,:[", ",").split(",")
    sims = np.fromiter(map(float, sims), np.float64, len(sims))
    for column, values in zip(columns, (columns[0][-1] + np.cumsum(widths), concepts, sims)):
        column.frombytes(values.tobytes())
