"""Seeded fuzz tests of the sampled-index, vocabulary and embedding readers.

Files written by ``save_sampled_indices`` and the names TSV of
``save_vocabulary`` are mutated by truncation, character flips, and
duplicated, dropped, swapped or blank lines; files written by
``save_embeddings`` by header and payload byte flips, truncation and
appended bytes. On every mutant the reader must either raise a ValueError
that names the faulty line or byte, or load exactly what a plain reference
parse of the mutant gives: ``int`` per index line, the names of a split of
the TSV's lines, or ``np.frombuffer`` of the payload. ``EmbeddingFile``,
opened on each embedding mutant and read in blocks, must raise the same
text as ``load_embeddings`` or read the same bytes.
"""

import re
import struct

import numpy as np
import pytest

from balancepack.balance import load_sampled_indices, save_sampled_indices
from balancepack.concepts import (
    ConceptVocabulary,
    EmbeddingFile,
    load_embeddings,
    load_vocabulary,
    save_embeddings,
    save_vocabulary,
)

FLIPS = "0123456789-+_ #=\r\nnx"
# The one index-file fault that concerns the whole file: the line count.
COUNT_FAULT = re.compile(r"\d+ index lines, the header says n=\d+")
HEADER = struct.Struct("<4sII")


def mutate_lines(rng, lines, flips=FLIPS):
    lines = list(lines)
    for _ in range(int(rng.integers(1, 4))):
        if not lines:
            break
        kind = int(rng.integers(6))
        at = int(rng.integers(len(lines)))
        if kind == 0:  # truncation
            text = "".join(lines)
            return [text[: int(rng.integers(len(text)))]]
        if kind == 1:  # character flip
            line = lines[at]
            pos = int(rng.integers(len(line)))
            lines[at] = line[:pos] + flips[int(rng.integers(len(flips)))] + line[pos + 1 :]
        elif kind == 2:
            lines.insert(int(rng.integers(len(lines) + 1)), lines[at])
        elif kind == 3:
            del lines[at]
        elif kind == 4:
            lines.insert(at, " \n" if rng.random() < 0.5 else "\n")
        else:
            other = int(rng.integers(len(lines)))
            lines[at], lines[other] = lines[other], lines[at]
    return lines


def mutate_bytes(rng, data):
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(4))
        if kind == 0:  # header byte flip
            data[int(rng.integers(HEADER.size))] ^= int(rng.integers(1, 256))
        elif kind == 1 and len(data) > HEADER.size:  # payload byte flip
            data[int(rng.integers(HEADER.size, len(data)))] ^= int(rng.integers(1, 256))
        elif kind == 2:  # truncation
            return bytes(data[: int(rng.integers(len(data)))])
        else:  # appended bytes
            data += rng.integers(0, 256, size=int(rng.integers(1, 10)), dtype=np.uint8).tobytes()
    return bytes(data)


def reference_indices(text):
    return np.array([int(line) for line in text.splitlines()[1:]], dtype=np.int64)


def reference_vocabulary(text, rows):
    """("names", names), ("line", N) for a fault in line N, or ("file", fault)."""
    entries, seen = {}, set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if "\r" in line or len(parts) != 2 or not re.fullmatch(r"0|-?[1-9][0-9]*", parts[0]):
            return "line", lineno
        index, name = int(parts[0]), parts[1]
        if name != name.strip() or index in entries or name in seen:
            return "line", lineno
        seen.add(name)
        entries[index] = name
    if not entries:
        return "file", "empty vocabulary"
    if sorted(entries) != list(range(len(entries))):
        return "file", "indices must cover"
    if len(entries) != rows:
        return "file", "names but"
    return "names", [entries[i] for i in range(rows)]


def read_by_blocks(path):
    """The payload bytes ``EmbeddingFile`` reads two rows at a time, or its
    ValueError text."""
    try:
        with EmbeddingFile(path) as f:
            rows = f.shape[0]
            return b"".join(f[a : a + 2].tobytes() for a in range(0, rows, 2))
    except ValueError as e:
        return str(e)


def reference_embeddings(data):
    _, rows, dim = HEADER.unpack(data[: HEADER.size])
    return np.frombuffer(data[HEADER.size :], dtype="<f4").reshape(rows, dim)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampled_index_reader_on_mutants(tmp_path, seed):
    rng = np.random.default_rng([23, seed])
    path = tmp_path / "sampled.txt"
    save_sampled_indices(path, rng.integers(0, 5000, size=30), seed, bool(seed % 2))
    base = path.read_text().splitlines(keepends=True)
    loaded = 0
    for _ in range(300):
        text = "".join(mutate_lines(rng, base))
        path.write_bytes(text.encode())
        try:
            got = load_sampled_indices(path)
        except ValueError as e:
            assert str(e).startswith(f"{path}: "), str(e)
            fault = str(e).removeprefix(f"{path}: ")
            assert re.match(r"line \d+: ", fault) or COUNT_FAULT.fullmatch(fault), fault
            continue
        loaded += 1
        want = reference_indices(text)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
    assert 0 < loaded < 300


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vocabulary_reader_on_mutants(tmp_path, seed):
    rng = np.random.default_rng([31, seed])
    names_path, emb_path = tmp_path / "v.tsv", tmp_path / "v.emb"
    names = ["n0", "n1", "red car", "caf\u00e9", "a-b", "n10", "x\u2028y", "11"]
    vocab = ConceptVocabulary(names, rng.standard_normal((len(names), 3)).astype(np.float32))
    save_vocabulary(names_path, emb_path, vocab)
    base = names_path.read_text(encoding="utf-8").splitlines(keepends=True)
    loaded = 0
    for _ in range(300):
        text = "".join(mutate_lines(rng, base, FLIPS + "\tn"))
        names_path.write_bytes(text.encode())
        want = reference_vocabulary(text, len(names))
        try:
            got = load_vocabulary(names_path, emb_path)
        except ValueError as e:
            line = re.match(rf"{re.escape(str(names_path))}: line (\d+): ", str(e))
            if line:
                assert want == ("line", int(line[1])), (str(e), want)
            else:
                assert want[0] == "file" and want[1] in str(e), (str(e), want)
            continue
        loaded += 1
        assert want == ("names", got.names)
        assert np.array_equal(got.embeddings, vocab.embeddings)
    assert 0 < loaded < 300


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_embedding_reader_on_mutants(tmp_path, seed):
    rng = np.random.default_rng([29, seed])
    path = tmp_path / "m.emb"
    save_embeddings(path, rng.standard_normal((5, 3)).astype(np.float32))
    base = path.read_bytes()
    loaded = 0
    for _ in range(300):
        data = mutate_bytes(rng, base)
        path.write_bytes(data)
        block_read = read_by_blocks(path)
        try:
            got = load_embeddings(path)
        except ValueError as e:
            assert block_read == str(e)
            assert re.search(r"\bbyte \d+", str(e)), str(e)
            if len(data) >= HEADER.size:
                magic, rows, dim = HEADER.unpack(data[: HEADER.size])
                if magic == b"EMB1" and rows and dim and len(data) > HEADER.size + rows * dim * 4:
                    assert "trailing data" in str(e)
            continue
        loaded += 1
        want = reference_embeddings(data)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert block_read == want.tobytes()
    assert 0 < loaded < 300
