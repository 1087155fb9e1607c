"""The canonical-line fast path of the manifest loader.

``load_pack_items`` parses a block of a manifest by ``emit_manifest``'s
line grammar when every line of it has the writer's exact form, and reads
the file from the first block that does not with ``json_lines``' per-line
parse, since manifests come from outside the toolkit. These tests check
that writer output loads without ``json.loads``, that a file leaving the
grammar in its second block reads exactly as ``json_lines`` reads it, and
only its lines from that block on, and that edge values load bit for bit
as ``json.loads`` reads them, or fail with its text. The weights and
assignments loaders share the block check, but read nothing off their
grammar (``tests/test_writer_lines.py``); the last test here covers the
block check of all three.
"""

import json
import re
from contextlib import contextmanager

import numpy as np
import pytest

from balancepack import balance, concepts, manifest
from balancepack.balance import load_weights, save_weights
from balancepack.concepts import Assignments, load_assignments, save_assignments
from balancepack.jsonl import WRITE_BLOCK
from balancepack.manifest import SampleRecord, emit_manifest, load_pack_items

# The module whose ``canonical_lines`` each loader calls.
FAST = {load_pack_items: manifest}

# A block check that no text passes, so that every line is parsed by json.loads.
NEVER = re.compile("")


def bits(result):
    """Everything a loader returns, floats as their bit patterns."""
    if isinstance(result, Assignments):
        arrays = (result.offsets, result.concepts, result.sims)
    elif isinstance(result, np.ndarray):
        arrays = (result,)
    else:
        return result.ids, result.tags, bits(result.length), bits(result.source)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def outcome(load, path):
    try:
        return "loaded", bits(load(path))
    except ValueError as e:
        return "error", str(e)


def json_path(monkeypatch, load, path):
    """The outcome of ``load`` with the fast path turned off."""
    module = FAST[load]
    real = module.canonical_lines

    def per_line(path, block, *args, **kwargs):
        return real(path, NEVER, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "canonical_lines", per_line)
        return outcome(load, path)


class PathCount:
    """Counts the loads of ``load`` in which the fast path took a block, and
    those in which it handed a block to the per-line parse."""

    def __init__(self, monkeypatch, load):
        self.fast = self.fallback = 0
        module = FAST[load]
        real = module.canonical_lines
        count = self

        class Check:
            def __init__(self, block):
                self.block, self.took, self.handed = block, False, False

            def match(self, text):
                found = self.block.match(text)
                self.handed |= found.end() != len(text)
                return found

            def converter(self, convert):
                def counted(text, row):
                    try:
                        part = convert(text, row)
                    except ValueError:
                        self.handed = True
                        raise
                    self.took = True
                    return part

                return counted

        @contextmanager
        def counted(path, block, convert, **kwargs):
            check = Check(block)
            try:
                with real(path, check, check.converter(convert), **kwargs) as result:
                    yield result
            finally:
                count.fast += check.took
                count.fallback += check.handed

        monkeypatch.setattr(module, "canonical_lines", counted)


N = 20_000  # more than two blocks of WRITE_BLOCK lines


def write_assignments(path, n=N, k=4):
    rng = np.random.default_rng(5)
    picked = np.argsort(rng.random((n, 40)), axis=1)[:, :k]
    sims = -np.sort(-rng.uniform(-1.0, 1.0, (n, k)), axis=1)
    save_assignments(path, Assignments(np.arange(0, n * k + 1, k), picked.ravel(), sims.ravel()))


def write_weights(path, n=N):
    w = np.random.default_rng(6).random(n)
    save_weights(path, w / w.sum())


def write_manifest(path, n=N):
    rng = np.random.default_rng(7)
    records = []
    for i in range(n):
        kind = i % 4
        image = (int(rng.integers(16, 900)), int(rng.integers(16, 900))) if kind else None
        patch, merge = (16, 3) if kind == 3 else (14, 2)
        source = ("web", "docs", "img")[int(rng.integers(3))]
        text_tokens = int(rng.integers(0 if image else 1, 500))
        records.append(SampleRecord(f"m{i}", source, text_tokens, image, patch, merge))
    emit_manifest(path, records)


WRITERS = {
    load_assignments: write_assignments,
    load_weights: write_weights,
    load_pack_items: write_manifest,
}


@pytest.mark.parametrize("load", FAST, ids=lambda f: f.__name__)
def test_writer_output_loads_without_json_loads(tmp_path, monkeypatch, load):
    path = tmp_path / "f.jsonl"
    WRITERS[load](path)
    assert len(path.read_text().splitlines()) > 2 * WRITE_BLOCK

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    with monkeypatch.context() as m:
        m.setattr(json, "loads", refuse)
        fast = outcome(load, path)
    assert fast[0] == "loaded"
    assert fast == json_path(monkeypatch, load, path)


# A fault ``edit`` makes in line 9000 of the file (in the second block), its
# error, and whether the fast path hands that block to the per-line parse.
FAULTS = {
    load_pack_items: (
        lambda line: line.replace('"id":"m8999"', '"id":"m0"'),
        "line 9000: duplicate id 'm0'",
        True,
    ),
}


@pytest.mark.parametrize("spaced", [False, True], ids=["canonical", "spaced"])
@pytest.mark.parametrize("faulty", [False, True], ids=["valid", "faulty"])
@pytest.mark.parametrize("load", FAULTS, ids=lambda f: f.__name__)
def test_a_second_block_off_the_fast_path_reads_as_json_lines(
    tmp_path, monkeypatch, load, faulty, spaced
):
    path = tmp_path / "f.jsonl"
    WRITERS[load](path)
    clean = outcome(load, path)
    lines = path.read_text().splitlines(keepends=True)
    edit, message, handed = FAULTS[load]
    if faulty:
        lines[8999] = edit(lines[8999])
    if spaced:
        lines[8999] = lines[8999].replace(":", ": ", 1)
    path.write_text("".join(lines), encoding="utf-8")
    want = json_path(monkeypatch, load, path)
    paths = PathCount(monkeypatch, load)
    assert outcome(load, path) == want
    assert (paths.fast, paths.fallback) == (1, int(spaced or faulty and handed))
    if faulty:
        assert want == ("error", f"{path}: {message}")
    else:
        assert want == clean


@pytest.mark.parametrize("load", FAST, ids=lambda f: f.__name__)
def test_a_file_is_parsed_by_json_loads_only_from_the_block_that_leaves_the_grammar(
    tmp_path, monkeypatch, load
):
    path = tmp_path / "f.jsonl"
    WRITERS[load](path)
    lines = path.read_text().splitlines(keepends=True)
    lines[8999] = lines[8999].replace(":", ": ", 1)
    path.write_text("".join(lines), encoding="utf-8")
    parsed = []
    real = json.loads

    def counted(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(json, "loads", counted)
        assert outcome(load, path)[0] == "loaded"
    assert parsed == lines[WRITE_BLOCK:]


def manifest_text(sample_id="a", text_tokens=5, image=""):
    second = '{"id":"b","source":"web","text_tokens":1}\n'
    return f'{{"id":"{sample_id}","source":"web","text_tokens":{text_tokens}{image}}}\n' + second


def image_text(side, patch=1, merge=1, text_tokens=5):
    image = f',"image":{{"w":{side},"h":{side}}},"patch":{patch},"merge":{merge}'
    return manifest_text(text_tokens=text_tokens, image=image)


# (loader, file text, whether the fast path takes its one block)
EDGES = {
    "text=18 digits": (load_pack_items, manifest_text(text_tokens="999999999999999999"), True),
    "text=19 digits": (load_pack_items, manifest_text(text_tokens="1000000000000000000"), False),
    "side=2**31-1": (load_pack_items, image_text(2**31 - 1), True),
    "side=2**31": (load_pack_items, image_text(2**31, patch=2**31), False),
    "side=int64 overflow": (load_pack_items, image_text(999999999999999999), False),
    "text=-1 with an image": (load_pack_items, image_text(14, text_tokens=-1), False),
    "text=0 without an image": (load_pack_items, manifest_text(text_tokens=0), False),
    "patch=0": (load_pack_items, image_text(14, patch=0), False),
    "merge=0": (load_pack_items, image_text(14, merge=0), False),
    "image below a patch": (load_pack_items, image_text(13, patch=14), False),
    "id=raw non-ASCII": (load_pack_items, manifest_text("caf\u00e9 \U0001f600"), True),
    "id=raw U+2028 and NEL": (load_pack_items, manifest_text("a\u2028b\x85c"), True),
    "id=escape": (load_pack_items, manifest_text("caf\\u00e9"), False),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_values_load_bit_for_bit_as_json_loads_reads_them(tmp_path, monkeypatch, name):
    load, text, fast = EDGES[name]
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    want = json_path(monkeypatch, load, path)
    paths = PathCount(monkeypatch, load)
    assert outcome(load, path) == want
    assert paths.fast == fast
    if name == "side=int64 overflow":
        assert want[0] == "error" and want[1].endswith("beyond the int64 range")
    if name == "id=escape":
        assert load(path).ids[0] == "café"


@pytest.mark.parametrize("load", WRITERS, ids=lambda f: f.__name__)
def test_the_block_check_ends_where_a_greedy_repeat_ends(tmp_path, load):
    # Python 3.10 has no possessive repeat and checks blocks with a greedy one.
    block = {
        load_assignments: concepts._ASSIGNMENT_LINES,
        load_weights: balance._WEIGHT_LINES,
        load_pack_items: manifest._RECORD_LINES,
    }[load]
    greedy = re.compile(block.pattern.removesuffix("+"))
    assert greedy.pattern.endswith(")*")
    path = tmp_path / "f.jsonl"
    WRITERS[load](path, n=200)
    text = path.read_text(encoding="utf-8")
    rng = np.random.default_rng(11)
    for _ in range(300):
        at = int(rng.integers(len(text)))
        edited = text[:at] + '0 ",:{}[]e-.\n'[int(rng.integers(13))] + text[at + 1 :]
        assert block.match(edited).end() == greedy.match(edited).end()
