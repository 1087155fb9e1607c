"""Seeded fuzz tests of the manifest and plan readers against the oracle readers.

Valid files are mutated by truncation, character flips, JSON type swaps,
and duplicated, dropped, swapped or blank lines. On every mutant the
columnar reader must do what the object-based reader in
``packing_oracle`` does: load the same items, or raise a ValueError with
the same message. A fault inside a record names its line.
"""

import json

import numpy as np
import packing_oracle as oracle
import pytest
import test_canonical_lines as canonical

from balancepack.manifest import (
    SampleRecord,
    emit_manifest,
    estimate_tokens,
    ingest_manifest,
    load_pack_items,
)
from balancepack.packing import PackingConfig, PackItem, emit_plan, load_plan, pack_bucketed

# Values a swap puts in place of a field: every JSON type, and integers
# that break the range rules (0, negative) without leaving int64.
SWAPS = [0, -1, 7, 336, 2.0, 1.5, "7", "", None, True, False, [], {}, [1], {"w": 336}]
# Integers whose token length, alone or with an image, leaves int64.
HUGE = [2**63 - 1, 2**63, 2**70]
FLIPS = '0123456789",:{}[]aetn-. \\'
# Reader faults that concern the whole file rather than one line.
FILE_FAULTS = ("stats trailer", "partition violation", " is empty", " tokens > capacity")


def valid_manifest(rng):
    lines = []
    for j in range(30):
        sample_id = f"s{j:02d}" if j % 9 else f"s\u00e9{j:02d}\u2028"
        kind = j % 5
        if kind == 0:
            rec = {"id": sample_id, "source": "web", "length": int(rng.integers(1, 60))}
        elif kind == 1:
            rec = {"id": sample_id, "source": "doc", "text_tokens": int(rng.integers(1, 60))}
        elif kind == 2:
            rec = {"id": sample_id, "source": "img", "text_tokens": int(rng.integers(0, 9)),
                   "image": {"w": int(rng.integers(14, 400)), "h": int(rng.integers(14, 400))}}
        elif kind == 3:
            rec = {"id": sample_id, "text_tokens": 3, "image": {"w": 64, "h": 80},
                   "patch": 16, "merge": 4}
        else:
            rec = {"id": sample_id, "length": int(rng.integers(1, 60))}
        lines.append(json.dumps(rec) + "\n")
    lines.insert(int(rng.integers(len(lines))), "\n")
    return lines


def canonical_manifest(rng, path):
    """``emit_manifest``'s compact records: text only, with an image, and
    with a patch or merge size of their own; ids and sources in ASCII, so
    that no line holds an escape."""
    records = []
    for j in range(30):
        kind = j % 4
        image = (int(rng.integers(16, 400)), int(rng.integers(16, 400))) if kind else None
        patch = 16 if kind == 2 else 14
        merge = 3 if kind == 3 else 2
        text = int(rng.integers(0 if image else 1, 60))
        source = ("web", "doc", "img")[j % 3]
        records.append(SampleRecord(f"c{j:02d}", source, text, image, patch, merge))
    emit_manifest(path, records)
    return path.read_text().splitlines(keepends=True)


def valid_plan(rng, path):
    items = [
        PackItem(f"p{j:02d}", int(rng.integers(1, 52)), f"src{int(rng.integers(3))}")
        for j in range(40)
    ]
    cfg = PackingConfig(capacity=40, num_buckets=3, shards=2, max_sources_per_pack=2, seed=3)
    emit_plan(pack_bucketed(items, cfg), path, cfg)
    return path.read_text().splitlines(keepends=True)


def scalar_paths(value, path=()):
    """Paths to every value inside a parsed record, nested ones included."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield path + (key,)
            yield from scalar_paths(inner, path + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield path + (i,)
            yield from scalar_paths(inner, path + (i,))


def swap_type(rng, line, swaps=SWAPS):
    try:
        rec = json.loads(line)
    except ValueError:
        return line
    paths = list(scalar_paths(rec))
    if not paths:
        return line
    path = paths[int(rng.integers(len(paths)))]
    target = rec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = swaps[int(rng.integers(len(swaps)))]
    return json.dumps(rec, separators=(",", ":") if rng.random() < 0.5 else None) + "\n"


def mutate(rng, lines, swaps=SWAPS):
    lines = list(lines)
    for _ in range(int(rng.integers(1, 4))):
        if not lines:
            break
        kind = int(rng.integers(7))
        at = int(rng.integers(len(lines)))
        if kind == 0:  # truncation
            text = "".join(lines)
            return [text[: int(rng.integers(len(text)))]]
        if kind == 1:  # character flip
            line = lines[at]
            pos = int(rng.integers(len(line)))
            lines[at] = line[:pos] + FLIPS[int(rng.integers(len(FLIPS)))] + line[pos + 1 :]
        elif kind == 2:
            lines[at] = swap_type(rng, lines[at], swaps)
        elif kind == 3:
            lines.insert(int(rng.integers(len(lines) + 1)), lines[at])
        elif kind == 4:
            del lines[at]
        elif kind == 5:
            lines.insert(at, " \n" if rng.random() < 0.5 else "\n")
        else:
            other = int(rng.integers(len(lines)))
            lines[at], lines[other] = lines[other], lines[at]
    return lines


def plan_rows(path):
    plan = load_plan(path)
    return plan.capacity, plan.packs, plan.overflow


def outcome(load, path):
    try:
        return "loaded", load(path)
    except ValueError as e:
        return "error", str(e)


def fuzz_manifest(tmp_path, monkeypatch, rng, base):
    """Mutants of ``base`` against the oracle and, bit for bit, against
    ``load_pack_items`` with its fast path turned off; the fast path's count."""
    path = tmp_path / "m.jsonl"
    paths = canonical.PathCount(monkeypatch, load_pack_items)
    loaded = 0
    for _ in range(250):
        path.write_text("".join(mutate(rng, base)), encoding="utf-8")
        want = outcome(oracle.load_pack_items, path)
        got = outcome(lambda p: list(load_pack_items(p)), path)
        assert got == want
        columns = canonical.outcome(load_pack_items, path)
        assert columns == canonical.json_path(monkeypatch, load_pack_items, path)
        if got[0] == "error":
            assert f"{path}: line " in got[1]
        else:
            loaded += 1
    assert 0 < loaded < 250
    return paths


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_manifest_reader_matches_the_oracle_on_mutants(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng([17, seed])
    fuzz_manifest(tmp_path, monkeypatch, rng, valid_manifest(rng))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_manifest_reader_matches_the_oracle_on_canonical_mutants(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng([17, seed, 1])
    base = canonical_manifest(rng, tmp_path / "base.jsonl")
    paths = fuzz_manifest(tmp_path, monkeypatch, rng, base)
    assert paths.fast and paths.fallback, (paths.fast, paths.fallback)


def pack_rows(load, path):
    """(id, token length, source) of every record ``load`` reads from ``path``."""
    rows = load(path)
    if isinstance(rows, list):  # ingest_manifest's records
        return [(r.id, estimate_tokens(r), r.source) for r in rows]
    return [(it.sample_id, it.length, it.source) for it in rows]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_both_manifest_readers_accept_the_same_rich_records(tmp_path, seed):
    # ingest_manifest and load_pack_items read one format: on rich records
    # (no "length" key) they accept the same files and name the same fault,
    # a token length beyond int64 included.
    rng = np.random.default_rng([23, seed])
    path = tmp_path / "m.jsonl"
    base = [line for line in valid_manifest(rng) if '"length"' not in line]
    base += canonical_manifest(rng, tmp_path / "base.jsonl")
    outcomes = []
    for _ in range(250):
        path.write_text("".join(mutate(rng, base, SWAPS + HUGE * 3)), encoding="utf-8")
        got = outcome(lambda p: pack_rows(load_pack_items, p), path)
        assert got == outcome(lambda p: pack_rows(ingest_manifest, p), path)
        outcomes.append(got)
    errors = [text for kind, text in outcomes if kind == "error"]
    assert any(text.endswith("beyond the int64 range") for text in errors)
    assert 0 < len(errors) < len(outcomes)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_plan_reader_matches_the_oracle_on_mutants(tmp_path, seed):
    rng = np.random.default_rng([19, seed])
    path = tmp_path / "p.jsonl"
    base = valid_plan(rng, path)
    loaded = 0
    for _ in range(250):
        path.write_text("".join(mutate(rng, base)), encoding="utf-8")
        want = outcome(oracle.load_plan, path)
        got = outcome(plan_rows, path)
        assert got == want
        if got[0] == "error":
            assert f"{path}: line " in got[1] or any(f in got[1] for f in FILE_FAULTS), got[1]
        else:
            loaded += 1
    assert 0 < loaded < 250
