"""The JSON Lines contract of every loader, and seeded fuzz tests of the
assignments, weights and manifest readers.

A fault in a line reads ``{path}: line N: ...`` in every loader, and a
decoding error passes through as ``UnicodeDecodeError``. The loaders of
files from outside the toolkit or read line by line (manifests, plans)
read through ``jsonl.json_lines``: broken JSON says ``malformed JSON``,
and blank lines are rejected except in manifests. The weights and
assignments loaders read only their writer's line grammar: a line off it,
blank or broken lines included, says ``not a line {writer} writes``. The
fuzz tests mutate valid files as ``test_loader_fuzz`` does and compare
each loader with an independent per-line reference parse, a hand-written
regular expression of the writer's line for weights and assignments: the
loader raises for the line the reference rejects first, names the file
for a fault of the whole file, or loads exactly what the reference reads.
Each reader is fuzzed from two bases, the second in its writer's
canonical layout (fixed-k assignments, weights, compact manifest
records), and the manifest loader must load each mutant bit for bit as it
does with its canonical fast path turned off.
"""

import json
import math
import re

import numpy as np
import packing_oracle as oracle
import pytest
import test_canonical_lines as canonical
from test_loader_fuzz import canonical_manifest, mutate, valid_manifest

from balancepack import cli
from balancepack.balance import WEIGHT_SUM_TOL, load_weights, save_weights
from balancepack.concepts import ConceptAssignment, load_assignments, save_assignments
from balancepack.manifest import ingest_manifest, load_pack_items
from balancepack.packing import (
    PackingConfig,
    PackItem,
    PackPlan,
    emit_plan,
    load_plan,
    pack_bucketed,
)


def plan_lines(tmp_path):
    items = [PackItem("a", 6, "x"), PackItem("b", 5, "y"), PackItem("c", 4, "x")]
    cfg = PackingConfig(capacity=10)
    emit_plan(pack_bucketed(items, cfg), tmp_path / "src.jsonl", cfg)
    return (tmp_path / "src.jsonl").read_text().splitlines(keepends=True)


# loader, valid lines (or a builder of them), line 2 with a wrongly typed
# field, the message of that field, whether blank lines are skipped, and
# the writer whose grammar alone the loader reads (None for json_lines).
LOADERS = {
    "weights": (
        load_weights,
        ['{"i":0,"w":0.25}\n', '{"i":1,"w":0.25}\n', '{"i":2,"w":0.5}\n'],
        '{"i":1,"w":1}\n',
        "not a line save_weights writes",
        False,
        "save_weights",
    ),
    "assignments": (
        load_assignments,
        ['{"i":0,"c":[1],"s":[0.5]}\n', '{"i":1,"c":[2,0],"s":[0.5,0.25]}\n',
         '{"i":2,"c":[3],"s":[1.0]}\n'],
        '{"i":1,"c":"2","s":[0.5]}\n',
        "not a line save_assignments writes",
        False,
        "save_assignments",
    ),
    "plan": (
        load_plan,
        plan_lines,
        '{"pack":"1","capacity":10,"items":[],"pad":10}\n',
        "field 'pack' must be a JSON integer, got '1'",
        False,
        None,
    ),
    "pack-items": (
        load_pack_items,
        ['{"id":"a","length":3}\n', '{"id":"b","length":4}\n', '{"id":"c","length":5}\n'],
        '{"id":"b","length":"4"}\n',
        "field 'length' must be a JSON integer, got '4'",
        True,
        None,
    ),
    "manifest": (
        ingest_manifest,
        ['{"id":"a","text_tokens":3}\n', '{"id":"b","text_tokens":4}\n',
         '{"id":"c","text_tokens":5}\n'],
        '{"id":"b","text_tokens":4.0}\n',
        "field 'text_tokens' must be a JSON integer, got 4.0",
        True,
        None,
    ),
}


@pytest.mark.parametrize("name", LOADERS)
def test_every_loader_keeps_the_line_contract(tmp_path, name):
    load, lines, wrong, message, skips_blank, writer = LOADERS[name]
    lines = lines(tmp_path) if callable(lines) else lines
    broken = f"not a line {writer} writes" if writer else "malformed JSON: "
    path = tmp_path / "f.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    want = load(path)

    def fault(line2, insert=False):
        text = lines[:1] + [line2] + lines[1 if insert else 2 :]
        path.write_text("".join(text), encoding="utf-8")
        with pytest.raises(ValueError) as e:
            load(path)
        return str(e.value)

    assert fault("{not json\n").startswith(f"{path}: line 2: {broken}")
    assert fault("[" * 200_000 + "\n").startswith(f"{path}: line 2: {broken}")
    assert fault(wrong) == f"{path}: line 2: {message}"
    for blank in ("\n", " \t\n"):
        if skips_blank:
            path.write_text("".join(lines[:1] + [blank] + lines[1:]), encoding="utf-8")
            assert list(load(path)) == list(want)
        else:
            blank_text = broken if writer else "blank line"
            assert fault(blank, insert=True) == f"{path}: line 2: {blank_text}"
    path.write_bytes("".join(lines).replace("\n", "\xff\n", 2).encode("latin-1"))
    with pytest.raises(UnicodeDecodeError):
        load(path)


# Lines end at "\n" in the weights and assignments loaders too, where a "\r"
# is off the grammar (tests/test_writer_lines.py).
@pytest.mark.parametrize("name", [name for name in LOADERS if LOADERS[name][5] is None])
def test_every_loader_ends_lines_at_newline_only(tmp_path, name):
    load, lines, wrong, message, _, _ = LOADERS[name]
    lines = lines(tmp_path) if callable(lines) else lines
    path = tmp_path / "f.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    want = load(path)

    def rows(loaded):
        return (loaded.packs, loaded.overflow) if isinstance(loaded, PackPlan) else list(loaded)

    # A lone "\r" ends no line: lines 1 and 2 joined by one are two records on line 1.
    path.write_bytes("".join(lines).replace("\n", "\r", 1).encode())
    with pytest.raises(ValueError) as e:
        load(path)
    assert str(e.value).startswith(f"{path}: line 1: malformed JSON: ")
    # Inside a record it is JSON whitespace, and the next line is still line 2.
    path.write_bytes((lines[0].replace(",", ",\r", 1) + wrong + "".join(lines[2:])).encode())
    with pytest.raises(ValueError) as e:
        load(path)
    assert str(e.value) == f"{path}: line 2: {message}"
    # So a file with "\r\n" line ends loads as written.
    path.write_bytes("".join(lines).replace("\n", "\r\n").encode())
    assert rows(load(path)) == rows(want)


def test_sample_reports_a_deeply_nested_line_as_one_json_error(tmp_path, capsys):
    weights = tmp_path / "w.jsonl"
    weights.write_text('{"i":0,"w":1.0}\n' + "[" * 200_000 + "\n", encoding="utf-8")
    argv = ["sample", "--output", str(tmp_path / "out"), "--input", str(weights), "--n", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    obj = json.loads(err)
    assert obj["command"] == "sample"
    assert obj["error"] == f"{weights}: line 2: not a line save_weights writes"
    assert not (tmp_path / "out" / "config.json").exists()


def test_a_malformed_line_after_the_plan_trailer_names_its_line(tmp_path):
    path = tmp_path / "p.jsonl"
    lines = plan_lines(tmp_path)
    path.write_text("".join(lines) + '{"pack":\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"line {len(lines) + 1}: malformed JSON: "):
        load_plan(path)
    path.write_text("".join(lines) + lines[0], encoding="utf-8")
    with pytest.raises(ValueError, match=rf"line {len(lines) + 1}: records after the trailer"):
        load_plan(path)


# ------------------------------------------------------------- fuzz tests


def reference_lines(path):
    with open(path, encoding="utf-8") as f:
        return list(enumerate(f, 1))


# The lines save_weights and save_assignments write, written out here
# rather than taken from the loaders: an integer as "%d" writes it, of at
# most 18 digits, and a JSON number with a fraction or an exponent.
INT = "(?:0|-?[1-9][0-9]{0,17})"
FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
WEIGHT_LINE = re.compile(rf'\{{"i":({INT}),"w":({FLOAT})\}}\n')
ASSIGNMENT_LINE = re.compile(
    rf'\{{"i":({INT}),"c":\[({INT}(?:,{INT})*)\],"s":\[({FLOAT}(?:,{FLOAT})*)\]\}}\n'
)


def reference_weights(path):
    weights = []
    for n, line in reference_lines(path):
        rec = WEIGHT_LINE.fullmatch(line)
        if rec is None or rec[1] != str(n - 1) or not 0.0 <= float(rec[2]) < math.inf:
            return "error", n
        weights.append(float(rec[2]))
    if not weights or abs(math.fsum(weights) - 1.0) > WEIGHT_SUM_TOL:
        return "file", None
    return "loaded", weights


def reference_assignments(path):
    rows = []
    for n, line in reference_lines(path):
        rec = ASSIGNMENT_LINE.fullmatch(line)
        if rec is None or rec[1] != str(n - 1):
            return "error", n
        c, s = [int(x) for x in rec[2].split(",")], [float(x) for x in rec[3].split(",")]
        if len(c) != len(s):
            return "error", n
        rows.append(list(zip(c, s)))
    for n, row in enumerate(rows, 1):
        sims = [s for _, s in row]
        if (
            len({c for c, _ in row}) != len(row)
            or not all(-1.0 - 1e-6 <= s <= 1.0 + 1e-6 for s in sims)
            or any(a < b for a, b in zip(sims, sims[1:]))
        ):
            return "error", n
    return "loaded", rows


def reference_manifest(path):
    records, seen = [], set()
    for n, line in reference_lines(path):
        if not line.strip():
            continue
        try:
            rec = oracle._record_from_json(json.loads(line))
        except ValueError:
            return "error", n
        if rec.id in seen:
            return "error", n
        seen.add(rec.id)
        records.append(rec)
    return "loaded", records


def assignment_rows(a):
    bounds = a.offsets.tolist()
    cs, ss = a.concepts.tolist(), a.sims.tolist()
    return [list(zip(cs[lo:hi], ss[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def valid_weights(rng, path):
    w = rng.random(25)
    save_weights(path, w / w.sum())
    return path.read_text().splitlines(keepends=True)


def valid_assignments(rng, path):
    rows = []
    for i in range(25):
        k = int(rng.integers(1, 6))
        concepts = rng.choice(40, size=k, replace=False).tolist()
        sims = sorted(rng.uniform(-1.0, 1.0, size=k).tolist(), reverse=True)
        rows.append(ConceptAssignment(i, tuple(zip(concepts, sims))))
    save_assignments(path, rows)
    return path.read_text().splitlines(keepends=True)


def manifest_lines(rng, path):
    """The packing manifest of ``test_loader_fuzz`` without its plain
    ``length`` records, which ``ingest_manifest`` does not take."""
    return [line for line in valid_manifest(rng) if '"length"' not in line]


def canonical_assignments(rng, path):
    """Rows all k wide, as ``topk_concepts`` writes them."""
    k = int(rng.integers(1, 6))
    rows = []
    for i in range(25):
        concepts = rng.choice(40, size=k, replace=False).tolist()
        sims = sorted(rng.uniform(-1.0, 1.0, size=k).tolist(), reverse=True)
        rows.append(ConceptAssignment(i, tuple(zip(concepts, sims))))
    save_assignments(path, rows)
    return path.read_text().splitlines(keepends=True)


# loader, base, canonical base, reference, loaded rows in the reference's terms
FUZZED = {
    "weights": (load_weights, valid_weights, valid_weights, reference_weights, lambda w: w.tolist()),
    "assignments": (
        load_assignments,
        valid_assignments,
        canonical_assignments,
        reference_assignments,
        assignment_rows,
    ),
    "manifest": (ingest_manifest, manifest_lines, canonical_manifest, reference_manifest, list),
}


def fuzz_against_reference(tmp_path, monkeypatch, name, rng, valid, mutants):
    """``mutants`` mutants of ``valid``'s base against the reference, and
    against the loader with its fast path turned off if it has one; the
    fast path's count."""
    load, _, _, reference, rows = FUZZED[name]
    path = tmp_path / "f.jsonl"
    base = valid(rng, tmp_path / "base.jsonl")
    paths = canonical.PathCount(monkeypatch, load) if load in canonical.FAST else None
    outcomes = {"error": 0, "file": 0, "loaded": 0}
    for _ in range(mutants):
        path.write_text("".join(mutate(rng, base)), encoding="utf-8")
        kind, want = reference(path)
        outcomes[kind] += 1
        if paths:
            assert canonical.outcome(load, path) == canonical.json_path(monkeypatch, load, path)
        if kind == "loaded":
            assert rows(load(path)) == want
            continue
        with pytest.raises(ValueError) as e:
            load(path)
        if kind == "error":
            assert str(e.value).startswith(f"{path}: line {want}: "), str(e.value)
        else:
            assert str(e.value).startswith(f"{path}: ")
            assert not str(e.value).startswith(f"{path}: line "), str(e.value)
    assert outcomes["error"] and outcomes["loaded"], outcomes
    return paths


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", FUZZED)
def test_reader_matches_a_per_line_reference_on_mutants(tmp_path, monkeypatch, name, seed):
    rng = np.random.default_rng([23, seed, list(FUZZED).index(name)])
    fuzz_against_reference(tmp_path, monkeypatch, name, rng, FUZZED[name][1], 250)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", FUZZED)
def test_reader_matches_a_per_line_reference_on_canonical_mutants(tmp_path, monkeypatch, name, seed):
    rng = np.random.default_rng([23, seed, list(FUZZED).index(name), 1])
    # More mutants than above: few mutants of a weights file still sum to 1,
    # and each loaded one is a file the fast path has to finish.
    paths = fuzz_against_reference(tmp_path, monkeypatch, name, rng, FUZZED[name][2], 1000)
    if paths:
        assert paths.fast and paths.fallback, (paths.fast, paths.fallback)
