"""The columnar ``Assignments``: its row rules, its row views and its writer."""

import json
import re

import numpy as np
import pytest

from balancepack.concepts import (
    Assignments,
    ConceptAssignment,
    load_assignments,
    save_assignments,
)


def row(i, pairs):
    return ConceptAssignment(sample_index=i, concepts=tuple(pairs))


GOOD = '{"i":%d,"c":[3,1],"s":[0.5,0.25]}'

BROKEN = [
    ('"c":[],"s":[]', "assignment must contain at least one concept"),
    ('"c":[4,2,4],"s":[0.5,0.25,0.125]', "duplicate concept index"),
    ('"c":[4],"s":[1.5]', r"similarity 1\.5 outside \[-1, 1\]"),
    ('"c":[4],"s":[-1.000002]', r"similarity -1\.000002 outside \[-1, 1\]"),
    ('"c":[4],"s":[NaN]', r"similarity nan outside \[-1, 1\]"),
    ('"c":[4,5],"s":[0.25,0.5]', "similarities must be non-increasing in rank order"),
]


# Broken rows that leave save_assignments' grammar too, so the loader
# refuses their line before any row rule runs.
UNWRITTEN = ('"c":[],"s":[]', '"c":[4],"s":[NaN]')


@pytest.mark.parametrize("fields, message", BROKEN)
def test_load_names_the_line_of_a_broken_row(tmp_path, fields, message):
    path = tmp_path / "a.jsonl"
    path.write_text("\n".join([GOOD % 0, '{"i":1,%s}' % fields, GOOD % 2]) + "\n")
    if fields in UNWRITTEN:
        message = "not a line save_assignments writes"
    with pytest.raises(ValueError, match=f"a.jsonl: line 2: {message}"):
        load_assignments(path)


def test_load_names_the_line_of_unequal_concepts_and_similarities(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(GOOD % 0 + '\n{"i":1,"c":[4,5],"s":[0.5]}\n')
    with pytest.raises(ValueError, match="line 2: 2 concepts in 'c' but 1 similarities in 's'"):
        load_assignments(path)


@pytest.mark.parametrize("index", [2**63, -(2**63) - 1])
def test_load_names_the_line_of_a_concept_index_outside_int64(tmp_path, index):
    path = tmp_path / "a.jsonl"
    path.write_text(GOOD % 0 + '\n{"i":1,"c":[%d],"s":[0.5]}\n' % index)
    with pytest.raises(ValueError, match="line 2: not a line save_assignments writes"):
        load_assignments(path)


def test_load_names_the_first_broken_line_whatever_its_rule(tmp_path):
    # Line 2 breaks the last rule checked and line 3 the first one. An
    # empty row is off save_assignments' grammar, refused as the lines are
    # read, before the row rules run once every line is read.
    path = tmp_path / "a.jsonl"
    path.write_text(
        GOOD % 0 + '\n{"i":1,"c":[4,5],"s":[0.25,0.5]}\n{"i":2,"c":[],"s":[]}\n'
    )
    with pytest.raises(ValueError, match="line 3: not a line save_assignments writes"):
        load_assignments(path)
    path.write_text(
        GOOD % 0 + '\n{"i":1,"c":[4,5],"s":[0.25,0.5]}\n{"i":2,"c":[6,6],"s":[0.5,0.25]}\n'
    )
    with pytest.raises(ValueError, match="line 2: similarities must be non-increasing"):
        load_assignments(path)


def test_similarity_slack_is_one_millionth(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"i":0,"c":[1,0],"s":[1.0000009,-1.0000009]}\n')
    assert load_assignments(path)[0].concepts == ((1, 1.0000009), (0, -1.0000009))


@pytest.mark.parametrize("fields, message", BROKEN)
def test_of_names_the_broken_row(fields, message):
    rec = json.loads("{%s}" % fields)
    rows = [row(0, [(3, 0.5)]), row(1, zip(rec["c"], rec["s"])), row(2, [(3, 0.5)])]
    with pytest.raises(ValueError, match=f"^row 1: {message}"):
        Assignments.of(rows)


@pytest.mark.parametrize("index", [1.7, 2.0, np.float64(1.0), "1"])
def test_of_rejects_a_concept_index_that_is_not_an_integer(index):
    rows = [row(0, [(3, 0.5)]), row(1, [(4, 0.5), (index, 0.25)])]
    message = re.escape(f"row 1: concept index {index!r} is not an integer")
    with pytest.raises(ValueError, match=f"^{message}"):
        Assignments.of(rows)


@pytest.mark.parametrize("low, high", [(0, 9), (-(2**63), 2**63 - 1)], ids=["narrow", "int64-wide"])
def test_a_repeated_concept_is_found_whatever_the_span_of_the_concepts(low, high):
    # A span of int64 width takes the two-key sort instead of one sort.
    rows = [row(0, [(high, 0.5), (low, 0.25)]), row(1, [(low, 0.5)]), row(2, [(4, 0.5), (4, 0.25)])]
    Assignments.of(rows[:2])
    with pytest.raises(ValueError, match="^row 2: duplicate concept index"):
        Assignments.of(rows)
    with pytest.raises(ValueError, match="^row 0: duplicate concept index"):
        Assignments.of([row(0, [(high, 0.5), (high, 0.25)]), *rows[1:]])


@pytest.mark.parametrize(
    "offsets, concepts, sims",
    [
        ([0, 2], [1], [0.5]),  # offsets end past the concepts
        ([1, 1], [1], [0.5]),  # offsets do not start at 0
        ([0, 2, 1, 2], [1, 2], [0.5, 0.25]),  # offsets fall
        ([0, 1], [1], [0.5, 0.25]),  # more similarities than concepts
        ([], [], []),  # no offsets at all
    ],
)
def test_constructor_rejects_inconsistent_offsets(offsets, concepts, sims):
    with pytest.raises(ValueError, match="offsets must rise from 0"):
        Assignments(
            np.array(offsets, dtype=np.int64),
            np.array(concepts, dtype=np.int64),
            np.array(sims, dtype=np.float64),
        )


def test_rows_are_views_of_the_columns():
    rows = [
        row(0, [(3, 0.5), (1, 0.25)]),
        row(1, [(7, -0.5)]),
        row(2, [(0, 1.0), (2, 0.0), (5, -1.0)]),
    ]
    a = Assignments.of(rows)
    assert a.offsets.tolist() == [0, 2, 3, 6]
    assert a.concepts.tolist() == [3, 1, 7, 0, 2, 5]
    assert a.sims.tolist() == [0.5, 0.25, -0.5, 1.0, 0.0, -1.0]
    assert len(a) == 3
    assert a[1] == row(1, [(7, -0.5)])
    assert a[-1] == rows[2]
    assert list(a) == rows
    assert a == rows and rows == a and a == tuple(rows)
    assert a != rows[:2] and a != rows[::-1]
    assert Assignments.of(a) is a
    with pytest.raises(IndexError):
        a[3]


def test_row_position_is_the_sample_index(tmp_path):
    a = Assignments.of([row(7, [(1, 0.5)]), row(3, [(2, 0.5)])])
    assert [r.sample_index for r in a] == [0, 1]
    save_assignments(tmp_path / "a.jsonl", [row(7, [(1, 0.5)]), row(3, [(2, 0.5)])])
    assert load_assignments(tmp_path / "a.jsonl") == a


def test_empty_assignments():
    a = Assignments.of([])
    assert len(a) == 0 and list(a) == [] and a == []
    assert a.offsets.tolist() == [0]


def test_take_keeps_order_and_repeats():
    rows = [row(0, [(3, 0.5), (1, 0.25)]), row(1, [(7, -0.5)]), row(2, [(0, 1.0)])]
    a = Assignments.of(rows)
    got = a.take(np.array([2, 0, 2, 1]))
    assert [r.concepts for r in got] == [rows[i].concepts for i in (2, 0, 2, 1)]
    assert len(a.take(np.array([], dtype=np.int64))) == 0


@pytest.mark.parametrize("bad", [-1, 3])
def test_take_rejects_an_index_outside_the_rows(bad):
    a = Assignments.of([row(i, [(i, 0.5)]) for i in range(3)])
    with pytest.raises(ValueError, match=rf"sampled index {bad} out of range \[0, 3\)"):
        a.take(np.array([0, bad]))


def test_save_writes_what_json_dumps_writes(tmp_path):
    rng = np.random.default_rng(31)
    specials = [5e-324, -0.0, 1.0, -1.0, 1.0000009, 0.1, 1 / 3, 2.0**-1074 * 3, 1e-300]
    rows = []
    for i in range(200):
        k = int(rng.integers(1, 9))
        sims = sorted(rng.choice(specials + list(rng.uniform(-1, 1, 4)), size=k), reverse=True)
        concepts = rng.choice(10**12, size=k, replace=False)
        rows.append(row(i, [(int(c), float(s)) for c, s in zip(concepts, sims)]))
    path = tmp_path / "a.jsonl"
    save_assignments(path, rows)
    want = "".join(
        json.dumps({"i": i, "c": [c for c, _ in r.concepts], "s": [s for _, s in r.concepts]},
                   separators=(",", ":")) + "\n"
        for i, r in enumerate(rows)
    )
    assert path.read_text() == want
    assert load_assignments(path) == rows
