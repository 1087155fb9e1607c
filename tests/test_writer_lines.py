"""The one reader of the files only the toolkit writes: weights and assignments.

``load_weights`` and ``load_assignments`` read a file in blocks of
WRITE_BLOCK lines by their writer's line grammar, with no ``json.loads``.
A line off the grammar is refused as ``{path}: line N: not a line
{writer} writes``, whatever JSON it holds. A line in the grammar whose
values break a rule keeps the rule's own text, and of the faults met while
reading, the lowest line's wins. The rules of the whole file (the weights'
sum, the row rules of ``Assignments``) run once every line is read.
"""

import json

import numpy as np
import pytest
from test_canonical_lines import N, bits, outcome, write_assignments, write_weights

from balancepack.balance import load_weights, save_weights
from balancepack.concepts import Assignments, load_assignments, save_assignments
from balancepack.jsonl import WRITE_BLOCK

WRITER = {load_weights: "save_weights", load_assignments: "save_assignments"}
WRITE = {load_weights: write_weights, load_assignments: write_assignments}
LOADERS = pytest.mark.parametrize("load", WRITER, ids=lambda f: f.__name__)


def error(path, text):
    return "error", f"{path}: {text}"


def refused(path, line, load):
    return error(path, f"line {line}: not a line {WRITER[load]} writes")


def edge_weights(rng, n):
    """Weights summing to 1 with a -0.0, a zero, the smallest and the largest
    subnormal and the smallest normal among them."""
    w = rng.random(n)
    w /= w.sum()
    w[5:10] = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    w[0] += 1.0 - w.sum()
    return w


def ragged_assignments(rng, n):
    """Rows 1 to 6 wide, concepts of up to 18 digits of either sign, and
    similarities that include -0.0, the smallest subnormal and +-1."""
    widths = rng.integers(1, 7, n)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    pool = np.array([0, 1, 7, 999, 10**18 - 1, -(10**18 - 1), 123456789012345678, -5])
    concepts = np.concatenate([rng.permutation(pool)[:k] for k in widths])
    sims = rng.uniform(-1.0, 1.0, offsets[-1])
    sims[:40] = np.tile([1.0, 5e-324, -0.0, -1.0], 10)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        sims[lo:hi] = sorted(sims[lo:hi], reverse=True)
    return Assignments(offsets.astype(np.int64), concepts.astype(np.int64), sims)


@pytest.mark.parametrize("kind", ["weights", "ragged assignments", "fixed-k assignments"])
def test_writer_output_of_several_blocks_loads_bit_for_bit_without_json_loads(
    tmp_path, monkeypatch, kind
):
    path = tmp_path / "f.jsonl"
    rng = np.random.default_rng(31)
    if kind == "weights":
        load, written = load_weights, edge_weights(rng, N)
        save_weights(path, written)
    else:
        load = load_assignments
        if kind == "ragged assignments":
            written = ragged_assignments(rng, N)
            save_assignments(path, written)
        else:
            write_assignments(path)
            written = load_assignments(path)
    assert path.read_text().count("\n") > 2 * WRITE_BLOCK

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    assert outcome(load, path) == ("loaded", bits(written))


def spaced(line):
    """Line ``line`` of a writer with spaces after its commas and colons, as
    json.loads reads it the same (the other spellings are in the tables of
    tests/test_balance.py and tests/test_concepts.py)."""
    return line.replace(",", ", ").replace(":", ": ")


BASES = {
    load_weights: ['{"i":0,"w":0.25}\n', '{"i":1,"w":0.25}\n', '{"i":2,"w":0.5}\n'],
    load_assignments: ['{"i":0,"c":[1],"s":[0.5]}\n', '{"i":1,"c":[2,0],"s":[0.5,0.25]}\n',
                       '{"i":2,"c":[3],"s":[1.0]}\n'],
}


@LOADERS
def test_a_last_line_without_its_line_end_is_refused(tmp_path, load):
    path = tmp_path / "f.jsonl"
    path.write_text("".join(BASES[load]), encoding="utf-8")
    assert outcome(load, path)[0] == "loaded"
    path.write_text("".join(BASES[load]).removesuffix("\n"), encoding="utf-8")
    assert outcome(load, path) == refused(path, 3, load)


@pytest.mark.parametrize(
    "text, load",
    [
        ('{"i":-0,"w":1.0}\n', load_weights),
        ('{"i":0,"w":.5}\n{"i":1,"w":0.5}\n', load_weights),
        ('{"i":0,"w":01.0}\n', load_weights),
        ('{"i":0,"c":[-0],"s":[0.5]}\n', load_assignments),
        ('{"i":0,"c":[1000000000000000000],"s":[0.5]}\n', load_assignments),
        ('{"i":0,"c":[1,],"s":[0.5,]}\n', load_assignments),
    ],
    ids=["w -0 index", "w bare fraction", "w leading zero", "c -0", "c 19 digits",
         "trailing comma"],
)
def test_a_number_the_writer_never_writes_is_refused(tmp_path, text, load):
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    assert outcome(load, path) == refused(path, 1, load)


def edit_line(path, line, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("".join(lines), encoding="utf-8")


# A fault of record r in the grammar: the edit of its line and its text.
VALUE_FAULTS = {
    "index": (lambda line, r: line.replace(f'{{"i":{r},', '{"i":9,', 1),
              lambda r: f"record index 9, expected {r}"),
    "weight": (lambda line, r: line[: line.index('"w":')] + '"w":-0.5}\n',
               lambda r: f"weight {r} is -0.5, not finite and non-negative"),
    "counts": (lambda line, r: line.replace('"s":[', '"s":[0.75,'),
               lambda r: "4 concepts in 'c' but 5 similarities in 's'"),
}
CASES = [(load_weights, "index"), (load_weights, "weight"), (load_assignments, "index"),
         (load_assignments, "counts")]


@pytest.mark.parametrize("line", [2, WRITE_BLOCK], ids=["in one block", "across a block boundary"])
@pytest.mark.parametrize("load, fault", CASES, ids=lambda x: getattr(x, "__name__", x))
def test_a_value_fault_wins_over_an_off_grammar_line_below_it(tmp_path, load, fault, line):
    path = tmp_path / "f.jsonl"
    WRITE[load](path)
    edit, text = VALUE_FAULTS[fault]
    edit_line(path, line, lambda s: edit(s, line - 1))
    edit_line(path, line + 1, spaced)
    assert outcome(load, path) == error(path, f"line {line}: {text(line - 1)}")
    edit_line(path, line, spaced)
    assert outcome(load, path) == refused(path, line, load)


@pytest.mark.parametrize("load, fault", CASES, ids=lambda x: getattr(x, "__name__", x))
def test_the_lowest_line_of_a_block_wins_whatever_its_rule(tmp_path, load, fault):
    path = tmp_path / "f.jsonl"
    WRITE[load](path)
    other = {"index": "weight" if load is load_weights else "counts"}.get(fault, "index")
    line = WRITE_BLOCK + 100
    for at, kind in ((line + 7, other), (line, fault)):
        edit, _ = VALUE_FAULTS[kind]
        edit_line(path, at, lambda s: edit(s, at - 1))
    text = VALUE_FAULTS[fault][1]
    assert outcome(load, path) == error(path, f"line {line}: {text(line - 1)}")


def test_an_index_fault_wins_over_a_weight_fault_of_the_same_line(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":0,"w":0.5}\n{"i":5,"w":-1.0}\n')
    assert outcome(load_weights, path) == error(path, "line 2: record index 5, expected 1")


def test_an_index_fault_wins_over_a_count_fault_of_the_same_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"i":0,"c":[1],"s":[0.5]}\n{"i":5,"c":[1,2],"s":[0.5]}\n')
    assert outcome(load_assignments, path) == error(path, "line 2: record index 5, expected 1")


def repeat_first_concept(line):
    head, rest = line.split('"c":[', 1)
    first, _, tail = rest.split(",", 2)
    return f'{head}"c":[{first},{first},{tail}'


# A fault of its own in the line below a row that breaks a rule of
# ``Assignments``: its edit and its text.
BELOW = {
    "off the grammar": (lambda s, r: spaced(s), lambda r: "not a line save_assignments writes"),
    "index": VALUE_FAULTS["index"],
    "counts": VALUE_FAULTS["counts"],
}


@pytest.mark.parametrize("line", [2, WRITE_BLOCK], ids=["in one block", "across a block boundary"])
@pytest.mark.parametrize("below", BELOW)
def test_the_row_rules_run_once_every_line_is_read(tmp_path, below, line):
    # A line's own fault is met while the file is read, so it is named
    # before a broken row above it, whose rules run after the read.
    path = tmp_path / "a.jsonl"
    write_assignments(path)
    edit_line(path, line, repeat_first_concept)
    assert outcome(load_assignments, path) == error(path, f"line {line}: duplicate concept index")
    edit, text = BELOW[below]
    edit_line(path, line + 1, lambda s: edit(s, line))
    assert outcome(load_assignments, path) == error(path, f"line {line + 1}: {text(line)}")


def test_the_weights_sum_is_checked_once_every_line_is_read(tmp_path):
    path = tmp_path / "w.jsonl"
    lines = ['{"i":0,"w":0.25}\n', '{"i":1,"w":0.25}\n']
    path.write_text("".join(lines))
    assert outcome(load_weights, path) == error(path, "weights sum to 0.5, not 1 within 1e-09")
    path.write_text(lines[0] + spaced(lines[1]))
    assert outcome(load_weights, path) == refused(path, 2, load_weights)
    path.write_text("")
    assert outcome(load_weights, path) == error(path, "weights must be a non-empty 1-D vector")


def weights_text(value):
    return f'{{"i":0,"w":{value}}}\n{{"i":1,"w":1.0}}\n'


def sims_text(value):
    return f'{{"i":0,"c":[3,1],"s":[{value},-1.0]}}\n'


def concepts_text(value):
    return f'{{"i":0,"c":[{value},7],"s":[0.5,-0.5]}}\n'


def weights(value):
    return bits(np.array([float(value), 1.0]))


def sims(value):
    return bits(Assignments(np.array([0, 2]), np.array([3, 1]), np.array([float(value), -1.0])))


def concepts(value):
    return bits(Assignments(np.array([0, 2]), np.array([int(value), 7]), np.array([0.5, -0.5])))


# Spellings of float tokens in the grammar, each within the rules of both formats.
FLOATS = ["-0.0", "5e-324", "1e-300", "2.2250738585072009e-308", "1E-12", "1.0e-10", "0.00e+00"]

# (loader, file text, its outcome: the values loaded bit for bit, or the error after the path)
EDGES = {
    **{f"w={v}": (load_weights, weights_text(v), weights(v)) for v in FLOATS},
    "w=0.1": (load_weights, '{"i":0,"w":0.1}\n{"i":1,"w":0.9}\n', bits(np.array([0.1, 0.9]))),
    "w=max": (load_weights, weights_text("1.7976931348623157e308"),
              "weights sum to 1.7976931348623157e+308, not 1 within 1e-09"),
    "w=1e999": (load_weights, weights_text("1e999"),
                "line 1: weight 0 is inf, not finite and non-negative"),
    **{f"s={v}": (load_assignments, sims_text(v), sims(v)) for v in FLOATS},
    "s=1e999": (load_assignments, sims_text("1e999"), "line 1: similarity inf outside [-1, 1]"),
    "c=-(10**18-1)": (load_assignments, concepts_text(-(10**18 - 1)), concepts(-(10**18 - 1))),
    "c=10**18-1": (load_assignments, concepts_text(10**18 - 1), concepts(10**18 - 1)),
    "c=0": (load_assignments, concepts_text(0), concepts(0)),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_values_load_bit_for_bit_or_keep_their_own_text(tmp_path, name):
    load, text, want = EDGES[name]
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8")
    if isinstance(want, str):
        assert outcome(load, path) == error(path, want)
    else:
        assert outcome(load, path) == ("loaded", want)


@pytest.mark.parametrize("index", [10**18, 2**63 - 1, -(10**18), -(2**63)])
def test_save_assignments_refuses_a_concept_the_loader_does_not_read(tmp_path, index):
    path = tmp_path / "a.jsonl"
    path.write_text("kept\n")
    a = Assignments(np.array([0, 2]), np.array([0, index]), np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match=f"^concept index {index} has more than 18 digits$"):
        save_assignments(path, a)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl"]
    assert path.read_text() == "kept\n"


def test_concepts_of_18_digits_round_trip(tmp_path):
    path = tmp_path / "a.jsonl"
    a = Assignments(np.array([0, 2, 3]), np.array([10**18 - 1, -(10**18 - 1), 0]),
                    np.array([0.5, 0.25, 1.0]))
    save_assignments(path, a)
    assert bits(load_assignments(path)) == bits(a)
