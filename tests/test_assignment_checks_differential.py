"""The row checks of ``Assignments``, run a block of rows at a time,
against the whole-column check they replace.

The oracle is ``__post_init__``'s rule code as it ran over all rows at
once. The blocked check must raise the same ``ValueError`` text, naming
the same row, or pass where the oracle passes.
"""

import json
import tracemalloc

import numpy as np
import pytest

from balancepack.balance import concept_frequencies, image_weights
from balancepack.concepts import _CHECK_BLOCK, Assignments, load_assignments

B = _CHECK_BLOCK

# ------------------------------------------------------------------ oracle


def oracle_repeat_rows(row, concepts):
    if concepts.size == 0:
        return row
    low = int(concepts.min())
    span = int(concepts.max()) - low + 1
    if int(row[-1] + 1) * span <= 2**63 - 1:
        key = np.sort(row * span + (concepts - low))
        return key[1:][key[1:] == key[:-1]] // span
    by_row = concepts[np.lexsort((concepts, row))]
    return row[1:][(row[1:] == row[:-1]) & (by_row[1:] == by_row[:-1])]


def oracle_check(o, c, s):
    """The whole-column row check: the error text, or None if every row holds."""
    row = np.repeat(np.arange(o.size - 1), np.diff(o))
    same = row[1:] == row[:-1]
    outside = np.flatnonzero(~((s >= -1.0 - 1e-6) & (s <= 1.0 + 1e-6)))
    rules = (
        (np.flatnonzero(o[1:] == o[:-1]), "assignment must contain at least one concept"),
        (oracle_repeat_rows(row, c), "duplicate concept index"),
        (row[outside], f"similarity {s[outside[0]] if outside.size else 0} outside [-1, 1]"),
        (row[1:][same & (s[1:] > s[:-1])], "similarities must be non-increasing in rank order"),
    )
    broken = [(int(rows[0]), reason) for rows, reason in rules if rows.size]
    if broken:
        return "row %d: %s" % min(broken, key=lambda b: b[0])
    return None


def blocked_check(o, c, s):
    try:
        Assignments(o, c, s)
    except ValueError as e:
        return str(e)
    return None


# ---------------------------------------------------------------- columns


def columns(widths, low=0):
    """Valid CSR columns for rows of the given widths (at most 6): distinct
    concepts in [low, low + 50) and falling similarities."""
    widths = np.asarray(widths, dtype=np.int64)
    o = np.concatenate(([0], np.cumsum(widths)))
    row = np.repeat(np.arange(widths.size), widths)
    j = np.arange(o[-1]) - o[row]
    c = low + (row * 7 + j * 3) % 50
    s = 0.9 - 0.3 * j - 1e-4 * (row % 7)
    return o, c, s


def mixed_widths(n, seed=0):
    return np.random.default_rng(seed).integers(2, 7, size=n)


def break_row(o, c, s, r, rule):
    """Columns with row r (at least two wide) made to break ``rule``."""
    o, c, s = o.copy(), c.copy(), s.copy()
    a = o[r]
    if rule == "empty":
        keep = np.ones(c.size, dtype=bool)
        keep[a : o[r + 1]] = False
        o[r + 1 :] -= o[r + 1] - a
        return o, c[keep], s[keep]
    if rule == "duplicate":
        c[a + 1] = c[a]
    elif rule == "above":
        s[a] = 1.5
    elif rule == "below":
        s[o[r + 1] - 1] = -1.000002
    elif rule == "nan":
        s[a + 1] = np.nan
    elif rule == "+inf":
        s[a] = np.inf
    elif rule == "-inf":
        s[o[r + 1] - 1] = -np.inf
    elif rule == "rising":
        s[a], s[a + 1] = s[a + 1], s[a]
    else:
        raise AssertionError(rule)
    return o, c, s


RULES = ["empty", "duplicate", "above", "below", "nan", "+inf", "-inf", "rising"]


def assert_same(o, c, s, broken=True):
    expected = oracle_check(o, c, s)
    assert (expected is not None) == broken
    assert blocked_check(o, c, s) == expected


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("r", [B - 1, B, B + 1])
def test_a_break_at_a_block_boundary_names_the_row_the_oracle_names(rule, r):
    assert_same(*break_row(*columns(mixed_widths(2 * B + 5)), r, rule))


@pytest.mark.parametrize("rule", RULES)
def test_a_break_in_the_last_row_of_a_short_tail_block(rule):
    n = 2 * B + 37
    assert_same(*break_row(*columns(mixed_widths(n, seed=1)), n - 1, rule))


@pytest.mark.parametrize(
    "breaks",
    [
        [(B + 9, "rising"), (B + 4, "empty")],  # two rules in one block
        [(B + 3, "duplicate"), (B + 3, "above")],  # two rules in one row
        [(B + 3, "rising"), (B + 3, "nan")],
        [(9000, "above"), (100, "rising")],  # breaks in two blocks
        [(B, "duplicate"), (B - 1, "below")],
        [(2 * B + 2, "empty"), (B + 2, "-inf"), (B + 1, "+inf")],
    ],
)
def test_several_breaks_name_the_lowest_row_and_its_first_rule(breaks):
    cols = columns(mixed_widths(2 * B + 20, seed=2))
    # Later rows first, so that removing a row leaves the others in place.
    for r, rule in sorted(breaks, reverse=True):
        cols = break_row(*cols, r, rule)
    assert_same(*cols)


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
def test_valid_rows_pass_at_every_size(n):
    assert_same(*columns(mixed_widths(n)), broken=False)
    assert_same(*columns(np.ones(n, dtype=np.int64)), broken=False)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("n", [1, B])
def test_a_break_in_one_row_or_in_exactly_one_block(rule, n):
    for r in {0, n - 1}:
        assert_same(*break_row(*columns(mixed_widths(n)), r, rule))


@pytest.mark.parametrize(
    "low, span",
    [
        (0, 60),  # one sort, in the oracle and in every block
        (-(2**63), 2**64),  # the two-key sort, in both
        (-(2**62), 2**49),  # the two-key sort over all rows, one sort per block
    ],
    ids=["narrow", "int64-wide", "wide-over-all-rows"],
)
@pytest.mark.parametrize("r", [3, B - 1, B, 2 * B + 4])
def test_a_repeated_concept_is_found_under_both_sorts(low, span, r):
    cols = columns(mixed_widths(2 * B + 8, seed=3), low=low)
    o, c, s = cols
    # Row B + 1 spans the concepts: [low, low + span - 1, low + 50, ...].
    wide = [low, low + span - 1, low + 50, low + 51, low + 52, low + 53]
    c[o[B + 1] : o[B + 2]] = wide[: o[B + 2] - o[B + 1]]
    assert_same(*cols, broken=False)
    assert_same(*break_row(*cols, r, "duplicate"))
    if span > 2**63:
        assert_same(*break_row(*cols, B + 1, "duplicate"))


def test_load_names_the_line_of_a_broken_row_past_the_first_block(tmp_path):
    o, c, s = break_row(*columns(mixed_widths(B + 40, seed=4)), B + 6, "rising")
    path = tmp_path / "a.jsonl"
    with open(path, "w") as f:
        for i, (lo, hi) in enumerate(zip(o.tolist(), o[1:].tolist())):
            rec = {"i": i, "c": c[lo:hi].tolist(), "s": s[lo:hi].tolist()}
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
    assert oracle_check(o, c, s) == f"row {B + 6}: similarities must be non-increasing in rank order"
    with pytest.raises(ValueError) as e:
        load_assignments(path)
    assert str(e.value) == (
        f"{path}: line {B + 7}: similarities must be non-increasing in rank order"
    )


def test_blocks_cover_the_rows_in_order():
    for n in [0, 1, B, B + 1, 3 * B - 1]:
        a = Assignments(*columns(np.ones(n, dtype=np.int64)))
        blocks = list(a.blocks())
        assert [lo for lo, _ in blocks] == list(range(0, n, B))
        assert [hi for _, hi in blocks] == [min(lo + B, n) for lo in range(0, n, B)]


def oracle_image_weights(a, counts, mode):
    """The whole-column weights: one nnz-sized array of 1 / count."""
    raw = np.add.reduceat(1.0 / counts[a.concepts], a.offsets[:-1])
    if mode == "mean":
        raw = raw / np.diff(a.offsets)
    return raw / raw.sum()


@pytest.mark.parametrize("mode", ["mean", "sum"])
@pytest.mark.parametrize("n", [1, B, 2 * B + 37])
def test_image_weights_keep_the_bits_of_the_whole_column_weights(mode, n):
    a = Assignments(*columns(mixed_widths(n, seed=5)))
    freqs = concept_frequencies(a, 60)  # concepts 50-59 go unassigned: zero counts
    expected = oracle_image_weights(a, freqs.counts, mode)
    assert np.array_equal(image_weights(a, freqs, mode=mode), expected)


# ------------------------------------------------------------------ memory


def test_the_row_check_temporaries_stay_under_a_fixed_bound():
    # 300k rows x 5: 16.8 MB of columns. The whole-column check took
    # about 36 MB of temporaries over them.
    cols = columns(np.full(300_000, 5))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        Assignments(*cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 4e6, f"the row check peaked at {(peak - held) / 1e6:.1f} MB"


def test_image_weights_temporaries_stay_under_a_fixed_bound():
    a = Assignments(*columns(np.full(50_000, 5)))
    freqs = concept_frequencies(a, 50)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        image_weights(a, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 2e6, f"image_weights peaked at {(peak - held) / 1e6:.1f} MB"
