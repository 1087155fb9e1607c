import json
import math

import numpy as np
import pytest

from balancepack.balance import (
    _race_keys,
    balance_report,
    concept_frequencies,
    image_weights,
    load_sampled_indices,
    load_weights,
    sample_balanced,
    save_sampled_indices,
    save_weights,
)
from balancepack.concepts import ConceptAssignment
from balancepack.manifest import SynthConfig, synth_corpus


def assignment(i, indices):
    sims = tuple(1.0 - 0.01 * r for r in range(len(indices)))
    return ConceptAssignment(sample_index=i, concepts=tuple(zip(indices, sims)))


# ---------------------------------------------------------------- frequencies


def test_frequencies_hand_count():
    assigns = [assignment(0, [1, 2]), assignment(1, [2, 3])]
    table = concept_frequencies(assigns, 4)
    assert table.counts.tolist() == [0, 1, 2, 1]
    assert table.total_samples == 2


def test_frequencies_empty_input():
    table = concept_frequencies([], 5)
    assert table.counts.tolist() == [0] * 5


def test_frequencies_degenerate_concentration():
    assigns = [assignment(i, [0]) for i in range(7)]
    assert concept_frequencies(assigns, 3).counts.tolist() == [7, 0, 0]


def test_frequencies_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        concept_frequencies([assignment(0, [4])], 4)


# -------------------------------------------------------------------- weights


def test_weights_equal_frequencies_uniform():
    assigns = [assignment(i, [i % 4]) for i in range(8)]  # each concept twice
    w = image_weights(assigns, concept_frequencies(assigns, 4))
    assert np.allclose(w, 1 / 8, atol=1e-12)


def test_weights_singleton_is_one():
    assigns = [assignment(0, [2])]
    w = image_weights(assigns, concept_frequencies(assigns, 3))
    assert w.tolist() == [1.0]


def test_weights_worked_example_exact():
    # counts [3, 1]: raw (1/3, 1/3, (1/3 + 1)/2) -> normalized (0.25, 0.25, 0.5)
    assigns = [assignment(0, [0]), assignment(1, [0]), assignment(2, [0, 1])]
    w = image_weights(assigns, concept_frequencies(assigns, 2))
    assert np.max(np.abs(w - np.array([0.25, 0.25, 0.5]))) < 1e-12
    assert abs(w.sum() - 1.0) <= 1e-9


def test_weights_sum_mode():
    assigns = [assignment(0, [0]), assignment(1, [0]), assignment(2, [0, 1])]
    w = image_weights(assigns, concept_frequencies(assigns, 2), mode="sum")
    # raw (1/3, 1/3, 4/3) -> normalized (1/6, 1/6, 2/3)
    assert np.max(np.abs(w - np.array([1 / 6, 1 / 6, 2 / 3]))) < 1e-12


def test_weights_zero_frequency_is_error():
    assigns = [assignment(0, [0]), assignment(1, [1])]
    freqs = concept_frequencies([assignment(0, [0]), assignment(1, [0])], 2)
    with pytest.raises(ValueError, match="zero frequency"):
        image_weights(assigns, freqs)


def test_weights_permutation_equivariant():
    rng = np.random.default_rng(0)
    assigns = [assignment(i, sorted(rng.choice(10, size=3, replace=False))) for i in range(40)]
    freqs = concept_frequencies(assigns, 10)
    w = image_weights(assigns, freqs)
    perm = rng.permutation(40)
    permuted = [assignment(int(j), list(assigns[j].indices)) for j in perm]
    w_perm = image_weights(permuted, freqs)
    assert np.allclose(w_perm, w[perm], atol=1e-15)


def test_weights_invariant_under_count_scaling():
    rng = np.random.default_rng(1)
    assigns = [assignment(i, sorted(rng.choice(12, size=4, replace=False))) for i in range(30)]
    freqs = concept_frequencies(assigns, 12)
    w1 = image_weights(assigns, freqs)
    from balancepack.balance import ConceptFrequencyTable

    scaled = ConceptFrequencyTable(counts=freqs.counts * 7, total_samples=freqs.total_samples * 7)
    w7 = image_weights(assigns, scaled)
    assert np.max(np.abs(w1 - w7)) < 1e-12


# ------------------------------------------------------------------- sampling


def test_sample_exhaustive_draw_is_permutation():
    rng = np.random.default_rng(2)
    w = rng.random(50)
    w /= w.sum()
    idx = sample_balanced(w, 50, seed=9)
    assert sorted(idx.tolist()) == list(range(50))


def test_sample_one_hot_with_replacement():
    w = np.zeros(10)
    w[7] = 1.0
    assert sample_balanced(w, 5, seed=0, replacement=True).tolist() == [7] * 5


def test_sample_without_replacement_never_repeats():
    rng = np.random.default_rng(3)
    for seed in range(20):
        w = rng.random(30)
        w /= w.sum()
        idx = sample_balanced(w, 15, seed=seed)
        assert len(set(idx.tolist())) == 15


def test_sample_reproducible_for_fixed_seed():
    w = np.full(100, 0.01)
    a = sample_balanced(w, 40, seed=77)
    b = sample_balanced(w, 40, seed=77)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_balanced(w, 40, seed=78))


def test_sample_uniform_monte_carlo_frequencies():
    # Uniform weights, n = N/2: every index should appear ~half the time.
    n_corpus = 10
    w = np.full(n_corpus, 1.0 / n_corpus)
    hits = np.zeros(n_corpus)
    reps = 10_000
    for seed in range(reps):
        hits[sample_balanced(w, n_corpus // 2, seed=seed)] += 1
    freq = hits / reps
    assert np.all(np.abs(freq - 0.5) <= 0.02)


def test_sample_validates_inputs():
    w = np.full(10, 0.1)
    with pytest.raises(ValueError, match="n=11"):
        sample_balanced(w, 11, seed=0)
    with pytest.raises(ValueError, match="not 1"):
        sample_balanced(np.full(10, 0.2), 5, seed=0)


def test_sample_without_replacement_rejects_n_above_positive_weights():
    w = np.array([0.0, 0.5, 0.0, 0.25, 0.25, 0.0])
    idx = sample_balanced(w, 3, seed=4)
    assert sorted(idx.tolist()) == [1, 3, 4]
    with pytest.raises(ValueError, match="n=4.*only 3 of 6 samples have positive weight"):
        sample_balanced(w, 4, seed=4)
    # With replacement zero-weight samples are simply never drawn.
    assert set(sample_balanced(w, 50, seed=4, replacement=True).tolist()) <= {1, 3, 4}


def test_race_key_of_a_zero_draw_is_finite():
    keys = _race_keys(np.array([0.0, 0.5, 0.0]), np.array([0.5, 0.5, 0.0]))
    assert np.isfinite(keys[:2]).all() and keys[0] > keys[1]
    assert keys[0] == -np.log(np.nextafter(0.0, 1.0)) / 0.5
    assert keys[2] == np.inf  # a zero weight still never wins the race


# -------------------------------------------------------------------- reports


def test_report_uniform_counts():
    assigns = [assignment(i, [i % 8]) for i in range(16)]
    rep = balance_report(assigns, 8)
    assert abs(rep.entropy_bits - 3.0) < 1e-12
    assert abs(rep.gini) < 1e-12
    assert rep.coverage == 1.0


def test_report_entropy_closed_form():
    # occurrence counts (3, 1): entropy of (0.75, 0.25) = 0.811278... bits
    assigns = [assignment(i, [0]) for i in range(3)] + [assignment(3, [1])]
    rep = balance_report(assigns, 2)
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(rep.entropy_bits - expected) < 1e-12
    assert abs(rep.entropy_bits - 0.8113) < 1e-4


def test_report_coverage_single_live_concept():
    assigns = [assignment(i, [0]) for i in range(4)]
    assert balance_report(assigns, 4).coverage == 0.25


def test_report_sorted_counts_non_increasing_and_total():
    rng = np.random.default_rng(4)
    assigns = [
        assignment(i, sorted(rng.choice(15, size=3, replace=False))) for i in range(50)
    ]
    rep = balance_report(assigns, 15)
    counts = rep.sorted_counts
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts.sum() == 150
    assert 0 <= rep.gini <= 1
    assert 0 <= rep.entropy_bits <= math.log2(15) + 1e-12


def test_report_rejects_empty_subset():
    with pytest.raises(ValueError, match="empty"):
        balance_report([], 5)


def test_balanced_sampling_beats_uniform_on_zipf():
    # Distribution-level analog of the mid-training balance ablation: on a
    # long-tail corpus the balanced draw must carry more concept entropy.
    gaps = []
    for seed in range(10):
        cfg = SynthConfig(n_samples=20_000, vocab_size=500, k=5, zipf_exponent=1.5, seed=seed)
        _, assigns = synth_corpus(cfg)
        freqs = concept_frequencies(assigns, 500)
        w = image_weights(assigns, freqs)
        n = 2_000
        balanced = [assigns[i] for i in sample_balanced(w, n, seed)]
        uniform_w = np.full(len(assigns), 1.0 / len(assigns))
        uniform = [assigns[i] for i in sample_balanced(uniform_w, n, seed)]
        gaps.append(
            balance_report(balanced, 500).entropy_bits
            - balance_report(uniform, 500).entropy_bits
        )
    assert np.mean(gaps) > 0


# ------------------------------------------------------------------- file io


def test_weights_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    w = rng.random(25)
    w /= w.sum()
    path = tmp_path / "w.jsonl"
    save_weights(path, w)
    assert np.array_equal(load_weights(path), w)


def test_sampled_indices_round_trip_with_header(tmp_path):
    idx = np.array([5, 1, 9], dtype=np.int64)
    path = tmp_path / "s.txt"
    save_sampled_indices(path, idx, seed=3, replacement=False)
    assert path.read_text().splitlines()[0] == "# seed=3 n=3 replacement=false"
    assert np.array_equal(load_sampled_indices(path), idx)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 5000])
def test_sampled_indices_round_trip_any_index_array(tmp_path, size):
    # The header's n comes from the array itself, so whatever is written loads.
    rng = np.random.default_rng(size)
    idx = rng.integers(-(2**63), 2**63 - 1, size=size, endpoint=True)
    idx[: size // 2] %= 1000  # small and repeated indices beside the int64 extremes
    path = tmp_path / "s.txt"
    save_sampled_indices(path, idx, seed=size, replacement=bool(size % 2))
    assert path.read_text().splitlines()[0].split()[2] == f"n={size}"
    got = load_sampled_indices(path)
    assert got.dtype == np.int64
    assert np.array_equal(got, idx)


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"i":"1","w":0.5}', "not a line save_weights writes"),
        ('{"i":1.5,"w":0.5}', "not a line save_weights writes"),
        ('{"i":1,"w":"0.5"}', "not a line save_weights writes"),
        ('{"i":1,"w":1}', "not a line save_weights writes"),
        ('{"i":0,"w":0.5}', "record index 0, expected 1"),
        ('{"i":2,"w":0.5}', "record index 2, expected 1"),
        ('{"i":1}', "not a line save_weights writes"),
        ('{"i":1,"w":NaN}', "not a line save_weights writes"),
        ('{"i":1,"w":Infinity}', "not a line save_weights writes"),
        ('{"i":1,"w":1e400}', "weight 1 is inf"),
        ('{"i":1,"w":-0.5}', "weight 1 is -0.5"),
        ('{"i":1,"w":0.5,"x":1}', "not a line save_weights writes"),
        ("", "not a line save_weights writes"),
        ("   ", "not a line save_weights writes"),
        ('{"i":true,"w":0.5}', "not a line save_weights writes"),
        ('{"i": 1, "w": 0.5}', "not a line save_weights writes"),
        ('{"w":0.5,"i":1}', "not a line save_weights writes"),
        ('{"\\u0069":1,"w":0.5}', "not a line save_weights writes"),
        ('{"i":1,"w":0.5}\r', "not a line save_weights writes"),
        ('{"i":1,"w":0.25}\r{"i":2,"w":0.25}', "not a line save_weights writes"),
    ],
)
def test_weights_load_rejects_what_save_never_writes(tmp_path, second, message):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":0,"w":0.5}\n' + second + "\n")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        load_weights(path)


def test_weights_load_rejects_blank_line_between_records(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":0,"w":0.5}\n\n   \n{"i":1,"w":0.5}\n')
    with pytest.raises(ValueError, match="line 2: not a line save_weights writes"):
        load_weights(path)


def test_weights_save_writes_what_json_dumps_writes(tmp_path):
    # Weights over 300 decades that sum to 1, as the writer requires; weights
    # that do not are refused (tests/test_writers.py).
    rng = np.random.default_rng(6)
    w = np.concatenate([rng.random(200) * 10.0 ** rng.integers(-300, -3, 200),
                        [0.0, -0.0, 0.1, 5e-324, 2.2250738585072009e-308]])
    w = np.append(w, 1.0 - w.sum())
    path = tmp_path / "w.jsonl"
    save_weights(path, w)
    want = "".join(
        json.dumps({"i": i, "w": float(x)}, separators=(",", ":")) + "\n" for i, x in enumerate(w)
    )
    assert path.read_text() == want


def test_weights_load_is_bit_exact(tmp_path):
    # Weights over 300 decades that still sum to 1, as the reader requires:
    # tiny and subnormal ones, mid-sized ones, and one dominant weight.
    rng = np.random.default_rng(6)
    tiny = rng.random(200) * 10.0 ** rng.integers(-300, -20, 200)
    mid = rng.random(50) * 10.0 ** rng.integers(-20, -2, 50)
    extremes = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308]
    w = np.concatenate([tiny, mid, extremes])
    w = np.append(w, 1.0 - w.sum())
    path = tmp_path / "w.jsonl"
    save_weights(path, w)
    assert load_weights(path).tobytes() == w.tobytes()


@pytest.mark.parametrize("second", [0.4, 0.6, 0.5 + 2e-9])
def test_weights_load_rejects_a_sum_other_than_one(tmp_path, second):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":0,"w":0.5}\n{"i":1,"w":%r}\n' % second)
    with pytest.raises(ValueError, match=f"^{path}: weights sum to {0.5 + second!r}, not 1"):
        load_weights(path)
    path.write_text('{"i":0,"w":0.5}\n{"i":1,"w":%r}\n' % (0.5 + 5e-10))
    assert load_weights(path).tolist() == [0.5, 0.5 + 5e-10]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_weights_save_rejects_non_finite_or_negative(tmp_path, bad):
    path = tmp_path / "w.jsonl"
    with pytest.raises(ValueError, match=f"weight 2 is {bad!r}"):
        save_weights(path, np.array([0.25, 0.25, bad, 0.5]))
    assert not path.exists()


def test_weights_load_rejects_records_out_of_order(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":1,"w":0.5}\n{"i":0,"w":0.5}\n')
    with pytest.raises(ValueError, match="line 1: record index 1, expected 0"):
        load_weights(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: expected the header"),
        ("3\n", "line 1: expected the header"),
        ("# seed=3 n=1\n3\n", "line 1: expected the header"),
        ("# seed=3 n=01 replacement=false\n3\n", "line 1: expected the header"),
        ("# seed=3 n=2 replacement=false\n3\n", "1 index lines, the header says n=2"),
        ("# seed=3 n=1 replacement=false\n3\n4\n", "2 index lines, the header says n=1"),
        ("# seed=3 n=2 replacement=false\n3\n7_0\n", "line 3: '7_0\\\\n' is not an index"),
        ("# seed=3 n=2 replacement=false\n+5\n3\n", "line 2: '\\+5\\\\n' is not an index"),
        ("# seed=3 n=2 replacement=false\n 6\n3\n", "line 2: ' 6\\\\n' is not an index"),
        ("# seed=3 n=2 replacement=false\n06\n3\n", "line 2: '06\\\\n' is not an index"),
        ("# seed=3 n=2 replacement=false\n3\n\n", "line 3: '\\\\n' is not an index"),
        ("# seed=3 n=1 replacement=false\n3", "line 2: '3' is not an index"),
        ("# seed=3 n=2 replacement=false\n3\r4\n", "line 2: '3\\\\r4\\\\n' is not an index"),
        (
            "# seed=3 n=1 replacement=false\n99999999999999999999\n",
            "line 2: '99999999999999999999\\\\n' is not an index",
        ),
        (
            "# seed=3 n=1 replacement=false\n-9223372036854775809\n",
            "line 2: '-9223372036854775809\\\\n' is not an index",
        ),
    ],
)
def test_sampled_indices_load_rejects_what_save_never_writes(tmp_path, text, message):
    path = tmp_path / "s.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_sampled_indices(path)


@pytest.mark.parametrize(
    "indices, seed, replacement, fault",
    [
        ([1, 2], 0, 1, "seed must be an int and replacement a bool, not header "
         "'# seed=0 n=2 replacement=1\\n'"),
        ([1, 2], 1.5, False, "seed must be an int and replacement a bool, not header "
         "'# seed=1.5 n=2 replacement=false\\n'"),
        (np.array([0.7, 2.2]), 0, False, "indices must be one int64 column, not float64 (2,)"),
        (
            np.array([1, 2**63], dtype=np.uint64), 0, False,
            "indices must be one int64 column, not uint64 (2,)",
        ),
    ],
)
def test_sampled_indices_save_refuses_what_load_would_not_read(
    tmp_path, indices, seed, replacement, fault
):
    # A header the loader rejects, or indices it would read back changed
    # (truncated floats) or not at all (beyond int64), are never published.
    with pytest.raises(ValueError) as e:
        save_sampled_indices(tmp_path / "s.txt", indices, seed=seed, replacement=replacement)
    assert str(e.value) == fault
    assert list(tmp_path.iterdir()) == []


def test_sampled_indices_load_the_int64_limits(tmp_path):
    path = tmp_path / "s.txt"
    save_sampled_indices(path, np.array([2**63 - 1, -(2**63)]), seed=0, replacement=True)
    assert load_sampled_indices(path).tolist() == [2**63 - 1, -(2**63)]


def test_sampled_indices_load_keeps_range_to_the_caller(tmp_path):
    path = tmp_path / "s.txt"
    save_sampled_indices(path, np.array([-1, 400, 0]), seed=-2, replacement=True)
    assert load_sampled_indices(path).tolist() == [-1, 400, 0]
