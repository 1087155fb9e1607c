import math

import numpy as np
import pytest

from balancepack.balance import (
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
    save_sampled_indices(path, idx, seed=3, n=3, replacement=False)
    assert path.read_text().splitlines()[0] == "# seed=3 n=3 replacement=false"
    assert np.array_equal(load_sampled_indices(path), idx)


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"i":"1","w":0.5}', "field 'i' must be a JSON integer"),
        ('{"i":1.5,"w":0.5}', "field 'i' must be a JSON integer"),
        ('{"i":1,"w":"0.5"}', "field 'w' must be a JSON float"),
        ('{"i":1,"w":1}', "field 'w' must be a JSON float"),
        ('{"i":0,"w":0.5}', "record index 0, expected 1"),
        ('{"i":2,"w":0.5}', "record index 2, expected 1"),
        ('{"i":1}', "missing field 'w'"),
    ],
)
def test_weights_load_rejects_what_save_never_writes(tmp_path, second, message):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":0,"w":0.5}\n' + second + "\n")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        load_weights(path)


def test_weights_load_rejects_records_out_of_order(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text('{"i":1,"w":0.5}\n{"i":0,"w":0.5}\n')
    with pytest.raises(ValueError, match="line 1: record index 1, expected 0"):
        load_weights(path)


@pytest.mark.parametrize(
    "text, message",
    [
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
    ],
)
def test_sampled_indices_load_rejects_what_save_never_writes(tmp_path, text, message):
    path = tmp_path / "s.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_sampled_indices(path)


def test_sampled_indices_load_keeps_range_to_the_caller(tmp_path):
    path = tmp_path / "s.txt"
    save_sampled_indices(path, np.array([-1, 400, 0]), seed=-2, n=3, replacement=True)
    assert load_sampled_indices(path).tolist() == [-1, 400, 0]
