"""Differential tests of the synth concept draw against the exponential race.

``oracle_distinct_weighted_rows`` is the earlier implementation of
``manifest._distinct_weighted_rows``, kept verbatim: per row, the k
smallest exponential-race keys -ln(u)/w over the whole vocabulary
(Efraimidis & Spirakis 2006). Both kernels draw k concepts by sequential
weighted sampling without replacement but consume their uniforms
differently, so rows are compared in distribution, not bit for bit:
each kernel's subset frequencies must fit the exact subset law.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from balancepack import cli
from balancepack.manifest import _GEN_SHARD, _distinct_weighted_rows, zipf_weights
from balancepack.rng import STREAM_CONCEPTS, philox

# ------------------------------------------------------------------ oracle

_ORACLE_ROW_CHUNK = 2048


def oracle_distinct_weighted_rows(rng, rows, weights, k):
    m = weights.size
    out = np.empty((rows, k), dtype=np.int64)
    for start in range(0, rows, _ORACLE_ROW_CHUNK):
        stop = min(start + _ORACLE_ROW_CHUNK, rows)
        u = rng.random((stop - start, m))
        keys = -np.log(u) / weights
        if k < m:
            chosen = np.argpartition(keys, k - 1, axis=1)[:, :k]
        else:
            chosen = np.broadcast_to(np.arange(m), (stop - start, m)).copy()
        out[start:stop] = np.sort(chosen, axis=1)
    return out


KERNELS = {"gap": _distinct_weighted_rows, "race": oracle_distinct_weighted_rows}

# ------------------------------------------------------------------ exact law


def subset_probabilities(weights, k):
    """P(set S) for every k-subset S: the sum over the orders of S of the
    sequential draw's probability, each pick proportional to the weight
    left."""
    w = [float(x) for x in weights]
    total = math.fsum(w)
    probs = {}
    for subset in itertools.combinations(range(len(w)), k):
        p = 0.0
        for order in itertools.permutations(subset):
            left, q = total, 1.0
            for c in order:
                q *= w[c] / left
                left -= w[c]
            p += q
        probs[subset] = p
    return probs


def chi2_sf(x, df):
    """Survival function of the chi-squared law with integer ``df``."""
    h = x / 2.0
    if df % 2 == 0:
        terms = range(df // 2)
        return math.exp(-h) * math.fsum(h**i / math.factorial(i) for i in terms)
    tail = math.erfc(math.sqrt(h))
    terms = range(df // 2)
    return tail + math.exp(-h) * math.fsum(h ** (i + 0.5) / math.gamma(i + 1.5) for i in terms)


def chi2_pvalue(rows, probs):
    """Pearson's test of the observed row subsets against ``probs``; cells
    expected below 5 are pooled into one. Rows must be valid k-subsets."""
    masks = [sum(1 << c for c in subset) for subset in probs]
    observed = np.bincount((1 << rows).sum(axis=1), minlength=max(masks) + 1)[masks]
    expected = rows.shape[0] * np.array(list(probs.values()))
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    stat = float(((observed - expected) ** 2 / expected).sum())
    return chi2_sf(stat, expected.size - 1)


# ------------------------------------------------------------------ tests


def assert_valid_rows(rows, count, m, k):
    assert rows.shape == (count, k)
    assert rows.dtype == np.int64
    assert rows.min() >= 0 and rows.max() < m
    assert np.all(np.diff(rows, axis=1) > 0)  # ascending, hence distinct


def test_chi2_sf_known_values():
    # chi-squared critical values at significance 0.001
    for df, crit in ((1, 10.828), (2, 13.816), (4, 18.467), (20, 45.315), (69, 111.055)):
        assert chi2_sf(crit, df) == pytest.approx(0.001, rel=1e-3)


@pytest.mark.parametrize("m, k, s", [(6, 3, 1.2), (8, 4, 0.0), (7, 5, 3.0), (5, 1, 1.5)])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_subset_frequencies_fit_the_exact_law(kernel, m, k, s):
    weights = zipf_weights(m, s)
    probs = subset_probabilities(weights, k)
    assert math.isclose(math.fsum(probs.values()), 1.0, rel_tol=1e-12)
    rows = KERNELS[kernel](philox(2024, STREAM_CONCEPTS, m * 10 + k), 200_000, weights, k)
    assert_valid_rows(rows, 200_000, m, k)
    assert chi2_pvalue(rows, probs) > 0.001


@pytest.mark.parametrize("s", [0.0, 1.5, 10.0, 30.0, 100.0])
def test_rows_are_distinct_in_range_and_ascending_at_any_exponent(s):
    weights = zipf_weights(1000, s)
    for k, count in ((1, 300), (5, 300), (999, 30), (1000, 30)):
        rows = _distinct_weighted_rows(philox(5, STREAM_CONCEPTS, k), count, weights, k)
        assert_valid_rows(rows, count, 1000, k)


@pytest.mark.parametrize("m", [1, 2, 3, 17])
def test_rows_at_small_vocabularies(m):
    for s in (0.0, 1.5, 30.0):
        for k in range(1, m + 1):
            rows = _distinct_weighted_rows(philox(6, STREAM_CONCEPTS, k), 500, zipf_weights(m, s), k)
            assert_valid_rows(rows, 500, m, k)


class FixedUniforms:
    """Stands in for a generator: ``random(shape)`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert self.u.shape == shape
        return self.u.copy()


@pytest.mark.parametrize("m, s, k", [(50, 0.0, 49), (50, 1.5, 49), (7, 3.0, 5), (1000, 300.0, 11)])
def test_extreme_uniforms_never_repeat_an_index(m, s, k):
    # Uniforms at or next to 0 and 1 put the target on gap edges, where
    # rounding lands the in-gap search on a neighbour unless it is clipped;
    # at zipf 300 the last picks' masses are subnormal, where u * R can
    # round up to R.
    near_one = 1.0 - np.random.default_rng(12).random((100, k)) ** 50
    cases = (np.zeros((10, k)), np.full((10, k), 1.0 - 2.0**-53), near_one)
    for u in cases:
        rows = _distinct_weighted_rows(FixedUniforms(u), u.shape[0], zipf_weights(m, s), k)
        assert_valid_rows(rows, u.shape[0], m, k)


def test_too_few_positive_weights_are_rejected():
    # At zipf 300 every rank from 12 on underflows to a zero weight.
    weights = zipf_weights(1000, 300.0)
    assert 5 <= np.count_nonzero(weights) < 30
    assert_valid_rows(_distinct_weighted_rows(philox(11), 100, weights, 5), 100, 1000, 5)
    with pytest.raises(ValueError, match="fewer than k=30"):
        _distinct_weighted_rows(philox(11), 100, weights, 30)


def test_heavy_exponent_keeps_the_head():
    # At zipf 30 the head outweighs the rest by 2^30 per rank, so almost
    # every row is the k heaviest concepts.
    rows = _distinct_weighted_rows(philox(8), 2000, zipf_weights(1000, 30.0), 5)
    assert np.mean(np.all(rows == np.arange(5), axis=1)) > 0.99


def test_one_shard_draw_stays_small():
    # The race draws a 2048 x m float64 block of uniforms plus its keys and
    # argpartition per row chunk (~83 MB traced); the column draw keeps
    # O(rows * k) arrays.
    weights = zipf_weights(1000, 1.5)
    tracemalloc.start()
    try:
        rows = _distinct_weighted_rows(philox(10, STREAM_CONCEPTS, 0), _GEN_SHARD, weights, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (_GEN_SHARD, 5)
    assert peak < 16e6, f"one shard's concept draw peaked at {peak / 1e6:.1f} MB"


def test_synth_output_hashes(tmp_path, capsys):
    # manifest.jsonl comes from the lengths and sources streams only, so it
    # kept its bytes when the column draw replaced the exponential race;
    # assignments.jsonl is pinned to the column draw.
    out = tmp_path / "synth"
    assert cli.main(["synth", "--output", str(out), "--n", "2000", "--seed", "7"]) == 0
    capsys.readouterr()
    digest = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("manifest.jsonl", "assignments.jsonl")
    }
    assert digest["manifest.jsonl"] == (
        "e065bfe3c4a047d623a2d4f9cbdb1a3565e18cd9b74bccee1850be340dbf1690"
    )
    assert digest["assignments.jsonl"] == (
        "6614b58cc411f50bf7f7c46518e5c59214b374ab02898012b479d1093855d947"
    )
