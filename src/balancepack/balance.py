"""Inverse-frequency weighting, seeded balanced sampling, and coverage analytics.

Weighting follows the inverse-frequency recipe: a sample's raw weight is
the mean (or, for ablation, the sum) of 1/count over its assigned
concepts, normalized so the weights sum to 1. Sampling without
replacement uses exponential-race keys (key_i = -ln(u_i) / w_i, take the
n smallest), which reproduces sequential weighted selection with
renormalization while staying order-independent and seed-stable.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .concepts import Assignments, ConceptAssignment
from .jsonl import (
    FLOAT,
    INT,
    canonical,
    float_reprs,
    output,
    text_input,
    write_rows,
    writer_lines,
)
from .rng import STREAM_SAMPLING, philox

WEIGHT_SUM_TOL = 1e-9

# The line form of save_weights.
_WEIGHT_LINES = canonical(r'\{"i":%s,"w":%s\}\n' % (INT, FLOAT))


@dataclass(frozen=True)
class ConceptFrequencyTable:
    """counts[c] = number of assignments whose concept set contains c."""

    counts: np.ndarray
    total_samples: int


@dataclass
class BalanceReport:
    """Distribution statistics over one set of concept assignments."""

    entropy_bits: float
    gini: float
    coverage: float
    sorted_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "entropy_bits": self.entropy_bits,
            "gini": self.gini,
            "coverage": self.coverage,
            "sorted_counts": [int(c) for c in self.sorted_counts],
        }


def concept_frequencies(
    assignments: Sequence[ConceptAssignment], vocab_size: int
) -> ConceptFrequencyTable:
    """Count, per concept, how many assignments contain it."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    flat = Assignments.of(assignments).concepts
    if flat.size and (flat.min() < 0 or flat.max() >= vocab_size):
        bad = flat[(flat < 0) | (flat >= vocab_size)][0]
        raise ValueError(f"concept index {int(bad)} out of range [0, {vocab_size})")
    counts = np.bincount(flat, minlength=vocab_size).astype(np.int64)
    return ConceptFrequencyTable(counts=counts, total_samples=len(assignments))


def image_weights(
    assignments: Sequence[ConceptAssignment],
    freqs: ConceptFrequencyTable,
    mode: str = "mean",
) -> np.ndarray:
    """Normalized inverse-frequency weights, one per assignment.

    mode="mean" averages 1/count over a sample's concepts so samples with
    different k are comparable; mode="sum" adds them (ablation variant).
    Rows are summed one range of ``Assignments.blocks`` at a time, so no
    temporary holds a float per assigned concept.
    """
    if mode not in ("mean", "sum"):
        raise ValueError(f"unknown weight mode {mode!r}")
    if not assignments:
        raise ValueError("cannot weight an empty assignment list")
    a = Assignments.of(assignments)
    counts, flat, o = freqs.counts, a.concepts, a.offsets
    zero = (counts < 1)[flat]
    if np.any(zero):
        raise ValueError(
            f"concept {int(flat[np.argmax(zero)])} has zero frequency; assignments and "
            f"frequency table are inconsistent"
        )
    with np.errstate(divide="ignore"):  # a zero count is of no assigned concept
        inv = 1.0 / counts
    raw = np.empty(len(a))
    for lo, hi in a.blocks():
        raw[lo:hi] = np.add.reduceat(inv[flat[o[lo] : o[hi]]], o[lo:hi] - o[lo])
    if mode == "mean":
        raw /= np.diff(o)
    raw /= raw.sum()
    return raw


def sample_balanced(
    weights: np.ndarray,
    n: int,
    seed: int,
    replacement: bool = False,
) -> np.ndarray:
    """Draw n sample indices under the given normalized weights.

    Without replacement the draw is sequential weighted selection with
    renormalization, realized through exponential-race keys; with
    replacement it is n independent categorical draws, under the weights
    rules of ``_check_weights``. Without replacement, n may not exceed the
    number of positive weights. Output is byte-identical for identical
    (weights, n, seed, replacement).
    """
    w = _check_weights(weights)
    if n < 0:
        raise ValueError("n must be >= 0")
    size = w.size
    if not replacement:
        if n > size:
            raise ValueError(f"cannot draw n={n} without replacement from {size} samples")
        positive = int(np.count_nonzero(w))
        if n > positive:
            # Zero-weight samples would get +inf keys and be taken in index order.
            raise ValueError(
                f"cannot draw n={n} without replacement: only {positive} of {size} "
                f"samples have positive weight"
            )

    rng = philox(seed, STREAM_SAMPLING)
    if replacement:
        cum = np.cumsum(w)
        u = rng.random(n)
        idx = np.searchsorted(cum, u, side="right")
        return np.minimum(idx, size - 1).astype(np.int64)

    order = np.argsort(_race_keys(rng.random(size), w), kind="stable")
    return order[:n].astype(np.int64)


def _race_keys(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exponential-race keys -ln(u) / w for uniforms u in [0, 1).

    A draw of exactly 0 counts as the smallest positive double, so its key
    is large but finite; only a zero weight gives +inf.
    """
    u = np.maximum(u, np.nextafter(0.0, 1.0))
    with np.errstate(divide="ignore"):
        return -np.log(u) / w


def balance_report(
    assignments: Sequence[ConceptAssignment], vocab_size: int
) -> BalanceReport:
    """Entropy/Gini/coverage over the subset's concept occurrences.

    Entropy is base-2 over occurrence counts with 0*log0 = 0; coverage is
    the fraction of the vocabulary with a nonzero count.
    """
    if not assignments:
        raise ValueError("cannot report on an empty subset")
    counts = concept_frequencies(assignments, vocab_size).counts
    total = counts.sum()
    p = counts[counts > 0] / total
    entropy = float(-(p * np.log2(p)).sum())

    asc = np.sort(counts).astype(np.float64)
    m = vocab_size
    ranks = np.arange(1, m + 1, dtype=np.float64)
    gini = float(2.0 * (ranks * asc).sum() / (m * asc.sum()) - (m + 1) / m)

    coverage = float((counts > 0).sum() / m)
    sorted_counts = np.sort(counts)[::-1].copy()
    return BalanceReport(
        entropy_bits=entropy, gini=gini, coverage=coverage, sorted_counts=sorted_counts
    )


def _unfit(w):
    """Where weights are not finite and non-negative: a bool for one weight,
    a bool column for a column of them (NaN is the value unequal to itself)."""
    return (w < 0) | (w == math.inf) | (w != w)


def _check_weights(weights: np.ndarray) -> np.ndarray:
    """``weights`` as float64, if a non-empty 1-D vector of finite, non-negative
    values (else the first bad index is named) that sum to 1 within WEIGHT_SUM_TOL."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    bad = np.flatnonzero(_unfit(w))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"weight {i} is {w[i].item()!r}, not finite and non-negative")
    with np.errstate(over="ignore"):  # a sum past the float range reads as inf
        total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1 within {WEIGHT_SUM_TOL}")
    return w


def save_weights(path: str | Path, weights: np.ndarray) -> None:
    """JSON Lines: {"i": idx, "w": weight}; refuses what ``_check_weights`` rejects."""
    values = _check_weights(weights)

    def columns(lo: int, hi: int) -> tuple:
        return range(lo, hi), float_reprs(values[lo:hi])

    with output(path) as f:
        write_rows(f, '{"i":%d,"w":%s}\n', values.size, columns)


def load_weights(path: str | Path) -> np.ndarray:
    """Read what save_weights writes, through ``writer_lines``: each weight
    finite and non-negative (the first bad line is named), and the whole
    vector passes ``_check_weights``."""
    weights = array("d")
    with writer_lines(path, _WEIGHT_LINES, partial(_weights_block, weights=weights), "save_weights"):
        return _check_weights(weights)


def _weights_block(text: str, row: int, weights: array) -> None:
    """Append the weights of a block of save_weights lines whose first is
    record ``row`` to ``weights``, or refuse the first line whose index is
    out of order or whose weight is unfit, with nothing appended."""
    # Drop the first '{"i":' and the last '}\n'; then index and weight alternate.
    flat = text[5:-2].replace('}\n{"i":', ",").replace(',"w":', ",").split(",")
    index, n = flat[0::2], len(flat) // 2
    w = np.fromiter(map(float, flat[1::2]), np.float64, n)
    if index != list(map(str, range(row, row + n))) or np.any(_unfit(w)):
        for i, (at, x) in enumerate(zip(index, w.tolist()), start=row):
            if at != str(i):
                raise ValueError(f"line {i + 1}: record index {at}, expected {i}")
            if _unfit(x):
                raise ValueError(f"line {i + 1}: weight {i} is {x!r}, not finite and non-negative")
    weights.frombytes(w.tobytes())


_SAMPLED_HEADER = re.compile(
    r"# seed=(?:0|-?[1-9][0-9]*) n=(0|[1-9][0-9]*) replacement=(?:true|false)\n"
)


def save_sampled_indices(path: str | Path, indices: np.ndarray, seed: int, replacement: bool) -> None:
    """One index per line, after a header comment recording the draw (n is the number
    of indices); refuses a header or indices that load_sampled_indices would not read."""
    indices = np.asarray(indices)
    header = f"# seed={seed} n={indices.size} replacement={str(replacement).lower()}\n"
    if not _SAMPLED_HEADER.fullmatch(header):
        raise ValueError(f"seed must be an int and replacement a bool, not header {header!r}")
    if indices.ndim != 1 or not np.can_cast(indices.dtype, np.int64):
        raise ValueError(f"indices must be one int64 column, not {indices.dtype} {indices.shape}")
    with output(path) as f:
        f.write(header)
        write_rows(f, "%d\n", indices.size, lambda lo, hi: (indices[lo:hi],))


def load_sampled_indices(path: str | Path) -> np.ndarray:
    """Read what save_sampled_indices writes: its header, then exactly n indices.

    Each index line must read as ``str(int)`` writes it, within int64. The
    range is left to the caller, which knows the corpus size.
    """
    out = array("q")
    with text_input(path) as (f, numbered):
        header = _SAMPLED_HEADER.fullmatch(f.readline())
        if header is None:
            raise ValueError("line 1: expected the header '# seed=S n=N replacement=B'")
        for line in numbered(f, 1):
            try:
                value = int(line)
                if line != f"{value}\n":
                    raise ValueError
                out.append(value)
            except (ValueError, OverflowError):
                raise ValueError(f"{line!r} is not an index line") from None
        if len(out) != (n := int(header[1])):
            raise ValueError(f"{len(out)} index lines, the header says n={n}")
    return np.frombuffer(out, np.int64)


def save_sorted_counts_csv(path: str | Path, report: BalanceReport) -> None:
    """rank,count rows for long-tail plots (rank is 1-based)."""
    counts = np.asarray(report.sorted_counts)
    with output(path) as f:
        f.write("rank,count\n")
        write_rows(f, "%d,%d\n", counts.size, lambda lo, hi: (range(lo + 1, hi + 1), counts[lo:hi]))
