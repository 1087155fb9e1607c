"""Inverse-frequency weighting, seeded balanced sampling, and coverage analytics.

Weighting follows the inverse-frequency recipe: a sample's raw weight is
the mean (or, for ablation, the sum) of 1/count over its assigned
concepts, normalized so the weights sum to 1. Sampling without
replacement uses exponential-race keys (key_i = -ln(u_i) / w_i, take the
n smallest), which reproduces sequential weighted selection with
renormalization while staying order-independent and seed-stable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .concepts import ConceptAssignment, assignment_indices
from .rng import STREAM_SAMPLING, philox

WEIGHT_SUM_TOL = 1e-9


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
    flat = assignment_indices(assignments)
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
    """
    if mode not in ("mean", "sum"):
        raise ValueError(f"unknown weight mode {mode!r}")
    if not assignments:
        raise ValueError("cannot weight an empty assignment list")
    counts = freqs.counts
    flat = assignment_indices(assignments)
    if np.any(counts[flat] < 1):
        bad = flat[counts[flat] < 1][0]
        raise ValueError(
            f"concept {int(bad)} has zero frequency; assignments and "
            f"frequency table are inconsistent"
        )
    inv = 1.0 / counts[flat]
    sizes = np.array([len(a.concepts) for a in assignments], dtype=np.int64)
    offsets = np.zeros(len(assignments), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    raw = np.add.reduceat(inv, offsets)
    if mode == "mean":
        raw = raw / sizes
    return raw / raw.sum()


def sample_balanced(
    weights: np.ndarray,
    n: int,
    seed: int,
    replacement: bool = False,
) -> np.ndarray:
    """Draw n sample indices under the given normalized weights.

    Without replacement the draw is sequential weighted selection with
    renormalization, realized through exponential-race keys; with
    replacement it is n independent categorical draws. Without replacement,
    n may not exceed the number of positive weights. Output is
    byte-identical for identical (weights, n, seed, replacement).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {WEIGHT_SUM_TOL}")
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

    u = rng.random(size)
    with np.errstate(divide="ignore"):
        keys = -np.log(u) / w
    order = np.argsort(keys, kind="stable")
    return order[:n].astype(np.int64)


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


def save_weights(path: str | Path, weights: np.ndarray) -> None:
    """JSON Lines: {"i": idx, "w": weight}."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i, w in enumerate(weights):
            f.write(json.dumps({"i": i, "w": float(w)}, separators=(",", ":")) + "\n")


def load_weights(path: str | Path) -> np.ndarray:
    rows: list[tuple[int, float]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rows.append((int(rec["i"]), float(rec["w"])))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty weights file")
    rows.sort()
    if [i for i, _ in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: weight indices must cover 0..{len(rows) - 1}")
    return np.array([w for _, w in rows], dtype=np.float64)


def save_sampled_indices(
    path: str | Path, indices: np.ndarray, seed: int, n: int, replacement: bool
) -> None:
    """One index per line, with a header comment recording the draw."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# seed={seed} n={n} replacement={str(replacement).lower()}\n")
        for i in indices:
            f.write(f"{int(i)}\n")


def load_sampled_indices(path: str | Path) -> np.ndarray:
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(int(line))
    return np.array(out, dtype=np.int64)


def save_sorted_counts_csv(path: str | Path, report: BalanceReport) -> None:
    """rank,count rows for long-tail plots (rank is 1-based)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["rank", "count"])
        for rank, count in enumerate(report.sorted_counts, start=1):
            writer.writerow([rank, int(count)])
