"""The benchmark's workloads: seeded input generators, CLI commands, checks, quality.

Inputs come from numpy's PCG64 seeded with (workload seed, workload tag),
not from ``manifest.synth_corpus``, so a change to the program's synth
does not change what ``staged-50k`` and ``pack-capped-100k`` receive. The
files are written by this module in the formats the program documents
(EMB1 binary embeddings, ``index<TAB>name`` vocabulary, JSON Lines
manifest).

Every command runs in the run directory with relative paths, so the
``config.json`` echoes, and with them every output file, are a pure
function of the seed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from checks import Checks, check_plan, check_report_keys, check_sampled, check_stats_agree, check_weights

CAPACITY = 8192  # the program's default --capacity, which every workload uses
_TAG_STAGED = 1
_TAG_PACK_CAPPED = 2

# Image sides (px) drawn for image records; at patch 14 and merge 2 these
# give 64 to 1024 visual tokens.
_IMAGE_SIDES = np.array([224, 336, 448, 672, 896])


def _write_emb1(path: Path, m: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<4sII", b"EMB1", m.shape[0], m.shape[1]))
        f.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def _write_manifest(path: Path, prefix: str, sources, src_idx, text, width, height) -> list[str]:
    """JSON Lines manifest; records with width 0 carry no image."""
    ids = [f"{prefix}-{i:08d}" for i in range(len(text))]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i, sample_id in enumerate(ids):
            line = f'{{"id":"{sample_id}","source":"{sources[src_idx[i]]}","text_tokens":{text[i]}'
            if width[i]:
                line += f',"image":{{"w":{width[i]},"h":{height[i]}}}'
            f.write(line + "}\n")
    return ids


def _lognormal_tokens(rng: np.random.Generator, n: int, median: float, sigma: float, lo: int, hi: int):
    return np.clip(np.rint(np.exp(rng.normal(np.log(median), sigma, n))), lo, hi).astype(np.int64)


def _zipf(m: int, exponent: float) -> np.ndarray:
    w = np.arange(1, m + 1, dtype=np.float64) ** -exponent
    return w / w.sum()


class Pipeline:
    """``balancepack pipeline`` with default settings: synth, weigh, sample, pack, report."""

    name = "pipeline-100k"

    def __init__(self, n: int = 100_000) -> None:
        self.samples = n

    def generate(self, inputs: Path, seed: int) -> None:
        """The pipeline synthesises its own corpus from --n and --seed."""

    def commands(self, seed: int) -> list[list[str]]:
        return [
            ["pipeline", "--n", str(self.samples), "--seed", str(seed), "--threads", "1", "--output", "out/pipeline"]
        ]

    def check(self, run: Path, ck: Checks, packing, cli) -> None:
        out = run / "out" / "pipeline"
        sample_n = max(1, self.samples // 10)
        ck.run("weights sum to 1", lambda: check_weights(out / "weights.jsonl", self.samples))
        for name in ("sampled.txt", "sampled_uniform.txt"):
            ck.run(f"{name} distinct and in range", lambda p=out / name: check_sampled(p, sample_n, self.samples))

        def expected_ids() -> list[str]:
            with open(out / "manifest.jsonl", encoding="utf-8") as f:
                ids = [json.loads(line)["id"] for line in f]
            with open(out / "sampled.txt", encoding="utf-8") as f:
                return [ids[int(line)] for line in f if not line.startswith("#")]

        check_plan(ck, packing, out / "plan.jsonl", expected_ids, CAPACITY, None, None)
        ck.run("report.json keys", lambda: check_report_keys(out / "report.json", cli.REPORT_SCHEMA, pipeline=True))

    def quality(self, run: Path) -> dict[str, float]:
        report = json.loads((run / "out" / "pipeline" / "report.json").read_text())
        return {
            "pack_utilization": report["packing"]["utilization"],
            "num_packs": report["packing"]["num_packs"],
            "entropy_gain_bits": report["balanced"]["entropy_bits"] - report["unbalanced"]["entropy_bits"],
            "coverage_balanced": report["balanced"]["coverage"],
        }


class Staged:
    """assign, weigh, sample, coverage x2, pack and stats over generated embeddings."""

    name = "staged-50k"

    def __init__(self, n: int = 50_000, vocab: int = 1000, dim: int = 256, sample_n: int = 5000) -> None:
        self.samples = n
        self.vocab = vocab
        self.dim = dim
        self.sample_n = sample_n
        self.manifest_ids: list[str] = []

    def generate(self, inputs: Path, seed: int) -> None:
        """Each image is a noisy sum of three concept vectors drawn by Zipf(1.1).

        Top-5 assignment then finds a long-tailed concept distribution, so
        inverse-frequency balancing has work to do.
        """
        rng = np.random.default_rng([seed, _TAG_STAGED])
        concepts = rng.standard_normal((self.vocab, self.dim))
        concepts /= np.linalg.norm(concepts, axis=1, keepdims=True)
        _write_emb1(inputs / "vocab.emb", concepts.astype(np.float32))
        with open(inputs / "vocab.tsv", "w", encoding="utf-8", newline="\n") as f:
            f.writelines(f"{i}\tconcept_{i:04d}\n" for i in range(self.vocab))

        popularity = rng.permutation(self.vocab)
        drawn = popularity[rng.choice(self.vocab, size=(self.samples, 3), p=_zipf(self.vocab, 1.1))]
        images = np.empty((self.samples, self.dim), dtype=np.float32)
        for start in range(0, self.samples, 8192):
            rows = drawn[start : start + 8192]
            mix = concepts[rows[:, 0]] + 0.8 * concepts[rows[:, 1]] + 0.6 * concepts[rows[:, 2]]
            mix += 0.05 * rng.standard_normal(mix.shape)
            images[start : start + 8192] = mix
        _write_emb1(inputs / "images.emb", images)

        n = self.samples
        self.manifest_ids = _write_manifest(
            inputs / "manifest.jsonl",
            "img",
            ["web", "docs", "photos"],
            rng.choice(3, size=n, p=[0.5, 0.3, 0.2]),
            _lognormal_tokens(rng, n, 400.0, 0.5, 1, 4096),
            _IMAGE_SIDES[rng.integers(0, _IMAGE_SIDES.size, n)],
            _IMAGE_SIDES[rng.integers(0, _IMAGE_SIDES.size, n)],
        )

    def commands(self, seed: int) -> list[list[str]]:
        vocab = ["--vocab-size", str(self.vocab)]
        assignments = "out/assign/assignments.jsonl"
        return [
            ["assign", "--input", "inputs/images.emb", "--vocab-names", "inputs/vocab.tsv",
             "--vocab-emb", "inputs/vocab.emb", "--k", "5", "--threads", "2", "--output", "out/assign"],
            ["weigh", "--input", assignments, *vocab, "--output", "out/weigh"],
            ["sample", "--input", "out/weigh/weights.jsonl", "--n", str(self.sample_n), "--seed", str(seed),
             "--output", "out/sample"],
            ["coverage", "--input", assignments, *vocab, "--output", "out/coverage_full"],
            ["coverage", "--input", assignments, *vocab, "--subset", "out/sample/sampled.txt",
             "--output", "out/coverage_subset"],
            ["pack", "--input", "inputs/manifest.jsonl", "--shards", "8", "--threads", "2", "--seed", str(seed),
             "--output", "out/pack"],
            ["stats", "--input", "out/pack/plan.jsonl", "--output", "out/stats"],
        ]

    def check(self, run: Path, ck: Checks, packing, cli) -> None:
        out = run / "out"
        ck.run("weights sum to 1", lambda: check_weights(out / "weigh" / "weights.jsonl", self.samples))
        ck.run(
            "sampled.txt distinct and in range",
            lambda: check_sampled(out / "sample" / "sampled.txt", self.sample_n, self.samples),
        )
        check_plan(ck, packing, out / "pack" / "plan.jsonl", lambda: self.manifest_ids, CAPACITY, None, None)
        ck.run("stats agrees with pack", lambda: check_stats_agree(out / "pack", out / "stats"))
        for name in ("coverage_full", "coverage_subset"):
            ck.run(
                f"{name} report keys",
                lambda p=out / name / "report.json": check_report_keys(p, cli.REPORT_SCHEMA, pipeline=False),
            )

    def quality(self, run: Path) -> dict[str, float]:
        full = json.loads((run / "out" / "coverage_full" / "report.json").read_text())
        subset = json.loads((run / "out" / "coverage_subset" / "report.json").read_text())
        stats = json.loads((run / "out" / "pack" / "stats.json").read_text())["stats"]
        return {
            "pack_utilization": stats["utilization"],
            "num_packs": stats["num_packs"],
            "entropy_gain_bits": subset["entropy_bits"] - full["entropy_bits"],
            "coverage_balanced": subset["coverage"],
        }


class PackCapped:
    """Source- and sample-capped 8-shard packing of a generated manifest, then stats."""

    name = "pack-capped-100k"
    MAX_SOURCES = 2
    MAX_SAMPLES = 16

    def __init__(self, n: int = 100_000) -> None:
        self.samples = n
        self.manifest_ids: list[str] = []

    def generate(self, inputs: Path, seed: int) -> None:
        """Five sources, about 30% image records, about 0.1% longer than the capacity."""
        rng = np.random.default_rng([seed, _TAG_PACK_CAPPED])
        n = self.samples
        text = _lognormal_tokens(rng, n, 600.0, 0.45, 16, 8000)
        overlong = rng.random(n) < 0.001
        text[overlong] = rng.integers(CAPACITY + 100, 12000, int(overlong.sum()))
        has_image = rng.random(n) < 0.3
        width = np.where(has_image, _IMAGE_SIDES[rng.integers(0, _IMAGE_SIDES.size, n)], 0)
        height = _IMAGE_SIDES[rng.integers(0, _IMAGE_SIDES.size, n)]
        self.manifest_ids = _write_manifest(
            inputs / "manifest.jsonl",
            "doc",
            ["web", "docs", "images", "code", "books"],
            rng.choice(5, size=n, p=[0.35, 0.25, 0.2, 0.12, 0.08]),
            text,
            width,
            height,
        )

    def commands(self, seed: int) -> list[list[str]]:
        return [
            ["pack", "--input", "inputs/manifest.jsonl", "--shards", "8", "--threads", "2",
             "--max-sources-per-pack", str(self.MAX_SOURCES), "--max-samples-per-pack", str(self.MAX_SAMPLES),
             "--seed", str(seed), "--output", "out/pack"],
            ["stats", "--input", "out/pack/plan.jsonl", "--output", "out/stats"],
        ]

    def check(self, run: Path, ck: Checks, packing, cli) -> None:
        out = run / "out"
        check_plan(
            ck, packing, out / "pack" / "plan.jsonl", lambda: self.manifest_ids, CAPACITY,
            self.MAX_SAMPLES, self.MAX_SOURCES,
        )
        ck.run("stats agrees with pack", lambda: check_stats_agree(out / "pack", out / "stats"))

    def quality(self, run: Path) -> dict[str, float]:
        stats = json.loads((run / "out" / "pack" / "stats.json").read_text())["stats"]
        # No balancing runs here; the balance metrics are reported as the
        # constant 1.0 so every workload carries every end-to-end metric.
        return {
            "pack_utilization": stats["utilization"],
            "num_packs": stats["num_packs"],
            "entropy_gain_bits": 1.0,
            "coverage_balanced": 1.0,
        }


# Full-size workloads, and the small sizes the self-check runs.
WORKLOADS = {w.name: w for w in (Pipeline, Staged, PackCapped)}
SMOKE_SIZES = {
    Pipeline.name: dict(n=3000),
    Staged.name: dict(n=2000, vocab=100, dim=32, sample_n=200),
    PackCapped.name: dict(n=3000),
}
