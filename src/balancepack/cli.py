"""Command-line entry point: generate/ingest -> assign -> weigh -> sample -> pack -> report.

Every subcommand writes its data files, then a ``config.json`` echo, into the
output directory. A run first removes the echo an earlier run left there, and
only a run that wrote all its files writes a new one, so its presence marks a
complete run, in a reused directory too. The echo holds every parsed flag except
--output and --threads, which do not determine output content, so rerunning
a subcommand from its echo reproduces every file byte for byte. All
randomness hangs off --seed; --threads changes wall time only, never bytes.

stdout carries human-readable progress; errors go to stderr as a single
JSON object and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import balance, concepts, jsonl, manifest, packing, parallel

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["seed", "n_samples", "sample_n", "replacement", "unbalanced", "balanced", "packing"],
    "properties": {
        "seed": {"type": "integer"},
        "n_samples": {"type": "integer", "minimum": 1},
        "sample_n": {"type": "integer", "minimum": 1},
        "replacement": {"type": "boolean"},
        "unbalanced": {"$ref": "#/$defs/balance_report"},
        "balanced": {"$ref": "#/$defs/balance_report"},
        "packing": {"$ref": "#/$defs/packing_stats"},
        "packing_config": {"type": "object"},
    },
    "$defs": {
        "balance_report": {
            "type": "object",
            "required": ["entropy_bits", "gini", "coverage", "sorted_counts"],
            "properties": {
                "entropy_bits": {"type": "number", "minimum": 0},
                "gini": {"type": "number", "minimum": 0, "maximum": 1},
                "coverage": {"type": "number", "minimum": 0, "maximum": 1},
                "sorted_counts": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            },
        },
        "packing_stats": {
            "type": "object",
            "required": [
                "num_samples",
                "num_packs",
                "overflow_count",
                "empty",
                "compression_ratio",
                "compression_ratio_packed",
                "utilization",
                "success_rate",
            ],
            "properties": {
                "num_samples": {"type": "integer", "minimum": 0},
                "num_packs": {"type": "integer", "minimum": 0},
                "overflow_count": {"type": "integer", "minimum": 0},
                "empty": {"type": "boolean"},
                "compression_ratio": {"type": ["number", "null"]},
                "compression_ratio_packed": {"type": ["number", "null"]},
                "utilization": {"type": ["number", "null"]},
                "success_rate": {"type": ["number", "null"]},
            },
        },
    },
}


class StageError(ValueError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, error: Exception | str):
        super().__init__(str(error))
        self.stage = stage


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Tag a ValueError, OSError or MemoryError raised in the block with the stage ``name``."""
    try:
        yield
    except (ValueError, OSError, MemoryError) as e:
        raise StageError(name, e) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        print(json.dumps({"error": message, "command": self.prog}), file=sys.stderr)
        raise SystemExit(2)


def _fail(command: str, error: Exception) -> None:
    obj = {"error": str(error), "command": command}
    if isinstance(error, StageError):
        obj["stage"] = error.stage
    print(json.dumps(obj), file=sys.stderr)


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_echo(outdir: Path, args: argparse.Namespace) -> None:
    """Write config.json: every parsed flag except --output and --threads, by flag name."""
    params = {
        key.replace("_", "-"): value
        for key, value in vars(args).items()
        if key not in ("command", "func", "output", "threads")
    }
    with jsonl.output(outdir / "config.json") as f:
        json.dump({"command": args.command, "params": params}, f, indent=2, sort_keys=True)
        f.write("\n")


def echo_to_argv(echo: dict, output: str) -> list[str]:
    """Rebuild the argv that reproduces a run from its config echo.

    A flag that takes a value is written ``--flag=value``, so a value that
    starts with "-" is not read as a flag; a true bool flag is bare.
    """
    argv = [echo["command"], f"--output={output}"]
    for key, value in echo["params"].items():
        if value is None or value is False:
            continue
        argv.append(f"--{key}" if value is True else f"--{key}={value}")
    return argv


def _parse_sources(text: str) -> tuple[tuple[str, float], ...]:
    pairs = []
    for part in text.split(","):
        tag, sep, val = part.partition("=")
        if not sep or not tag:
            raise ValueError(f"bad source spec {part!r}, expected 'tag=prob'")
        pairs.append((tag.strip(), float(val)))
    return tuple(pairs)


def _json_dump(path: Path, obj: dict) -> None:
    with jsonl.output(path) as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _synth_config(args: argparse.Namespace) -> manifest.SynthConfig:
    return manifest.SynthConfig(
        n_samples=args.n,
        vocab_size=args.vocab_size,
        k=args.k,
        zipf_exponent=args.zipf,
        length_mu=args.length_mu,
        length_sigma=args.length_sigma,
        length_min=args.length_min,
        length_max=args.length_max,
        sources=_parse_sources(args.sources),
        seed=args.seed,
    )


def _packing_config(args: argparse.Namespace) -> packing.PackingConfig:
    return packing.PackingConfig(
        capacity=args.capacity,
        strategy=args.strategy,
        num_buckets=args.buckets,
        max_samples_per_pack=args.max_samples_per_pack,
        min_utilization=args.min_utilization,
        max_sources_per_pack=args.max_sources_per_pack,
        shards=args.shards,
        seed=args.seed,
    )


def _synth(
    out: Path, cfg: manifest.SynthConfig
) -> tuple[manifest.SynthRecords, concepts.Assignments]:
    """Generate the corpus; write manifest.jsonl and assignments.jsonl."""
    records, assignments = manifest.synth_corpus(cfg)
    manifest.emit_manifest(out / "manifest.jsonl", records)
    concepts.save_assignments(out / "assignments.jsonl", assignments)
    return records, assignments


def _weigh(out: Path, assignments: concepts.Assignments, vocab_size: int, mode: str) -> np.ndarray:
    """Inverse-frequency weights of ``assignments``; write weights.jsonl."""
    freqs = balance.concept_frequencies(assignments, vocab_size)
    weights = balance.image_weights(assignments, freqs, mode=mode)
    balance.save_weights(out / "weights.jsonl", weights)
    return weights


def _sample(path: Path, weights: np.ndarray, n: int, seed: int, replacement: bool) -> np.ndarray:
    """Draw ``n`` indices by ``weights``; write them to ``path``."""
    indices = balance.sample_balanced(weights, n, seed, replacement=replacement)
    balance.save_sampled_indices(path, indices, seed, replacement)
    return indices


def _pack(
    out: Path, items: packing.Items, config: packing.PackingConfig, threads: int
) -> packing.PackingStats:
    """Pack ``items`` on up to ``threads`` processes; write plan.jsonl and stats.json."""
    plan = packing.pack(items, config, threads=threads)
    stats = packing.emit_plan(plan, out / "plan.jsonl", config)
    _json_dump(out / "stats.json", {"stats": stats.to_dict(), "config": config.to_dict()})
    return stats


def cmd_synth(args: argparse.Namespace, out: Path) -> None:
    records, _ = _synth(out, _synth_config(args))
    print(f"[synth] {len(records)} records -> {out / 'manifest.jsonl'}")


def cmd_assign(args: argparse.Namespace, out: Path) -> None:
    # The file is checked on opening, so its faults come before the vocabulary's.
    with concepts.EmbeddingFile(args.input) as images:
        vocab = concepts.load_vocabulary(args.vocab_names, args.vocab_emb)
        assignments = concepts.topk_concepts(images, vocab, args.k, threads=args.threads)
    concepts.save_assignments(out / "assignments.jsonl", assignments)
    print(f"[assign] {len(assignments)} assignments -> {out / 'assignments.jsonl'}")


def cmd_weigh(args: argparse.Namespace, out: Path) -> None:
    assignments = concepts.load_assignments(args.input)
    weights = _weigh(out, assignments, args.vocab_size, args.mode)
    print(f"[weigh] {weights.size} weights -> {out / 'weights.jsonl'}")


def cmd_sample(args: argparse.Namespace, out: Path) -> None:
    weights = balance.load_weights(args.input)
    indices = _sample(out / "sampled.txt", weights, args.n, args.seed, args.replacement)
    print(f"[sample] {indices.size} indices -> {out / 'sampled.txt'}")


def cmd_pack(args: argparse.Namespace, out: Path) -> None:
    items = manifest.load_pack_items(args.input)
    stats = _pack(out, items, _packing_config(args), args.threads)
    print(
        f"[pack] {stats.num_samples} samples -> {stats.num_packs} packs "
        f"({stats.overflow_count} overflow) -> {out / 'plan.jsonl'}"
    )


def cmd_stats(args: argparse.Namespace, out: Path) -> None:
    plan = packing.load_plan(args.input)
    config = packing.PackingConfig(capacity=plan.capacity, min_utilization=args.min_utilization)
    stats = packing.packing_stats(plan, config)
    # A plan file does not record the rest of the config it was packed with.
    known = {"capacity": plan.capacity, "min_utilization": args.min_utilization}
    _json_dump(out / "stats.json", {"stats": stats.to_dict(), "config": known})
    print(f"[stats] {stats.num_packs} packs -> {out / 'stats.json'}")


def cmd_coverage(args: argparse.Namespace, out: Path) -> None:
    assignments = concepts.load_assignments(args.input)
    if args.subset:
        # Positional, with multiplicity, as pipeline reports its balanced subset.
        assignments = assignments.take(balance.load_sampled_indices(args.subset))
    report = balance.balance_report(assignments, args.vocab_size)
    _json_dump(
        out / "report.json",
        {"vocab_size": args.vocab_size, "num_samples": len(assignments), **report.to_dict()},
    )
    balance.save_sorted_counts_csv(out / "coverage.csv", report)
    print(f"[coverage] coverage={report.coverage:.4f} -> {out / 'report.json'}")


def cmd_pipeline(args: argparse.Namespace, out: Path) -> None:
    with _stage("config"):
        cfg = _synth_config(args)
        if args.sample_n is None:
            args.sample_n = max(1, args.n // 10)  # the echo records the resolved size
        sample_n = args.sample_n
        if sample_n < 1:
            raise ValueError("sample-n must be >= 1")
        if not args.replacement and sample_n > args.n:
            raise ValueError(f"sample-n={sample_n} exceeds corpus size {args.n} without replacement")
        pack_config = _packing_config(args)

    with _stage("synth"):
        records, assignments = _synth(out, cfg)
        print(f"[pipeline/synth] {len(records)} records")

    with _stage("weigh"):
        weights = _weigh(out, assignments, cfg.vocab_size, "mean")
        print(f"[pipeline/weigh] {weights.size} weights")

    with _stage("sample"):
        draw = (sample_n, args.seed, args.replacement)
        balanced_idx = _sample(out / "sampled.txt", weights, *draw)
        uniform = np.broadcast_to(1.0 / len(records), (len(records),))
        uniform_idx = _sample(out / "sampled_uniform.txt", uniform, *draw)
        print(f"[pipeline/sample] {sample_n} balanced + {sample_n} uniform indices")

    with _stage("pack"):
        items = records.take(np.unique(balanced_idx))  # each drawn sample once
        stats = _pack(out, items, pack_config, args.threads)
        print(f"[pipeline/pack] {stats.num_packs} packs")

    with _stage("report"):
        balanced_report = balance.balance_report(assignments.take(balanced_idx), cfg.vocab_size)
        uniform_report = balance.balance_report(assignments.take(uniform_idx), cfg.vocab_size)
        report = {
            "seed": args.seed,
            "n_samples": args.n,
            "sample_n": sample_n,
            "replacement": args.replacement,
            "unbalanced": uniform_report.to_dict(),
            "balanced": balanced_report.to_dict(),
            "packing": stats.to_dict(),
            "packing_config": pack_config.to_dict(),
        }
        _json_dump(out / "report.json", report)
        print(
            f"[pipeline/report] entropy balanced={balanced_report.entropy_bits:.3f} "
            f"unbalanced={uniform_report.entropy_bits:.3f} -> {out / 'report.json'}"
        )


def _add_common(p: argparse.ArgumentParser, *, seed: bool = True, threads: bool = False) -> None:
    p.add_argument("--output", required=True, help="output directory")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="64-bit seed for all randomness")
    if threads:
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="assign's scoring threads and pack's shard processes, >= 1 (never affects bytes)",
        )


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of samples to generate")
    p.add_argument("--vocab-size", type=int, default=1000)
    p.add_argument("--k", type=int, default=5, help="concepts per sample")
    p.add_argument("--zipf", type=float, default=1.5, help="Zipf exponent for concept marginals")
    p.add_argument("--length-mu", type=float, default=manifest.DEFAULT_LENGTH_MU)
    p.add_argument("--length-sigma", type=float, default=manifest.DEFAULT_LENGTH_SIGMA)
    p.add_argument("--length-min", type=int, default=manifest.DEFAULT_LENGTH_MIN)
    p.add_argument("--length-max", type=int, default=manifest.DEFAULT_LENGTH_MAX)
    p.add_argument("--sources", default="web=0.5,docs=0.3,images=0.2", help="tag=prob[,tag=prob...]")


def _add_pack_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capacity", type=int, default=packing.DEFAULT_CAPACITY)
    p.add_argument("--strategy", choices=["ffd", "bucket"], default="bucket")
    p.add_argument("--buckets", type=int, default=6, help="length buckets for the bucket strategy")
    p.add_argument("--min-utilization", type=float, default=0.9)
    p.add_argument("--max-samples-per-pack", type=int, default=None)
    p.add_argument("--max-sources-per-pack", type=int, default=None)
    p.add_argument("--shards", type=int, default=1, help="hash shards, each packed independently")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="balancepack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    _add_synth_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("assign", help="top-k concept assignment from embeddings")
    _add_common(p, seed=False, threads=True)
    p.add_argument("--input", required=True, help="image embeddings (EMB1)")
    p.add_argument("--vocab-names", required=True, help="concept TSV: index<TAB>name")
    p.add_argument("--vocab-emb", required=True, help="concept embeddings (EMB1)")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("weigh", help="inverse-frequency image weights")
    _add_common(p, seed=False)
    p.add_argument("--input", required=True, help="assignments JSONL")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--mode", choices=["mean", "sum"], default="mean")
    p.set_defaults(func=cmd_weigh)

    p = sub.add_parser("sample", help="weighted sampling of a balanced subset")
    _add_common(p)
    p.add_argument("--input", required=True, help="weights JSONL")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replacement", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pack", help="pack a manifest into fixed-capacity sequences")
    _add_common(p, threads=True)
    p.add_argument("--input", required=True, help="packing manifest JSONL")
    _add_pack_flags(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("stats", help="recompute stats from a plan file")
    _add_common(p, seed=False)
    p.add_argument("--input", required=True, help="plan JSONL")
    p.add_argument("--min-utilization", type=float, default=0.9)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("coverage", help="balance report over assignments")
    _add_common(p, seed=False)
    p.add_argument("--input", required=True, help="assignments JSONL")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--subset", default=None, help="sampled indices file to restrict to")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("pipeline", help="synth -> weigh -> sample -> pack -> report")
    _add_common(p, threads=True)
    _add_synth_flags(p)
    _add_pack_flags(p)
    p.add_argument("--sample-n", type=int, default=None, help="subset size (default n // 10)")
    p.add_argument("--replacement", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if "threads" in args:
            parallel.check_threads(args.threads)
        out = _outdir(args.output)
        # An echo left by an earlier run would mark this one complete if it failed.
        (out / "config.json").unlink(missing_ok=True)
        args.func(args, out)
        _write_echo(out, args)
    except (ValueError, OSError, MemoryError) as e:
        _fail(args.command, e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
