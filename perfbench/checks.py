"""Output checks. Each check is one attempted operation; a failed one counts
into ``failed`` and ``failed_ops_ratio``.

The checks restate the program's guarantees from outside: the packer's
partition and caps are re-verified here even though ``load_plan`` also
validates, so a weaker loader does not weaken the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable


class CheckError(Exception):
    pass


class Checks:
    """Counts attempted checks and keeps the message of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, name: str, check: Callable[[], object]) -> object:
        self.attempted += 1
        try:
            return check()
        except Exception as e:  # any exception inside a check is a failed check
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None


def check_plan(
    ck: Checks,
    packing,
    path: Path,
    expected_ids: Callable[[], list[str]],
    capacity: int,
    max_samples: int | None,
    max_sources: int | None,
) -> None:
    """Three checks: the plan loads, it partitions the expected ids, it respects the caps."""
    plan = ck.run("plan.jsonl loads", lambda: packing.load_plan(path))

    def partition() -> None:
        if plan is None:
            raise CheckError("no plan")
        got = sorted([it.sample_id for p in plan.packs for it in p] + [it.sample_id for it in plan.overflow])
        want = sorted(expected_ids())
        if got != want:
            missing = len(set(want) - set(got))
            extra = len(set(got) - set(want))
            raise CheckError(
                f"plan holds {len(got)} ids, expected {len(want)} ({missing} missing, {extra} unexpected)"
            )

    ck.run("packs plus overflow hold exactly the manifest ids", partition)
    ck.run("packs respect capacity and caps", lambda: check_caps(plan, capacity, max_samples, max_sources))


def check_caps(plan, capacity: int, max_samples: int | None, max_sources: int | None) -> None:
    if plan is None:
        raise CheckError("no plan")
    if plan.capacity != capacity:
        raise CheckError(f"plan capacity {plan.capacity}, expected {capacity}")
    for i, pack in enumerate(plan.packs):
        total = sum(it.length for it in pack)
        if not pack or total > capacity:
            raise CheckError(f"pack {i} holds {len(pack)} items, {total} tokens (capacity {capacity})")
        if max_samples is not None and len(pack) > max_samples:
            raise CheckError(f"pack {i} holds {len(pack)} samples > {max_samples}")
        if max_sources is not None and len({it.source for it in pack}) > max_sources:
            raise CheckError(f"pack {i} mixes more than {max_sources} sources")
    for it in plan.overflow:
        if it.length <= capacity:
            raise CheckError(f"overflow item {it.sample_id!r} of length {it.length} fits the capacity")


def check_weights(path: Path, n: int) -> None:
    weights = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            rec = json.loads(line)
            if rec["i"] != i:
                raise CheckError(f"line {i + 1} has index {rec['i']}")
            weights.append(float(rec["w"]))
    if len(weights) != n:
        raise CheckError(f"{len(weights)} weights, expected {n}")
    if any(w < 0 for w in weights):
        raise CheckError("negative weight")
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise CheckError(f"weights sum to {total!r}")


def check_sampled(path: Path, count: int, n: int) -> None:
    with open(path, encoding="utf-8") as f:
        indices = [int(line) for line in f if not line.startswith("#")]
    if len(indices) != count:
        raise CheckError(f"{len(indices)} indices, expected {count}")
    if len(set(indices)) != count:
        raise CheckError("repeated index")
    if not all(0 <= i < n for i in indices):
        raise CheckError(f"index outside [0, {n})")


def check_report_keys(path: Path, schema: dict, pipeline: bool) -> None:
    """Pipeline reports need every key REPORT_SCHEMA requires; coverage
    reports carry the balance-report keys at top level."""
    report = json.loads(path.read_text(encoding="utf-8"))
    defs = schema["$defs"]
    if pipeline:
        parts = [(report, schema["required"])]
        parts += [(report.get(k, {}), defs["balance_report"]["required"]) for k in ("balanced", "unbalanced")]
        parts.append((report.get("packing", {}), defs["packing_stats"]["required"]))
    else:
        parts = [(report, defs["balance_report"]["required"])]
    for obj, required in parts:
        missing = [k for k in required if k not in obj]
        if missing:
            raise CheckError(f"missing keys {missing}")


def check_stats_agree(pack_out: Path, stats_out: Path) -> None:
    """`stats` recomputed from plan.jsonl matches what `pack` reported."""
    packed = json.loads((pack_out / "stats.json").read_text())["stats"]
    restated = json.loads((stats_out / "stats.json").read_text())["stats"]
    if packed != restated:
        raise CheckError(f"pack reported {packed}, stats recomputed {restated}")


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_same_bytes(first: dict[str, str], again: dict[str, str]) -> None:
    if first != again:
        differ = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
        raise CheckError(f"output files differ between runs of one seed: {differ}")
