"""Self-check of the benchmark: small-size smoke runs and negative checks.

Run from the root of a balancepack checkout (about a minute):

    python3 perfbench/selfcheck.py

Smoke: every workload at a small size, untraced and traced, must report
``correct`` with exactly the metrics BENCHMARK.json lists. Negative: a plan
with one item dropped, and a plan with a pack over capacity, must each be
counted as a failure by the output checker. Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run  # sets the BLAS thread variables before numpy loads
from checks import CheckError, Checks, check_caps
from workloads import CAPACITY, SMOKE_SIZES, WORKLOADS, PackCapped

SEED = 7
SMOKE_SECONDS = 2.0
WORK_ROOT = run.ROOT / ".perfbench_work" / "selfcheck"


def smoke(spec: dict, problems: list[str]) -> None:
    for name, sizes in SMOKE_SIZES.items():
        for trace in (False, True):
            result = run.benchmark(WORKLOADS[name](**sizes), SEED, SMOKE_SECONDS, trace, spec, WORK_ROOT)
            listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            label = f"smoke {name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed")
            if list(result["metrics"]) != listed:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{label}: non-finite {bad}")
            print(f"{label}: {result['attempted']} checks, {result['failed']} failed")


def _rewrite_first_pack(plan_path, edit) -> None:
    """Apply edit to pack 0's item list, then restore offsets and padding so
    the file stays well-formed and only the edit is wrong."""
    lines = plan_path.read_text().splitlines()
    rec = json.loads(lines[0])
    edit(rec["items"])
    off = 0
    for item in rec["items"]:
        item["off"] = off
        off += item["len"]
    rec["pad"] = rec["capacity"] - off
    lines[0] = json.dumps(rec, separators=(",", ":"))
    plan_path.write_text("\n".join(lines) + "\n")


def negative(problems: list[str]) -> None:
    workload = PackCapped(**SMOKE_SIZES[PackCapped.name])
    base = run.Run(workload, SEED, SMOKE_SECONDS, WORK_ROOT)
    try:
        base.fresh_output()
        _, codes = run.run_in_process(base)
        plan_path = base.dir / "out" / "pack" / "plan.jsonl"
        cases = {
            "dropped item": lambda items: items.pop(),
            "pack over capacity": lambda items: items[0].update(len=items[0]["len"] + CAPACITY),
        }
        pristine = plan_path.read_text()
        for label, edit in cases.items():
            plan_path.write_text(pristine)
            _rewrite_first_pack(plan_path, edit)
            ck = Checks()
            workload.check(base.dir, ck, base.program.packing, base.program.cli)
            print(f"negative {label}: {len(ck.failures)} of {ck.attempted} checks failed")
            if not ck.failures:
                problems.append(f"negative {label}: the checker counted no failure")

        # The checker's own cap check, without the loader's validation.
        packing = base.program.packing
        plan_path.write_text(pristine)
        plan = packing.load_plan(plan_path)
        plan.packs[0].append(packing.PackItem("extra", plan.capacity, "web"))
        try:
            check_caps(plan, plan.capacity, workload.MAX_SAMPLES, workload.MAX_SOURCES)
            problems.append("negative over capacity: check_caps accepted an over-full pack")
        except CheckError:
            print("negative over capacity: check_caps rejects it without load_plan")
        if any(codes):
            problems.append("negative: the base run failed")
    finally:
        shutil.rmtree(base.dir, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not (run.SRC / "balancepack" / "cli.py").is_file():
        print(f"selfcheck: no balancepack sources under {run.SRC}", file=sys.stderr)
        return 2
    problems: list[str] = []
    smoke(spec, problems)
    negative(problems)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
