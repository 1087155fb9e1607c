"""balancepack benchmark.

Run from the root of a balancepack checkout:

    python3 perfbench/run.py --workload pipeline-100k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each workload's commands run as child processes of the
real CLI (``python3 -m balancepack.cli``) and the end-to-end metrics of
BENCHMARK.json are reported. With ``--trace 1`` the same commands run
in-process through ``cli.main``, alternating untraced and traced runs, and
the per-layer metrics are reported. Either way the outputs are checked and
the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Within ``--seconds`` the workload repeats while another repetition still
fits; figures are medians over the repetitions.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so compute threads equal the CLI's --threads. Set
# before numpy loads, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Checks, CheckError, check_same_bytes, digest_tree  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PER_REPETITION = 4
COMMAND_TIMEOUT_S = 120  # a hung child is killed well inside the 180 s a run may take


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import balancepack
    import balancepack.cli

    return balancepack


def _child_env(run: Path) -> dict[str, str]:
    tmp = run / "tmp"
    tmp.mkdir(exist_ok=True)
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC), "TMPDIR": str(tmp)}


class Launcher:
    """Client of spawner.py, which starts each child from a small interpreter
    so the child's peak RSS is its own."""

    def __init__(self, stderr: Path) -> None:
        self._stderr = str(stderr)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], cwd: Path, env: dict[str, str]) -> dict:
        """(exit code, wall s, user+sys CPU s, peak RSS MB) of one child."""
        request = {
            "argv": argv, "cwd": str(cwd), "env": env, "stderr": self._stderr, "timeout": COMMAND_TIMEOUT_S
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited early")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def _check_exit(command: str, code: int) -> None:
    if code != 0:
        raise CheckError(f"`balancepack {command}` exited {code}")


class Run:
    """One benchmark invocation: a workload, a seed, its directory and its checks."""

    def __init__(self, workload, seed: int, seconds: float, work_root: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.dir = work_root / workload.name
        self.checks = Checks()
        self.quality: dict[str, float] = {}
        self._digest: dict[str, str] | None = None
        self.program = _import_program()
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        workload.generate(self.dir / "inputs", seed)
        self.commands = workload.commands(seed)

    def fresh_output(self) -> None:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        (self.dir / "out").mkdir()

    def verify(self, exit_codes: list[int]) -> None:
        """Count each command as one check; check outputs fully on the first
        repetition and byte-identity against it on every later one."""
        for argv, code in zip(self.commands, exit_codes):
            self.checks.run(f"{argv[0]} exits 0", lambda a=argv[0], c=code: _check_exit(a, c))
        digest = digest_tree(self.dir / "out")
        if self._digest is None:
            self._digest = digest
            self.workload.check(self.dir, self.checks, self.program.packing, self.program.cli)
            quality = self.checks.run("quality figures readable", lambda: self.workload.quality(self.dir))
            self.quality = quality or {}
        else:
            self.checks.run(
                "same bytes as the first run of this seed", lambda: check_same_bytes(self._digest, digest)
            )

    def keep_going(self, started: float, spent: list[float]) -> bool:
        """Whether one more repetition, as long as the median one so far, fits."""
        return time.perf_counter() - started + statistics.median(spent) <= self.seconds


def measure_end_to_end(run: Run) -> dict[str, float]:
    env = _child_env(run.dir)
    launcher = Launcher(run.dir / "stderr.txt")
    setup = []

    def time_setup(count: int) -> None:
        for _ in range(count):
            child = launcher.run([sys.executable, "-c", "import balancepack.cli"], run.dir, env)
            run.checks.run("import balancepack.cli", lambda c=child["code"]: _check_exit("import", c))
            setup.append(child["wall_s"])

    try:
        # The first import writes bytecode caches and is not counted. Later
        # imports are spread between the commands, so that their median sees
        # the same machine conditions as the commands.
        time_setup(1)
        setup.clear()
        imports_per_command = max(1, SETUP_PER_REPETITION // len(run.commands))
        walls, cpus, rss, spent = [], [], [], []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run.fresh_output()
            children = []
            for argv in run.commands:
                children.append(launcher.run([sys.executable, "-m", "balancepack.cli", *argv], run.dir, env))
                time_setup(imports_per_command)
            walls.append(sum(c["wall_s"] for c in children))
            cpus.append(sum(c["cpu_s"] for c in children))
            rss.append(max(c["peak_rss_mb"] for c in children))
            run.verify([c["code"] for c in children])
            spent.append(time.perf_counter() - t0)
            if not run.keep_going(started, spent):
                break
    finally:
        launcher.close()

    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "samples_per_s": run.workload.samples / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        **run.quality,
        "repetitions": walls,
    }


def run_in_process(run: Run) -> tuple[float, list[int]]:
    cli = run.program.cli
    codes = []
    cwd = os.getcwd()
    os.chdir(run.dir)
    try:
        t0 = time.perf_counter()
        for argv in run.commands:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    codes.append(cli.main(list(argv)))
                except Exception:  # a crash is a failed command, not a failed benchmark
                    traceback.print_exc()
                    codes.append(1)
        wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return wall, codes


def measure_layers(run: Run, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced in-process runs (order flips each pair)."""
    tracer = Tracer(run.program)
    per_run: list[dict[str, float]] = []
    overheads, spent = [], []
    started = time.perf_counter()
    # One uncounted run first, so that lazy imports and first-touch costs do
    # not land on whichever side of the first pair runs first.
    run.fresh_output()
    run.verify(run_in_process(run)[1])
    while True:
        t0 = time.perf_counter()
        pair = len(per_run)
        walls = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            run.fresh_output()
            if traced:
                tracer.run = pair
                tracer.reset_counters()
                with tracer:
                    walls[traced], codes = run_in_process(run)
                counters = {k: list(v) for k, v in tracer.counters.items()}
                spans = [s for s in tracer.spans if s.run == pair]
                per_run.append(layer_metrics(spans, counters, walls[traced]))
            else:
                walls[traced], codes = run_in_process(run)
            run.verify(codes)
        overheads.append(walls[True] - walls[False])
        spent.append(time.perf_counter() - t0)
        if not run.keep_going(started, spent):
            break

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    own = self_times(tracer.spans)
    with open(spans_path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps({**asdict(s), "self_s": own[s.span_id]}) + "\n")
    out = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    out["trace_overhead_s"] = statistics.median(overheads)
    out["repetitions"] = [r["cli.main_s"] for r in per_run]
    return out


def benchmark(workload, seed: int, seconds: float, trace: bool, spec: dict, work_root: Path) -> dict:
    """Run one workload and return the result object the last line prints."""
    run = Run(workload, seed, seconds, work_root)
    try:
        if trace:
            figures = measure_layers(run, work_root / "spans" / f"{workload.name}-seed{seed}.jsonl")
        else:
            figures = measure_end_to_end(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in figures]
    if missing and not run.checks.failures:
        raise KeyError(f"BENCHMARK.json lists metrics this benchmark does not compute: {missing}")
    # A figure is missing only when a failed check left its output unreadable.
    metrics = {m["name"]: {"value": figures.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    for failure in run.checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not run.checks.failures,
        "attempted": run.checks.attempted,
        "failed": len(run.checks.failures),
        "metrics": metrics,
        "repetitions": figures["repetitions"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="balancepack benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "balancepack" / "cli.py").is_file():
        print(f"perfbench: no balancepack sources under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    result = benchmark(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), spec, ROOT / ".perfbench_work"
    )
    repetitions = result.pop("repetitions")
    walls = " ".join(f"{w:.3f}" for w in repetitions)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(repetitions)} repetitions, wall s: {walls}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ops_ratio':48s} {result['failed'] / result['attempted']:>16.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
