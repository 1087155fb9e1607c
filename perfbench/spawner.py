"""Launcher for the child processes of the end-to-end runs.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the address space
it was forked from, so children started straight from the benchmark, which
holds numpy and the generated inputs, would report the benchmark's own
footprint. This launcher is a fresh interpreter that imports nothing
large; the children it starts report their own peak.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stderr", "timeout"}``; one JSON reply per stdout line, ``{"code",
"wall_s", "cpu_s", "peak_rss_mb"}``. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    """Run one child to completion; CPU and peak RSS come from its own rusage."""
    with open(req["stderr"], "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
