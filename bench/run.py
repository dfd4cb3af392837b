"""Benchmark of tfse through its CLI: one workload, one seed, one result.

    python3 bench/run.py --workload ml_table --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds src/tfse; nothing needs to be
installed.  The workload runs in its own fresh Python process (worker.py),
which calls tfse.cli.main([...]) in-process with one job in flight at a
time and writes into a temporary outdir under bench/tmp.  TFSE_THREADS is
unset for it and BLAS may use at most as many threads as this process may
use cores.

--trace 0 prints, as the last line, one JSON object with the end-to-end
metrics (rows_per_s, job_ms.p50, job_ms.p90, peak_rss_mb, setup_s);
--trace 1 prints the per-layer metrics of a traced run instead.  setup_s is
the median over SETUP_SAMPLES fresh processes of the wall time from process
start to the first timed job: interpreter start, `import tfse` and input
generation.  Per-job details go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ml_table", "free_packet", "well_history")
SETUP_SAMPLES = 5       # the workload's own process and four probes
TIMEOUT_S = 170         # whole run, set-up samples included


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TFSE_THREADS", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def _start(args: list[str]):
    """Start worker.py; return (process, seconds until it printed ready)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_worker_env())
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, ready


def _finish(proc, deadline: float) -> str:
    """Rest of the worker's output; kills it if it runs past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tfse" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/tfse to benchmark", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = perf_counter() + TIMEOUT_S
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready = _start(common + ["--probe"])
                _finish(proc, deadline)
                setup.append(ready)
        proc, ready = _start(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)])
        setup.append(ready)
        out = _finish(proc, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
        print(f"setup_s samples {[round(s, 4) for s in setup]}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
