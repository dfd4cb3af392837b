"""One workload in one fresh process: set up, time, check, report.

Started by run.py; prints `ready` once tfse is imported and the first
round of inputs exists, then (unless --probe) runs the workload and prints
one JSON line with its counts and metrics.

Untraced (--trace 0): whole rounds of jobs, one `tfse.cli.main([...])` in
flight at a time, until --seconds of wall time have passed.
Traced (--trace 1): a fixed number of rounds (workloads.TRACE_ROUNDS), each
job run once untraced and once traced, so that call counts repeat exactly
and the tracing overhead is the traced wall time less the untraced one.
Outputs are checked after the timed part, so that neither the checks nor
their memory enter the timings or the peak resident set.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_tfse():
    if not (SRC / "tfse" / "__init__.py").is_file():
        sys.exit(f"error: no tfse sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import tfse.cli
    if Path(tfse.__file__).resolve().parent != SRC / "tfse":
        sys.exit(f"error: imported tfse from {tfse.__file__}, not {SRC}")
    return tfse.cli


def _run(cli, job, outdir: Path):
    """Exit code of one CLI invocation, or None when it raised."""
    try:
        return cli.main(job.argv + ["--outdir", str(outdir)])
    except Exception:  # a job that raises is a failed operation, not a crash
        traceback.print_exc()
        return None


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up (for timing it)")
    args = ap.parse_args()

    cli = _import_tfse()
    import checks
    import selftest
    import workloads
    make_round = workloads.WORKLOADS[args.workload]
    first = make_round(args.seed, 0)
    print("ready", flush=True)
    if args.probe:
        return 0

    tmp = BENCH / "tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(tmp, ignore_errors=True)
    runs = []   # (job, outdir, exit code, seconds)
    try:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            untraced = traced = 0.0
            bytes_written = 0
            for r in range(workloads.TRACE_ROUNDS[args.workload]):
                for i, job in enumerate(first if r == 0
                                        else make_round(args.seed, r)):
                    plain, wrapped = tmp / f"{r}-{i}-u", tmp / f"{r}-{i}-t"
                    start = perf_counter()
                    rc = _run(cli, job, plain)
                    seconds = perf_counter() - start
                    untraced += seconds
                    runs.append((job, plain, rc, seconds))
                    tracer.install()
                    start = perf_counter()
                    try:
                        rc = _run(cli, job, wrapped)
                    finally:
                        seconds = perf_counter() - start
                        tracer.uninstall()
                    traced += seconds
                    runs.append((job, wrapped, rc, seconds))
                    bytes_written += sum(p.stat().st_size
                                         for p in wrapped.glob("*"))
            layer = tracer.metrics()
            layer["cli.bytes_written"] = bytes_written
            layer["trace.overhead_ms"] = (traced - untraced) * 1e3
            layer["trace.untraced_ms"] = untraced * 1e3
            layer["trace.traced_ms"] = traced * 1e3
        else:
            start = perf_counter()
            r = 0
            while r == 0 or perf_counter() - start < args.seconds:
                for i, job in enumerate(first if r == 0
                                        else make_round(args.seed, r)):
                    outdir = tmp / f"{r}-{i}"
                    t0 = perf_counter()
                    rc = _run(cli, job, outdir)
                    runs.append((job, outdir, rc, perf_counter() - t0))
                r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed, missed, unexpected, log = 0, 0, [], []
        for job, outdir, rc, seconds in runs:
            problems, misses = (checks.check(job, outdir) if rc == 0
                                else ([f"exit code {rc}"], []))
            if problems:
                failed += 1
                if not job.long_time:
                    unexpected.append((job.argv, problems))
            missed += bool(misses)
            log.append({"kind": job.kind, "argv": job.argv, "rows": job.rows,
                        "ms": seconds * 1e3, "problems": problems,
                        "misses": misses})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    selftest_problems = selftest.run()
    for argv, problems in unexpected:
        print(f"unexpected failure: tfse {' '.join(argv)}", file=sys.stderr)
        for p in problems[:5]:
            print(f"  {p}", file=sys.stderr)
    for p in selftest_problems:
        print(f"selftest: {p}", file=sys.stderr)

    print(f"tolerance misses: {missed} of {len(runs)} jobs passed with a "
          f"value beyond {checks.MISS_FACTOR:g} * tol")
    if args.trace:
        print("trace " + json.dumps(layer, sort_keys=True))
        # The result line carries the per-layer metrics BENCHMARK.json names:
        # call counts, and times of functions that run on every workload.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": layer.get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        times = [s for _, _, _, s in runs]
        wall = sum(times)
        metrics = {
            "rows_per_s": {"value": sum(j.rows for j, *_ in runs) / wall,
                           "unit": "1/s"},
            "job_ms.p50": {"value": _percentile(times, 0.5) * 1e3,
                           "unit": "ms"},
            "job_ms.p90": {"value": _percentile(times, 0.9) * 1e3,
                           "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"jobs {len(runs)} timed_s {wall:.3f}", flush=True)
    result = {"correct": not unexpected and not selftest_problems,
              "attempted": len(runs), "failed": failed, "metrics": metrics}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, "jobs": log}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
