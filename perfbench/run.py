#!/usr/bin/env python3
"""resilmip benchmark: time to a proven answer, end to end and per layer.

    python3 perfbench/run.py --workload fixtures --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/` directory. A run sets up, answers the workload's
query set in whole passes for about `--seconds` (see `run_passes`), then
checks every answer against the referees in `referee.py`. `--trace 0` reports the end-to-end metrics;
`--trace 1` wraps the program's layers (see `tracing.py`) and reports the
per-layer ones. The last line of standard output is one JSON object; the
lines before it are a table with units and sample counts and the host
record. Full results, and in traced runs every span, go to `perfbench/out/`.
See README.md for the workloads and the metric glossary.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads: the benchmark never uses more
# threads than the workload's own workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
CAL_LOOPS = 20_000
SETUP_CODE = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5]), Path(sys.argv[6]))
"""


def measure_setup(name: str, seed: int, sidecars: Path) -> list[float]:
    """Fresh-interpreter set-up times: start Python, import resilmip, build
    the workload's networks and queries."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), name,
                        str(seed), str(ROOT), str(sidecars)], check=True)
        times.append(time.perf_counter() - t0)
    return times


def calibrate() -> float:
    """Time a fixed pure-Python loop, median of three runs of about 2 ms.

    It touches neither resilmip nor numpy, so no change of the program moves
    it; it moves only with the speed the host gives this process, which on a
    shared host drifts by tens of percent within seconds. Queries are timed
    against it (see `report.end_to_end`)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x, d = 0, {}
        for i in range(CAL_LOOPS):
            x += (i * i) % 7
            d[i & 255] = x
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_passes(work, seconds: float, tracer=None) -> list[dict]:
    """Answer the query set in whole passes: at least one, at least the
    workload's minimum query count, and more while another pass of average
    length still ends within `seconds`. Each answer is collected right after
    its query, outside the timed call. The host's speed is calibrated before
    every query and after the last; each record keeps the mean of the
    calibrations on either side of its query."""
    records: list[dict] = []
    n_pass = 0
    cal = calibrate()
    t_start = time.perf_counter()
    while (not n_pass or len(records) < work.min_queries
           or (time.perf_counter() - t_start) * (n_pass + 1) / n_pass <= seconds):
        for q in work.queries:
            rec = {"pass": n_pass, "query": q, "qid": len(records), "error": None,
                   "answer": None}
            call = q.call
            if tracer is not None:
                tracer.query = rec["qid"]
                call = tracer.wrap("query", q.kind, q.call)
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as e:  # a raising query is a counted failure
                rec["error"] = f"{type(e).__name__}: {e}"
            rec["seconds"] = time.perf_counter() - t0
            after = calibrate()
            rec["calibration"] = (cal + after) / 2
            cal = after
            if rec["error"] is None:
                try:
                    rec["answer"] = q.collect(result)
                except (OSError, ValueError, KeyError) as e:  # no or bad sidecar
                    rec["error"] = f"{type(e).__name__}: {e}"
            records.append(rec)
        n_pass += 1
    return records


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": seed, "commit": commit, "loadavg": os.getloadavg()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("fixtures", "relu_bb"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "resilmip").is_dir():
        print(f"error: no resilmip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sidecars = OUT / "sidecars"
    sidecars.mkdir(parents=True, exist_ok=True)

    import report
    import workloads

    setup = [] if args.trace else measure_setup(args.workload, args.seed, sidecars)
    work = workloads.WORKLOADS[args.workload](args.seed, ROOT, sidecars)

    if args.trace:
        from tracing import Tracer
        with Tracer() as tracer:
            records = run_passes(work, args.seconds, tracer)
    else:
        tracer = None
        records = run_passes(work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from referee import Referee  # loads scipy, which the timed passes never use
    reference = json.loads((HERE / "reference.json").read_text())
    referee = Referee(work.nets, reference)
    for rec in records:
        rec["problems"] = ([rec["error"]] if rec["error"] is not None
                           else referee.check(rec["query"], rec["answer"]))
    failed = sum(1 for rec in records if rec["problems"])
    if args.trace:
        metrics, checks = report.layer_metrics(tracer.spans, records, work.workers)
        raw = {}
    else:
        (metrics, raw), checks = report.end_to_end(records, setup, peak_rss_mb), []
    env = environment(args.seed)
    correct = failed == 0 and not checks
    report.write(OUT, args, env, metrics, raw, records, checks, correct,
                 tracer.spans if tracer else None)
    report.table(args, env, metrics, raw, records, failed, checks)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
