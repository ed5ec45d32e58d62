#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of resilmip).

    python3 perfbench/selftest.py

Checks that the metric and workload names agree with BENCHMARK.json; on a
dozen fixture queries answered twice under the tracer, that
self times sum to no more than the traced wall time, that there are at least
as many simplex calls as solver nodes, and that node, LP and pivot counts
repeat exactly; that self time splits overlapping work of two threads instead
of counting it twice; that normalized latencies remove the host's speed
but not the program's; and that a deliberately wrong reference value makes the
referee report a failure while the true one passes. Exits 1 on any failure.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import report  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from referee import Referee  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def traced_invariants() -> None:
    out = HERE / "out" / "sidecars"
    out.mkdir(parents=True, exist_ok=True)
    work = workloads.fixtures(0, HERE.parent, out)
    work.queries = work.queries[:12]
    work.min_queries = 2 * len(work.queries)
    with tracing.Tracer() as tracer:
        records = run.run_passes(work, 0.0, tracer)
    metrics, checks = report.layer_metrics(tracer.spans, records, work.workers)
    expect(not checks, f"traced invariants and pass-to-pass counts hold {checks}")
    expect(metrics["trace.self_s"][0] <= metrics["trace.wall_s"][0],
           "self times sum to no more than the traced wall time")
    expect(metrics["simplex.calls"][0] >= metrics["solver.nodes"][0] > 0,
           "simplex.calls >= solver.nodes > 0")


def concurrent_self_time() -> None:
    def span(sid, parent, start, end):
        s = tracing.Span(sid, "solver", "x", parent, 0)
        s.start, s.end = start, end
        return s
    # a parent waiting on two overlapping worker spans for [1, 3]
    spans = [span(0, None, 0.0, 4.0), span(1, 0, 1.0, 3.0), span(2, 0, 1.0, 3.0)]
    own = tracing.self_times(spans)
    expect(abs(sum(own.values()) - 4.0) < 1e-12 and abs(own[0] - 2.0) < 1e-12,
           f"overlapping spans split wall time (self times {own})")


def wrong_reference_fails() -> None:
    out = HERE / "out" / "sidecars"
    work = workloads.fixtures(0, HERE.parent, out)
    key = "phi/two_class_linear/m1/alpha=e/k1"
    q = next(q for q in work.queries if q.key == key)
    answer = q.collect(q.call())
    reference = json.loads((HERE / "reference.json").read_text())
    expect(Referee(work.nets, reference).check(q, answer) == [],
           "the recorded reference passes the true answer")
    wrong = dict(reference, **{key: dict(reference[key], phi=1.5)})
    problems = Referee(work.nets, wrong).check(q, answer)
    expect(any("recorded" in p for p in problems),
           f"a wrong recorded value is reported as a failure {problems}")


def normalization_follows_the_program() -> None:
    class Q:
        key = "q"
    # the same query on a host twice as slow, then a query twice as slow
    fast = {"query": Q, "pass": 0, "seconds": 1.0, "calibration": report.CAL_REF_S}
    slow_host = dict(fast, seconds=2.0, calibration=2 * report.CAL_REF_S)
    slow_query = dict(fast, seconds=2.0)
    expect(abs(report.normalized(slow_host) - report.normalized(fast)) < 1e-12
           and abs(report.normalized(slow_query) - 2 * report.normalized(fast)) < 1e-12,
           "normalization removes the host's speed but not the program's")
    metrics, raw = report.end_to_end([fast, dict(slow_host, **{"pass": 1}),
                                      dict(slow_host, **{"pass": 2})], [0.5], 1.0)
    expect(abs(metrics["wall_norm_s"][0] - 1.0) < 1e-12 and abs(raw["wall_s"][0] - 2.0) < 1e-12,
           "a query's latency is the median over its repeats")
    expect(run.calibrate() > 0.0, "the calibration loop takes time")


def metric_names_match_benchmark_json() -> None:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(declared == report.UNITS, "per-layer names and units match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    expect(declared == report.END_TO_END_UNITS,
           "end-to-end names and units match BENCHMARK.json")
    expect([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS),
           "workload names match BENCHMARK.json")


def main() -> int:
    metric_names_match_benchmark_json()
    traced_invariants()
    concurrent_self_time()
    normalization_follows_the_program()
    wrong_reference_fails()
    print("selftest", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
