"""Per-layer metrics of a traced run, the run's self-checks, and output."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import tracing

END_TO_END_UNITS = {"wall_norm_s": "s", "query_norm_s.p50": "s",
                    "query_norm_s.p90": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# the calibration loop's time at the reference host speed: a normalized time
# is what the query would take on a host where `run.calibrate` takes this long
CAL_REF_S = 0.002
UNITS = {
    "simplex.calls": "count", "simplex.s": "s", "simplex.pivots": "count",
    "simplex.pivots_per_lp": "count", "simplex.ms_per_lp": "ms",
    "simplex.numerical": "count", "simplex.infeasible": "count",
    "solver.calls": "count", "solver.nodes": "count", "solver.solve_s": "s",
    "solver.self_s": "s", "encoder.encode_s": "s", "encoder.rows": "count",
    "encoder.binaries": "count", "mipmodel.dense_arrays_s": "s", "cli.self_s": "s",
    "resilience.anchor_s": "s", "resilience.fixed_anchor_s": "s",
    "resilience.full_s": "s", "dataflow.propagate_s": "s", "dataflow.lookback_s": "s",
    "dataflow.undecided": "count", "network.forward_s": "s", "trace.spans": "count",
    "trace.overhead_s": "s", "trace.self_s": "s", "trace.wall_s": "s",
}
# counts that must repeat exactly from pass to pass at workers=1
DETERMINISTIC = ("solver.nodes", "simplex.calls", "simplex.pivots")


def pass_walls(records) -> dict[int, float]:
    """Time to answer each pass's query set: the sum of its query latencies."""
    walls: dict[int, float] = {}
    for rec in records:
        walls[rec["pass"]] = walls.get(rec["pass"], 0.0) + rec["seconds"]
    return walls


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), the median for q = 50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_query(records, field) -> dict[str, float]:
    """Each distinct query's median of `field(record)` over its repeats."""
    values: dict[str, list[float]] = {}
    for rec in records:
        values.setdefault(rec["query"].key, []).append(field(rec))
    return {key: statistics.median(v) for key, v in values.items()}


def normalized(rec) -> float:
    """The query's latency scaled to the reference host speed."""
    return rec["seconds"] * CAL_REF_S / rec["calibration"]


def end_to_end(records, setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """name -> (value, unit, samples) of every end-to-end metric, and of the
    raw wall-clock figures the normalized ones come from.

    A query's latency is the median over its repeats in the run. The bounded
    latency metrics are normalized: each repeat is scaled by CAL_REF_S over
    the calibration timed around it, which removes the host's drift in speed
    but no change of the program (see README.md, "Noise and bounds")."""
    passes = len(pass_walls(records))
    norm = list(per_query(records, normalized).values())
    raw = list(per_query(records, lambda rec: rec["seconds"]).values())
    repeats = f"{len(norm)} queries, median of {passes}"
    values = {
        "wall_norm_s": (sum(norm), repeats),
        "query_norm_s.p50": (quantile(norm, 50), repeats),
        "query_norm_s.p90": (quantile(norm, 90), repeats),
        "setup_s": (statistics.median(setup), f"{len(setup)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "1 process"),
    }
    cals = [rec["calibration"] for rec in records]
    unbounded = {
        "wall_s": (sum(raw), "s", repeats),
        "query_s.p50": (quantile(raw, 50), "s", repeats),
        "query_s.p90": (quantile(raw, 90), "s", repeats),
        "calibration_ms": (1e3 * statistics.median(cals), "ms", f"{len(cals)} queries"),
    }
    return {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in values.items()}, unbounded


def layer_metrics(spans, records, workers: int):
    """Median over passes of each pass's per-layer metrics, and the list of
    failed self-checks (empty when all hold)."""
    pass_of = {rec["qid"]: rec["pass"] for rec in records}
    walls = pass_walls(records)
    per_pass = {p: [] for p in walls}
    for s in spans:
        per_pass[pass_of[s.query]].append(s)
    rows = []
    checks = []
    for p, pass_spans in sorted(per_pass.items()):
        row = tracing.layer_metrics(pass_spans)
        row["trace.wall_s"] = walls[p]
        rows.append(row)
        if row["trace.self_s"] > walls[p] + 1e-6:
            checks.append(f"pass {p}: self times sum to {row['trace.self_s']:.6f} s "
                          f"> wall {walls[p]:.6f} s")
        if row["simplex.calls"] < row["solver.nodes"]:
            checks.append(f"pass {p}: simplex.calls {row['simplex.calls']} < "
                          f"solver.nodes {row['solver.nodes']}")
    if workers == 1:
        for name in DETERMINISTIC:
            if len({row[name] for row in rows}) > 1:
                checks.append(f"{name} differs between passes at workers=1: "
                              f"{[row[name] for row in rows]}")
    n = f"{len(rows)} passes"
    metrics = {name: (statistics.median(row[name] for row in rows), UNITS[name], n)
               for name in UNITS}
    return metrics, checks


def write(out: Path, args, env, metrics, raw, records, checks, correct, spans) -> None:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload, "env": env, "correct": correct, "checks": checks,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "unbounded": {k: {"value": v, "unit": u, "samples": n}
                      for k, (v, u, n) in raw.items()},
        "queries": [{"qid": r["qid"], "pass": r["pass"], "key": r["query"].key,
                     "seconds": r["seconds"], "calibration": r["calibration"],
                     "problems": r["problems"],
                     "answer": r.get("answer")} for r in records],
    }
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=1, default=str) + "\n")
    if spans is not None:
        with open(out / f"{stem}.spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps({"id": s.id, "layer": s.layer, "name": s.name,
                                    "parent": s.parent, "query": s.query,
                                    "start": s.start, "end": s.end,
                                    "counts": s.counts}) + "\n")


def table(args, env, metrics, raw, records, failed, checks) -> None:
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{'metric':<26}{'value':>14}  {'unit':<6} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<26}{value:>14.6g}  {unit:<6} {n}")
    for name, (value, unit, n) in raw.items():
        print(f"{name:<26}{value:>14.6g}  {unit:<6} {n} (raw wall clock, no bound)")
    print(f"{'failed_frac':<26}{failed / len(records):>14.6g}  {'1':<6} "
          f"{failed}/{len(records)} queries")
    for rec in records:
        for problem in rec["problems"]:
            print(f"FAILED {rec['query'].key} (pass {rec['pass']}): {problem}")
    for check in checks:
        print(f"CHECK FAILED {check}")
