#!/usr/bin/env python3
"""Record the answers of the current program as `reference.json`.

    python3 perfbench/record_reference.py

Answers every benchmark query once at seed 0, with lookback tightening at
workers=1, and keeps the value each referee compares against: phi and
status, t_star, the verify verdict, xi per class, and the tightened lookback
bounds. Run it
only on a commit whose answers are trusted; the benchmark then requires
every later commit to reproduce them within the mip gap.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def keep(kind: str, ans: dict) -> dict:
    if kind == "phi":
        return {"phi": ans["phi"], "status": ans["status"]}
    if kind == "max_alpha":
        return {"t_star": ans["t_star"], "status": ans["status"]}
    if kind == "verify":
        return {"verdict": ans["verdict"]}
    if kind == "xi":
        return {"xi": ans["xi"], "status": ans["status"],
                "per_class": {m: keep("phi", p) for m, p in ans["per_class"].items()}}
    return ans


def main() -> int:
    out = HERE / "out" / "sidecars"
    out.mkdir(parents=True, exist_ok=True)
    root = HERE.parent
    sets = [workloads.fixtures(0, root, out),
            workloads.relu_bb(0, root, out, lookback_workers=1)]
    reference = {}
    for work in sets:
        for q in work.queries:
            ans = q.collect(q.call())
            reference[q.key] = keep(q.kind, ans)
            print(q.key, json.dumps(reference[q.key])[:100], flush=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
