"""Sweep the dominance ratio and report how the resilience bound grows.

For a fixed network and protected class, phi(alpha) is non-decreasing in
alpha: demanding a larger lead makes the strong region smaller, so escaping
it takes at least as much perturbation. This script traces that curve and
prints one row per ratio, plus the largest achievable ratio for context.

Example:
    python3 scripts/alpha_sweep.py --net pool_duel --class 1 \
        --alphas 1.0 1.1 1.5 2.718281828 5.0
"""

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from resilmip.dataflow import propagate_intervals
from resilmip.network import load_network
from resilmip.resilience import compute_max_alpha, compute_phi
from resilmip.solver import SolveConfig
from resilmip.zoo import FIXTURES

DEFAULT_ALPHAS = (1.0, 1.1, 1.25, 1.5, 2.0, math.e, 4.0, 5.0)


def _load(name: str):
    if name in FIXTURES:
        return FIXTURES[name]()
    return load_network(name)


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--net", required=True,
                    help="fixture name or path to a network JSON file")
    ap.add_argument("--class", dest="cls", type=int, required=True,
                    help="protected class (1-based)")
    ap.add_argument("--k", type=int, default=1,
                    help="competitors required to overtake (default 1)")
    ap.add_argument("--alphas", type=float, nargs="+", default=list(DEFAULT_ALPHAS),
                    help="dominance ratios to sweep (each >= 1)")
    ap.add_argument("--csv", type=Path, default=None,
                    help="also write the table to this CSV file")
    args = ap.parse_args()

    net = _load(args.net)
    bounds = propagate_intervals(net)
    config = SolveConfig()

    cap = compute_max_alpha(net, args.cls, bounds=bounds, config=config)
    print(f"net {args.net}: d={net.input_dim}, classes={net.num_classes}, "
          f"class {args.cls}, k={args.k}")
    print(f"largest achievable ratio alpha_max = {cap.alpha_max:.6g} "
          f"(attainable: {'unknown' if cap.attainable is None else cap.attainable})")
    print()
    header = f"{'alpha':>10}  {'phi':>12}  {'status':>10}  {'nodes':>7}  {'time_s':>8}"
    print(header)
    print("-" * len(header))

    rows = []
    for alpha in args.alphas:
        t0 = time.perf_counter()
        res = compute_phi(net, args.cls, alpha=alpha, k=args.k, bounds=bounds,
                          config=config)
        dt = time.perf_counter() - t0
        nodes = res.solve.nodes_explored if res.solve is not None else 0
        phi_txt = "inf" if math.isinf(res.phi) else f"{res.phi:.6g}"
        print(f"{alpha:>10.6g}  {phi_txt:>12}  {res.status.value:>10}  "
              f"{nodes:>7d}  {dt:>8.3f}")
        rows.append({"alpha": alpha, "phi": res.phi, "status": res.status.value,
                     "nodes": nodes, "time_s": round(dt, 4)})

    if args.csv is not None:
        with args.csv.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
