"""Measure how independent sub-solves scale with the worker-process count.

Times the queries whose sub-solves run in worker processes: lookback
tightening (depth 2) of R8 and R12, whose window MIPs are independent within
a layer, and xi of R6 at ratio 1.1, whose per-class phi queries are
independent. R6, R8 and R12 are the first three draws of
`np.random.default_rng(0)` through `zoo.random_relu_net(rng, input_dim=3,
hidden=h, classes=3)` for h in (6,), (8, 8), (12, 12). Worker counts take
turns within each repeat, so a drift in host speed reaches every count
alike. Prints each query's median wall time per worker count and its speedup
over the first count, and exits 1 if any count returns a different answer
(answers must not depend on the worker count, only the time). A count above
the CPU count runs with one process per CPU, since `worker_pool` caps it.
The pool's children are forked by the first call that needs them and serve
every later call, so the first repeat of a count above 1 also pays the fork.

Example:
    python3 scripts/worker_scaling.py --workers 1 2 4 --repeats 5
"""

import argparse
import statistics
import sys
import time

import numpy as np

from resilmip.dataflow import propagate_intervals, tighten_lookback
from resilmip.resilience import compute_xi
from resilmip.solver import SolveConfig
from resilmip.zoo import random_relu_net

XI_ALPHA = 1.1


def _nets() -> dict:
    rng = np.random.default_rng(0)
    return {name: random_relu_net(rng, input_dim=3, hidden=h, classes=3)
            for name, h in (("R6", (6,)), ("R8", (8, 8)), ("R12", (12, 12)))}


def _lookback(net, workers: int):
    bounds = tighten_lookback(net, propagate_intervals(net), depth=2, workers=workers)
    return [(lb.im_lo.tolist(), lb.im_hi.tolist())
            for lb in bounds.layers if lb.im_lo is not None]


def _xi(net, workers: int):
    r = compute_xi(net, XI_ALPHA, config=SolveConfig(workers=workers))
    per_class = {m: (p.phi, p.status.value,
                     None if p.anchor is None else p.anchor.tolist(),
                     None if p.eps is None else p.eps.tolist())
                 for m, p in r.per_class.items()}
    return r.xi, r.status.value, r.weakest_class, r.excluded, per_class


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repetitions per worker count (median reported)")
    args = ap.parse_args()

    nets = _nets()
    queries = {
        "lookback R8": lambda w: _lookback(nets["R8"], w),
        "lookback R12": lambda w: _lookback(nets["R12"], w),
        f"xi R6 alpha={XI_ALPHA}": lambda w: _xi(nets["R6"], w),
    }
    header = f"{'query':<18}{'workers':>8}  {'median_s':>9}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    differs = []
    for name, run in queries.items():
        times = {w: [] for w in args.workers}
        first = None
        for _ in range(args.repeats):
            for w in args.workers:
                t0 = time.perf_counter()
                answer = run(w)
                times[w].append(time.perf_counter() - t0)
                first = answer if first is None else first
                if answer != first:
                    differs.append(f"{name}: {w} workers answer differently "
                                   f"from {args.workers[0]}")
        base = statistics.median(times[args.workers[0]])
        for w in args.workers:
            med = statistics.median(times[w])
            print(f"{name:<18}{w:>8d}  {med:>9.3f}  {base / med:>8.2f}")
    for line in differs:
        print(f"DIFFERS {line}")
    if not differs:
        print("\nall worker counts give identical answers")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
