"""Print a fingerprint of every solve the benchmark's query sets make.

Runs one pass of each query set in `perfbench/workloads.py` (fixtures, then
relu_bb with lookback at one worker, both in the seed-0 order) and wraps the
solver's entry points: `solver.solve` and `resilience.solve` (the two
bindings of the branch-and-bound) and `solver.solve_bounded_lp` (every LP
those solves make, and lookback's window LPs, which no solve makes). For
each solve it prints one line: the model name, the status, the model's
rows and columns, the nodes, the repr of the objective and of the dual
bound, the LPs and pivots the solve made, and a hash of the assignment. The
last two lines give the totals, with the nodes, rows and columns summed over
the solves and the LPs counted by how they ended (optimal, infeasible, stopped
at the cutoff, numerical failure), and one hash over every solve's line and
every LP's status, objective, bound, pivots and refactorizations, so two
runs whose output is byte-identical solved models of the same sizes, made
the same pivots and got the same answers, bit for bit.
The workloads are only imported and called, never changed; the fixture
queries write their JSON sidecars to a temporary directory.

Example (compare a change with its parent):
    python3 scripts/solve_fingerprint.py > after.txt
"""

import collections
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# as the benchmark does: one BLAS thread, so every sum runs in one order
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from resilmip import resilience, simplex, solver  # noqa: E402


def _assignment_hash(assignment) -> str:
    if assignment is None:
        return "-"
    text = repr(sorted((int(k), float(v)) for k, v in assignment.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Fingerprint:
    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.solves = self.nodes = self.lps = self.pivots = self.rows = self.cols = 0
        self.ended = collections.Counter()  # LPs by status
        self._lps = self._pivots = 0  # of the solve in progress
        self.lines: list[str] = []  # printed after each query, whose stdout may be redirected

    def lp(self, fn):
        def wrapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            self._lps += 1
            self._pivots += res.iterations
            self.lps += 1
            self.pivots += res.iterations
            self.ended[res.status] += 1
            self.digest.update(f"{res.status.value} {res.objective!r} {res.bound!r} "
                               f"{res.iterations} {res.refactorizations}\n".encode())
            return res
        return wrapped

    def solve(self, fn):
        def wrapped(model, *args, **kwargs):
            self._lps = self._pivots = 0
            res = fn(model, *args, **kwargs)
            line = (f"{model.name} {res.status.value} rows={model.num_constraints} "
                    f"cols={model.num_variables} nodes={res.nodes_explored} "
                    f"obj={res.objective!r} bound={res.dual_bound!r} lps={self._lps} "
                    f"pivots={self._pivots} x={_assignment_hash(res.assignment)}")
            self.lines.append(line)
            self.digest.update(line.encode() + b"\n")
            self.solves += 1
            self.nodes += res.nodes_explored
            self.rows += model.num_constraints
            self.cols += model.num_variables
            return res
        return wrapped


def main() -> int:
    fp = Fingerprint()
    solver.solve_bounded_lp = fp.lp(solver.solve_bounded_lp)
    solver.solve = fp.solve(solver.solve)
    resilience.solve = fp.solve(resilience.solve)
    with tempfile.TemporaryDirectory() as out:
        sets = [("fixtures", workloads.fixtures(0, ROOT, Path(out))),
                ("relu_bb", workloads.relu_bb(0, ROOT, Path(out), lookback_workers=1))]
        for name, load in sets:
            for q in load.queries:
                print(f"# {name} {q.key}")
                q.call()
                print("\n".join(fp.lines))
                fp.lines.clear()
    ended = " ".join(f"{s.name.lower()}={fp.ended[s]}" for s in simplex.LpStatus)
    print(f"solves={fp.solves} nodes={fp.nodes} rows={fp.rows} cols={fp.cols} lps={fp.lps} "
          f"pivots={fp.pivots} {ended}")
    print(f"hash={fp.digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
