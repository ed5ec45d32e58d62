"""Branch-and-bound MIP solver over the bounded-variable simplex core.

Search: best-bound node selection from a shared pool with depth-first
plunging — after branching, a worker keeps the child on the rounded side of
the branching value and pushes the sibling. Branching picks the fractional
binary with the highest branch priority, breaking ties by most-fractional
value and then lowest variable id. Workers share one incumbent cell guarded
by a lock; an incumbent is replaced only by a strictly better one, so the
reported objective improves monotonically no matter how many workers run.

Node LPs: the root LP is solved cold by the primal simplex. Every child
carries its parent's optimal basis and is re-solved from it by the dual
simplex, since it differs from its parent in one binary bound; the child a
worker keeps also takes the parent's basis inverse, while a node pushed to
the pool keeps only the O(n + m) basis. The simplex falls back to a cold
primal solve when a warm start fails, and verifies every optimum once on a
fresh factorization (see ``simplex``).

The reported dual bound is the minimum over all open and in-flight node
bounds, the bounds of nodes pruned by cutoff, and the incumbent itself; it is
therefore a valid bound at every report point, not only at the end.
"""

from __future__ import annotations

import heapq
import logging
import math
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .mipmodel import Assignment, MipModel, check_feasible
from .simplex import Basis, LpResult, LpStatus, solve_bounded_lp

log = logging.getLogger("resilmip.solver")

INF = math.inf


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FEASIBLE_BOUND = "feasible_bound"  # incumbent + valid bound, proof incomplete
    LIMIT = "limit"


@dataclass
class SolveConfig:
    """Knobs for one solve call."""

    workers: int = 1
    node_limit: int | None = None
    time_limit: float | None = None
    mip_gap: float = 1e-6
    int_tol: float = 1e-6
    log_interval: float | None = None
    bland_threshold: int = 50


@dataclass
class SolveResult:
    status: SolveStatus
    objective: float
    dual_bound: float
    assignment: Assignment | None
    nodes_explored: int
    wall_time: float
    absolute_gap: float
    relative_gap: float
    history: list[tuple[int, float, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "objective": self.objective,
            "dual_bound": self.dual_bound,
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "absolute_gap": self.absolute_gap,
            "relative_gap": self.relative_gap,
        }


def solve_lp(model: MipModel, *, bland_threshold: int = 50) -> LpResult:
    """Solve the LP relaxation (binaries kept only as [0, 1] bounds)."""
    d = model.dense_arrays()
    return solve_bounded_lp(
        d.c, d.a, d.senses, d.rhs, d.lo, d.hi,
        maximize=d.maximize, bland_threshold=bland_threshold,
    )


@dataclass
class _Node:
    bound: float  # inherited lower bound (internal minimize orientation)
    depth: int
    lo: np.ndarray
    hi: np.ndarray
    basis: Basis | None = None  # the parent's optimal basis


class _Shared:
    """Search state shared by all workers; every field is lock-guarded."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        self.heap: list[tuple[float, int, _Node]] = []
        self.seq = 0
        self.in_flight: dict[int, float] = {}
        self.best_obj = INF
        self.best_x: np.ndarray | None = None
        self.nodes = 0
        self.prune_floor = INF
        self.stop = False
        self.unbounded = False
        self.clean = True
        self.history: list[tuple[int, float, float, float]] = []
        self.last_log = 0.0

    def push(self, node: _Node) -> None:
        if node.basis is not None:
            node.basis = node.basis.lean()  # O(n + m) per pooled node, not O(m^2)
        heapq.heappush(self.heap, (node.bound, self.seq, node))
        self.seq += 1

    def dual(self) -> float:
        best = self.best_obj
        cand = [self.prune_floor, best]
        if self.heap:
            cand.append(self.heap[0][0])
        if self.in_flight:
            cand.append(min(self.in_flight.values()))
        return min(cand)


def solve(model: MipModel, config: SolveConfig | None = None) -> SolveResult:
    """Branch-and-bound solve of a frozen (or finished) model."""
    cfg = config or SolveConfig()
    t0 = time.monotonic()
    d = model.dense_arrays()
    sign = -1.0 if d.maximize else 1.0
    c_int = sign * d.c
    bin_ids = np.array(d.binary_ids, dtype=np.int64)

    st = _Shared()
    ext = lambda v: sign * v  # internal minimize value -> model orientation

    def record(now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        inc = ext(st.best_obj) if st.best_x is not None else math.nan
        st.history.append((st.nodes, inc, ext(st.dual()), now - t0))

    def maybe_log(now: float) -> None:
        if cfg.log_interval is None or now - st.last_log < cfg.log_interval:
            return
        st.last_log = now
        inc = ext(st.best_obj) if st.best_x is not None else math.nan
        dual = ext(st.dual())
        gap = abs(st.best_obj - st.dual()) if st.best_x is not None else INF
        log.info(
            "nodes=%d incumbent=%.6g bound=%.6g gap=%.6g time=%.2f",
            st.nodes, inc, dual, gap, now - t0,
        )

    # optional warm start becomes the initial incumbent
    if model.warm_start is not None and check_feasible(model, model.warm_start, cfg.int_tol):
        x = np.array([model.warm_start[i] for i in range(model.num_variables)])
        if bin_ids.size:
            x[bin_ids] = np.round(x[bin_ids])
        st.best_obj = float(c_int @ x)
        st.best_x = x
        record(t0)

    root = _Node(bound=-INF, depth=0, lo=d.lo.copy(), hi=d.hi.copy())
    st.push(root)

    def cutoff() -> float:
        if st.best_x is None:
            return INF
        return st.best_obj - cfg.mip_gap * max(1.0, abs(st.best_obj))

    def node_lp(lo: np.ndarray, hi: np.ndarray, basis: Basis | None) -> LpResult:
        return solve_bounded_lp(
            c_int, d.a, d.senses, d.rhs, lo, hi,
            bland_threshold=cfg.bland_threshold, basis=basis,
        )

    def pick_branch_var(x: np.ndarray) -> int | None:
        best_key = None
        best_vid = None
        for vid in bin_ids:
            v = x[vid]
            frac = abs(v - round(v))
            if frac <= cfg.int_tol:
                continue
            prio = model.variables[vid].branch_priority
            key = (-prio, -min(v - math.floor(v), math.ceil(v) - v), vid)
            if best_key is None or key < best_key:
                best_key = key
                best_vid = int(vid)
        return best_vid

    def offer_incumbent(x: np.ndarray, obj: float) -> None:
        # caller holds the lock; replace only on strict improvement
        if obj < st.best_obj - 1e-12:
            st.best_obj = obj
            st.best_x = x
            record()

    def worker(tid: int) -> None:
        local: _Node | None = None
        while True:
            node = local
            local = None
            if node is None:
                with st.ready:
                    while not st.heap and st.in_flight and not st.stop:
                        st.ready.wait(0.02)
                    if st.stop or (not st.heap and not st.in_flight):
                        st.ready.notify_all()
                        return
                    if not st.heap:
                        continue
                    _, _, node = heapq.heappop(st.heap)
                    st.in_flight[tid] = node.bound
            else:
                with st.ready:
                    st.in_flight[tid] = node.bound

            with st.ready:
                now = time.monotonic()
                over_nodes = cfg.node_limit is not None and st.nodes >= cfg.node_limit
                over_time = cfg.time_limit is not None and now - t0 >= cfg.time_limit
                if st.stop or over_nodes or over_time:
                    if over_nodes or over_time:
                        st.stop = True
                    st.push(node)  # keep it visible to the dual bound
                    st.in_flight.pop(tid, None)
                    st.ready.notify_all()
                    return
                if node.bound >= cutoff():
                    st.prune_floor = min(st.prune_floor, node.bound)
                    st.in_flight.pop(tid, None)
                    st.ready.notify_all()
                    continue

            res = node_lp(node.lo, node.hi, node.basis)

            with st.ready:
                st.nodes += 1
                maybe_log(time.monotonic())
                if st.nodes % 512 == 0:
                    record()

                if res.status is LpStatus.INFEASIBLE:
                    st.in_flight.pop(tid, None)
                    st.ready.notify_all()
                    continue
                if res.status is LpStatus.UNBOUNDED:
                    st.unbounded = True
                    st.stop = True
                    st.in_flight.pop(tid, None)
                    st.ready.notify_all()
                    return
                if res.status is LpStatus.NUMERICAL:
                    st.clean = False
                    st.prune_floor = min(st.prune_floor, node.bound)
                    st.in_flight.pop(tid, None)
                    st.ready.notify_all()
                    continue

                bound = res.objective
                if bound >= cutoff():
                    st.prune_floor = min(st.prune_floor, bound)
                    st.in_flight.pop(tid, None)
                    st.ready.notify_all()
                    continue

            x = res.x
            branch_vid = pick_branch_var(x) if bin_ids.size else None

            if branch_vid is None:
                xi, obj = _integral_solution(x, bound, node, res.basis, bin_ids, node_lp, c_int)
                with st.ready:
                    if xi is not None:
                        offer_incumbent(xi, obj)
                        st.in_flight.pop(tid, None)
                        st.ready.notify_all()
                        continue
                # exact resolve failed: force the worst binary by branching
                devs = np.abs(x[bin_ids] - np.round(x[bin_ids]))
                branch_vid = int(bin_ids[int(np.argmax(devs))])

            v = x[branch_vid]
            down = _Node(bound, node.depth + 1, node.lo.copy(), node.hi.copy())
            down.hi[branch_vid] = 0.0
            up = _Node(bound, node.depth + 1, node.lo.copy(), node.hi.copy())
            up.lo[branch_vid] = 1.0
            first, second = (up, down) if v >= 0.5 else (down, up)
            # both children re-solve from this basis; the plunge child also
            # keeps its inverse (push drops it)
            first.basis = second.basis = res.basis
            local = first  # plunge
            with st.ready:
                st.push(second)
                st.in_flight[tid] = first.bound
                st.ready.notify_all()

    n_workers = max(1, cfg.workers)
    if n_workers == 1:
        worker(0)
    else:
        threads = [threading.Thread(target=worker, args=(w,), daemon=True) for w in range(n_workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    wall = time.monotonic() - t0
    record()

    if st.unbounded:
        return SolveResult(
            SolveStatus.UNBOUNDED, ext(-INF), ext(-INF), None,
            st.nodes, wall, INF, INF, st.history,
        )

    dual_int = st.dual()
    have_inc = st.best_x is not None
    exhausted = not st.heap and not st.in_flight

    if st.stop and not exhausted:
        status = SolveStatus.LIMIT
    elif not have_inc:
        status = SolveStatus.INFEASIBLE if st.clean else SolveStatus.LIMIT
    elif st.clean:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.FEASIBLE_BOUND

    if status is SolveStatus.INFEASIBLE:
        return SolveResult(
            SolveStatus.INFEASIBLE, ext(INF), ext(INF), None,
            st.nodes, wall, 0.0, 0.0, st.history,
        )

    obj_int = st.best_obj if have_inc else INF
    assignment: Assignment | None = None
    if have_inc:
        assignment = {i: float(v) for i, v in enumerate(st.best_x)}
    abs_gap = abs(obj_int - dual_int) if have_inc and math.isfinite(dual_int) else INF
    rel_gap = abs_gap / max(1.0, abs(obj_int)) if math.isfinite(abs_gap) else INF
    if status is SolveStatus.OPTIMAL:
        dual_int = min(dual_int, obj_int)
    return SolveResult(
        status, ext(obj_int), ext(dual_int), assignment,
        st.nodes, wall, abs_gap, rel_gap, st.history,
    )


def _integral_solution(x, bound, node, basis, bin_ids, node_lp, c_int):
    """Turn an integral-within-tolerance LP point into an exact incumbent.

    LP vertices normally park binaries exactly on 0/1; when one is merely
    close, re-solve with all binaries fixed to their rounded values so the
    incumbent satisfies integrality exactly. Returns (x, objective) or
    (None, nan) when the fixed re-solve fails.
    """
    if not bin_ids.size:
        return x, bound
    rounded = np.round(x[bin_ids])
    if float(np.max(np.abs(x[bin_ids] - rounded), initial=0.0)) <= 1e-12:
        xi = x.copy()
        xi[bin_ids] = rounded
        return xi, float(c_int @ xi)
    lo2 = node.lo.copy()
    hi2 = node.hi.copy()
    lo2[bin_ids] = rounded
    hi2[bin_ids] = rounded
    res = node_lp(lo2, hi2, basis)
    if res.status is LpStatus.OPTIMAL:
        xi = res.x.copy()
        xi[bin_ids] = rounded
        return xi, float(c_int @ xi)
    return None, math.nan
