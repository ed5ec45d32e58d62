"""Branch-and-bound MIP solver over the bounded-variable simplex core.

Search: a serial best-bound loop with depth-first plunging. The open nodes
wait in a heap ordered by (inherited bound, creation order); after branching
the search keeps the child on the rounded side of the branching value and
pushes the sibling. Branching picks the fractional binary with the highest
branch priority, breaking ties by most-fractional value and then lowest
variable id. An incumbent is replaced only by a strictly better one. The
search is deterministic: the same model and limits give the same nodes.

Node LPs: the LP's fixed data is put in the simplex's layout once per solve
(``simplex.lp_form``). The root LP is solved cold: the dual simplex finds a
feasible basis from the slack basis, and the primal simplex optimizes from
it. Every child carries its parent's optimal basis and is re-solved from it
by the dual simplex, since it differs from its parent in one binary bound;
the child the search keeps also takes the parent's basis inverse, while a
node pushed to the heap keeps only the O(n + m) basis. The simplex falls back
to a cold solve when a warm start fails, proves every infeasible node with a
Farkas row of the dual simplex, and reports each optimum with a bound
certified against round-off (see ``simplex``). Nodes are pruned and ordered
on that certified bound. An integral LP point becomes an incumbent only once
it is confirmed on a fresh factorization of its basis.

The reported dual bound is the minimum over the open node bounds, the bound
of the node being solved, the bounds of nodes pruned by cutoff, and the
incumbent itself; it is therefore a valid bound at every report point, not
only at the end.

Parallelism lives above single solves: ``worker_pool`` runs independent
sub-solves (lookback's window MIPs, xi's per-class phi queries) in worker
processes, since threads would serialize on the interpreter lock.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import logging
import math
import os
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .mipmodel import Assignment, MipModel, check_feasible
from .simplex import Basis, LpResult, LpStatus, basic_point, lp_form, solve_bounded_lp

log = logging.getLogger("resilmip.solver")

INF = math.inf
INT_TOL = 1e-6  # a binary this close to 0 or 1 counts as integral


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FEASIBLE_BOUND = "feasible_bound"  # incumbent + valid bound, proof incomplete
    LIMIT = "limit"


@dataclass
class SolveConfig:
    """Knobs for one solve call. ``solve`` itself is serial; ``workers`` is
    the process count of the drivers that run independent solves side by
    side (``worker_pool``)."""

    workers: int = 1
    node_limit: int | None = None
    time_limit: float | None = None
    mip_gap: float = 1e-6
    log_interval: float | None = None


@contextlib.contextmanager
def worker_pool(workers: int):
    """Yield ``pmap(fn, jobs)``: the list of ``fn(job)`` over ``jobs``, in job
    order, for independent sub-solves.

    ``workers`` is capped at ``os.cpu_count()``, since a fork-context pool
    starts all its processes at the first submit. At one worker the jobs run
    in this process, one after another. Otherwise they run in forked
    processes, which every ``pmap`` inside the ``with`` block shares; ``fn``
    must then be a module-level function, and each job and result must
    pickle. Forked workers start with
    numpy and resilmip already imported, which a spawned worker would import
    again; the solver starts no threads that a fork could copy mid-operation.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield lambda fn, jobs: [fn(job) for job in jobs]
        return
    # imported here: concurrent.futures.process alone takes about 35 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        yield lambda fn, jobs: list(pool.map(fn, jobs))


@dataclass
class SolveResult:
    status: SolveStatus
    objective: float
    dual_bound: float
    assignment: Assignment | None
    nodes_explored: int
    wall_time: float
    absolute_gap: float
    history: list[tuple[int, float, float, float]] = field(default_factory=list)


def solve_lp(model: MipModel) -> LpResult:
    """Solve the LP relaxation (binaries kept only as [0, 1] bounds)."""
    d = model.dense_arrays()
    form = lp_form(d.c, d.a, d.senses, d.rhs, maximize=d.maximize)
    return solve_bounded_lp(form, d.lo, d.hi)


@dataclass
class _Node:
    bound: float  # inherited lower bound (internal minimize orientation)
    lo: np.ndarray
    hi: np.ndarray
    basis: Basis | None = None  # the parent's optimal basis


def solve(model: MipModel, config: SolveConfig | None = None) -> SolveResult:
    """Branch-and-bound solve of a frozen (or finished) model."""
    cfg = config or SolveConfig()
    t0 = time.monotonic()
    d = model.dense_arrays()
    sign = -1.0 if d.maximize else 1.0
    c_int = sign * d.c
    form = lp_form(c_int, d.a, d.senses, d.rhs)
    bin_ids = np.array(d.binary_ids, dtype=np.int64)
    ext = lambda v: sign * v  # internal minimize value -> model orientation

    heap: list[tuple[float, int, _Node]] = []
    seq = itertools.count()
    best_obj = INF
    best_x: np.ndarray | None = None
    nodes = 0
    prune_floor = INF
    current = INF  # bound of the node being processed
    clean = True
    history: list[tuple[int, float, float, float]] = []
    last_log = 0.0

    def push(node: _Node) -> None:
        if node.basis is not None:
            node.basis = node.basis.lean()  # O(n + m) per pooled node, not O(m^2)
        heapq.heappush(heap, (node.bound, next(seq), node))

    def dual() -> float:
        return min(prune_floor, best_obj, current, heap[0][0] if heap else INF)

    def record(now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        inc = ext(best_obj) if best_x is not None else math.nan
        history.append((nodes, inc, ext(dual()), now - t0))

    def cutoff() -> float:
        if best_x is None:
            return INF
        return best_obj - cfg.mip_gap * max(1.0, abs(best_obj))

    def node_lp(lo: np.ndarray, hi: np.ndarray, basis: Basis | None) -> LpResult:
        return solve_bounded_lp(form, lo, hi, basis=basis)

    def pick_branch_var(x: np.ndarray) -> int | None:
        best_key = None
        best_vid = None
        for vid in bin_ids:
            v = x[vid]
            frac = abs(v - round(v))
            if frac <= INT_TOL:
                continue
            prio = model.variables[vid].branch_priority
            key = (-prio, -min(v - math.floor(v), math.ceil(v) - v), vid)
            if best_key is None or key < best_key:
                best_key = key
                best_vid = int(vid)
        return best_vid

    # optional warm start becomes the initial incumbent
    if model.warm_start is not None and check_feasible(model, model.warm_start, INT_TOL):
        x = np.array([model.warm_start[i] for i in range(model.num_variables)])
        if bin_ids.size:
            x[bin_ids] = np.round(x[bin_ids])
        best_obj = float(c_int @ x)
        best_x = x
        record(t0)

    push(_Node(bound=-INF, lo=d.lo.copy(), hi=d.hi.copy()))
    node: _Node | None = None  # the plunge child, when there is one
    unbounded = limit_hit = False
    while node is not None or heap:
        if node is None:
            node = heapq.heappop(heap)[2]
        current = node.bound
        now = time.monotonic()
        if ((cfg.node_limit is not None and nodes >= cfg.node_limit)
                or (cfg.time_limit is not None and now - t0 >= cfg.time_limit)):
            push(node)  # keep it visible to the dual bound
            limit_hit = True
            break
        if node.bound >= cutoff():
            prune_floor = min(prune_floor, node.bound)
            node = None
            continue

        res = node_lp(node.lo, node.hi, node.basis)
        nodes += 1
        now = time.monotonic()
        if cfg.log_interval is not None and now - last_log >= cfg.log_interval:
            last_log = now
            gap = abs(best_obj - dual()) if best_x is not None else INF
            log.info("nodes=%d incumbent=%.6g bound=%.6g gap=%.6g time=%.2f",
                     nodes, ext(best_obj) if best_x is not None else math.nan,
                     ext(dual()), gap, now - t0)
        if nodes % 512 == 0:
            record()

        if res.status is LpStatus.UNBOUNDED:
            unbounded = True
            break
        if res.status is LpStatus.NUMERICAL:
            clean = False
            prune_floor = min(prune_floor, node.bound)
        if res.status is not LpStatus.OPTIMAL:
            node = None
            continue
        bound = res.bound
        if bound >= cutoff():
            prune_floor = min(prune_floor, bound)
            node = None
            continue

        x = res.x
        branch_vid = pick_branch_var(x) if bin_ids.size else None
        if branch_vid is None:
            if res.objective >= best_obj - 1e-12:
                node = None  # no strict improvement, even unconfirmed
                continue
            xi = _integral_solution(form, x, node, res.basis, bin_ids, node_lp)
            if xi is not None:
                obj = float(c_int @ xi)
                if obj < best_obj - 1e-12:  # replace only on strict improvement
                    best_obj, best_x = obj, xi
                    record()
                node = None
                continue
            if not bin_ids.size:  # nothing to branch on: a numerical failure
                clean = False
                prune_floor = min(prune_floor, bound)
                node = None
                continue
            # the point could not be confirmed: force the worst binary by branching
            devs = np.abs(x[bin_ids] - np.round(x[bin_ids]))
            branch_vid = int(bin_ids[int(np.argmax(devs))])

        v = x[branch_vid]
        down = _Node(bound, node.lo.copy(), node.hi.copy())
        down.hi[branch_vid] = 0.0
        up = _Node(bound, node.lo.copy(), node.hi.copy())
        up.lo[branch_vid] = 1.0
        first, second = (up, down) if v >= 0.5 else (down, up)
        # both children re-solve from this basis; the plunge child also keeps
        # its inverse (push drops it)
        first.basis = second.basis = res.basis
        push(second)
        node = first  # plunge

    current = INF
    wall = time.monotonic() - t0
    record()

    if unbounded:
        return SolveResult(
            SolveStatus.UNBOUNDED, ext(-INF), ext(-INF), None,
            nodes, wall, INF, history,
        )

    dual_int = dual()
    have_inc = best_x is not None
    if limit_hit:
        status = SolveStatus.LIMIT
    elif not have_inc:
        status = SolveStatus.INFEASIBLE if clean else SolveStatus.LIMIT
    elif clean:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.FEASIBLE_BOUND

    if status is SolveStatus.INFEASIBLE:
        return SolveResult(
            SolveStatus.INFEASIBLE, ext(INF), ext(INF), None,
            nodes, wall, 0.0, history,
        )

    obj_int = best_obj if have_inc else INF
    assignment: Assignment | None = None
    if have_inc:
        assignment = {i: float(v) for i, v in enumerate(best_x)}
    abs_gap = abs(obj_int - dual_int) if have_inc and math.isfinite(dual_int) else INF
    if status is SolveStatus.OPTIMAL:
        dual_int = min(dual_int, obj_int)
    return SolveResult(
        status, ext(obj_int), ext(dual_int), assignment,
        nodes, wall, abs_gap, history,
    )


def _integral_solution(form, x, node, basis, bin_ids, node_lp):
    """Turn an integral-within-tolerance LP point into an exact incumbent.

    The point of the node's optimal basis is recomputed on a fresh
    factorization. LP vertices normally park binaries exactly on 0/1; when
    that point breaks a bound or leaves a binary merely close, re-solve with
    all binaries fixed to their rounded values and confirm that optimum the
    same way, so the incumbent satisfies integrality exactly. Returns None
    when neither point is confirmed.
    """
    rounded = np.round(x[bin_ids])
    xi = basic_point(form, node.lo, node.hi, basis)
    if xi is None or float(np.max(np.abs(xi[bin_ids] - rounded), initial=0.0)) > 1e-12:
        lo2 = node.lo.copy()
        hi2 = node.hi.copy()
        lo2[bin_ids] = rounded
        hi2[bin_ids] = rounded
        res = node_lp(lo2, hi2, basis)
        if res.status is not LpStatus.OPTIMAL:
            return None
        xi = basic_point(form, lo2, hi2, res.basis)
        if xi is None:
            return None
    xi[bin_ids] = rounded
    return xi
