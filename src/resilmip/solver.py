"""Branch-and-bound MIP solver over the bounded-variable simplex core.

Search: a serial best-bound loop with depth-first plunging. The open nodes
wait in a heap ordered by (inherited bound, creation order); after branching
the search keeps the child on the rounded side of the branching value and
pushes the sibling. Branching looks at the binaries more than INT_TOL from an
integer. If any is a ReLU indicator (``MipModel.relu``), it takes the one
whose LP point lies farthest from its ReLU's graph, by x - max(0, im) for
the ReLU's output x and pre-activation im (``pick_branch_var``), in the spirit
of the ReLU splits of Bunel et al. (JMLR 2020); otherwise the most fractional
binary. Ties go to the lowest id. Atan, max-pool and class-selector binaries
are left to the fallback: on ``atan_wide`` a generic rounding score grew
phi's trees. An incumbent is replaced only by a strictly better one. The
search is deterministic: the same model and limits give the same nodes.

Node LPs: the LP's fixed data is put in the simplex's layout once per solve
(``simplex.lp_form``), which only minimizes: a maximizing model's costs are
negated, and values are reported back in the model's orientation. The root
LP is solved cold: the dual simplex finds a feasible basis from the slack
basis, or from a caller's ``start`` basis (lookback's probes share their
window's feasible basis), and the primal simplex optimizes from it. Every
child carries its parent's optimal basis and is re-solved from it by the dual
simplex, since it differs from its parent in one binary bound.
Both children share the parent's basis inverse, so a node popped off the
heap starts without a factorization; the open nodes keep inverses up to
``_HEAP_INVERSE_BYTES`` between them, and a node pushed beyond that keeps
only the O(n + m) basis. The simplex falls back to a cold solve when a warm
start fails, proves every infeasible node with a Farkas row of the dual
simplex, and reports each optimum with a bound certified against round-off
(see ``simplex``). Nodes are pruned and ordered on that certified bound. A
node LP is given the incumbent's cutoff, and its dual simplex stops as soon
as its certified bound reaches it (``LpStatus.CUTOFF``): the node is pruned
by bound without its optimum, or without proving it infeasible.

Three kinds of point can become incumbents: the model's warm start, before
the search; a caller's ``repair`` of the root LP point; and an integral LP
point, once it is recomputed on a fresh factorization of its basis. Each
passes one gate: every binary within INT_TOL of an integer, and then, with
the binaries rounded, every bound and row met within INT_TOL
(``DenseLp.feasible``). So every assignment ``solve`` returns passes
``check_feasible(model, assignment, INT_TOL)``. An integral LP point that
fails the gate is branched on like one that could not be recomputed. The
repair is a rounding-type primal heuristic (Achterberg, "Constraint Integer
Programming", 2007): it is called once per solve, when the root LP is
optimal, not pruned and fractional, and may complete the point into an
exact one, as ``encoder.ForwardRepair`` does by a forward pass.

The reported dual bound is the minimum over the open node bounds, the bound
of the node being solved, the bounds of nodes pruned by cutoff (an LP
stopped at the cutoff gives the certified bound it stopped at), and the
incumbent itself; it is therefore a valid bound at every report point, not
only at the end.

Parallelism lives above single solves: ``worker_pool`` runs independent
sub-solves (lookback's window MIPs, xi's per-class phi queries) in forked
processes, since threads would serialize on the interpreter lock. The
children are forked once, by the first batch that needs them, and serve
every later batch until the process exits, so a batch pays neither a fork
nor the copy-on-write faults that follow one. Each batch sends its function
and jobs pickled, so both must pickle, and a child runs the modules as they
were when it was forked; the calling process runs a share of the jobs
itself. The query clock lives here too: ``query_deadline`` fixes one
deadline when a query starts, and ``time_left`` gives each of its solves the
time left.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NoReturn

import numpy as np

from .mipmodel import Assignment, DenseLp, MipModel, ModelError
from .simplex import (Basis, LpForm, LpResult, LpStatus, basic_point, lp_form,
                      solve_bounded_lp)

log = logging.getLogger("resilmip.solver")

INF = math.inf
INT_TOL = 1e-6  # a binary this close to 0 or 1 counts as integral
# bytes of basis inverses the open nodes of one solve may keep between them
_HEAP_INVERSE_BYTES = 1 << 19


class SolveStatus(Enum):
    """How a solve ended; a model is solved over a box, so never unbounded."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    FEASIBLE_BOUND = "feasible_bound"  # incumbent + valid bound, proof incomplete
    LIMIT = "limit"


@dataclass
class SolveConfig:
    """Knobs for one solve call. ``solve`` is serial and reads the node
    limit, time limit, MIP gap and log interval. The drivers read ``workers``
    (``worker_pool``) and make the time limit one deadline per query;
    ``dataflow.tighten_lookback`` reads only the time limit."""

    workers: int = 1
    node_limit: int | None = None
    time_limit: float | None = None
    mip_gap: float = 1e-6
    log_interval: float | None = None


def query_deadline(config: SolveConfig) -> float | None:
    """The time.monotonic() reading at which ``config``'s time limit, counted
    from now, runs out; None without a limit. The clock is system-wide, so
    forked workers share the deadline."""
    return None if config.time_limit is None else time.monotonic() + config.time_limit


def time_left(config: SolveConfig, deadline: float | None) -> SolveConfig:
    """``config`` with the time left until ``deadline`` as its time limit."""
    if deadline is None:
        return config
    return replace(config, time_limit=max(0.0, deadline - time.monotonic()))


@contextlib.contextmanager
def worker_pool(workers: int):
    """Yield ``pmap(fn, jobs)``: the list of ``fn(job)`` over ``jobs``, in job
    order, for independent sub-solves.

    Each ``pmap`` call runs its jobs in k = min(workers, os.cpu_count(),
    len(jobs)) processes: this one and k - 1 children of the process's pool,
    and at k = 1 nothing is forked. The children are forked once, by the
    first call that needs them, and serve every later call, in this ``with``
    block and after it, until the process exits. Process p starts with job
    p, then takes the first job no process has taken, so a slow job holds up
    no other (past 1024 jobs, chunks of consecutive jobs are taken instead).

    A call sends ``fn`` and the jobs pickled to each child it uses, so both
    must pickle: a module-level function or a ``functools.partial`` of one,
    not a closure or a lambda. A child runs the modules as they were when it
    was forked, so it does not see a function defined, or a module attribute
    patched, after that. The results come back pickled and must pickle too.
    An exception raised in a child is raised again here, with the child's
    traceback as its cause; one that does not unpickle comes back as a
    ``RuntimeError`` carrying that traceback. A child that exits without
    results raises a ``RuntimeError`` naming its exit code. On any failure,
    this process's own share raising too, every child is killed and reaped,
    and the next call forks fresh ones, so nothing of a failed batch reaches
    a later one. At interpreter exit ``atexit`` kills and reaps the children;
    a process forked from the pool's owner leaves the owner's children alone
    and forks its own. Forked children start with numpy and resilmip already
    imported, which a spawned one would import again; the solver starts no
    threads that a fork could copy mid-operation.
    """
    workers = min(workers, os.cpu_count() or 1)
    yield lambda fn, jobs: _pool_map(fn, list(jobs), workers)


class _Child:
    """A pool child: its pid (None until forked, and once reaped), the write
    end of the pipe its batches arrive on and the read end of the pipe its
    results come back on. Not a dataclass, which would cost import time."""

    def __init__(self, cmd: int, reply: int) -> None:
        self.pid: int | None = None
        self.cmd = cmd
        self.reply = reply


class _Pool:
    """The children that serve ``worker_pool``'s batches for the process
    ``owner``, and the queue of chunk numbers they share with it."""

    def __init__(self) -> None:
        import atexit
        self.owner = os.getpid()
        self.children: list[_Child] = []
        # 4 bytes per chunk no process has taken; reading it empty raises
        # BlockingIOError, since the owner keeps the write end
        self.queue, self.refill = os.pipe()
        os.set_blocking(self.queue, False)
        atexit.unregister(_close_pool)  # one call at exit, however many pools
        atexit.register(_close_pool)

    def fork(self, count: int) -> None:
        """Fork children until there are ``count``."""
        import sys

        while len(self.children) < count:
            # a child flushes its stdio, which would repeat output buffered here
            sys.stdout.flush()
            sys.stderr.flush()
            cmd_r, cmd_w = os.pipe()
            reply_r, reply_w = os.pipe()
            child = _Child(cmd_w, reply_r)
            self.children.append(child)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(cmd_r, reply_w, self.queue,
                           [self.refill] + [fd for c in self.children for fd in (c.cmd, c.reply)])
                child.pid = pid
            finally:
                os.close(cmd_r)
                os.close(reply_w)

    def map(self, fn, jobs: list, size: int, chunks: int, k: int) -> list:
        """``worker_pool``'s pmap over this process and k - 1 children, the
        jobs in ``chunks`` chunks of ``size``."""
        import pickle

        payload = pickle.dumps((fn, jobs), -1)
        self.fork(k - 1)
        # process p (0 is this one) starts with chunk p; the rest, at most
        # 4 KB, go into the empty queue in one write
        os.write(self.refill, np.arange(k, chunks, dtype="<u4").tobytes())
        used = self.children[:k - 1]
        for p, child in enumerate(used, start=1):
            try:
                _send(child.cmd, b"".join(v.to_bytes(8, "little")
                                          for v in (p, size, len(payload))))
                _send(child.cmd, payload)
            except BrokenPipeError:
                pass  # a dead child, reported when its reply is read
        results = _take(fn, jobs, 0, size, self.queue)
        for child in used:
            head = _recv(child.reply, 8)
            reply = None if head is None else _recv(child.reply, int.from_bytes(head, "little"))
            if reply is None:
                pid, child.pid = child.pid, None
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"worker process {pid} exited with code {code} "
                                   "without its results")
            ok, value, tb = pickle.loads(reply)
            if not ok:
                raise value from (None if tb is None else RuntimeError(tb))
            results.update(value)
        return [results[i] for i in range(len(jobs))]

    def close(self) -> None:
        """Close this process's ends of the pipes and, in the owner, kill
        and reap the children."""
        import signal

        owned = self.owner == os.getpid()
        for child in self.children:
            os.close(child.cmd)
            os.close(child.reply)
            if owned and child.pid is not None:
                os.kill(child.pid, signal.SIGKILL)
        os.close(self.queue)
        os.close(self.refill)
        if owned:
            for child in self.children:
                if child.pid is not None:
                    os.waitpid(child.pid, 0)


_pool: _Pool | None = None  # this process's pool, made by its first parallel pmap


def _pool_map(fn, jobs: list, workers: int) -> list:
    """``worker_pool``'s pmap over at most ``workers`` processes."""
    global _pool
    n = len(jobs)
    if min(workers, n) <= 1:
        return [fn(job) for job in jobs]
    size = -(-n // 1024)  # jobs per chunk: at most 1024 chunks
    chunks = -(-n // size)
    if _pool is not None and _pool.owner != os.getpid():
        _close_pool()  # inherited through a fork: only this process's copies close
    if _pool is None:
        _pool = _Pool()
    try:
        return _pool.map(fn, jobs, size, chunks, min(workers, chunks))
    except BaseException:
        _close_pool()
        raise


def _close_pool() -> None:
    """Kill and reap this process's pool children, if it has any; ``atexit``
    calls it."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.close()


def _take(fn, jobs: list, chunk: int, size: int, queue: int) -> dict:
    """{i: fn(jobs[i])} over the jobs of ``chunk`` and of each chunk taken
    from ``queue`` after it, until the queue is empty."""
    out = {}
    while True:
        for i in range(chunk * size, min((chunk + 1) * size, len(jobs))):
            out[i] = fn(jobs[i])
        try:
            taken = os.read(queue, 4)  # one read: no other process splits it
        except BlockingIOError:  # every chunk has been taken
            return out
        if not taken:  # the owner has exited
            return out
        chunk = int.from_bytes(taken, "little")


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int, n: int) -> bytearray | None:
    """``n`` bytes from the pipe ``fd``; None if it ends before them."""
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return buf


def _serve(cmd: int, reply: int, queue: int, inherited: list[int]) -> NoReturn:
    """A pool child's whole life: close the ``inherited`` pipe ends of its
    owner, then run each batch that arrives on ``cmd`` and write ``(True,
    results, None)`` or ``(False, exception, traceback text)`` pickled to
    ``reply``, until ``cmd`` ends (the owner closed the pool or exited); it
    exits without returning to the caller's code."""
    global _pool
    import pickle
    import sys
    import traceback

    code = 1
    try:
        _pool = None  # the owner's: a batch run here forks its own pool
        for fd in inherited:
            os.close(fd)
        while (head := _recv(cmd, 24)) is not None:
            chunk, size, n = (int.from_bytes(head[i:i + 8], "little") for i in (0, 8, 16))
            try:
                fn, jobs = pickle.loads(_recv(cmd, n))
                out = pickle.dumps((True, _take(fn, jobs, chunk, size, queue), None), -1)
            except BaseException as exc:
                tb = traceback.format_exc()
                try:
                    out = pickle.dumps((False, exc, tb), -1)
                    pickle.loads(out)  # an exception that pickles may still not load
                except Exception:
                    out = pickle.dumps((False, RuntimeError(tb), None), -1)
            _send(reply, len(out).to_bytes(8, "little"))
            _send(reply, out)
            sys.stdout.flush()
            sys.stderr.flush()
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


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


def _min_form(model: MipModel) -> tuple[DenseLp, LpForm, float]:
    """The model's dense arrays, its LP as the simplex's minimization, and
    the sign (-1 when the model maximizes) that orients the form's values.
    Raises ``ModelError`` naming a variable with an infinite bound, since the
    simplex solves over a box."""
    d = model.dense_arrays()
    unboxed = np.flatnonzero(~np.isfinite(d.lo) | ~np.isfinite(d.hi))
    if unboxed.size:
        v = model.variables[unboxed[0]]
        raise ModelError(f"variable {v.name!r}: a solve needs finite bounds, not [{v.lo}, {v.hi}]")
    sign = -1.0 if d.maximize else 1.0
    return d, lp_form(sign * d.c, d.a, d.senses, d.rhs), sign


def solve_lp(model: MipModel) -> LpResult:
    """Solve the LP relaxation (binaries kept only as [0, 1] bounds); the
    objective and bound are in the model's orientation."""
    d, form, sign = _min_form(model)
    res = solve_bounded_lp(form, d.lo, d.hi)
    res.objective *= sign
    res.bound *= sign
    return res


@dataclass
class _Node:
    bound: float  # inherited lower bound (internal minimize orientation)
    lo: np.ndarray
    hi: np.ndarray
    basis: Basis | None = None  # the parent's optimal basis


def pick_branch_var(x: np.ndarray, d: DenseLp) -> int | None:
    """The binary to branch on at the LP point x of the model with arrays d,
    among the binaries more than INT_TOL from an integer; None when every
    binary is integral. If any of them is a ReLU indicator (``d.relu``), the
    one whose point lies farthest from its ReLU's graph: x - max(0, im) =
    min(x, x - im), x the ReLU's output and x - im the left side of its row
    x - im >= const less const. Otherwise the binary farthest from an
    integer. Ties go to the lowest id."""
    bins = d.bins
    v = x[bins]
    # the difference to the nearer integer is exact in float64, so this is
    # |v - round(v)| bit for bit
    dist = np.minimum(v - np.floor(v), np.ceil(v) - v)
    frac = dist > INT_TOL
    if not frac.any():
        return None
    pos, out, a, rhs = d.relu_rows  # built at the first branching of a solve
    on = frac[pos]
    if on.any():
        gap = np.minimum(x[out], a @ x - rhs)
        return int(bins[pos[on & (gap == gap[on].max())]].min())
    return int(bins[frac & (dist == dist[frac].max())].min())


def _keeps_inverse(node: _Node) -> bool:
    return node.basis is not None and node.basis.inverse is not None


def solve(model: MipModel, config: SolveConfig | None = None,
          start: Basis | None = None,
          repair: Callable[[np.ndarray], np.ndarray] | None = None) -> SolveResult:
    """Branch-and-bound solve of a frozen (or finished) model; its root LP
    starts cold from ``start`` (see ``simplex.solve_bounded_lp``). ``repair``
    maps an LP point to a full assignment, a candidate incumbent; it is called
    at most once, on the root LP's point when that LP is optimal, not pruned
    and fractional. Every returned assignment passes
    ``check_feasible(model, assignment, INT_TOL)``."""
    cfg = config or SolveConfig()
    t0 = time.monotonic()
    d, form, sign = _min_form(model)
    c_int = sign * d.c
    bin_ids = d.bins
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

    kept = 0  # bytes of the inverses that heap nodes keep

    def push(node: _Node) -> None:
        nonlocal kept
        if _keeps_inverse(node):
            # a kept inverse spares the node a factorization when it is
            # popped; past the budget a pooled node keeps O(n + m), not O(m^2)
            if kept + node.basis.inverse.nbytes <= _HEAP_INVERSE_BYTES:
                kept += node.basis.inverse.nbytes
            else:
                node.basis = node.basis.lean()
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

    def adopt(x: np.ndarray) -> bool:
        """The one gate for incumbents: whether the point x, its binaries
        within INT_TOL of an integer and then rounded, meets every bound and
        row within INT_TOL. Such a point becomes the incumbent if it is
        strictly better."""
        nonlocal best_obj, best_x
        b = x[bin_ids]
        rounded = np.round(b)
        if not np.all(np.abs(b - rounded) <= INT_TOL):  # NaN fails too
            return False
        x = x.copy()  # a repair may hand back a view of the LP point
        x[bin_ids] = rounded
        if not d.feasible(x, INT_TOL):
            return False
        obj = float(c_int @ x)
        if obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
            record()
        return True

    if model.warm_start is not None:
        ws = model.warm_start
        adopt(np.array([ws.get(i, math.nan) for i in range(model.num_variables)]))

    push(_Node(bound=-INF, lo=d.lo.copy(), hi=d.hi.copy()))
    node: _Node | None = None  # the plunge child, when there is one
    limit_hit = False
    while node is not None or heap:
        if node is None:
            node = heapq.heappop(heap)[2]
            if _keeps_inverse(node):
                kept -= node.basis.inverse.nbytes
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

        res = solve_bounded_lp(form, node.lo, node.hi, basis=node.basis,
                               start=start if nodes == 0 else None, cutoff=cutoff())
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

        if res.status is LpStatus.NUMERICAL:
            clean = False
            prune_floor = min(prune_floor, node.bound)
        elif res.status is LpStatus.CUTOFF:  # pruned by bound inside the LP
            prune_floor = min(prune_floor, res.bound)
        if res.status is not LpStatus.OPTIMAL:
            node = None
            continue
        bound, x = res.bound, res.x
        branch_vid = pick_branch_var(x, d)
        if (nodes == 1 and repair is not None and branch_vid is not None
                and bound < cutoff()):
            adopt(repair(x))  # the root's one repair
        if bound >= cutoff():
            prune_floor = min(prune_floor, bound)
            node = None
            continue
        if branch_vid is None:
            if res.objective >= best_obj - 1e-12:
                node = None  # no strict improvement, even unconfirmed
                continue
            xi = _integral_solution(form, x, node, res.basis, bin_ids)
            if xi is not None and adopt(xi):
                node = None
                continue
            # the point could not be confirmed, or failed the gate: force the
            # worst binary this node has not fixed, since a fixed one gives
            # the node back as a child
            free = bin_ids[node.lo[bin_ids] < node.hi[bin_ids]]
            devs = np.abs(x[free] - np.round(x[free]))
            if not devs.any():  # nothing to branch on: a numerical failure
                clean = False
                prune_floor = min(prune_floor, bound)
                node = None
                continue
            branch_vid = int(free[int(np.argmax(devs))])

        v = x[branch_vid]
        down = _Node(bound, node.lo.copy(), node.hi.copy())
        down.hi[branch_vid] = 0.0
        up = _Node(bound, node.lo.copy(), node.hi.copy())
        up.lo[branch_vid] = 1.0
        first, second = (up, down) if v >= 0.5 else (down, up)
        # both children re-solve from this basis and share its inverse, which
        # a warm start copies before pivoting
        first.basis = second.basis = res.basis
        push(second)
        node = first  # plunge

    current = INF
    record()
    bound = dual()  # INF when the search ends with no incumbent and clean
    if limit_hit or (best_x is None and not clean):
        status = SolveStatus.LIMIT
    elif best_x is None:
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.OPTIMAL if clean else SolveStatus.FEASIBLE_BOUND
    if status is SolveStatus.INFEASIBLE:
        gap = 0.0
    else:
        gap = abs(best_obj - bound) if best_x is not None and math.isfinite(bound) else INF
    assignment = None if best_x is None else {i: float(v) for i, v in enumerate(best_x)}
    return SolveResult(status, ext(best_obj), ext(bound), assignment,
                       nodes, time.monotonic() - t0, gap, history)


def _integral_solution(form, x, node, basis, bin_ids):
    """The point of an integral-within-tolerance LP point's basis, recomputed
    on a fresh factorization, for ``solve``'s incumbent gate.

    LP vertices normally park binaries exactly on 0/1; when the recomputed
    point breaks a bound or leaves a binary merely close, re-solve with all
    binaries fixed to their rounded values and recompute that optimum the
    same way. Returns None when neither point is confirmed.
    """
    rounded = np.round(x[bin_ids])
    xi = basic_point(form, node.lo, node.hi, basis)
    if xi is not None and float(np.max(np.abs(xi[bin_ids] - rounded), initial=0.0)) <= 1e-12:
        return xi
    lo2 = node.lo.copy()
    hi2 = node.hi.copy()
    lo2[bin_ids] = rounded
    hi2[bin_ids] = rounded
    res = solve_bounded_lp(form, lo2, hi2, basis=basis)
    return basic_point(form, lo2, hi2, res.basis) if res.status is LpStatus.OPTIMAL else None
