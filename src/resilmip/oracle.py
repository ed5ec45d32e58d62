"""Independent cross-checks for the encoder and solver.

Nothing here goes through the built-in LP core: the brute-force reference
solves its relaxations with scipy's HiGHS interface, the grid reference never
builds a model at all, and trace consistency replays exact forward passes
through an encoded body. Each check guards its own combinatorial cost and
refuses inputs it cannot enumerate honestly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import encoder
from .dataflow import IntervalBounds, propagate_intervals
from .mipmodel import Assignment, MipModel, RowSense, feasibility_violations
from .network import ForwardTrace, LayerKind, Network, forward

MAX_ENUM_BINARIES = 14
MAX_GRID_DIM = 3
MAX_GRID_POINTS = 2_000_000


class OracleGuardError(ValueError):
    """The instance is too large for honest exhaustive checking."""


# -- brute-force reference solver ---------------------------------------------


@dataclass
class EnumResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    objective: float
    assignment: Assignment | None
    patterns_tried: int = 0


def _scipy_form(model: MipModel):
    d = model.dense_arrays()
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(d.a, d.senses, d.rhs):
        if sense is RowSense.LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense is RowSense.GE:
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    return d, (np.array(a_ub) if a_ub else None, np.array(b_ub) if b_ub else None,
               np.array(a_eq) if a_eq else None, np.array(b_eq) if b_eq else None)


def enumerate_mip(model: MipModel) -> EnumResult:
    """Exact reference optimum by trying every binary pattern, each reduced to
    a pure LP handed to scipy (HiGHS). Exponential on purpose; guarded."""
    d, (a_ub, b_ub, a_eq, b_eq) = _scipy_form(model)
    bins = d.binary_ids
    if len(bins) > MAX_ENUM_BINARIES:
        raise OracleGuardError(
            f"{len(bins)} binaries exceed the {MAX_ENUM_BINARIES}-binary enumeration guard"
        )
    sign = -1.0 if d.maximize else 1.0
    best_val = math.inf
    best_x: np.ndarray | None = None
    any_unbounded = False
    tried = 0
    for pattern in itertools.product((0.0, 1.0), repeat=len(bins)):
        tried += 1
        lo = d.lo.copy()
        hi = d.hi.copy()
        for vid, v in zip(bins, pattern):
            lo[vid] = hi[vid] = v
        bounds = [(None if not math.isfinite(l) else l, None if not math.isfinite(h) else h)
                  for l, h in zip(lo, hi)]
        # presolve off: HiGHS presolve labels some unbounded instances infeasible
        res = linprog(sign * d.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs", options={"presolve": False})
        if res.status == 3:
            any_unbounded = True
        elif res.success and res.fun < best_val - 0.0:
            best_val = res.fun
            best_x = res.x
    if any_unbounded:
        return EnumResult("unbounded", -math.inf if not d.maximize else math.inf,
                          None, tried)
    if best_x is None:
        return EnumResult("infeasible", math.inf if not d.maximize else -math.inf,
                          None, tried)
    obj = sign * best_val
    return EnumResult("optimal", float(obj), {i: float(v) for i, v in enumerate(best_x)},
                      tried)


# -- exhaustive grid reference for resilience ----------------------------------


@dataclass
class GridPhiResult:
    phi: float
    resolution: float          # |phi - phi_true| can reach dim * step
    anchor: np.ndarray | None
    dominated: np.ndarray | None
    strong_points: int
    dominated_points: int


def batch_scores(net: Network, points: np.ndarray) -> np.ndarray:
    """Pre-softmax class scores for a batch of inputs (rows)."""
    x = np.asarray(points, dtype=np.float64)
    for layer in net.layers:
        if layer.kind is LayerKind.SOFTMAX:
            break
        if layer.kind is LayerKind.MAX_POOL:
            x = np.stack([x[:, [i - 1 for i in g]].max(axis=1) for g in layer.pool_groups],
                         axis=1)
            continue
        im = layer.weights[0] + x @ layer.weights[1:]
        if layer.kind is LayerKind.RELU_DENSE:
            x = np.maximum(im, 0.0)
        elif layer.kind is LayerKind.ATAN_DENSE:
            x = np.arctan(im)
        else:
            x = im
    return x


def _input_grid(net: Network, step: float) -> np.ndarray:
    axes = []
    total = 1
    for lo, hi in net.input_bounds:
        n = max(2, int(round((hi - lo) / step)) + 1)
        axes.append(np.linspace(lo, hi, n))
        total *= n
        if total > MAX_GRID_POINTS:
            raise OracleGuardError(f"grid would exceed {MAX_GRID_POINTS} points")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_phi(net: Network, m: int, alpha: float = 1.0, k: int = 1,
             step: float = 0.05) -> GridPhiResult:
    """Exhaustive-grid reference for the maximum-perturbation bound: the least
    1-norm distance from any grid point strongly classified as m to any grid
    point where at least k other classes reach class m's score. The answer is
    within dim * step of the continuous optimum for these piecewise-smooth
    nets whenever the optimum's witnesses are interior; the returned
    resolution records that radius."""
    if net.input_dim > MAX_GRID_DIM:
        raise OracleGuardError(f"grid reference handles at most {MAX_GRID_DIM} inputs")
    pts = _input_grid(net, step)
    scores = batch_scores(net, pts)
    m0 = m - 1
    others = np.delete(scores, m0, axis=1)
    s_m = scores[:, m0]
    strong = np.all(s_m[:, None] >= others + math.log(alpha), axis=1)
    dominated = (others >= s_m[:, None]).sum(axis=1) >= k
    a_pts = pts[strong]
    p_pts = pts[dominated]
    res_radius = net.input_dim * step
    if a_pts.shape[0] == 0 or p_pts.shape[0] == 0:
        return GridPhiResult(math.inf, res_radius, None, None,
                             int(a_pts.shape[0]), int(p_pts.shape[0]))
    best = math.inf
    best_pair = (0, 0)
    chunk = max(1, int(2_000_000 // max(1, p_pts.shape[0])))
    for start in range(0, a_pts.shape[0], chunk):
        block = a_pts[start:start + chunk]
        dist = np.abs(block[:, None, :] - p_pts[None, :, :]).sum(axis=2)
        idx = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[idx] < best:
            best = float(dist[idx])
            best_pair = (start + int(idx[0]), int(idx[1]))
    return GridPhiResult(best, res_radius, a_pts[best_pair[0]], p_pts[best_pair[1]],
                         int(a_pts.shape[0]), int(p_pts.shape[0]))


def grid_max_alpha(net: Network, m: int, step: float = 0.05) -> float:
    """Grid reference for the largest dominance ratio class m attains."""
    if net.input_dim > MAX_GRID_DIM:
        raise OracleGuardError(f"grid reference handles at most {MAX_GRID_DIM} inputs")
    pts = _input_grid(net, step)
    scores = batch_scores(net, pts)
    m0 = m - 1
    margin = scores[:, m0] - np.delete(scores, m0, axis=1).max(axis=1)
    return float(np.exp(margin.max()))


# -- trace-feasibility consistency ---------------------------------------------


@dataclass
class ConsistencyReport:
    checked: int
    failures: list[tuple[int, list[str]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def trace_violations(model: MipModel, copy, net: Network, trace: ForwardTrace,
                     tol: float = 1e-7) -> list[str]:
    """Feasibility violations of the exact forward trace inside an encoded
    body (inputs included). Empty list = the encoding admits the true run."""
    asg: Assignment = {}
    encoder.copy_assignment(asg, copy, net, trace)
    return feasibility_violations(model, asg, tol)


def encoding_consistency(net: Network, samples: np.ndarray | int = 64,
                         rng: np.random.Generator | None = None,
                         bounds: IntervalBounds | None = None,
                         tol: float = 1e-7) -> ConsistencyReport:
    """Check that sampled exact forward traces satisfy the network encoding.

    samples may be an explicit (n, d) array of inputs or a count drawn
    uniformly from the input domain.
    """
    if bounds is None:
        bounds = propagate_intervals(net)
    if isinstance(samples, (int, np.integer)):
        rng = rng or np.random.default_rng(42)
        lo = net.input_bounds[:, 0]
        hi = net.input_bounds[:, 1]
        pts = rng.uniform(lo, hi, size=(int(samples), net.input_dim))
    else:
        pts = np.asarray(samples, dtype=np.float64)
    model, copy = encoder.encode_network_eval(net, bounds)
    report = ConsistencyReport(checked=pts.shape[0])
    for idx, point in enumerate(pts):
        trace = forward(net, point)
        bad = trace_violations(model, copy, net, trace, tol)
        if bad:
            report.failures.append((idx, bad))
    return report

