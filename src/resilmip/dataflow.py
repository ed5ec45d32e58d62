"""Interval analysis over a network: per-node value bounds and activation
phases, and two tighteners: back-substitution through linear ReLU
relaxations (linear_bounds, one pass, no LP), and an exact MIP-backed bound
tightener (lookback) that owns its probe settings (LOOKBACK_NODE_LIMIT
nodes, MIP gap 0) and reads only a caller's time limit. The encoder sizes
every gadget from these bounds.

Bounds are sound: every exact forward trace of an input in the propagated box
(the input domain, or a query's budget box inside it) lies inside them.
linear_bounds refines every layer from the input box of the bounds it is
given, so a box met into that input box narrows every layer after it.
Pre-activation bounds of a dense node sum the per-predecessor extremes
min/max(w*lo, w*hi); the bias row contributes exactly its weight.
Back-substituted bounds are rounded outward, so they hold against the same
computation done exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import IntEnum
from typing import IO

import numpy as np

from .mipmodel import ObjSense
from .network import DENSE_KINDS, LayerKind, Network
from .simplex import gamma
from .solver import SolveConfig, SolveStatus, query_deadline, time_left, worker_pool

# Slack when adopting MIP-tightened bounds, guarding against LP round-off
# pushing a bound past the true extreme.
ADOPT_SLACK = 1e-7
# Node budget of each window MIP of lookback tightening.
LOOKBACK_NODE_LIMIT = 10_000


class Phase(IntEnum):
    """ReLU activation phase decided from pre-activation bounds."""

    ALWAYS_INACTIVE = 0
    ALWAYS_ACTIVE = 1
    UNDECIDED = 2


@dataclass
class LayerBounds:
    """Bounds for one layer: outputs always, pre-activations for dense kinds."""

    lo: np.ndarray
    hi: np.ndarray
    im_lo: np.ndarray | None = None
    im_hi: np.ndarray | None = None
    phase: np.ndarray | None = None  # Phase codes, relu_dense layers only


@dataclass
class IntervalBounds:
    """Input box plus one LayerBounds per layer, aligned with net.layers."""

    input_lo: np.ndarray
    input_hi: np.ndarray
    layers: list[LayerBounds] = field(default_factory=list)

    def x_lo(self, pos: int) -> np.ndarray:
        """Output lower bounds of layer position pos (0 = the input box)."""
        return self.input_lo if pos == 0 else self.layers[pos - 1].lo

    def x_hi(self, pos: int) -> np.ndarray:
        return self.input_hi if pos == 0 else self.layers[pos - 1].hi


def _affine_bounds(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pos = np.maximum(w[1:], 0.0)
    neg = np.minimum(w[1:], 0.0)
    im_lo = w[0] + lo @ pos + hi @ neg
    im_hi = w[0] + hi @ pos + lo @ neg
    return im_lo, im_hi


def relu_phases(im_lo: np.ndarray, im_hi: np.ndarray) -> np.ndarray:
    phase = np.full(im_lo.shape, Phase.UNDECIDED, dtype=np.int8)
    phase[im_hi <= 0.0] = Phase.ALWAYS_INACTIVE
    phase[im_lo >= 0.0] = Phase.ALWAYS_ACTIVE  # wins on the degenerate [0, 0]
    return phase


def _refresh_outputs(spec, lb: LayerBounds) -> None:
    """Recompute a dense layer's output bounds and phases from its im bounds."""
    if spec.kind is LayerKind.RELU_DENSE:
        lb.phase = relu_phases(lb.im_lo, lb.im_hi)
        lb.lo = np.maximum(0.0, lb.im_lo)
        lb.hi = np.maximum(0.0, lb.im_hi)
    elif spec.kind is LayerKind.ATAN_DENSE:
        lb.lo = np.arctan(lb.im_lo)
        lb.hi = np.arctan(lb.im_hi)
    else:
        lb.lo = lb.im_lo.copy()
        lb.hi = lb.im_hi.copy()


def _layer_bounds(spec, lo: np.ndarray, hi: np.ndarray) -> LayerBounds:
    if spec.kind in DENSE_KINDS:
        im_lo, im_hi = _affine_bounds(spec.weights, lo, hi)
        out = LayerBounds(lo=im_lo, hi=im_hi, im_lo=im_lo, im_hi=im_hi)
        _refresh_outputs(spec, out)
        return out
    if spec.kind is LayerKind.MAX_POOL:
        g_lo = np.array([max(lo[i - 1] for i in g) for g in spec.pool_groups])
        g_hi = np.array([max(hi[i - 1] for i in g) for g in spec.pool_groups])
        return LayerBounds(lo=g_lo, hi=g_hi)
    # softmax outputs sit in [0, 1]; these bounds are never encoded
    n = lo.shape[0]
    return LayerBounds(lo=np.zeros(n), hi=np.ones(n))


def propagate_intervals(net: Network,
                        box: tuple[np.ndarray, np.ndarray] | None = None) -> IntervalBounds:
    """Push an input box (lo, hi) through every layer: by default the
    network's input domain, else a box inside it, such as a query's budget
    box, whose bounds then enclose every trace from that box only."""
    lo, hi = box if box is not None else (net.input_bounds[:, 0], net.input_bounds[:, 1])
    bounds = IntervalBounds(
        input_lo=np.array(lo, dtype=np.float64),
        input_hi=np.array(hi, dtype=np.float64),
    )
    lo, hi = bounds.input_lo, bounds.input_hi
    for spec in net.layers:
        lb = _layer_bounds(spec, lo, hi)
        bounds.layers.append(lb)
        lo, hi = lb.lo, lb.hi
    return bounds


def meet(lo1, hi1, lo2, hi2):
    """The intersection of intervals [lo1, hi1] and [lo2, hi2], elementwise."""
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    return np.minimum(lo, hi), hi  # guard numeric crossings


def _relaxation(w: np.ndarray, lb: LayerBounds) -> tuple[np.ndarray, ...]:
    """A ReLU layer with weights w, relaxed over its refined bounds lb, as
    maps (P, N, M) of affine forms, each a column whose row 0 is the
    constant: a form lam in the layer's outputs y is at least the form
    P @ max(lam, 0) + N @ min(lam, 0) in its inputs x, where z = w'[1; x]
    lies in [l, u] and y = max(0, z). The lines y_j >= a_j z_j and
    y_j <= s_j z_j + t_j hold there: a stable node is exact; an undecided
    one (l < 0 < u) takes the upper line u (z - l) / (u - l) and a = 1 if
    u > -l, else 0. M bounds |P| and |N| entrywise."""
    l, u = lb.im_lo, lb.im_hi
    up, ln = np.maximum(u, 0.0), np.minimum(l, 0.0)
    d = up - ln
    s = up / (d + (d == 0.0))  # 0 on the degenerate [0, 0], where z = 0
    t = -ln * s
    a = u + l > 0.0  # the sign of a float sum is exact
    p, n, m = (np.zeros((w.shape[0], w.shape[1] + 1)) for _ in range(3))
    p[0, 0] = n[0, 0] = m[0, 0] = 1.0  # the constant passes through
    p[:, 1:] = w * a
    n[:, 1:] = w * s
    m[:, 1:] = np.abs(w)
    n[0, 1:] += t
    m[0, 1:] += t
    return p, n, m


def _back_substitute(net: Network, out: IntervalBounds, relax: dict, pos: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on layer pos's pre-activation z from its weights
    back-substituted through the ReLU layers directly before it (`relax`
    holds their `_relaxation`), down to the box in `out` where that chain
    starts. The lower bounds of z and of -z are found together, as the
    columns of one form.

    `mag` bounds the magnitude of every path's term summed into the forms,
    so the float result is off from the same computation done exactly by
    at most gamma_K times the terms' magnitudes over the box. K counts the
    roundings along a path (a sum of k terms, k), and is doubled per layer
    of the chain: where a coefficient's float sign differs from its exact
    sign, the two pick different lines, a change bounded by the same error."""
    w = net.layers[pos - 1].weights
    lam = np.concatenate((w, -w), axis=1)
    mag = np.abs(lam)
    terms, r = 0, pos - 1
    while True:  # layer r is a ReLU layer: its outputs by lines in its inputs
        p, n, m = relax[r]
        terms += lam.shape[0] + 8
        neg = np.minimum(lam, 0.0)
        lam = p @ (lam - neg) + n @ neg
        mag = m @ mag
        r -= 1
        if r == 0 or net.layers[r - 1].kind is not LayerKind.RELU_DENSE:
            break
    lo, hi = out.x_lo(r), out.x_hi(r)  # the forms' minima over this box
    neg = np.minimum(lam[1:], 0.0)
    low = lam[0] + lo @ (lam[1:] - neg) + hi @ neg
    size = np.concatenate(([1.0], np.maximum(hi, -lo)))  # max |x| over the box
    err = gamma(2 * (pos - r + 1) * (terms + lo.shape[0] + 4)) * (size @ mag)
    low = np.nextafter(low - err, -np.inf)
    low = np.where(low < np.inf, low, -np.inf)  # an overflow or NaN proves nothing
    k = w.shape[1]
    return low[:k], -low[k:]


def linear_bounds(net: Network, bounds: IntervalBounds) -> IntervalBounds:
    """Tighten `bounds` by back-substitution through linear ReLU relaxations
    (DeepPoly: Singh et al., POPL 2019), in one pass over the layers and
    with no LP.

    Each layer is refined by one rule. Its bounds become the meet of the
    given bounds with interval arithmetic over the refined layer before it
    (over the input box of `bounds`, for the first layer) and, for a dense
    layer after a ReLU layer, with its weights back-substituted through the
    ReLU layers directly before it (`_relaxation`) down to the box where
    that chain starts: the input box, or the intervals of an arc-tangent,
    max-pool or linear layer, which end a chain. Phases and outputs are
    refreshed from the result. Every back-substituted bound is widened by
    gamma_K times its chain's magnitudes and moved one ulp outward, as in
    `simplex.certified_bound`, so it encloses the same computation done
    exactly. Softmax outputs lie in [0, 1] and are never encoded: they keep
    the given bounds. Where nothing tightens, the given bounds are kept bit
    for bit.
    """
    out = IntervalBounds(bounds.input_lo, bounds.input_hi)
    relax: dict[int, tuple[np.ndarray, ...]] = {}
    for pos, (spec, layer) in enumerate(zip(net.layers, bounds.layers), start=1):
        lo, hi = out.x_lo(pos - 1), out.x_hi(pos - 1)
        if spec.kind is LayerKind.MAX_POOL:
            fresh = _layer_bounds(spec, lo, hi)
            layer = LayerBounds(*meet(layer.lo, layer.hi, fresh.lo, fresh.hi))
        elif spec.kind in DENSE_KINDS:
            im_lo, im_hi = meet(layer.im_lo, layer.im_hi,
                                *_affine_bounds(spec.weights, lo, hi))
            if pos - 1 in relax:  # layer pos - 1 is a ReLU layer
                im_lo, im_hi = meet(im_lo, im_hi, *_back_substitute(net, out, relax, pos))
            layer = LayerBounds(lo=im_lo, hi=im_hi, im_lo=im_lo, im_hi=im_hi)
            _refresh_outputs(spec, layer)
        if spec.kind is LayerKind.RELU_DENSE:
            relax[pos] = _relaxation(spec.weights, layer)
        out.layers.append(layer)
    return out


def _probe(job) -> float | None:
    """The proven extreme of one pre-activation over its layer's window, or
    None when the solve stops short of optimality or the deadline (a
    time.monotonic() reading, or None) has passed before it starts."""
    from .solver import solve  # at call time, so a patched solve is used

    window, input_ids, repair, w_col, maximize, start, config, deadline = job
    config = time_left(config, deadline)
    if config.time_limit == 0.0:  # the deadline has passed
        return None
    model = window.with_objective(zip(input_ids, w_col[1:]),
                                  ObjSense.MAXIMIZE if maximize else ObjSense.MINIMIZE)
    res = solve(model, config, start=start, repair=repair)
    if res.status is not SolveStatus.OPTIMAL:
        return None
    # the dual bound, not the incumbent, which may fall short of the true
    # extreme by up to the MIP gap
    return float(w_col[0]) + res.dual_bound


def tighten_lookback(
    net: Network,
    bounds: IntervalBounds,
    depth: int = 2,
    config: SolveConfig | None = None,
    workers: int = 1,
) -> IntervalBounds:
    """Tighten pre-activation intervals with per-node window MIPs.

    For each dense node at layer position l >= 2, maximizes and minimizes its
    pre-activation over the layer's window (`encoder.encode_window`): the
    `depth - 1` preceding layers encoded exactly, everything older boxed at
    the current bounds. Each window is encoded, and its LP solved under a
    zero objective, once; every probe's root LP starts from that feasible
    basis, and the window's forward-pass repair (`encoder.ForwardRepair`)
    completes the root LP's box point into an exact incumbent. A probe's
    proven bound is adopted only when it is Optimal; budget exhaustion keeps
    the old bound. Results are always pointwise contained in the inputs.
    Every probe stops at LOOKBACK_NODE_LIMIT nodes and is solved at MIP gap
    0, since an early incumbent would otherwise let a probe stop up to one
    gap short of the window extreme. Of `config` only the time limit is
    read, and it bounds the whole call: one deadline is fixed on entry,
    each probe gets the time left, and layers and probes reached after it
    keep their bounds. `workers` processes run a layer's probes side by
    side, with the same results as one (up to that deadline).
    """
    from . import encoder, solver  # at call time: encoder imports this module
    if depth < 1:
        raise ValueError("lookback depth must be >= 1")
    cfg = SolveConfig(node_limit=LOOKBACK_NODE_LIMIT, mip_gap=0.0)
    deadline = None if config is None else query_deadline(config)

    work = copy.deepcopy(bounds)
    with worker_pool(workers) as pmap:
        for pos, spec in enumerate(net.layers, start=1):
            lb = work.layers[pos - 1]
            if spec.kind not in DENSE_KINDS:
                if spec.kind is LayerKind.MAX_POOL:
                    # no pre-activation to probe; refresh from tightened predecessors
                    fresh = _layer_bounds(spec, work.x_lo(pos - 1), work.x_hi(pos - 1))
                    lb.lo, lb.hi = meet(lb.lo, lb.hi, fresh.lo, fresh.hi)
                continue
            if pos == 1 or time_left(cfg, deadline).time_limit == 0.0:
                continue  # at pos 1 the window is the input box: plain bounds

            window, input_ids, repair = encoder.encode_window(net, work, pos, depth)
            start = solver.solve_lp(window).basis  # feasible, or None
            n_nodes = lb.im_lo.shape[0]
            jobs = [(window, input_ids, repair, spec.weights[:, node], sense_max,
                     start, cfg, deadline)
                    for node in range(n_nodes) for sense_max in (False, True)]
            extremes = pmap(_probe, jobs)
            for node in range(n_nodes):
                new_lo, new_hi = lb.im_lo[node], lb.im_hi[node]
                lo_ext, hi_ext = extremes[2 * node], extremes[2 * node + 1]
                if lo_ext is not None:
                    new_lo = max(new_lo, lo_ext - ADOPT_SLACK * max(1.0, abs(lo_ext)))
                if hi_ext is not None:
                    new_hi = min(new_hi, hi_ext + ADOPT_SLACK * max(1.0, abs(hi_ext)))
                if new_lo > new_hi:  # numeric crossing: keep the sound midpoint
                    new_lo = new_hi = 0.5 * (new_lo + new_hi)
                lb.im_lo[node] = new_lo
                lb.im_hi[node] = new_hi
            _refresh_outputs(spec, lb)
    return work


def write_bounds_dump(net: Network, bounds: IntervalBounds, out: IO[str]) -> None:
    """Write one line per node: layer, node, kind, im/x bounds, phase."""
    out.write("# layer\tnode\tkind\tim_lo\tim_hi\tlo\thi\tphase\n")
    fmt = lambda v: "-" if v is None else f"{v:.6g}"
    for i in range(net.input_dim):
        out.write(
            f"0\t{i + 1}\tinput\t-\t-\t{fmt(bounds.input_lo[i])}\t"
            f"{fmt(bounds.input_hi[i])}\t-\n"
        )
    for pos, spec in enumerate(net.layers, start=1):
        lb = bounds.layers[pos - 1]
        for i in range(lb.lo.shape[0]):
            im_lo = fmt(lb.im_lo[i]) if lb.im_lo is not None else "-"
            im_hi = fmt(lb.im_hi[i]) if lb.im_hi is not None else "-"
            phase = Phase(lb.phase[i]).name.lower() if lb.phase is not None else "-"
            out.write(
                f"{pos}\t{i + 1}\t{spec.kind.value}\t{im_lo}\t{im_hi}\t"
                f"{fmt(lb.lo[i])}\t{fmt(lb.hi[i])}\t{phase}\n"
            )
