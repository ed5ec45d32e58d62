"""Resilience bounds and robustness verdicts on top of the branch-and-bound core.

The headline quantity is the maximum-perturbation bound phi(m, alpha, k): the
smallest 1-norm input change that can carry some point strongly classified as
class m (score ratio >= alpha against every rival) to a point where at least k
rivals match or beat class m. Larger phi means a sturdier class. xi is the
worst phi over classes that can be strongly classified at all; local
robustness asks whether a specific anchor survives every perturbation within
a budget; the ratio bound reports the largest alpha any input attains.

Every driver encodes its queries with encoder.encode_query, over the
bounds query_bounds picks. Perturbation searches run in three steps: find
one strongly-classified anchor (a STRONG_ANCHOR query), compute the
cheapest class-flipping perturbation from that fixed anchor, then solve the
full two-copy model warm-started with the union of both solutions, matched
by variable name. Both presolves only speed up the final exact search; they
never change its answer.

A driver's time limit bounds the whole query: one deadline is fixed when the
driver is entered, and lookback tightening, each stage and each of xi's
per-class queries (in whichever worker process) get the time left.

Arc-tangent activations are encoded by a sound outer envelope, so for nets
containing them phi/xi are conservative (possibly lower than the true bound),
ROBUST verdicts remain trustworthy, and apparent violations are re-validated
against the exact forward pass before being reported as real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import encoder
from .dataflow import IntervalBounds, linear_bounds, meet, propagate_intervals, tighten_lookback
from .encoder import QueryKind, QuerySpec
from .mipmodel import Assignment, MipModel
from .network import Network, class_scores, competitor_count, forward, strongly_classifies
from .solver import (SolveConfig, SolveResult, SolveStatus, query_deadline, solve,
                     time_left, worker_pool)

_WITNESS_TOL = 1e-7


class Verdict(Enum):
    ROBUST = "ROBUST"
    VIOLATED = "VIOLATED"
    UNKNOWN = "UNKNOWN"


@dataclass
class PhiResult:
    """Outcome of one maximum-perturbation query.

    phi is the incumbent objective (an upper bound on the exact encoded
    optimum unless status is OPTIMAL, in which case it is the optimum);
    lower_bound is the solver's proven dual bound. phi = inf with status
    INFEASIBLE means no admissible anchor/perturbation pair exists, so the
    class is vacuously unbreakable at these parameters.
    """

    m: int
    alpha: float
    k: int
    phi: float
    status: SolveStatus
    lower_bound: float
    anchor: np.ndarray | None = None
    eps: np.ndarray | None = None
    perturbed: np.ndarray | None = None
    anchor_phi: float | None = None          # the step-2 fixed-anchor optimum
    # the last stage's solve: the full stage's, or that of the stage whose
    # INFEASIBLE proof ended the query
    solve: SolveResult | None = None
    # True when the witness pair re-validates through the exact forward pass
    # (anchor strongly classified, perturbed point k-dominated, both within
    # 1e-6); False signals the relaxed-envelope slack of arc-tangent nodes;
    # None when there is no witness to check.
    witness_exact: bool | None = None

    @property
    def exact(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


@dataclass
class XiResult:
    xi: float
    status: SolveStatus
    per_class: dict[int, PhiResult] = field(default_factory=dict)
    weakest_class: int | None = None
    # classes proven never strongly classified (phi = inf, status INFEASIBLE)
    excluded: list[int] = field(default_factory=list)


@dataclass
class RobustnessResult:
    verdict: Verdict
    m: int
    delta: float
    k: int
    eps: np.ndarray | None = None
    perturbed: np.ndarray | None = None
    note: str = ""
    solve: SolveResult | None = None


@dataclass
class MaxAlphaResult:
    alpha_max: float
    t_star: float
    # True when an incumbent proves alpha_max >= 1 (the class can lead at
    # all), False when the dual bound proves alpha < 1 everywhere, None when
    # the search stopped before settling either way
    attainable: bool | None
    status: SolveStatus
    upper_bound: float         # exp of the dual bound
    anchor: np.ndarray | None = None
    solve: SolveResult | None = None


def prepare_bounds(net: Network, bounds: IntervalBounds | None,
                   lookback: int | None, config: SolveConfig | None) -> IntervalBounds:
    """The given bounds or the plain intervals, tightened once by
    back-substitution through linear ReLU relaxations (linear_bounds), then
    by lookback windows of depth `lookback` if set, under `config`'s time
    limit. Every driver, export and the bounds command take their bounds
    from here."""
    if bounds is None:
        bounds = propagate_intervals(net)
    bounds = linear_bounds(net, bounds)
    # depth 1 boxes each node's predecessors, which adds nothing to the
    # interval bounds over the boxes linear_bounds refined; tighten_lookback
    # rejects depths below 1
    if lookback is not None and lookback != 1:
        workers = config.workers if config is not None else 1
        bounds = tighten_lookback(net, bounds, depth=lookback, config=config,
                                  workers=workers)
    return bounds


def query_bounds(net: Network, spec: QuerySpec, bounds: IntervalBounds | None,
                 lookback: int | None, config: SolveConfig | None) -> IntervalBounds:
    """The bounds `spec` is encoded over, once validate_query accepts it.
    A LOCAL_ROBUSTNESS query admits only points of its budget box
    B = [max(lo, a - delta), min(hi, a + delta)] around its anchor a (in
    validate_query's normal form), so it takes the intervals propagated
    from B, or, given `bounds`, those bounds with B met into their input
    box. prepare_bounds then refines every layer of them, or of any other
    query's bounds, from that input box (linear_bounds), and by lookback."""
    spec = encoder.validate_query(net, spec)
    if spec.kind is QueryKind.LOCAL_ROBUSTNESS:
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        box = (np.maximum(lo, spec.a - spec.delta), np.minimum(hi, spec.a + spec.delta))
        if bounds is None:
            bounds = propagate_intervals(net, box)
        else:
            bounds = IntervalBounds(*meet(bounds.input_lo, bounds.input_hi, *box),
                                    bounds.layers)
    return prepare_bounds(net, bounds, lookback, config)


def _vals(assignment, ids) -> np.ndarray:
    return np.array([assignment[i] for i in ids], dtype=np.float64)


def _witness_holds(net: Network, anchor: np.ndarray, perturbed: np.ndarray,
                   m: int, alpha: float, k: int, tol: float = 1e-6) -> bool:
    """Re-validate a perturbation witness with exact forward passes: the
    anchor's log-score margin must reach ln(alpha) and the perturbed point
    must have k true competitors, both within tol."""
    s = class_scores(net, anchor)
    margin = float(s[m - 1] - np.delete(s, m - 1).max())
    return (margin >= math.log(alpha) - tol
            and competitor_count(net, perturbed, m, tol=tol) >= k)


def _by_name(model: MipModel, assignment: Assignment) -> dict[str, float]:
    return {v.name: assignment[i] for i, v in enumerate(model.variables)}


def find_strong_anchor(net: Network, m: int, alpha: float,
                       bounds: IntervalBounds, config: SolveConfig | None = None
                       ) -> tuple[np.ndarray | None, SolveResult, dict[str, float] | None]:
    """Stage 1 of compute_phi: (anchor, solve result, solution). The anchor
    is an in-domain input the encoding certifies as strongly classified, None
    when the search found none (status INFEASIBLE: the strong region is
    empty). The solution is the solve's assignment by variable name (the
    inputs a<i> and the "b" body copy), None with the anchor."""
    enc = encoder.encode_query(net, bounds,
                               QuerySpec(QueryKind.STRONG_ANCHOR, m=m, alpha=alpha))
    res = solve(enc.model, config or SolveConfig())
    if res.assignment is not None:
        return (_vals(res.assignment, enc.input_ids), res,
                _by_name(enc.model, res.assignment))
    return None, res, None


def compute_phi(net: Network, m: int, alpha: float = 1.0, k: int = 1, *,
                a_ini: np.ndarray | None = None,
                config: SolveConfig | None = None,
                bounds: IntervalBounds | None = None,
                lookback: int | None = None) -> PhiResult:
    """Maximum-perturbation bound for class m at ratio alpha and overlap k.

    The full stage starts from stage 1's solution (the anchor inputs and the
    "b" copy; for a_ini, its exact trace) and stage 2's (the perturbation,
    the "q" copy and the class selectors), matched by variable name."""
    cfg = config or SolveConfig()
    deadline = query_deadline(cfg)
    spec = QuerySpec(QueryKind.MAX_PERTURBATION, m=m, alpha=alpha, k=k, a=a_ini)
    bounds = query_bounds(net, spec, bounds, lookback, time_left(cfg, deadline))
    return _phi(net, m, alpha, k, a_ini=a_ini, cfg=cfg, bounds=bounds, deadline=deadline)


def _phi(net: Network, m: int, alpha: float, k: int, *, a_ini: np.ndarray | None,
         cfg: SolveConfig, bounds: IntervalBounds, deadline: float | None) -> PhiResult:
    """compute_phi of a validated query, over the bounds query_bounds gave
    it, under a deadline fixed by its caller."""
    spec = QuerySpec(QueryKind.MAX_PERTURBATION, m=m, alpha=alpha, k=k, a=a_ini)

    anchor: np.ndarray | None = None
    anchor_sol: dict[str, float] | None = None
    if a_ini is not None:
        anchor = np.asarray(a_ini, dtype=np.float64).reshape(-1)
        if not strongly_classifies(net, anchor, m, alpha):
            raise ValueError(
                f"given anchor is not strongly classified as class {m} at alpha={alpha}"
            )
    else:
        anchor, res1, anchor_sol = find_strong_anchor(
            net, m, alpha, bounds, time_left(cfg, deadline))
        if anchor is None and res1.status is SolveStatus.INFEASIBLE:
            # no input is strongly classified: the minimum ranges over an
            # empty set and the class is vacuously unbreakable
            return PhiResult(m, alpha, k, math.inf, SolveStatus.INFEASIBLE,
                             math.inf, solve=res1)
    if anchor is not None:
        # LP round-off can leave a stage-1 anchor up to the simplex's primal
        # tolerance outside the box, more than validate_query admits
        anchor = np.clip(anchor, net.input_bounds[:, 0], net.input_bounds[:, 1])

    anchor_phi: float | None = None
    fixed_sol: dict[str, float] | None = None
    if anchor is not None:
        enc2 = encoder.encode_query(net, bounds, replace(spec, a=anchor))
        res2 = solve(enc2.model, time_left(cfg, deadline))
        if res2.status is SolveStatus.INFEASIBLE:
            # the dominance region is empty regardless of the anchor
            return PhiResult(m, alpha, k, math.inf, SolveStatus.INFEASIBLE,
                             math.inf, solve=res2)
        if res2.assignment is not None:
            anchor_phi = float(res2.objective)
            fixed_sol = _by_name(enc2.model, res2.assignment)

    enc = encoder.encode_query(net, bounds, replace(spec, a=None))
    if fixed_sol is not None:
        start: Assignment = {}
        if anchor_sol is None:  # a_ini: its exact trace fills the "b" copy
            encoder.copy_assignment(start, enc.base, net, forward(net, anchor))
        ids = {v.name: i for i, v in enumerate(enc.model.variables)}
        for name, val in {**(anchor_sol or {}), **fixed_sol}.items():
            start[ids[name]] = val
        start.update(zip(enc.input_ids, anchor))  # the anchor stage 2 fixed
        enc.model.set_warm_start(start)

    res = solve(enc.model, time_left(cfg, deadline))
    out = PhiResult(m, alpha, k, math.inf, res.status, res.dual_bound,
                    anchor_phi=anchor_phi, solve=res)
    if res.status is SolveStatus.INFEASIBLE:
        out.lower_bound = math.inf
        return out
    if res.assignment is not None:
        out.phi = float(res.objective)
        out.anchor = _vals(res.assignment, enc.input_ids)
        out.eps = _vals(res.assignment, enc.eps_ids)
        out.perturbed = _vals(res.assignment, enc.pert_input_ids)
        out.witness_exact = _witness_holds(net, out.anchor, out.perturbed,
                                           m, alpha, k)
    return out


def compute_xi(net: Network, alpha: float = 1.0, k: int = 1, *,
               config: SolveConfig | None = None,
               bounds: IntervalBounds | None = None,
               lookback: int | None = None) -> XiResult:
    """Network resilience: the worst phi over all classes. Classes proven
    infeasible (never strongly classified: phi = inf) are excluded and do not
    constrain the minimum; any other class whose phi is not exact sets the
    status, so an unresolved class is never mistaken for an excluded one."""
    cfg = config or SolveConfig()
    deadline = query_deadline(cfg)
    # every class's query shares alpha, k and bounds: check and tighten once
    bounds = query_bounds(net, QuerySpec(QueryKind.MAX_PERTURBATION, m=1,
                                         alpha=alpha, k=k),
                          bounds, lookback, time_left(cfg, deadline))
    classes = range(1, net.num_classes + 1)
    phi_of = functools.partial(_phi, net, alpha=alpha, k=k, a_ini=None, cfg=cfg,
                               bounds=bounds, deadline=deadline)
    with worker_pool(cfg.workers) as pmap:
        per_class = dict(zip(classes, pmap(phi_of, classes)))
    xi = math.inf
    weakest: int | None = None
    excluded: list[int] = []
    status = SolveStatus.OPTIMAL
    for m, r in per_class.items():
        if r.status is SolveStatus.INFEASIBLE:
            excluded.append(m)
            continue
        if r.phi < xi:
            xi = r.phi
            weakest = m
        if not r.exact:
            status = r.status
    return XiResult(xi, status, per_class, weakest, excluded)


def check_local_robustness(net: Network, a: np.ndarray, delta: float, *,
                           m: int | None = None, k: int = 1,
                           config: SolveConfig | None = None,
                           bounds: IntervalBounds | None = None,
                           lookback: int | None = None) -> RobustnessResult:
    """Is class m's verdict at anchor a stable against every perturbation of
    1-norm at most delta? Decided by a feasibility model over the perturbed
    copy, encoded over the bounds of its budget box (query_bounds); an
    infeasible model proves robustness, a feasible point is re-validated
    with the exact forward pass before being called a violation.
    """
    cfg = config or SolveConfig()
    deadline = query_deadline(cfg)
    q = encoder.validate_query(net, QuerySpec(QueryKind.LOCAL_ROBUSTNESS,
                                              m=1 if m is None else m, k=k, a=a,
                                              delta=float(delta)))
    if m is None:  # the top class is in range, so q stays valid
        m = int(np.argmax(class_scores(net, q.a))) + 1
        q = replace(q, m=m)
    bounds = query_bounds(net, q, bounds, lookback, time_left(cfg, deadline))
    enc = encoder.encode_query(net, bounds, q)
    res = solve(enc.model, time_left(cfg, deadline))
    if res.status is SolveStatus.INFEASIBLE:
        return RobustnessResult(Verdict.ROBUST, m, delta, k, solve=res)
    if res.assignment is not None:
        eps = _vals(res.assignment, enc.eps_ids)
        p = np.clip(q.a + eps, net.input_bounds[:, 0], net.input_bounds[:, 1])
        real = (competitor_count(net, p, m, tol=_WITNESS_TOL) >= k
                and float(np.sum(np.abs(eps))) <= delta + _WITNESS_TOL)
        if real:
            return RobustnessResult(Verdict.VIOLATED, m, delta, k, eps=eps,
                                    perturbed=p, solve=res)
        return RobustnessResult(
            Verdict.UNKNOWN, m, delta, k, eps=eps, perturbed=p, solve=res,
            note="model admits a perturbation but the exact forward pass does "
                 "not confirm it (envelope slack)")
    return RobustnessResult(Verdict.UNKNOWN, m, delta, k, solve=res,
                            note=f"search stopped at status {res.status.value}")


def _exp(t: float) -> float:
    """e^t, or inf where it overflows float64 (t above about 709.78)."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def compute_max_alpha(net: Network, m: int, *,
                      config: SolveConfig | None = None,
                      bounds: IntervalBounds | None = None,
                      lookback: int | None = None) -> MaxAlphaResult:
    """Largest dominance ratio alpha at which class m is strongly classified
    anywhere in the domain: maximize the worst log-score margin t and report
    e^t. A proven bound t < 0 means the class never tops every rival
    simultaneously; an incumbent t >= 0 means it does somewhere."""
    cfg = config or SolveConfig()
    deadline = query_deadline(cfg)
    q = QuerySpec(QueryKind.MAX_ALPHA, m=m)
    bounds = query_bounds(net, q, bounds, lookback, time_left(cfg, deadline))
    enc = encoder.encode_query(net, bounds, q)
    res = solve(enc.model, time_left(cfg, deadline), repair=enc.repair)
    t_star = float(res.objective)
    anchor = None
    if res.assignment is not None:
        anchor = _vals(res.assignment, enc.input_ids)
    alpha_max = _exp(t_star) if math.isfinite(t_star) else (0.0 if t_star < 0 else math.inf)
    upper = _exp(res.dual_bound) if math.isfinite(res.dual_bound) else math.inf
    attainable = True if t_star >= 0.0 else (False if res.dual_bound < 0.0 else None)
    return MaxAlphaResult(alpha_max, t_star, attainable, res.status, upper,
                          anchor, res)
