"""Bounded-variable simplex on a dense explicit basis inverse.

This is the LP core under the branch-and-bound solver. It only minimizes:
a caller that maximizes negates its costs and its result. Row i gets a slack
s_i with A x + s = b, the row sense folded into the slack's bounds. Every LP
is solved over a box: the structural variables have finite bounds, each slack
has at least one, and a nonbasic variable rests at a finite bound.
A basis is the basic column of each row plus B^-1, updated by one rank-1
product per pivot. The masks of the nonbasic columns that may increase or
decrease are kept across pivots too: a pivot updates the entering and the
leaving column's. Two algorithms share the basis, and only the dual simplex
reaches a feasible basis or proves that none exists:

* The dual simplex. The leaving row is chosen by dual steepest edge with
  exact weights, the entering column by a two-pass Harris ratio test. It
  stops when the basis is primal feasible, or when a violated row's bound
  cannot be reached over the box of the variables (a Farkas row): the only
  INFEASIBLE claim this module makes.
  A warm solve starts it from a given ``Basis``: a branch-and-bound child
  differs from its parent in one bound, so the parent's optimal basis stays
  dual feasible (a boxed nonbasic variable whose reduced cost has the wrong
  sign is flipped to its other bound) and a few dual pivots restore primal
  feasibility. The objective c'x of a dual feasible basis is a lower bound
  on the optimum that each dual pivot raises, so a warm solve given a cutoff
  (a branch-and-bound incumbent's) stops once c'x reaches it and the
  basis's certified bound confirms that: CUTOFF, the third claim next to an
  optimum and infeasibility, which only the warm dual simplex makes. A cold
  solve (a root LP, or the fallback below) runs it under a zero objective,
  for which every basis is dual feasible, from the slack basis, each slack
  holding its row's residual even outside its bounds, or from a given start
  basis, where a feasible start ends this phase at once; the feasible basis
  this phase claims is always checked on a fresh factorization.
* The primal simplex, which takes a cold solve's first feasible basis to an
  optimum of the real costs. The ratio test caps steps by both the blocking
  basic variable and the entering variable's own opposite bound, and a step
  capped by the latter is a basis-preserving bound flip.

Both start with Dantzig-style choices and switch to the least-index rule
after ``_LEAST_INDEX_AFTER`` consecutive degenerate pivots, which guarantees
termination; under the zero objective every dual pivot is degenerate. A
singular warm start basis, lost dual feasibility, a numerical failure or the
iteration cap falls back to a cold solve, and ``iterations`` counts the
pivots of both attempts.

A claim made on an inverse that rank-1 updates have drifted is certified
rather than recomputed (``certified_bound``, after Neumaier & Shcherbina,
"Safe bounds in linear and mixed-integer linear programming", 2004): the
duals y = c_B B^-1 give a lower bound on the optimum whose every rounding
error is bounded outward, and the leaving row of B^-1 combines the rows into
one that no point of the box satisfies, whatever the current point. Only when
that bound falls short of c'x, or the row's certificate fails, is B^-1
refactorized, x_B recomputed and every reduced cost repriced; iteration
resumes if the claim no longer holds, and a Farkas row that still fails
makes no claim. ``LpResult.bound`` of an optimum is its certified bound. A
warm start refactorizes an inverse that has taken ``_REFACTOR_AFTER``
updates. A cold solve that exhausts its iterations, or whose basis cannot be
carried on, surfaces as an explicit numerical-failure status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .mipmodel import RowSense

INF = math.inf

_TOL_DJ = 1e-9       # reduced-cost threshold for an improving column
_TOL_PIV = 1e-9      # minimum magnitude of a usable pivot element
_TOL_DEG = 1e-10     # step sizes below this count as degenerate
_TOL_HARRIS = 5e-10  # dual infeasibility the Harris ratio test may accept
_TOL_FEAS = 1e-8     # bound violation a basic variable may keep
_MAX_COND = 1e12     # the dual simplex refuses bases conditioned worse
_LEAST_INDEX_AFTER = 50  # degenerate pivots in a row before least-index rule
_REFACTOR_AFTER = 100  # rank-1 updates a warm start inverse may carry
_CERT_REL = 1e-9     # relative shortfall of a certified bound below c'x accepted


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: a float64 sum or dot product of k
    terms is off by at most gamma_k times the sum of their magnitudes, in any
    summation order (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, ch. 3)."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    CUTOFF = "cutoff"  # the optimum is proven to be at least the caller's cutoff
    NUMERICAL = "numerical_failure"


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the columns [A | I] (structurals, then slacks).

    ``basic[i]`` is the column basic in row position i, ``at_upper[j]`` says
    that nonbasic column j rests at its upper bound, and ``inverse``, when
    present, is B^-1 of this basis for the same A after ``updates`` rank-1
    updates since its last factorization.
    """

    basic: np.ndarray
    at_upper: np.ndarray
    inverse: np.ndarray | None = None
    updates: int = 0

    def lean(self) -> Basis:
        """The same basis without its O(m^2) inverse."""
        return replace(self, inverse=None)


@dataclass
class LpResult:
    """``objective`` is c'x at the reported point. ``bound`` is a rigorous
    lower bound on the optimum: the certified bound of an OPTIMAL result
    (``certified_bound``; -inf only when the duals are not finite), inf when
    INFEASIBLE, the certified bound that reached the cutoff when CUTOFF, NaN
    when NUMERICAL. Only an OPTIMAL result has a point and a basis."""

    status: LpStatus
    objective: float
    x: np.ndarray | None
    iterations: int
    basis: Basis | None = None  # the optimal basis, with its inverse
    bound: float = math.nan
    refactorizations: int = 0


@dataclass(frozen=True)
class LpForm:
    """The parts of an LP that a branch-and-bound solve never changes, in the
    simplex's layout: the columns [A | I], the slacks' bounds (each row's
    sense folded in), the costs and the right-hand side.
    Build it once with ``lp_form`` and re-solve under any variable bounds;
    its arrays are read-only, since every solve shares them."""

    full: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray
    cost: np.ndarray
    b: np.ndarray
    abs_a: np.ndarray  # |A| of the structural columns, for error bounds
    abs_b: np.ndarray  # |b|, likewise
    # the range of each row's multiplier for which its slack's term in a
    # certified bound is zero: LE rows y_i <= 0, GE rows y_i >= 0
    y_lo: np.ndarray
    y_hi: np.ndarray


def lp_form(c: np.ndarray, a: np.ndarray, senses: list[RowSense], b: np.ndarray) -> LpForm:
    """Minimize c'x subject to the rows a x (sense) b."""
    m = a.shape[0]
    slack_lo = np.array([-INF if s is RowSense.GE else 0.0 for s in senses])
    slack_hi = np.array([INF if s is RowSense.LE else 0.0 for s in senses])
    arrays = (np.hstack([a, np.eye(m)]), slack_lo, slack_hi,
              np.concatenate([np.asarray(c, dtype=float), np.zeros(m)]),
              np.array(b, dtype=float), np.abs(np.asarray(a, dtype=float)),
              np.abs(np.asarray(b, dtype=float)),
              np.where(np.isinf(slack_lo), 0.0, -INF),
              np.where(np.isinf(slack_hi), 0.0, INF))
    for arr in arrays:
        arr.setflags(write=False)
    return LpForm(*arrays)


def solve_bounded_lp(
    form: LpForm,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    max_iters: int | None = None,
    basis: Basis | None = None,
    start: Basis | None = None,
    cutoff: float = INF,
) -> LpResult:
    """Solve the LP ``form`` under the variable bounds lo <= x <= hi.

    With ``basis`` (typically the optimal basis of an LP that differs only in
    bounds) the dual simplex starts from it; otherwise, or when that fails,
    the solve starts cold: the dual simplex under a zero objective finds a
    feasible basis, and the primal simplex optimizes from there. A cold solve
    begins at ``start`` (typically a feasible basis of an LP that differs only
    in costs, where that phase ends at once), or at the slack basis when
    there is none or it does not fit. Either way INFEASIBLE is claimed only
    by the dual simplex's certified Farkas row. A warm solve stops with
    CUTOFF once the certified bound of its basis reaches ``cutoff``: the
    optimum is then at least the cutoff (inf when infeasible), and the
    result carries that bound with no point; a cold solve ignores the
    cutoff. ``max_iters`` caps the pivots of each attempt, and the result's
    ``iterations`` and ``refactorizations`` count those of both. lo and hi
    must be finite: a ``ValueError`` names the first variable whose bound is
    not.
    """
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"variable {j}: an LP is solved over a box, not [{lo[j]}, {hi[j]}]")
    m = form.full.shape[0]
    if max_iters is None:
        max_iters = 5000 + 200 * (3 * m + lo.shape[0])
    args = (form, lo, hi, max_iters)
    spent = refactors = 0
    if basis is not None:
        lp = _Lp(*args)
        status = lp.warm(basis, cutoff)
        if status is not None:
            return lp.result(status)
        spent, refactors = lp.iters, lp.refactors
    lp = _Lp(*args)
    started = start is not None and lp.begin(start, _REFACTOR_AFTER - 1)
    if start is not None and not started:
        lp = _Lp(*args)  # a start that does not fit leaves the slack basis
    res = lp.result(lp.cold(started))
    res.iterations += spent
    res.refactorizations += refactors
    return res


def basic_point(form: LpForm, lo: np.ndarray, hi: np.ndarray,
                basis: Basis) -> np.ndarray | None:
    """The point of ``basis`` under the bounds lo <= x <= hi, computed on a
    fresh factorization (the basis's own inverse if it has taken no updates);
    None when B is singular, or the point breaks a bound by more than the
    primal tolerance."""
    lp = _Lp(form, lo, hi, 0)
    if not lp.begin(basis, 0, INF):
        return None
    xb = lp.x[lp.basis]
    if np.any(lp.lo[lp.basis] - xb > _TOL_FEAS) or np.any(xb - lp.hi[lp.basis] > _TOL_FEAS):
        return None
    return lp.x[:lp.n].copy()


def certified_bound(form: LpForm, lo: np.ndarray, hi: np.ndarray,
                    y: np.ndarray, cost: np.ndarray) -> float:
    """A rigorous lower bound on min cost'x over the rows of ``form`` under
    the box lo <= x <= hi (structural columns), from any row multipliers y:
    y'b + sum_j min over [lo_j, hi_j] of (cost - A'y)_j x_j.

    y is first projected onto ``form.y_lo`` <= y <= ``form.y_hi``, where
    every slack's term is exactly zero, since slack columns are unit
    vectors. Each reduced cost is widened by gamma_k (|y|'|A| + |cost|) and
    the final sum by gamma_k times its terms' magnitudes, so no rounding can
    lift the result above the true minimum. -inf when y, or the sum, is not
    finite. With cost = 0, a result above 0 proves the rows infeasible over
    the box.
    """
    if not np.isfinite(y).all():
        return -INF
    y = np.minimum(np.maximum(y, form.y_lo), form.y_hi)  # np.clip, bit for bit
    abs_y = np.abs(y)
    g = gamma(2 * (lo.shape[0] + y.shape[0]) + 4)
    d = cost - y @ form.full[:, :lo.shape[0]]
    err = g * (abs_y @ form.abs_a + np.abs(cost))
    d_lo = np.nextafter(d - err, -INF)
    d_hi = np.nextafter(d + err, INF)
    t = np.minimum(np.minimum(d_lo * lo, d_lo * hi),
                   np.minimum(d_hi * lo, d_hi * hi))
    yb = float(y @ form.b)
    total = yb + float(t.sum())
    if not math.isfinite(total):
        return -INF
    err = g * (float(abs_y @ form.abs_b) + abs(yb) + float(np.abs(t).sum()))
    return math.nextafter(total - err, -INF)


class _Lp:
    """Working state of one solve attempt: the columns [A | I], their bounds
    and costs, the current point, the basis, B^-1 and ``movable``'s masks."""

    def __init__(self, form: LpForm, lo, hi, max_iters):
        m, n_full = form.full.shape
        n = n_full - m
        self.n, self.m = n, m
        self.form = form
        self.full = form.full
        self.lo = np.concatenate([lo, form.slack_lo])
        self.hi = np.concatenate([hi, form.slack_hi])
        self.cost = form.cost
        self.b = form.b
        # x, basis, is_basic, up and down: set by load, or by cold at the slack basis
        self.binv = np.empty((0, 0))  # B^-1: set by cold, warm or refactor
        self.outer = np.empty((m, m))  # the rank-1 term of each pivot
        self.max_iters = max_iters
        self.iters = 0
        self.updates = 0  # rank-1 updates of binv since its factorization
        self.refactors = 0
        self.bound: float | None = None  # certified bound of the basis, once known

    # -- basis bookkeeping ---------------------------------------------------

    def refactor(self, max_cond: float = INF) -> bool:
        """Recompute B^-1 and x_B from scratch; False if B is (near) singular."""
        self.refactors += 1
        self.bound = None
        if self.m:
            try:
                binv, b_norm = self.inverse()
            except np.linalg.LinAlgError:
                return False
            # 1-norm condition number; NaN or inf entries fail it too
            if not b_norm * np.abs(binv).sum(axis=0).max() <= max_cond:
                return False
            self.binv = binv
            self.updates = 0
        self.set_basic_values()
        return True

    def inverse(self) -> tuple[np.ndarray, float]:
        """B^-1 and the 1-norm of B, inverting only the block of the
        structural basic columns.

        With slack columns e_t basic for rows T and structural columns S
        basic elsewhere (rows R), B z = r gives z_S = M^-1 r_R with
        M = A[R, S], then z_p = r_t - A[t, S] z_S.
        """
        n, m = self.n, self.m
        basis = self.basis
        unit = basis >= n
        upos = unit.nonzero()[0]
        spos = (~unit).nonzero()[0]
        t = basis[upos] - n
        in_t = np.zeros(m, dtype=bool)
        in_t[t] = True
        binv = np.zeros((m, m))
        binv[upos, t] = 1.0
        b_norm = 1.0
        if spos.size:
            rrows = (~in_t).nonzero()[0]
            a_s = self.full[:, basis[spos]]
            minv = np.linalg.inv(a_s[rrows])
            binv[spos[:, None], rrows] = minv
            binv[upos[:, None], rrows] = -(a_s[t] @ minv)
            b_norm = max(b_norm, float(np.abs(a_s).sum(axis=0).max()))
        return binv, b_norm

    def set_basic_values(self) -> None:
        x = self.x
        x[self.basis] = 0.0
        x[self.basis] = self.binv @ (self.b - self.full @ x)

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        d = cost - (cost[self.basis] @ self.binv) @ self.full
        d[self.basis] = 0.0
        return d

    def movable(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonbasic columns that may increase / decrease from where they rest."""
        nb = ~self.is_basic
        return nb & (self.x < self.hi), nb & (self.x > self.lo)

    def pivot(self, r: int, q: int, w: np.ndarray) -> None:
        """Column q replaces the basic column of row position r, parked on a
        bound by the caller; w = B^-1 a_q, which this overwrites."""
        binv = self.binv
        binv[r] /= w[r]
        w[r] = 0.0
        binv -= np.multiply(w[:, None], binv[r], out=self.outer)
        self.updates += 1
        self.bound = None
        leaving = self.basis[r]
        self.is_basic[leaving] = False
        self.is_basic[q] = True
        self.basis[r] = q
        self.up[q] = self.down[q] = False
        self.up[leaving] = self.x[leaving] < self.hi[leaving]
        self.down[leaving] = self.x[leaving] > self.lo[leaving]

    def make_dual_feasible(self, d: np.ndarray) -> bool:
        """Flip every boxed nonbasic column whose reduced cost has the wrong
        sign to its other bound; False if an unboxed one has."""
        wrong = (self.up & (d < -_TOL_DJ)) | (self.down & (d > _TOL_DJ))
        if not wrong.any():
            return True
        j = wrong.nonzero()[0]
        lo, hi = self.lo[j], self.hi[j]
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return False
        self.x[j] = np.where(self.x[j] == lo, hi, lo)
        self.set_basic_values()
        self.up, self.down = self.movable()
        return True

    def optimum_bound(self) -> float:
        """The certified lower bound on the optimum from the duals
        y = c_B B^-1 of the current basis."""
        if self.bound is None:
            n = self.n
            y = self.cost[self.basis] @ self.binv
            self.bound = certified_bound(self.form, self.lo[:n], self.hi[:n],
                                         y, self.cost[:n])
        return self.bound

    def certifies_optimum(self) -> bool:
        """Whether the certified bound reaches c'x up to ``_CERT_REL``."""
        obj = float(self.cost @ self.x)
        return self.optimum_bound() >= obj - _CERT_REL * max(1.0, abs(obj))

    def certifies_infeasible(self, r: int, to_lower: bool) -> bool:
        """Whether row r of B^-1 proves the LP infeasible over the box,
        whatever the current point: its combination of the rows,
        sum_j (rho' a_j) x_j = rho' b, cannot hold within the bounds."""
        n = self.n
        rho = self.binv[r]
        return certified_bound(self.form, self.lo[:n], self.hi[:n],
                               -rho if to_lower else rho, np.zeros(n)) > 0.0

    def result(self, status: LpStatus) -> LpResult:
        if status is LpStatus.OPTIMAL:
            n = self.n
            x = self.x[:n].copy()
            # a nonbasic column rests on a bound, its upper one if it may only decrease
            basis = Basis(self.basis.copy(), self.down & ~self.up, self.binv, self.updates)
            return LpResult(status, float(self.cost[:n] @ x), x, self.iters, basis,
                            self.optimum_bound(), self.refactors)
        if status is LpStatus.CUTOFF:
            bound = self.optimum_bound()  # cached: no pivot since it reached the cutoff
        else:
            bound = INF if status is LpStatus.INFEASIBLE else math.nan
        return LpResult(status, math.nan, None, self.iters, bound=bound,
                        refactorizations=self.refactors)

    # -- cold start: dual simplex to a feasible basis, then primal -------------

    def cold(self, started: bool) -> LpStatus:
        """Dual simplex to a feasible basis, then primal; from the basis that
        ``begin`` loaded when ``started``, else from the slack basis."""
        n, m = self.n, self.m
        if not started:
            self.basis = n + np.arange(m, dtype=np.int64)
            self.is_basic = np.arange(n + m) >= n
            self.binv = np.eye(m)
            x = self.x = np.empty(n + m)
            x[:n] = self.lo[:n]
            # each slack holds its row's residual even outside its own bounds
            x[n:] = self.b - self.full[:, :n] @ x[:n]
            self.up, self.down = self.movable()
        # under a zero objective every basis is dual feasible, so the dual
        # simplex can drive it to a primal feasible one
        zero = np.zeros(n + m)
        status = self.dual(zero, zero.copy(), fresh=self.updates == 0, certify=False)
        if status is not LpStatus.OPTIMAL:
            return status or LpStatus.NUMERICAL
        status = self.primal()
        if status is not None:
            return status
        # the fresh x_B may have drifted off a bound: the basis is dual
        # feasible, so the dual simplex repairs that
        d = self.reduced_costs(self.cost)
        return self.dual(self.cost, d, fresh=True) or LpStatus.NUMERICAL

    def primal(self):
        """Primal simplex from a primal feasible basis. Returns None once no
        column improves on a fresh factorization, else the failure status."""
        m = self.m
        lo, hi = self.lo, self.hi
        fresh = False
        degen_streak = 0
        while True:
            d = self.reduced_costs(self.cost)
            can_incr = self.up & (d < -_TOL_DJ)
            can_decr = self.down & (d > _TOL_DJ)
            if not (can_incr.any() or can_decr.any()):
                if fresh:
                    return None
                if not self.refactor():
                    return LpStatus.NUMERICAL
                fresh = True
                continue
            if self.iters >= self.max_iters:
                return LpStatus.NUMERICAL
            self.iters += 1
            fresh = False

            bland = degen_streak >= _LEAST_INDEX_AFTER
            if bland:
                j = int((can_incr | can_decr).argmax())  # the first one
            else:
                score = np.where(can_incr, -d, np.where(can_decr, d, 0.0))
                j = int(score.argmax())
            sigma = 1.0 if can_incr[j] else -1.0

            # ratio test
            x, basis = self.x, self.basis
            flip = hi[j] - lo[j]  # inf when either side is open
            w = self.binv @ self.full[:, j]
            if m:
                delta = -sigma * w
                # each basic variable's step to the bound it moves toward
                limit = np.where(delta > 0, hi[basis], lo[basis])
                with np.errstate(invalid="ignore", divide="ignore"):
                    tvec = np.where(np.abs(delta) > _TOL_PIV, (limit - x[basis]) / delta, INF)
                np.maximum(tvec, 0.0, out=tvec)
                t_block = float(tvec.min())
            else:
                t_block = INF

            t_star = min(flip, t_block)
            if not np.isfinite(t_star):  # over a box, only round-off does this
                return LpStatus.NUMERICAL

            degen_streak = degen_streak + 1 if t_star <= _TOL_DEG else 0

            if flip <= t_block:
                # bound flip: the entering variable crosses to its other bound
                x[j] = hi[j] if sigma > 0 else lo[j]
                x[basis] -= sigma * t_star * w
                self.up[j], self.down[j] = sigma < 0, sigma > 0  # now on the bound it moved to
                continue

            near = tvec <= t_star * (1.0 + 1e-9) + 1e-12
            rows = near.nonzero()[0]
            if bland:
                r = int(rows[basis[rows].argmin()])
            else:
                r = int(rows[np.abs(w[rows]).argmax()])
            if abs(w[r]) < _TOL_PIV:
                return LpStatus.NUMERICAL

            leaving = basis[r]
            x[j] += sigma * t_star
            x[basis] -= sigma * t_star * w
            # park the leaving variable exactly on the bound it hit
            x[leaving] = hi[leaving] if -sigma * w[r] > 0 else lo[leaving]
            self.pivot(r, j, w)

    # -- warm start: dual simplex --------------------------------------------

    def load(self, start: Basis) -> bool:
        """Take the basic columns and nonbasic resting bounds of ``start``,
        leaving B^-1 and x_B to the caller; False if they do not fit."""
        n, m = self.n, self.m
        basic = np.asarray(start.basic, dtype=np.int64)
        at_upper = np.asarray(start.at_upper, dtype=bool)
        if basic.shape != (m,) or at_upper.shape != (n + m,):
            return False
        if m and basic.view(np.uint64).max() >= n + m:  # unsigned, a negative one too
            return False
        is_basic = np.zeros(n + m, dtype=bool)
        is_basic[basic] = True
        if np.count_nonzero(is_basic) < m:
            return False  # a repeated column makes B singular
        self.basis = basic.copy()
        self.is_basic = is_basic
        self.x = np.where(at_upper, self.hi, self.lo)
        self.x[n:] = 0.0  # a slack's one finite bound, or both for an EQ row
        self.up, self.down = self.movable()
        return True

    def begin(self, start: Basis, max_updates: int, max_cond: float = _MAX_COND) -> bool:
        """Take ``start`` with B^-1 and x_B: a copy of its inverse if that has
        taken at most ``max_updates`` updates, else a fresh factorization
        conditioned at most ``max_cond``; False when it cannot be used."""
        if not self.load(start):
            return False
        inv = start.inverse
        if inv is not None and inv.shape == (self.m, self.m) and start.updates <= max_updates:
            self.binv = inv.copy()
            self.updates = start.updates
            self.set_basic_values()
            return True
        return self.refactor(max_cond)

    def warm(self, start: Basis, cutoff: float):
        """Dual simplex from ``start``, on its inverse unless that has taken
        ``_REFACTOR_AFTER`` updates, stopping at ``cutoff``; None when it
        cannot be used."""
        if not self.begin(start, _REFACTOR_AFTER - 1):
            return None
        d = self.reduced_costs(self.cost)
        if not self.make_dual_feasible(d):
            return None
        return self.dual(self.cost, d, fresh=self.updates == 0, cutoff=cutoff)

    def refresh(self, cost: np.ndarray) -> np.ndarray | None:
        """Refactorize and reprice: the dual feasible reduced costs of the
        current basis under ``cost``, or None when it is singular or not dual
        feasible."""
        if not self.refactor(_MAX_COND):
            return None
        d = self.reduced_costs(cost)
        return d if self.make_dual_feasible(d) else None

    def dual(self, cost: np.ndarray, d: np.ndarray, *, fresh: bool,
             certify: bool = True, cutoff: float = INF):
        """Dual simplex from a basis that is dual feasible for ``cost``, with
        reduced costs ``d``; ``fresh`` says B^-1 was just factorized.

        Returns OPTIMAL (the basis is primal feasible) or INFEASIBLE; CUTOFF
        once the certified bound reaches ``cutoff``; or None when the basis
        cannot be carried on, the iteration cap is reached or a Farkas row
        fails its certificate on a fresh factorization. The bound is
        certified only when c'x, the dual objective, has reached the cutoff,
        and at most once: if it falls short, the cutoff is dropped.
        A claim is certified (``certified_bound``), or else checked on a
        fresh factorization. With ``certify`` False an OPTIMAL claim is always
        checked that way, since under a zero cost every basis has bound 0.
        """
        lo, hi, full = self.lo, self.hi, self.full
        degen_streak = 0
        while True:
            x, basis, binv = self.x, self.basis, self.binv
            if cutoff < INF and cost @ x >= cutoff:
                if self.optimum_bound() >= cutoff:
                    return LpStatus.CUTOFF
                cutoff = INF
            xb = x[basis]
            below = lo[basis] - xb
            viol = np.maximum(below, xb - hi[basis])
            bad = (viol > _TOL_FEAS).nonzero()[0]
            if not bad.size:
                if fresh or (certify and self.certifies_optimum()):
                    return LpStatus.OPTIMAL
                d = self.refresh(cost)  # verify the claimed optimum
                if d is None:
                    return None
                fresh = True
                continue

            bland = degen_streak >= _LEAST_INDEX_AFTER
            if bad.size == 1:
                r = int(bad[0])  # what either rule picks
            elif bland:
                r = int(bad[basis[bad].argmin()])
            else:
                rows = binv[bad]
                weight = np.einsum("ij,ij->i", rows, rows)
                r = int(bad[(viol[bad] ** 2 / weight).argmax()])
            to_lower = below[r] > 0
            alpha = binv[r] @ full
            # the entering column must move x_Br toward the violated bound
            a_s = -alpha if to_lower else alpha
            via_up = self.up & (a_s > _TOL_PIV)
            via_dn = self.down & (a_s < -_TOL_PIV)
            cand = (via_up | via_dn).nonzero()[0]
            if not cand.size:
                if self.certifies_infeasible(r, to_lower):
                    return LpStatus.INFEASIBLE
                # re-check the claim on fresh values; no claim if it still fails
                d = None if fresh else self.refresh(cost)
                if d is None:
                    return None
                fresh = True
                continue

            d_c = d[cand]
            dj = np.maximum(np.where(via_up[cand], d_c, -d_c), 0.0)
            aj = np.abs(alpha[cand])
            ratio = dj / aj
            if bland:
                q = int(cand[(ratio <= ratio.min() + _TOL_DEG).argmax()])
            else:
                ok = ratio <= ((dj + _TOL_HARRIS) / aj).min()
                q = int(cand[np.where(ok, aj, 0.0).argmax()])  # the largest ok |alpha_j|

            w = binv @ full[:, q]
            w_r, alpha_q = float(w[r]), float(alpha[q])
            if abs(w_r) < _TOL_PIV or abs(w_r - alpha_q) > 1e-7 * (1.0 + abs(alpha_q)):
                # row and column disagree on the pivot: B^-1 has drifted
                d = None if fresh else self.refresh(cost)
                if d is None:
                    return None
                fresh = True
                continue
            if self.iters >= self.max_iters:
                return None
            self.iters += 1
            fresh = False

            theta_d = d[q] / alpha_q
            degen_streak = degen_streak + 1 if abs(theta_d) <= _TOL_DEG else 0
            d -= theta_d * alpha
            leaving = basis[r]
            target = lo[leaving] if to_lower else hi[leaving]
            theta_p = (x[leaving] - target) / w_r
            x[basis] -= theta_p * w
            x[q] += theta_p
            x[leaving] = target
            self.pivot(r, q, w)
            d[basis] = 0.0
