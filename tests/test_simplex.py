"""The bounded-variable simplex core, cross-checked against scipy."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from resilmip import simplex
from resilmip.mipmodel import RowSense
from resilmip.resilience import compute_max_alpha
from resilmip.simplex import Basis, LpStatus, lp_form, solve_bounded_lp
from resilmip.solver import SolveConfig, SolveStatus

from conftest import relu_bench_nets

LE, GE, EQ = RowSense.LE, RowSense.GE, RowSense.EQ


def _solve(c, a, senses, b, lo, hi, maximize=False, **kw):
    """Minimize c'x, or maximize it as min -c'x with the objective and bound
    negated back."""
    sign = -1.0 if maximize else 1.0
    form = lp_form(sign * np.asarray(c, float), np.asarray(a, float), list(senses),
                   np.asarray(b, float))
    r = solve_bounded_lp(form, np.asarray(lo, float), np.asarray(hi, float), **kw)
    r.objective *= sign
    r.bound *= sign
    return r


class TestKnownInstances:
    def test_simple_max(self):
        # max x + y st x + 2y <= 14, 3x - y <= 0, bounded boxes
        r = _solve([1, 1], [[1, 2], [3, -1]], [LE, LE], [14, 0],
                   [0, 0], [10, 10], maximize=True)
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(8.0, abs=1e-9)
        assert np.allclose(r.x, [2.0, 6.0], atol=1e-9)

    def test_equality_rows(self):
        r = _solve([1, 2], [[1, 1]], [EQ], [3], [0, 0], [5, 5])
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(3.0)
        assert np.allclose(r.x, [3.0, 0.0], atol=1e-9)

    def test_negative_lower_bounds(self):
        r = _solve([1, 0], [[1, 1]], [GE], [-3], [-5, -5], [5, 5])
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(-5.0)

    def test_infeasible_detected(self):
        r = _solve([1], [[1], [1]], [GE, LE], [4, 1], [0], [10])
        assert r.status is LpStatus.INFEASIBLE

    def test_box_infeasible(self):
        r = _solve([1], [[1]], [GE], [3], [0], [1])
        assert r.status is LpStatus.INFEASIBLE

    def test_bounds_only_no_rows(self):
        r = _solve([2, -3], np.zeros((0, 2)), [], [], [1, -2], [4, 5],
                   maximize=True)
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(2 * 4 - 3 * -2)

    @pytest.mark.parametrize("lo1, hi1", [(0.0, math.inf), (-math.inf, 5.0),
                                          (math.nan, 5.0)])
    def test_a_bound_that_is_not_finite_is_named(self, lo1, hi1):
        # over an open box the simplex could raise deep inside or return an
        # uncertified -inf bound; it refuses such an LP on entry instead
        with pytest.raises(ValueError, match="^variable 1: "):
            _solve([1, -1, 0], [[1, 1, 1]], [LE], [4], [0, lo1, 0], [5, hi1, math.inf])

    def test_degenerate_vertex(self):
        # many redundant rows through one vertex: must still terminate
        a = [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]]
        r = _solve([-1, -1], a, [LE] * 5, [1, 1, 2, 3, 3], [0, 0], [9, 9])
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(-2.0)

    def test_fixed_variables(self):
        r = _solve([1, 1], [[1, 1]], [LE], [10], [2, 3], [2, 3])
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(5.0)


def _scipy_reference(c, a, senses, b, lo, hi, maximize):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, s, rhs in zip(a, senses, b):
        if s is LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif s is GE:
            a_ub.append([-v for v in row])
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [(None if not math.isfinite(l) else l,
               None if not math.isfinite(h) else h) for l, h in zip(lo, hi)]
    sign = -1.0 if maximize else 1.0
    # presolve off: HiGHS presolve labels some unbounded instances infeasible
    return linprog([sign * v for v in c],
                   A_ub=np.array(a_ub) if a_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(a_eq) if a_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=bounds, method="highs",
                   options={"presolve": False}), sign


def _random_instance(seed):
    """A random bounded LP: (c, a, senses, b, lo, hi, maximize)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 7))
    c = rng.normal(0, 2, n)
    a = np.where(rng.random((m, n)) < 0.75, rng.normal(0, 1.5, (m, n)), 0.0)
    lo = rng.normal(-2, 1, n)
    hi = lo + rng.random(n) * 4
    senses = [[LE, GE, EQ][int(t)] for t in rng.integers(0, 3, m)]
    # bias RHS toward feasibility by anchoring at an interior point
    mid = (lo + hi) / 2
    b = a @ mid + rng.normal(0, 1, m)
    maximize = bool(rng.random() < 0.5)
    return c, a, senses, b, lo, hi, maximize


def _assert_matches_scipy(mine, c, a, senses, b, lo, hi, maximize):
    ref, sign = _scipy_reference(c, a, senses, b, lo, hi, maximize)

    if ref.status == 2:
        assert mine.status is LpStatus.INFEASIBLE
    elif ref.success:
        assert mine.status is LpStatus.OPTIMAL, f"expected optimal, got {mine.status}"
        ref_obj = sign * ref.fun
        scale = max(1.0, abs(ref_obj))
        assert abs(mine.objective - ref_obj) <= 1e-6 * scale
        # the reported point must actually be feasible and attain the value
        assert np.all(mine.x >= lo - 1e-7) and np.all(mine.x <= hi + 1e-7)
        resid = a @ mine.x
        for i, s in enumerate(senses):
            if s is LE:
                assert resid[i] <= b[i] + 1e-6
            elif s is GE:
                assert resid[i] >= b[i] - 1e-6
            else:
                assert abs(resid[i] - b[i]) <= 1e-6
        assert abs(float(c @ mine.x) - mine.objective) <= 1e-7 * scale


@given(seed=st.integers(0, 100_000))
@settings(max_examples=120)
def test_matches_scipy_on_random_instances(seed):
    """Status and optimum agree with HiGHS on random bounded LPs."""
    inst = _random_instance(seed)
    _assert_matches_scipy(_solve(*inst), *inst)


@given(seed=st.integers(0, 100_000), var=st.integers(0, 4),
       frac=st.sampled_from([0.25, 0.5, 1.0]), lean=st.booleans())
@settings(max_examples=150)
def test_warm_resolve_matches_cold_and_scipy(seed, var, frac, lean):
    """Re-solving from the optimal basis after a bound change that cuts off
    the optimum agrees with a cold solve and with HiGHS, with or without the
    basis inverse at hand."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    first = _solve(c, a, senses, b, lo, hi, maximize)
    assume(first.status is LpStatus.OPTIMAL)
    start = first.basis.lean() if lean else first.basis
    kept = None if lean else start.inverse.copy()

    # unchanged bounds: the basis is already optimal
    again = _solve(c, a, senses, b, lo, hi, maximize, basis=start)
    assert again.status is LpStatus.OPTIMAL
    assert again.iterations == 0
    assert again.objective == pytest.approx(first.objective, abs=1e-9)

    # move one bound past the optimal value; frac 1 fixes the variable at
    # the far end of its range, which often leaves no feasible point
    j = var % len(c)
    lo2, hi2 = lo.copy(), hi.copy()
    xj = first.x[j]
    if hi[j] - xj >= xj - lo[j]:
        lo2[j] = xj + frac * (hi[j] - xj)
        if frac == 1.0:
            lo2[j] = hi[j]
    else:
        hi2[j] = xj - frac * (xj - lo[j])
        if frac == 1.0:
            hi2[j] = lo[j]
    assume(lo2[j] - lo[j] > 1e-6 or hi[j] - hi2[j] > 1e-6)

    warm = _solve(c, a, senses, b, lo2, hi2, maximize, basis=start)
    if kept is not None:  # pivots ran on a copy of the start's inverse
        assert np.array_equal(start.inverse, kept)
    cold = _solve(c, a, senses, b, lo2, hi2, maximize)
    assert warm.status is cold.status
    if cold.status is LpStatus.OPTIMAL:
        scale = max(1.0, abs(cold.objective))
        assert abs(warm.objective - cold.objective) <= 1e-7 * scale
    _assert_matches_scipy(warm, c, a, senses, b, lo2, hi2, maximize)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80)
def test_least_index_rule_matches_scipy(seed):
    """With the least-index rule from the first pivot on, as after a long run
    of degenerate pivots, cold solves and warm re-solves still agree with
    HiGHS: the rule that guarantees termination gives correct answers."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_LEAST_INDEX_AFTER", 0)
        cold = _solve(c, a, senses, b, lo, hi, maximize)
        _assert_matches_scipy(cold, c, a, senses, b, lo, hi, maximize)
        if cold.status is not LpStatus.OPTIMAL:
            return
        # cut off the optimum in one variable and re-solve from its basis
        j = seed % len(c)
        lo2, hi2 = lo.copy(), hi.copy()
        xj = cold.x[j]
        if hi[j] - xj >= xj - lo[j]:
            lo2[j] = (xj + hi[j]) / 2
        else:
            hi2[j] = (lo[j] + xj) / 2
        warm = _solve(c, a, senses, b, lo2, hi2, maximize, basis=cold.basis)
        _assert_matches_scipy(warm, c, a, senses, b, lo2, hi2, maximize)


@given(seed=st.integers(0, 100_000), lean=st.booleans())
@settings(max_examples=120)
def test_cold_start_from_a_feasible_basis_matches_slack_and_scipy(seed, lean):
    """A cold solve that begins at a feasible basis of the same rows and
    bounds (the zero-objective optimum) agrees with the slack-basis solve and
    with HiGHS, with or without the basis inverse at hand."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    feasible = _solve(np.zeros(len(c)), a, senses, b, lo, hi)
    assume(feasible.status is LpStatus.OPTIMAL)
    start = feasible.basis.lean() if lean else feasible.basis
    kept = None if lean else start.inverse.copy()
    again = _solve(np.zeros(len(c)), a, senses, b, lo, hi, start=start)
    assert again.status is LpStatus.OPTIMAL and again.iterations == 0
    r = _solve(c, a, senses, b, lo, hi, maximize, start=start)
    if kept is not None:  # pivots ran on a copy of the start's inverse
        assert np.array_equal(start.inverse, kept)
    slack = _solve(c, a, senses, b, lo, hi, maximize)
    assert r.status is slack.status
    if slack.status is LpStatus.OPTIMAL:
        scale = max(1.0, abs(slack.objective))
        assert abs(r.objective - slack.objective) <= 1e-7 * scale
    _assert_matches_scipy(r, c, a, senses, b, lo, hi, maximize)


class TestColdStart:
    """A start that does not fit leaves the cold solve at the slack basis:
    the same result, pivots and refactorizations."""

    ARGS = ([1, 2, -1], [[1, 1, 2], [3, 3, 1]], [GE, LE], [1, 6],
            [0, 0, 0], [2, 2, 2])

    @pytest.mark.parametrize("start", [
        Basis(np.array([0, 2, 1]), np.zeros(5, dtype=bool)),       # wrong shape
        Basis(np.array([2, 2]), np.zeros(5, dtype=bool), np.eye(2)),  # repeated column
        Basis(np.array([0, 1]), np.zeros(5, dtype=bool)),          # singular B
    ], ids=["shape", "repeated", "singular"])
    def test_unfit_start_falls_back_to_the_slack_basis(self, start):
        slack = _solve(*self.ARGS)
        r = _solve(*self.ARGS, start=start)
        assert r.status is slack.status is LpStatus.OPTIMAL
        assert r.objective == slack.objective
        assert slack.iterations > 0
        assert r.iterations == slack.iterations
        assert r.refactorizations == slack.refactorizations

    def test_warm_basis_comes_first(self):
        # with both, a usable warm basis is taken and the start never used
        first = _solve(*self.ARGS)
        junk = Basis(np.array([0, 1]), np.zeros(5, dtype=bool))
        r = _solve(*self.ARGS, basis=first.basis, start=junk)
        assert r.status is LpStatus.OPTIMAL and r.iterations == 0


class TestWarmStart:
    def test_dual_simplex_proves_infeasibility(self):
        # max x st x + y <= 1, y >= 0.5: x = 0.5; then x >= 0.8 is infeasible
        args = ([1, 0], [[1, 1]], [LE], [1])
        first = _solve(*args, [0, 0.5], [1, 1], maximize=True)
        assert first.objective == pytest.approx(0.5)
        r = _solve(*args, [0.8, 0.5], [1, 1], maximize=True, basis=first.basis)
        assert r.status is LpStatus.INFEASIBLE
        assert r.iterations == 0  # no dual pivot can lift the row's slack

    def test_singular_basis_falls_back_to_cold(self):
        # columns 0 and 1 are the same vector: a basis holding both is singular
        args = ([1, 2, -1], [[1, 1, 2], [3, 3, 1]], [LE, LE], [4, 6],
                [0, 0, 0], [2, 2, 2])
        cold = _solve(*args)
        start = Basis(np.array([0, 1]), np.zeros(5, dtype=bool))
        r = _solve(*args, basis=start)
        assert r.status is cold.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(cold.objective)
        assert cold.iterations > 0
        assert r.iterations == cold.iterations  # the warm attempt never pivoted

    def test_repeated_basic_column_falls_back_to_cold(self):
        # a basis naming column 0 twice is no basis, whatever inverse it
        # carries; taken with the identity, it would claim x = (1.5, 0, 0)
        # optimal at 1.5, where the optimum is 1
        c, a, senses, b = [1, 3, 4], [[1, 1, 2], [3, 1, 1]], [GE, GE], [1, 1.5]
        lo, hi = np.zeros(3), np.full(3, 2.0)
        cold = _solve(c, a, senses, b, lo, hi)
        start = Basis(np.array([0, 0]), np.zeros(5, dtype=bool), np.eye(2))
        r = _solve(c, a, senses, b, lo, hi, basis=start)
        assert r.status is cold.status is LpStatus.OPTIMAL
        assert r.objective == cold.objective == pytest.approx(1.0)
        assert r.iterations == cold.iterations
        assert r.refactorizations == cold.refactorizations
        form = lp_form(np.array(c, float), np.array(a, float), senses, np.array(b, float))
        assert simplex.basic_point(form, lo, hi, start) is None

    def test_warm_solve_leaves_the_start_inverse_alone(self):
        # branch-and-bound nodes share their parent's inverse, so a warm
        # solve must pivot on a copy of it
        c = [1.8, 2.9, 0.9, 2.9, 1.3]
        a = [[0.7, -0.8, 0.9, 0.5, 0.4], [0.0, 0.8, -1.1, -0.2, -0.7]]
        args = (c, a, [EQ, EQ], [0, 0], [0] * 5, [1] * 5)
        top = _solve(*args, maximize=True)
        kept = top.basis.inverse.copy()
        warm = _solve(*args, basis=top.basis)
        assert warm.iterations == 2
        assert np.array_equal(top.basis.inverse, kept)

    def test_a_warm_solve_stops_at_the_cutoff_and_its_cold_fallback_does_not(self):
        # the basis of test_singular_basis_falls_back_to_cold is singular, so
        # the solve falls back to a cold one, which ignores any cutoff; a
        # warm start that holds stops at a cutoff of -inf before any pivot
        args = ([1, 2, -1], [[1, 1, 2], [3, 3, 1]], [LE, LE], [4, 6],
                [0, 0, 0], [2, 2, 2])
        cold = _solve(*args)
        singular = Basis(np.array([0, 1]), np.zeros(5, dtype=bool))
        r = _solve(*args, basis=singular, cutoff=-math.inf)
        assert r.status is LpStatus.OPTIMAL
        assert r.objective == cold.objective and r.iterations == cold.iterations
        stopped = _solve(*args, basis=cold.basis, cutoff=-math.inf)
        assert stopped.status is LpStatus.CUTOFF and stopped.iterations == 0
        assert stopped.bound == pytest.approx(cold.objective)
        assert stopped.x is None and stopped.basis is None

    def test_dual_infeasible_basis_falls_back_to_cold(self):
        # the optimal basis of max x + y has both slacks nonbasic; for
        # min x + y their reduced costs change sign, and a slack has no
        # upper bound to flip to
        args = ([1, 1], [[1, 2], [3, -1]], [LE, LE], [14, 0], [0, 0], [10, 10])
        first = _solve(*args, maximize=True)
        assert set(first.basis.basic) == {0, 1}
        cold = _solve(*args)
        r = _solve(*args, basis=first.basis)
        assert r.status is cold.status is LpStatus.OPTIMAL
        assert r.objective == pytest.approx(cold.objective)
        assert r.iterations == cold.iterations

    def test_iteration_cap_falls_back_and_counts_both_attempts(self):
        # min c'x over A x = 0, x in [0, 1]^5 with c > 0: the cold start at
        # x = 0 is optimal at once, while the dual simplex from the optimum
        # of max c'x needs two pivots; capped at one, it falls back
        c = [1.8, 2.9, 0.9, 2.9, 1.3]
        a = [[0.7, -0.8, 0.9, 0.5, 0.4], [0.0, 0.8, -1.1, -0.2, -0.7]]
        args = (c, a, [EQ, EQ], [0, 0], [0] * 5, [1] * 5)
        top = _solve(*args, maximize=True)
        assert top.objective > 0
        cold = _solve(*args)
        assert cold.iterations == 0 and cold.objective == 0.0
        warm = _solve(*args, basis=top.basis)
        assert warm.iterations == 2 and warm.objective == pytest.approx(0.0, abs=1e-9)
        capped = _solve(*args, basis=top.basis, max_iters=1)
        assert capped.status is LpStatus.OPTIMAL
        assert capped.objective == 0.0
        assert capped.iterations == 1  # one warm pivot plus no cold ones


def _ref_min(c, a, senses, b, lo, hi, maximize):
    """HiGHS's optimum in the minimize orientation (sign * c), or None when
    it finds no optimum."""
    ref, _ = _scipy_reference(c, a, senses, b, lo, hi, maximize)
    return ref.fun if ref.success else None


@given(seed=st.integers(0, 100_000), noise=st.sampled_from([0.0, 1e-9, 1e-4, 1e-1]))
@settings(max_examples=120)
def test_certified_bound_never_exceeds_scipy(seed, noise):
    """The certified bound from the duals of the optimal basis, exact or
    perturbed, never lies above HiGHS's optimum, and the unperturbed one
    lies close to it."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    sign = -1.0 if maximize else 1.0
    form = lp_form(sign * c, a, senses, b)  # the bound is in this orientation
    mine = solve_bounded_lp(form, lo, hi)
    assume(mine.status is LpStatus.OPTIMAL)
    assert math.isfinite(mine.bound)
    ref = _ref_min(c, a, senses, b, lo, hi, maximize)
    assert ref is not None
    scale = max(1.0, abs(ref))
    assert mine.bound <= ref + 1e-7 * scale
    assert mine.bound >= ref - 1e-6 * scale
    y = form.cost[mine.basis.basic] @ mine.basis.inverse
    y = y + noise * np.random.default_rng(seed).normal(size=y.shape) * (1.0 + np.abs(y))
    assert simplex.certified_bound(form, lo, hi, y, form.cost[:len(c)]) <= ref + 1e-7 * scale


@given(seed=st.integers(0, 100_000), var=st.integers(0, 4),
       drift=st.sampled_from([1e-12, 1e-8, 1e-5]))
@settings(max_examples=120)
def test_drifted_inverse_claims_agree_with_scipy(seed, var, drift):
    """Warm re-solves from a basis whose inverse carries noise: an INFEASIBLE
    claim only where HiGHS finds no feasible point, and an optimum's bound
    never above HiGHS's optimum."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    first = _solve(c, a, senses, b, lo, hi, maximize)
    assume(first.status is LpStatus.OPTIMAL)
    inv = first.basis.inverse
    noisy = inv + drift * np.random.default_rng(seed).normal(size=inv.shape) * (1.0 + np.abs(inv))
    start = Basis(first.basis.basic, first.basis.at_upper, noisy, updates=1)
    j = var % len(c)
    lo2, hi2 = lo.copy(), hi.copy()
    lo2[j] = (first.x[j] + hi[j]) / 2  # cut off the optimum in one variable
    warm = _solve(c, a, senses, b, lo2, hi2, maximize, basis=start)
    ref, sign = _scipy_reference(c, a, senses, b, lo2, hi2, maximize)
    if warm.status is LpStatus.INFEASIBLE:
        assert ref.status == 2
    if warm.status is LpStatus.OPTIMAL:
        assert ref.success
        assert sign * warm.bound <= ref.fun + 1e-7 * max(1.0, abs(ref.fun))


def _tight_instance(seed, zero_cost=False):
    """An LP with integer data whose every row is tight at one corner x* of
    the box, and row multipliers y for which x* minimizes the Lagrangian:
    its optimum is c'x* exactly, and the bound from y is exactly c'x* too,
    so any upward rounding in the bound would show."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 9)), int(rng.integers(1, 7))
    a = rng.integers(-9, 10, (m, n)).astype(float)
    lo = rng.integers(-5, 1, n).astype(float)
    hi = lo + rng.integers(1, 6, n)
    c = np.zeros(n) if zero_cost else rng.integers(-9, 10, n).astype(float)
    senses = [[LE, GE, EQ][int(t)] for t in rng.integers(0, 3, m)]
    y = rng.normal(0, 3, m) * (1.0 + 1e-3 * rng.random(m))
    y = np.array([min(v, 0.0) if s is LE else max(v, 0.0) if s is GE else v
                  for v, s in zip(y, senses)])
    x_star = np.where(c - y @ a > 0, lo, hi)
    return c, a, senses, a @ x_star, lo, hi, y, x_star


@given(seed=st.integers(0, 100_000))
@settings(max_examples=150)
def test_certified_bound_is_safe_where_it_is_tight(seed):
    """Where the bound equals the optimum in exact arithmetic, the float
    result stays at or below it, within round-off of it."""
    c, a, senses, b, lo, hi, y, x_star = _tight_instance(seed)
    form = lp_form(c, a, senses, b)
    opt = float(c @ x_star)  # exact: integer data
    ref = _ref_min(c, a, senses, b, lo, hi, False)
    assert ref is not None and ref == pytest.approx(opt, abs=1e-7)
    bound = simplex.certified_bound(form, lo, hi, y, c)
    assert opt - 1e-9 * max(1.0, abs(opt)) <= bound <= opt
    # with zero costs no multipliers can claim this feasible LP infeasible
    zero = np.zeros(len(c))
    for sgn in (1.0, -1.0):
        assert simplex.certified_bound(form, lo, hi, sgn * y, zero) <= 0.0


@given(seed=st.integers(0, 100_000))
@settings(max_examples=150)
def test_certified_infeasibility_is_safe_where_it_is_tight(seed):
    """With zero costs and multipliers whose Farkas combination is exactly
    met at x*, the LP is feasible and the bound stays at or below 0; moving
    one row's right-hand side by 1e-6 against its multiplier makes the LP
    infeasible, and the same multipliers prove it."""
    c, a, senses, b, lo, hi, y, _ = _tight_instance(seed, zero_cost=True)
    assert _ref_min(c, a, senses, b, lo, hi, False) == pytest.approx(0.0)
    assert -1e-9 <= simplex.certified_bound(lp_form(c, a, senses, b), lo, hi, y, c) <= 0.0
    i = int(np.argmax(np.abs(y)))
    assume(abs(y[i]) > 1e-3)
    b_off = b.copy()
    b_off[i] += 1e-6 * np.sign(y[i])  # y_i > 0 on a GE row: demand more
    assert simplex.certified_bound(lp_form(c, a, senses, b_off), lo, hi, y, c) > 0.0


def test_update_cap_forces_a_refactorization():
    c, a, senses, b, lo, hi, maximize = _random_instance(7)
    first = _solve(c, a, senses, b, lo, hi, maximize)
    assert first.status is LpStatus.OPTIMAL
    basis = first.basis
    for updates, refactors in ((1, 0), (simplex._REFACTOR_AFTER - 1, 0),
                               (simplex._REFACTOR_AFTER, 1)):
        start = Basis(basis.basic, basis.at_upper, basis.inverse, updates)
        again = _solve(c, a, senses, b, lo, hi, maximize, basis=start)
        assert again.status is LpStatus.OPTIMAL and again.iterations == 0
        assert again.refactorizations == refactors
        assert again.objective == pytest.approx(first.objective, abs=1e-9)


def _check_masks_at_every_pivot(mp) -> list:
    """Patch ``_Lp`` so that the masks that dual and primal keep across
    pivots must equal a fresh ``movable()`` after every pivot, and before
    every pricing (which follows each of the primal's bound flips); returns
    a list that counts the pivots checked."""
    pivot, price = simplex._Lp.pivot, simplex._Lp.reduced_costs
    checked = []

    def check(lp):
        up, down = lp.movable()
        assert np.array_equal(lp.up, up) and np.array_equal(lp.down, down)

    def pivot_and_check(lp, r, q, w):
        pivot(lp, r, q, w)
        check(lp)
        checked.append(q)

    def check_and_price(lp, cost):
        check(lp)
        return price(lp, cost)

    mp.setattr(simplex._Lp, "pivot", pivot_and_check)
    mp.setattr(simplex._Lp, "reduced_costs", check_and_price)
    return checked


@given(seed=st.integers(0, 100_000), var=st.integers(0, 4),
       drift=st.sampled_from([0.0, 1e-8, 1e-5]))
@settings(max_examples=100)
def test_kept_masks_equal_movable_after_every_pivot(seed, var, drift):
    """On a cold solve (dual, then primal) and on a warm re-solve from its
    optimal basis, exact or with a drifted inverse, after a bound change."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    with pytest.MonkeyPatch.context() as mp:
        checked = _check_masks_at_every_pivot(mp)
        first = _solve(c, a, senses, b, lo, hi, maximize)
        assert len(checked) <= first.iterations  # a primal bound flip is no pivot
        if first.status is not LpStatus.OPTIMAL:
            return
        inv = first.basis.inverse
        noise = np.random.default_rng(seed).normal(size=inv.shape) * (1.0 + np.abs(inv))
        start = Basis(first.basis.basic, first.basis.at_upper, inv + drift * noise, updates=1)
        j = var % len(c)
        lo2 = lo.copy()
        lo2[j] = (first.x[j] + hi[j]) / 2  # cut off the optimum in one variable
        checked.clear()
        warm = _solve(c, a, senses, b, lo2, hi, maximize, basis=start)
        assert len(checked) <= warm.iterations


def test_kept_masks_equal_movable_on_a_max_alpha_solve():
    """Every pivot of the R12 max-alpha query for class 2 (R12: the third
    draw of random_relu_net from seed 0, hidden (12, 12)), a tree of about
    100 nodes."""
    with pytest.MonkeyPatch.context() as mp:
        checked = _check_masks_at_every_pivot(mp)
        res = compute_max_alpha(relu_bench_nets()["R12"], 2, config=SolveConfig(workers=1))
    assert res.status is SolveStatus.OPTIMAL and len(checked) > 100


def _identical(r: simplex.LpResult, s: simplex.LpResult) -> bool:
    """Whether two results agree bit for bit: status, objective, bound,
    point, basis, inverse and counts."""
    same = (r.status is s.status and repr(r.objective) == repr(s.objective)
            and repr(r.bound) == repr(s.bound) and r.iterations == s.iterations
            and r.refactorizations == s.refactorizations
            and (r.x is None) == (s.x is None) and (r.basis is None) == (s.basis is None))
    if same and r.x is not None:
        same = np.array_equal(r.x, s.x)
    if same and r.basis is not None:
        p, q = r.basis, s.basis
        same = (np.array_equal(p.basic, q.basic) and np.array_equal(p.at_upper, q.at_upper)
                and np.array_equal(p.inverse, q.inverse) and p.updates == q.updates)
    return same


@given(seed=st.integers(0, 100_000), var=st.integers(0, 4),
       frac=st.sampled_from([0.25, 0.5, 1.0]), lean=st.booleans())
@settings(max_examples=120)
def test_cutoff_contract(seed, var, frac, lean):
    """A warm re-solve after a bound change that cuts off the parent's
    optimum, under cutoffs from the parent's optimum to past the child's:
    a CUTOFF result carries a bound between the cutoff and HiGHS's optimum
    and no point; any other result, and every result of ``cutoff=INF``, is
    bit for bit the result without a cutoff; a cold solve never stops at a
    cutoff, not even at -inf."""
    c, a, senses, b, lo, hi, maximize = _random_instance(seed)
    form = lp_form((-1.0 if maximize else 1.0) * c, a, senses, b)  # minimize
    first = solve_bounded_lp(form, lo, hi)
    assume(first.status is LpStatus.OPTIMAL)
    start = first.basis.lean() if lean else first.basis
    j = var % len(c)
    lo2, hi2 = lo.copy(), hi.copy()
    xj = first.x[j]
    if hi[j] - xj >= xj - lo[j]:
        lo2[j] = hi[j] if frac == 1.0 else xj + frac * (hi[j] - xj)
    else:
        hi2[j] = lo[j] if frac == 1.0 else xj - frac * (xj - lo[j])

    plain = solve_bounded_lp(form, lo2, hi2, basis=start)
    assert _identical(solve_bounded_lp(form, lo2, hi2, basis=start, cutoff=math.inf), plain)
    ref = _ref_min(c, a, senses, b, lo2, hi2, maximize)
    optimum = math.inf if ref is None else ref
    top = optimum if ref is not None else first.objective + 10.0 * (1.0 + abs(first.objective))
    scale = max(1.0, abs(top))
    cutoffs = [first.objective + t * (top - first.objective) for t in (0.0, 0.3, 0.7, 1.0)]
    if ref is not None:
        cutoffs.append(ref + 1.0 + abs(ref))  # past any dual objective: never reached
    for cutoff in cutoffs:
        r = solve_bounded_lp(form, lo2, hi2, basis=start, cutoff=cutoff)
        if r.status is LpStatus.CUTOFF:
            assert r.x is None and r.basis is None
            assert cutoff <= r.bound <= optimum + 1e-7 * scale
        else:
            assert _identical(r, plain)
    if ref is not None:
        assert r.status is not LpStatus.CUTOFF
    cold = solve_bounded_lp(form, lo2, hi2)
    for cutoff in (-math.inf, first.objective, top):
        assert _identical(solve_bounded_lp(form, lo2, hi2, cutoff=cutoff), cold)
