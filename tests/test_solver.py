"""Branch-and-bound: correctness against brute force, limits, warm starts,
worker-count invariance."""

import collections
import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilmip import simplex, solver, zoo
from resilmip.dataflow import propagate_intervals, tighten_lookback
from resilmip.mipmodel import MipModel, ObjSense, RowSense, check_feasible
from resilmip.oracle import enumerate_mip
from resilmip.resilience import compute_max_alpha, compute_xi
from resilmip.solver import SolveConfig, SolveStatus, solve, solve_lp, worker_pool


def _knapsack(values, weights, cap, name="ks") -> MipModel:
    m = MipModel(name)
    ids = [m.add_binary(f"b{i}") for i in range(len(values))]
    m.add_constraint("cap", [(b, float(w)) for b, w in zip(ids, weights)],
                     RowSense.LE, float(cap))
    m.set_objective([(b, float(v)) for b, v in zip(ids, values)],
                    ObjSense.MAXIMIZE)
    return m


def _random_mip(seed: int, n_bin=None, n_cont=None) -> MipModel:
    rng = np.random.default_rng(seed)
    n_bin = int(rng.integers(1, 7)) if n_bin is None else n_bin
    n_cont = int(rng.integers(0, 4)) if n_cont is None else n_cont
    m = MipModel(f"rand{seed}")
    ids = [m.add_binary(f"b{i}") for i in range(n_bin)]
    for i in range(n_cont):
        lo = float(rng.normal(-2, 1))
        ids.append(m.add_variable(f"x{i}", lo, lo + float(rng.random() * 4)))
    mid = np.array([0.5] * n_bin + [m.variables[v].lo + 0.1 for v in ids[n_bin:]])
    for r in range(int(rng.integers(1, 6))):
        coefs = [(v, float(rng.normal(0, 1.5))) for v in ids if rng.random() < 0.8]
        coefs = [(v, cf) for v, cf in coefs if cf != 0.0]
        if not coefs:
            continue
        sense = [RowSense.LE, RowSense.GE, RowSense.EQ][int(rng.integers(0, 3))]
        dense = np.zeros(len(ids))
        for v, cf in coefs:
            dense[v] = cf
        anchor = float(dense @ mid)
        m.add_constraint(f"r{r}", coefs, sense, anchor + float(rng.normal(0, 0.5)))
    m.set_objective([(v, float(rng.normal(0, 2))) for v in ids],
                    ObjSense.MAXIMIZE if rng.random() < 0.5 else ObjSense.MINIMIZE)
    return m


class TestKnownMips:
    def test_small_knapsack(self):
        m = _knapsack([6, 5, 4], [3, 2, 2], 4)
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(9.0)  # items 2+3

    def test_infeasible_mip(self):
        m = MipModel("inf")
        b = m.add_binary("b")
        m.add_constraint("r1", [(b, 1.0)], RowSense.GE, 0.75)
        m.add_constraint("r2", [(b, 1.0)], RowSense.LE, 0.25)
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.INFEASIBLE
        assert r.assignment is None
        assert math.isinf(r.objective)

    def test_pure_lp_model(self):
        m = MipModel("lp")
        x = m.add_variable("x", 0.0, 2.0)
        m.set_objective([(x, 1.0)], ObjSense.MAXIMIZE)
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(2.0)
        assert r.nodes_explored == 1

    def test_unbounded_mip(self):
        m = MipModel("unb")
        x = m.add_variable("x", 0.0, math.inf)
        b = m.add_binary("b")
        m.add_constraint("r", [(x, -1.0), (b, 1.0)], RowSense.LE, 0.0)
        m.set_objective([(x, 1.0)], ObjSense.MAXIMIZE)
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.UNBOUNDED

    def test_integral_relaxation_skips_branching(self):
        # relaxation optimum already integral: one node suffices
        m = _knapsack([1, 1], [1, 1], 2)
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(2.0)
        assert r.nodes_explored == 1


class TestResultContract:
    def test_gap_invariant_on_optimal(self):
        for seed in range(10):
            m = _random_mip(seed)
            r = solve(m.freeze(), SolveConfig())
            if r.status is SolveStatus.OPTIMAL:
                tol = 1e-6 * max(1.0, abs(r.objective))
                assert r.absolute_gap <= tol + 1e-12
                if m.dense_arrays().maximize:
                    assert r.dual_bound >= r.objective - tol
                else:
                    assert r.dual_bound <= r.objective + tol

    def test_assignment_is_feasible_and_attains_objective(self):
        for seed in range(15):
            m = _random_mip(seed)
            r = solve(m.freeze(), SolveConfig())
            if r.assignment is None:
                continue
            assert check_feasible(m, r.assignment, 1e-6)
            d = m.dense_arrays()
            val = sum(d.c[v] * r.assignment[v] for v in range(len(d.c)))
            assert val == pytest.approx(r.objective, abs=1e-6)

    def test_node_limit_reports_limit_status(self):
        m = _knapsack(list(range(1, 13)), [7, 3, 9, 4, 8, 5, 2, 6, 9, 1, 4, 7], 20)
        r = solve(m.freeze(), SolveConfig(node_limit=1))
        assert r.status in (SolveStatus.LIMIT, SolveStatus.OPTIMAL)
        if r.status is SolveStatus.LIMIT:
            # a valid bound must still come back
            assert r.dual_bound >= r.objective - 1e-9 or r.assignment is None

    def test_history_records_progress(self):
        m = _knapsack([4, 3, 5, 7, 2, 6], [2, 3, 4, 5, 1, 4], 9)
        r = solve(m.freeze(), SolveConfig())
        assert r.history
        nodes = [h[0] for h in r.history]
        assert nodes == sorted(nodes)

    def test_deterministic_across_runs(self):
        m1 = _random_mip(7)
        m2 = _random_mip(7)
        r1 = solve(m1.freeze(), SolveConfig())
        r2 = solve(m2.freeze(), SolveConfig())
        assert r1.objective == r2.objective
        assert r1.nodes_explored == r2.nodes_explored


class TestCertifiedNodeLps:
    def test_r8_max_alpha_rarely_refactorizes(self, monkeypatch):
        """Node LPs certify their claims instead of checking them on a fresh
        factorization: max-alpha of class 1 on R8 (the second draw of
        random_relu_net from seed 0, hidden (8, 8)) takes fewer than 0.6
        refactorizations per LP, confirmations of incumbents included, and
        keeps its answer."""
        rng = np.random.default_rng(0)
        zoo.random_relu_net(rng, input_dim=3, hidden=(6,), classes=3)
        r8 = zoo.random_relu_net(rng, input_dim=3, hidden=(8, 8), classes=3)
        counts = collections.Counter()

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(simplex._Lp, "refactor",
                            counting("refactor", simplex._Lp.refactor))
        monkeypatch.setattr(solver, "solve_bounded_lp",
                            counting("lp", solver.solve_bounded_lp))
        r = compute_max_alpha(r8, 1)
        assert r.status is SolveStatus.OPTIMAL
        assert r.alpha_max == pytest.approx(0.8468546779966943, rel=1e-9)
        assert counts["lp"] >= r.solve.nodes_explored
        assert counts["refactor"] < 0.6 * counts["lp"]

    def test_incumbent_is_a_point_recomputed_fresh(self, monkeypatch):
        """Every incumbent is the point of its node's basis recomputed on a
        fresh factorization (binaries rounded), never the LP's own point."""
        fresh = []

        def spy(*args):
            x = real(*args)
            fresh.append(x)
            return x

        real = solver.basic_point
        monkeypatch.setattr(solver, "basic_point", spy)
        adopted = 0
        for seed in range(20):
            fresh.clear()
            m = _random_mip(seed)
            r = solve(m.freeze(), SolveConfig())
            if r.assignment is None:
                continue
            x = np.array([r.assignment[i] for i in range(m.num_variables)])
            assert any(p is not None and np.allclose(p, x, rtol=0.0, atol=1e-9)
                       for p in fresh)
            adopted += 1
        assert adopted >= 10


class TestWarmStart:
    def test_feasible_warm_start_becomes_incumbent(self):
        m = _knapsack([6, 5, 4], [3, 2, 2], 4)
        m.set_warm_start({0: 0.0, 1: 1.0, 2: 1.0})  # the optimum itself
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(9.0)

    def test_infeasible_warm_start_ignored(self):
        m = _knapsack([6, 5, 4], [3, 2, 2], 4)
        m.set_warm_start({0: 1.0, 1: 1.0, 2: 1.0})  # violates the capacity
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(9.0)

    def test_warm_start_equals_cold_optimum(self):
        for seed in (3, 11, 29):
            cold = solve(_random_mip(seed).freeze(), SolveConfig())
            if cold.assignment is None:
                continue
            warm_model = _random_mip(seed)
            warm_model.set_warm_start(cold.assignment)
            warm = solve(warm_model.freeze(), SolveConfig())
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


class TestParallel:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_processes_reach_the_same_optimum(self, workers):
        for name in ("two_class_linear", "three_class_linear", "relu_mixed_phases",
                     "pool_duel"):
            net = zoo.FIXTURES[name]()
            ref = compute_xi(net, math.e, config=SolveConfig(workers=1))
            par = compute_xi(net, math.e, config=SolveConfig(workers=workers))
            assert par.status == ref.status
            if ref.status is SolveStatus.OPTIMAL:
                assert par.xi == pytest.approx(ref.xi, abs=1e-6)
        net = zoo.random_relu_net(np.random.default_rng(1), input_dim=3,
                                  hidden=(6, 6), classes=3)
        plain = propagate_intervals(net)
        ref = tighten_lookback(net, plain, depth=2, workers=1)
        par = tighten_lookback(net, plain, depth=2, workers=workers)
        for a, b in zip(ref.layers, par.layers):
            if a.im_lo is not None:
                assert np.array_equal(a.im_lo, b.im_lo)
                assert np.array_equal(a.im_hi, b.im_hi)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # a stand-in: a fork-context pool would start every process at once
        sizes = []

        class Recorder:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with worker_pool(5000) as pmap:
            assert pmap(abs, [-1, 2, -3]) == [1, 2, 3]
        with worker_pool(2) as pmap:
            pmap(abs, [-1])
        assert sizes == [3, 2]

    def test_larger_knapsack_parallel(self):
        vals = [4, 7, 2, 9, 5, 8, 3, 6, 1, 7, 5, 2]
        wts = [3, 6, 1, 8, 4, 7, 2, 5, 1, 6, 4, 2]
        r1 = solve(_knapsack(vals, wts, 17).freeze(), SolveConfig(workers=1))
        r4 = solve(_knapsack(vals, wts, 17).freeze(), SolveConfig(workers=4))
        assert r1.status is SolveStatus.OPTIMAL
        assert r4.objective == pytest.approx(r1.objective)


class TestSolveLp:
    def test_relaxation_only(self):
        m = _knapsack([3, 2], [2, 2], 3)
        r = solve_lp(m)
        # fractional relaxation: b0=1, b1=0.5 -> 4.0
        assert r.objective == pytest.approx(4.0)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=40)
def test_matches_enumeration(seed):
    """solve() and the scipy-backed brute force agree on status and optimum."""
    m = _random_mip(seed)
    mine = solve(m.freeze(), SolveConfig())
    ref = enumerate_mip(m)
    if ref.status == "infeasible":
        assert mine.status is SolveStatus.INFEASIBLE
    elif ref.status == "optimal":
        assert mine.status is SolveStatus.OPTIMAL, mine.status
        assert abs(mine.objective - ref.objective) <= 1e-6 * max(1.0, abs(ref.objective))
