"""Branch-and-bound: correctness against brute force, limits, warm starts,
worker-count invariance."""

import collections
import heapq
import math
import os
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilmip import encoder, simplex, solver, zoo
from resilmip.dataflow import propagate_intervals, tighten_lookback
from resilmip.encoder import QueryKind, QuerySpec
from resilmip.mipmodel import MipModel, ModelError, ObjSense, RowSense, check_feasible
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


def _r8():
    """R8: the second draw of random_relu_net from seed 0, hidden (8, 8)."""
    rng = np.random.default_rng(0)
    zoo.random_relu_net(rng, input_dim=3, hidden=(6,), classes=3)
    return zoo.random_relu_net(rng, input_dim=3, hidden=(8, 8), classes=3)


def _r8_max_alpha_model() -> MipModel:
    """The model compute_max_alpha(R8, 1) solves."""
    r8 = _r8()
    return encoder.encode_query(r8, propagate_intervals(r8),
                                QuerySpec(QueryKind.MAX_ALPHA, m=1)).model


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

    def test_integral_relaxation_skips_branching(self):
        # relaxation optimum already integral: one node suffices
        m = _knapsack([1, 1], [1, 1], 2)
        r = solve(m.freeze(), SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(2.0)
        assert r.nodes_explored == 1


class TestSolvesOverABox:
    @pytest.mark.parametrize("entry", [solve, solve_lp])
    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf),
                                        (-math.inf, math.inf)])
    def test_an_infinite_bound_is_a_model_error(self, entry, lo, hi):
        m = MipModel("open")
        y = m.add_variable("y", 0.0, 1.0)
        x = m.add_variable("x", lo, hi)
        m.add_variable("z", -math.inf, math.inf)
        b = m.add_binary("b")
        m.add_constraint("r", [(x, -1.0), (y, 1.0), (b, 1.0)], RowSense.LE, 0.0)
        m.set_objective([(x, 1.0)], ObjSense.MAXIMIZE)
        with pytest.raises(ModelError, match="variable 'x'"):
            entry(m.freeze())

    def test_an_uncertified_farkas_row_claims_nothing(self, monkeypatch):
        # x in [0, 1] with x >= 2 is infeasible, but with every certificate
        # open the LP is a numerical failure and the solve is not clean
        monkeypatch.setattr(simplex, "certified_bound", lambda *args: -math.inf)
        m = MipModel("farkas")
        x = m.add_variable("x", 0.0, 1.0)
        m.add_constraint("r", [(x, 1.0)], RowSense.GE, 2.0)
        model = m.freeze()
        assert solve_lp(model).status is simplex.LpStatus.NUMERICAL
        r = solve(model, SolveConfig())
        assert r.status is SolveStatus.LIMIT and r.assignment is None


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
        random_relu_net from seed 0, hidden (8, 8)) takes fewer than 0.25
        refactorizations per LP, confirmations of incumbents included, and
        keeps its answer: nodes popped off the heap warm-start on their
        parent's inverse."""
        r8 = _r8()
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
        assert counts["refactor"] < 0.25 * counts["lp"]

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


class TestUnconfirmedIntegralPoint:
    def test_unconfirmed_point_does_not_rebranch(self, monkeypatch):
        """A node whose integral LP point cannot be confirmed branches only on
        a binary it has not fixed. With no point ever confirmed, the whole
        tree of 1 continuous variable and 2 binaries has at most 7 nodes; a
        fixed binary chosen again gave the node back as its own child, and
        the plunge ran on to the node limit."""
        monkeypatch.setattr(solver, "basic_point", lambda *args: None)
        m = MipModel("unconfirmed")
        b0, b1 = m.add_binary("b0"), m.add_binary("b1")
        x = m.add_variable("x", 0.0, 4.0)
        m.add_constraint("cap", [(x, 1.0), (b0, -2.0), (b1, -1.0)], RowSense.LE, 0.0)
        m.set_objective([(x, 1.0), (b0, 1.0), (b1, 1.0)], ObjSense.MAXIMIZE)
        r = solve(m.freeze(), SolveConfig(node_limit=2000))
        assert r.nodes_explored <= 7
        assert r.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


def _pick_by_loop(x, bin_ids, priority):
    """The branching rule as a per-binary loop over (priority, distance to
    integrality, id) keys."""
    best_key = best_vid = None
    for vid, prio in zip(bin_ids, priority):
        v = x[vid]
        if abs(v - round(v)) <= solver.INT_TOL:
            continue
        key = (-prio, -min(v - math.floor(v), math.ceil(v) - v), vid)
        if best_key is None or key < best_key:
            best_key, best_vid = key, int(vid)
    return best_vid


class TestPickBranchVar:
    # values with exact ties in distance (0.25/0.75, 0.5), near misses
    # (0.3 against 0.7) and integral ones within and just past INT_TOL
    VALUES = [0.0, 1.0, 0.25, 0.75, 0.5, 0.3, 0.7, 5e-7, 1 - 5e-7, 2e-6, 1 - 2e-6, 0.1]

    @given(picks=st.lists(st.tuples(st.sampled_from(VALUES), st.integers(0, 2)),
                          min_size=1, max_size=12),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_the_per_binary_rule_on_ties(self, picks, order):
        x = np.array([v for v, _ in picks] + [3.7])  # a continuous column last
        bin_ids = list(range(len(picks)))
        order.shuffle(bin_ids)
        priority = np.array([picks[i][1] for i in bin_ids], dtype=np.int64)
        bin_ids = np.array(bin_ids, dtype=np.int64)
        assert (solver.pick_branch_var(x, bin_ids, priority)
                == _pick_by_loop(x, bin_ids, priority))

    def test_priority_then_distance_then_id(self):
        x = np.array([0.5, 0.25, 0.75, 0.5, 1.0])
        ids = np.arange(5)
        assert solver.pick_branch_var(x, ids, np.zeros(5, dtype=np.int64)) == 0
        assert solver.pick_branch_var(x, ids, np.array([0, 1, 1, 0, 2])) == 1
        assert solver.pick_branch_var(x, ids[[4]], np.array([0])) is None


def _rows(model: MipModel) -> int:
    return model.dense_arrays().a.shape[0]


class TestHeapInverseBudget:
    def test_budget_caps_the_inverses_on_the_heap(self, monkeypatch):
        """With room for two inverses, no push leaves more than two heap
        nodes holding one, and the heap does fill up to two."""
        model = _r8_max_alpha_model()
        m = _rows(model)
        monkeypatch.setattr(solver, "_HEAP_INVERSE_BYTES", 2 * 8 * m * m)
        held = []

        def heappush(heap, item):
            heapq.heappush(heap, item)
            held.append(sum(node.basis is not None and node.basis.inverse is not None
                            for _, _, node in heap))

        monkeypatch.setattr(solver, "heapq",
                            types.SimpleNamespace(heappush=heappush,
                                                  heappop=heapq.heappop))
        r = solve(model)
        assert r.status is SolveStatus.OPTIMAL
        assert max(held) == 2

    def test_answers_do_not_depend_on_the_budget(self, monkeypatch):
        """No inverse kept, two kept, or the default budget: every solve ends
        with the same status and objective."""
        models = [_random_mip(seed).freeze() for seed in range(20)]
        models.append(_r8_max_alpha_model())
        for model in models:
            m = _rows(model)
            results = []
            for budget in (0, 2 * 8 * m * m, solver._HEAP_INVERSE_BYTES):
                with monkeypatch.context() as mp:
                    mp.setattr(solver, "_HEAP_INVERSE_BYTES", budget)
                    results.append(solve(model))
            for r in results[1:]:
                assert r.status is results[0].status
                assert r.objective == pytest.approx(results[0].objective,
                                                    rel=1e-9, abs=1e-9)


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
        # six jobs: a broken cap forks at most five processes
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with worker_pool(5000) as pmap:
            pids = pmap(lambda job: os.getpid(), range(6))
        assert len(set(pids)) <= 3
        assert os.getpid() in pids
        with worker_pool(2) as pmap:
            assert pmap(lambda job: os.getpid(), [0]) == [os.getpid()]

    def test_larger_knapsack_parallel(self):
        vals = [4, 7, 2, 9, 5, 8, 3, 6, 1, 7, 5, 2]
        wts = [3, 6, 1, 8, 4, 7, 2, 5, 1, 6, 4, 2]
        r1 = solve(_knapsack(vals, wts, 17).freeze(), SolveConfig(workers=1))
        r4 = solve(_knapsack(vals, wts, 17).freeze(), SolveConfig(workers=4))
        assert r1.status is SolveStatus.OPTIMAL
        assert r4.objective == pytest.approx(r1.objective)


class _NoPickle(Exception):
    """Pickles, but cannot be unpickled: its constructor takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerPool:
    """worker_pool's forked map: every child is reaped whatever happens, and
    a child's failure surfaces in the caller."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # two processes per pmap, however many CPUs the host has
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_a_closure_runs_in_the_child_and_nothing_is_left(self):
        caller = os.getpid()
        scale = 3
        with worker_pool(2) as pmap:
            out = pmap(lambda job: (job * scale, os.getpid() != caller), range(5))
        assert [v for v, _ in out] == [0, 3, 6, 9, 12]
        # each process starts with its own job: job 0 here, job 1 in the child
        assert [in_child for _, in_child in out[:2]] == [False, True]
        _assert_no_child_left()

    def test_more_jobs_than_the_queue_holds_come_back_in_order(self):
        with worker_pool(2) as pmap:
            assert pmap(lambda j: -j, range(2500)) == [-j for j in range(2500)]
        _assert_no_child_left()

    def test_a_child_exception_is_raised_in_the_caller(self):
        caller = os.getpid()

        def job(j):
            if os.getpid() != caller:
                raise ValueError(f"job {j} failed in the child")
            return j

        with worker_pool(2) as pmap, pytest.raises(ValueError, match="job 1 failed"):
            pmap(job, [0, 1])
        _assert_no_child_left()

    def test_an_exception_that_does_not_unpickle_becomes_a_runtime_error(self):
        def job(j):
            if j == 1:
                raise _NoPickle(1, 2)
            return j

        with worker_pool(2) as pmap, pytest.raises(RuntimeError, match="_NoPickle: 1 and 2"):
            pmap(job, [0, 1])
        _assert_no_child_left()

    def test_a_child_that_dies_mid_job_is_an_error_not_a_hang(self):
        caller = os.getpid()

        def job(j):
            if os.getpid() != caller:
                os._exit(3)
            return j

        with worker_pool(2) as pmap, pytest.raises(RuntimeError, match="code 3"):
            pmap(job, [0, 1])
        _assert_no_child_left()

    def test_a_result_larger_than_the_pipe_buffer_comes_back_intact(self):
        with worker_pool(2) as pmap:
            out = pmap(lambda j: np.arange(200_000, dtype=np.float64) + j, [0, 1])
        assert out[1].nbytes > 1 << 20
        assert np.array_equal(out[1], np.arange(200_000) + 1.0)
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_failing_caller_share_kills_the_children(self, error):
        caller = os.getpid()

        def job(j):
            if os.getpid() == caller:
                raise error("the caller's share failed")
            time.sleep(60)

        t0 = time.monotonic()
        with worker_pool(2) as pmap, pytest.raises(error):
            pmap(job, [0, 1])
        assert time.monotonic() - t0 < 30  # killed, not waited for
        _assert_no_child_left()


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


@given(seed=st.integers(0, 20_000))
@settings(max_examples=60)
def test_dual_bound_stays_valid_under_a_loose_gap(seed):
    """At a loose MIP gap most node LPs stop at the incumbent's cutoff, and
    the reported dual bound must count the bound each stopped at: on every
    OPTIMAL result it never lies past the brute-force optimum."""
    m = _random_mip(seed, n_bin=6, n_cont=2).freeze()
    ref = enumerate_mip(m)
    if ref.status != "optimal":
        return
    sign = -1.0 if m.dense_arrays().maximize else 1.0  # internal minimize
    tol = 1e-9 * max(1.0, abs(ref.objective))
    for gap in (0.05, 0.3, 1.0):
        r = solve(m, SolveConfig(mip_gap=gap))
        if r.status is SolveStatus.OPTIMAL:
            assert sign * r.dual_bound <= sign * ref.objective + tol, gap


class TestRootRepair:
    """solve's repair: called once, on a fractional root LP point that is
    neither pruned nor integral; its candidate becomes the incumbent only if
    it is feasible and strictly better."""

    # LP root: item 0 whole and item 1 at 2/3, 12.33; integer optimum 9
    VALUES, WEIGHTS, CAP = [9, 5, 4], [5, 3, 3], 7

    @classmethod
    def _model(cls, cap=None, warm=None) -> MipModel:
        m = _knapsack(cls.VALUES, cls.WEIGHTS, cls.CAP if cap is None else cap)
        if warm is not None:
            m.set_warm_start(dict(enumerate(warm)))
        return m.freeze()

    @staticmethod
    def _repair(candidate):
        calls = []

        def repair(x):
            calls.append(x.copy())
            return np.array(candidate, dtype=np.float64)
        return repair, calls

    def test_called_once_at_a_fractional_root(self):
        repair, calls = self._repair([0.0, 1.0, 1.0])
        r = solve(self._model(), SolveConfig(), repair=repair)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(9.0)
        assert r.nodes_explored > 1
        assert len(calls) == 1
        assert calls[0][1] == pytest.approx(2.0 / 3.0)  # the root LP point

    def test_feasible_candidate_is_the_root_incumbent(self):
        repair, _ = self._repair([0.0, 1.0, 1.0])
        r = solve(self._model(), SolveConfig(node_limit=1), repair=repair)
        assert r.status is SolveStatus.LIMIT
        assert r.objective == 9.0
        assert [r.assignment[i] for i in range(3)] == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("candidate", [
        [1.0, 1.0, 1.0],    # over the capacity
        [1.0, 0.4, 0.0],    # a fractional binary
        [1.0, 0.0, -0.5],   # outside a bound
        [math.nan, 1.0, 1.0],
    ])
    def test_infeasible_candidate_is_never_adopted(self, candidate):
        repair, calls = self._repair(candidate)
        r = solve(self._model(), SolveConfig(node_limit=1), repair=repair)
        assert len(calls) == 1
        assert r.status is SolveStatus.LIMIT and r.assignment is None

    @pytest.mark.parametrize("candidate", [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    def test_candidate_no_better_than_the_incumbent_is_never_adopted(self, candidate):
        # the warm start {item 0} is worth 9: the first candidate ties, the
        # second is worse
        repair, calls = self._repair(candidate)
        r = solve(self._model(warm=[1.0, 0.0, 0.0]), SolveConfig(node_limit=1),
                  repair=repair)
        assert len(calls) == 1
        assert [r.assignment[i] for i in range(3)] == [1.0, 0.0, 0.0]

    def test_never_called_at_an_integral_root(self):
        repair, calls = self._repair([0.0, 0.0, 0.0])
        r = solve(self._model(cap=8), SolveConfig(), repair=repair)  # items 0, 1
        assert r.status is SolveStatus.OPTIMAL and r.objective == pytest.approx(14.0)
        assert calls == []

    def test_never_called_at_a_pruned_root(self):
        # at gap 0.5 the warm start's 9 prunes the root's bound of 12.33
        repair, calls = self._repair([0.0, 1.0, 1.0])
        r = solve(self._model(warm=[1.0, 0.0, 0.0]), SolveConfig(mip_gap=0.5),
                  repair=repair)
        assert r.nodes_explored == 1 and r.objective == 9.0
        assert calls == []

    def test_never_called_at_an_infeasible_root(self):
        m = MipModel("empty")
        b = m.add_binary("b")
        m.add_constraint("r", [(b, 1.0)], RowSense.GE, 2.0)
        repair, calls = self._repair([1.0])
        assert solve(m.freeze(), repair=repair).status is SolveStatus.INFEASIBLE
        assert calls == []


class TestIncumbentGate:
    """Every incumbent, from the warm start, the root repair or an integral
    LP point, has its binaries rounded before its bounds and rows are checked,
    so every returned assignment passes check_feasible at INT_TOL."""

    # the warm start's binary passes within INT_TOL, and its 1000 b makes up
    # the 9e-4 that x lacks on the cover row; rounded, it breaks that row
    POINT = [0.9991, 9e-7]

    @staticmethod
    def _model(extra_binary=False) -> MipModel:
        """min x (+ c) s.t. x + 1000 b >= 1, b <= 0 (, c >= 0.5): x is 1 at
        the optimum. The binary c makes the root LP fractional."""
        m = MipModel("gate")
        x = m.add_variable("x", 0.0, 10.0)
        b = m.add_binary("b")
        m.add_constraint("cover", [(x, 1.0), (b, 1000.0)], RowSense.GE, 1.0)
        m.add_constraint("off", [(b, 1.0)], RowSense.LE, 0.0)
        obj = [(x, 1.0)]
        if extra_binary:
            c = m.add_binary("c")
            m.add_constraint("half", [(c, 1.0)], RowSense.GE, 0.5)
            obj.append((c, 1.0))
        m.set_objective(obj, ObjSense.MINIMIZE)
        return m

    def test_warm_start_is_checked_after_rounding(self):
        m = self._model()
        m.set_warm_start(dict(enumerate(self.POINT)))
        r = solve(m.freeze())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(1.0, abs=1e-12)
        assert r.objective == pytest.approx(enumerate_mip(m).objective, abs=1e-9)
        assert check_feasible(m, r.assignment, solver.INT_TOL)

    def test_repair_candidate_is_checked_after_rounding(self):
        m = self._model(extra_binary=True).freeze()
        calls = []

        def repair(x):
            calls.append(x.copy())
            return np.array(self.POINT + [1.0])

        r = solve(m, SolveConfig(node_limit=1), repair=repair)
        assert len(calls) == 1
        assert r.status is SolveStatus.LIMIT and r.assignment is None
        r = solve(m, repair=repair)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(2.0, abs=1e-12)
        assert check_feasible(m, r.assignment, solver.INT_TOL)

    def test_integral_lp_point_breaking_a_row_is_never_reported(self, monkeypatch):
        """A confirmed integral point that breaks a row by 1e-3 (here from a
        patched confirmation) does not become the incumbent."""
        broken = [0.999, 0.0]
        monkeypatch.setattr(solver, "_integral_solution",
                            lambda *args: np.array(broken))
        m = self._model().freeze()
        r = solve(m)
        assert r.assignment is None or check_feasible(m, r.assignment, solver.INT_TOL)
        assert r.assignment != dict(enumerate(broken))
        assert not (r.status is SolveStatus.OPTIMAL
                    and r.objective == pytest.approx(broken[0]))


@given(seed=st.integers(0, 20_000),
       nudge=st.lists(st.floats(-solver.INT_TOL, solver.INT_TOL), min_size=6, max_size=6))
@settings(max_examples=40)
def test_nudged_warm_starts_give_feasible_assignments(seed, nudge):
    """A warm start at the brute-force optimum, or at the bounds' lower
    corner, with each binary moved by up to INT_TOL: every returned
    assignment passes check_feasible at INT_TOL, and every optimum is the
    brute force's."""
    m = _random_mip(seed)
    ref = enumerate_mip(m)
    warm = dict(ref.assignment or {v: var.lo for v, var in enumerate(m.variables)})
    for v, dv in zip(m.binary_ids, nudge):
        warm[v] += dv
    m.set_warm_start(warm)
    mine = solve(m.freeze(), SolveConfig())
    if mine.assignment is not None:
        assert check_feasible(m, mine.assignment, solver.INT_TOL)
    if ref.status == "infeasible":
        assert mine.status is SolveStatus.INFEASIBLE
    elif ref.status == "optimal":
        assert mine.status is SolveStatus.OPTIMAL, mine.status
        assert abs(mine.objective - ref.objective) <= 1e-6 * max(1.0, abs(ref.objective))
