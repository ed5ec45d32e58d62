"""End-to-end verification queries: perturbation bounds, network resilience,
robustness verdicts, attainable dominance ratios."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resilmip import resilience, solver, zoo
from resilmip.dataflow import (
    LOOKBACK_NODE_LIMIT,
    IntervalBounds,
    LayerBounds,
    _refresh_outputs,
    linear_bounds,
    meet,
    propagate_intervals,
    tighten_lookback,
)
from resilmip.encoder import EncodingError, QueryKind, QuerySpec, encode_query
from resilmip.mipmodel import check_feasible, export_mps
from resilmip.network import (
    DENSE_KINDS,
    LayerKind,
    LayerSpec,
    Network,
    competitor_count,
    strongly_classifies,
)
from resilmip.oracle import enumerate_mip, grid_phi
from resilmip.resilience import (
    Verdict,
    check_local_robustness,
    compute_max_alpha,
    compute_phi,
    compute_xi,
    find_strong_anchor,
)
from resilmip.solver import SolveConfig, SolveResult, SolveStatus

from conftest import assert_same_bounds, assert_trace_in_bounds, r8_net


class TestComputePhi:
    def test_linear_two_class_exact_bound(self):
        net = zoo.two_class_linear()
        r = compute_phi(net, 1, alpha=math.e)
        assert r.exact
        assert r.status is SolveStatus.OPTIMAL
        assert r.phi == pytest.approx(1.0, abs=1e-7)
        assert r.anchor == pytest.approx([1.0, 0.0], abs=1e-6)
        # the witness really is a boundary crossing
        assert competitor_count(net, r.perturbed, 1, tol=1e-7) >= 1
        assert float(np.abs(r.eps).sum()) == pytest.approx(r.phi, abs=1e-7)

    def test_three_class_overlap_two(self):
        net = zoo.three_class_linear()
        r = compute_phi(net, 1, alpha=math.e, k=2)
        assert r.exact
        assert r.phi == pytest.approx(1.0, abs=1e-7)

    def test_rectifier_fixture_matches_the_grid(self):
        net = zoo.relu_mixed_phases()
        r = compute_phi(net, 1, alpha=math.e)
        assert r.exact
        assert r.phi == pytest.approx(0.5, abs=1e-7)
        g = grid_phi(net, 1, alpha=math.e, step=0.05)
        assert abs(r.phi - g.phi) <= g.resolution + 1e-9

    def test_pool_duel_exact_bound(self):
        net = zoo.pool_duel()
        r = compute_phi(net, 1, alpha=math.e)
        assert r.exact
        assert r.phi == pytest.approx(0.5, abs=1e-7)
        assert r.witness_exact is True

    def test_witness_validation_flags_envelope_slack(self):
        exact = compute_phi(zoo.two_class_linear(), 1, alpha=math.e)
        assert exact.witness_exact is True
        relaxed = compute_phi(zoo.atan_narrow(), 1, alpha=math.e)
        assert relaxed.witness_exact is False  # optimum rides the envelope
        vacuous = compute_phi(zoo.two_class_linear(), 1, alpha=math.exp(1.5))
        assert vacuous.witness_exact is None

    def test_arc_tangent_bound_close_to_analytic(self):
        # strong region of class 1 at ratio e is x >= tan(1/2); the dominated
        # set is x <= 0, so the exact bound is tan(1/2) up to envelope width
        net = zoo.atan_narrow()
        r = compute_phi(net, 1, alpha=math.e)
        assert r.exact
        assert r.phi == pytest.approx(math.tan(0.5), abs=0.03)

    def test_alpha_above_the_attainable_ratio_is_vacuous(self):
        net = zoo.two_class_linear()
        r = compute_phi(net, 1, alpha=math.exp(1.5))
        assert r.status is SolveStatus.INFEASIBLE
        assert math.isinf(r.phi)
        assert r.exact

    def test_empty_dominance_region_ends_after_stage_two(self, monkeypatch, always_first):
        # stage 1 finds an anchor, and stage 2 proves that no point lets the
        # rival catch up
        net = always_first
        models = []
        real = resilience.solve

        def spy(model, config=None):
            models.append(model.name)
            return real(model, config)

        monkeypatch.setattr(resilience, "solve", spy)
        r = compute_phi(net, 1)
        assert r.status is SolveStatus.INFEASIBLE
        assert math.isinf(r.phi) and math.isinf(r.lower_bound)
        assert models == ["anchor_m1", "fixed_min_m1"]
        assert math.isinf(grid_phi(net, 1).phi)

    def test_an_early_exit_keeps_the_solve_that_ended_it(self, monkeypatch, always_first):
        """Stage 2's INFEASIBLE proof ends phi on always_first, stage 1's
        ends it on two_class_linear at alpha e^2: each result keeps that
        stage's solve record."""
        results = []
        real = resilience.solve

        def spy(model, config=None):
            results.append((model.name, real(model, config)))
            return results[-1][1]

        monkeypatch.setattr(resilience, "solve", spy)
        for net, alpha, last in ((always_first, 1.0, "fixed_min_m1"),
                                 (zoo.two_class_linear(), math.exp(2.0), "anchor_m1")):
            results.clear()
            r = compute_phi(net, 1, alpha=alpha)
            assert r.status is SolveStatus.INFEASIBLE
            assert results[-1][0] == last
            assert r.solve is results[-1][1]
            assert r.solve.status is SolveStatus.INFEASIBLE
            assert r.solve.nodes_explored >= 1

    def test_monotone_in_alpha_and_overlap(self):
        net = zoo.three_class_linear()
        phis = [compute_phi(net, 1, alpha=a).phi for a in (1.0, 1.5, math.e)]
        assert phis == sorted(phis)
        assert compute_phi(net, 1, alpha=math.e, k=2).phi >= phis[-1] - 1e-6

    def test_seed_stage_never_beats_the_final_bound(self):
        for name in ("two_class_linear", "relu_mixed_phases", "pool_pairs"):
            r = compute_phi(zoo.FIXTURES[name](), 1, alpha=1.2)
            assert r.anchor_phi is not None
            assert r.anchor_phi >= r.phi - 1e-9

    def test_user_anchor_accepted_and_validated(self):
        net = zoo.two_class_linear()
        r = compute_phi(net, 1, alpha=math.e, a_ini=np.array([1.0, 0.0]))
        assert r.phi == pytest.approx(1.0, abs=1e-7)
        with pytest.raises(ValueError):
            compute_phi(net, 1, alpha=math.e, a_ini=np.array([0.2, 0.1]))

    def test_user_anchor_outside_the_box_is_rejected(self):
        with pytest.raises(EncodingError):
            compute_phi(zoo.two_class_linear(), 1, a_ini=np.array([1.5, 0.0]))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_user_anchor_is_rejected(self, x):
        with pytest.raises(EncodingError, match="non-finite"):
            compute_phi(zoo.two_class_linear(), 1, a_ini=np.array([x, 0.0]))

    @pytest.mark.parametrize("m,k", [(1, 3), (0, 1), (4, 1)])
    def test_invalid_query_is_rejected_before_any_solve(self, monkeypatch, m, k):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an invalid query")

        monkeypatch.setattr(resilience, "solve", no_solve)
        monkeypatch.setattr(resilience, "find_strong_anchor", no_solve)
        with pytest.raises(EncodingError):
            compute_phi(zoo.three_class_linear(), m, alpha=math.e, k=k)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_is_rejected_before_any_solve(self, monkeypatch, alpha):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an invalid query")

        # lookback's windows look solve up on the solver module
        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(resilience, "solve", no_solve)
        monkeypatch.setattr(resilience, "find_strong_anchor", no_solve)
        net = zoo.relu_mixed_phases()
        with pytest.raises(EncodingError, match="alpha"):
            compute_phi(net, 1, alpha=alpha, lookback=2)
        with pytest.raises(EncodingError, match="alpha"):
            compute_xi(net, alpha=alpha, lookback=2)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_is_rejected_before_any_solve(self, monkeypatch, delta):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an invalid query")

        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(resilience, "solve", no_solve)
        with pytest.raises(EncodingError, match="delta"):
            check_local_robustness(zoo.relu_mixed_phases(), np.array([1.0, 1.0]),
                                   delta, lookback=2)

    def test_stage_one_anchor_round_off_is_clipped(self, monkeypatch):
        # the simplex lets a basic variable leave its bounds by up to 1e-8
        real = resilience.find_strong_anchor

        def off_the_box(net, *args):
            anchor, res, solution = real(net, *args)
            anchor[0] = net.input_bounds[0, 1] + 5e-9
            return anchor, res, solution

        monkeypatch.setattr(resilience, "find_strong_anchor", off_the_box)
        r = compute_phi(zoo.two_class_linear(), 1, alpha=math.e)
        assert r.status is SolveStatus.OPTIMAL
        assert r.phi == pytest.approx(1.0, abs=1e-7)

    def test_cold_solve_agrees_with_the_seeded_one(self):
        net = zoo.relu_mixed_phases()
        warm = compute_phi(net, 1, alpha=math.e)
        # the free-anchor model, solved with no seed from the earlier stages
        enc = encode_query(net, propagate_intervals(net),
                           QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e))
        cold = solver.solve(enc.model)
        assert cold.objective == pytest.approx(warm.phi, abs=1e-6)

    def test_lookback_tightening_keeps_the_answer(self):
        net = zoo.relu_mixed_phases()
        base = compute_phi(net, 1, alpha=math.e)
        tight = compute_phi(net, 1, alpha=math.e, lookback=2)
        assert tight.phi == pytest.approx(base.phi, abs=1e-6)

    def test_lookback_probes_get_the_callers_limits(self, monkeypatch):
        # resilience binds solve by name, so this spy sees only the window
        # solves of lookback, which look it up on the solver module
        seen = []
        real = solver.solve

        def spy(model, config=None, start=None, repair=None):
            seen.append(config)
            return real(model, config, start=start, repair=repair)

        monkeypatch.setattr(solver, "solve", spy)
        cfg = SolveConfig(time_limit=30.0, mip_gap=1e-3)
        compute_phi(zoo.relu_mixed_phases(), 1, alpha=math.e, config=cfg, lookback=2)
        assert seen
        assert all((c.mip_gap, c.node_limit) == (0.0, LOOKBACK_NODE_LIMIT)
                   for c in seen)
        # the caller's time limit bounds all windows together (one deadline)
        limits = [c.time_limit for c in seen]
        assert all(0.0 < t <= 30.0 for t in limits)
        assert limits == sorted(limits, reverse=True)

    def test_node_limit_yields_an_honest_partial_result(self):
        net = zoo.relu_mixed_phases()
        r = compute_phi(net, 1, alpha=math.e, config=SolveConfig(node_limit=1))
        if r.status is SolveStatus.LIMIT:
            assert not r.exact
            # the seeded incumbent still gives a valid upper bound
            assert r.phi >= 0.5 - 1e-7
            assert r.lower_bound <= r.phi + 1e-9
        else:  # the tiny fixture may legitimately finish at the root
            assert r.exact


class TestFindStrongAnchor:
    def test_anchor_is_strongly_classified(self):
        net = zoo.relu_mixed_phases()
        bounds = propagate_intervals(net)
        a, res, solution = find_strong_anchor(net, 1, math.e, bounds)
        assert res.status is SolveStatus.OPTIMAL
        assert strongly_classifies(net, a, 1, math.e)
        # the solution, by name: the anchor inputs and the body copy, all of
        # them variables of the free-anchor model too
        assert [solution[f"a{i}"] for i in range(net.input_dim)] == list(a)
        full = encode_query(net, bounds,
                            QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e))
        assert len(solution) > net.input_dim
        assert set(solution) <= {v.name for v in full.model.variables}

    def test_empty_strong_region_reports_infeasible(self):
        net = zoo.two_class_linear()
        a, res, solution = find_strong_anchor(net, 1, math.exp(2.0),
                                              propagate_intervals(net))
        assert a is None
        assert solution is None
        assert res.status is SolveStatus.INFEASIBLE


def _full_stage(monkeypatch, net, m, alpha, **kw):
    """compute_phi's result and the model it solves in its full stage."""
    models = []
    real = resilience.solve

    def spy(model, config=None):
        models.append(model)
        return real(model, config)

    monkeypatch.setattr(resilience, "solve", spy)
    r = compute_phi(net, m, alpha=alpha, **kw)
    assert models[-1].name == f"max_perturbation_m{m}"
    return r, models[-1]


class TestFullStage:
    @pytest.mark.parametrize("name", ["relu_mixed_phases", "atan_wide", "pool_pairs"])
    def test_model_is_the_encoded_query_unchanged(self, monkeypatch, name):
        net = zoo.FIXTURES[name]()
        _, model = _full_stage(monkeypatch, net, 1, math.e)
        fresh = encode_query(net, propagate_intervals(net),
                             QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e))
        assert export_mps(model) == export_mps(fresh.model)

    @pytest.mark.parametrize("name", ["atan_narrow", "atan_wide"])
    def test_arc_tangent_warm_starts_are_accepted(self, monkeypatch, name):
        # the exact traces of stage 2's envelope-relaxed witness miss a DOM
        # row here; the stage solutions themselves satisfy every row
        net = zoo.FIXTURES[name]()
        for m in range(1, net.num_classes + 1):
            r, model = _full_stage(monkeypatch, net, m, math.e)
            if r.status is SolveStatus.INFEASIBLE:
                continue
            assert model.warm_start is not None
            assert check_feasible(model, model.warm_start, solver.INT_TOL)


class TestComputeXi:
    def test_symmetric_two_class_net(self):
        net = zoo.two_class_linear()
        r = compute_xi(net, alpha=math.e)
        assert r.xi == pytest.approx(1.0, abs=1e-7)
        assert r.weakest_class in (1, 2)
        assert r.excluded == []
        assert set(r.per_class) == {1, 2}

    @pytest.mark.parametrize("name", ["relu_deep", "pool_pairs", "three_class_linear",
                                      "relu_mixed_phases"])
    def test_unresolved_class_is_not_excluded(self, name):
        # no node is solved: no class is settled either way
        r = compute_xi(zoo.FIXTURES[name](), alpha=math.e,
                       config=SolveConfig(node_limit=0))
        assert r.status is not SolveStatus.OPTIMAL
        assert all(r.per_class[m].status is SolveStatus.INFEASIBLE
                   for m in r.excluded)

    def test_unreachable_class_is_excluded_not_binding(self):
        net = zoo.three_class_linear()
        r = compute_xi(net, alpha=math.e)
        assert r.excluded == [3]  # the constant rival never leads by ratio e
        assert r.xi == pytest.approx(1.0, abs=1e-7)
        assert math.isinf(r.per_class[3].phi)
        # its stage-1 proof is its solve record
        assert r.per_class[3].solve.status is SolveStatus.INFEASIBLE
        assert r.per_class[3].solve.nodes_explored >= 1


class TestLocalRobustness:
    def test_budget_below_the_bound_is_robust(self):
        net = zoo.two_class_linear()
        r = check_local_robustness(net, np.array([1.0, 0.0]), 0.9)
        assert r.verdict is Verdict.ROBUST
        assert r.m == 1  # argmax default

    def test_budget_above_the_bound_is_violated_with_a_real_witness(self):
        net = zoo.two_class_linear()
        r = check_local_robustness(net, np.array([1.0, 0.0]), 1.1)
        assert r.verdict is Verdict.VIOLATED
        assert float(np.abs(r.eps).sum()) <= 1.1 + 1e-6
        assert competitor_count(net, r.perturbed, 1, tol=1e-6) >= 1

    def test_envelope_slack_is_reported_not_trusted(self):
        # from x = -0.995 the budget box [-1, 0.205] still leaves room inside
        # the arc-tangent envelope of atan_wide but not in the function
        r = check_local_robustness(zoo.atan_wide(), np.array([-0.995]), 1.2)
        assert r.verdict is Verdict.UNKNOWN
        assert "envelope" in r.note
        # at x = 1 the true flip distance of atan_narrow is exactly 1: over
        # its budget box [0.002, 1] the envelope is tight enough to prove a
        # budget a hair under it
        r = check_local_robustness(zoo.atan_narrow(), np.array([1.0]), 0.998)
        assert r.verdict is Verdict.ROBUST

    def test_clear_arc_tangent_violation_validates(self):
        net = zoo.atan_narrow()
        r = check_local_robustness(net, np.array([1.0]), 1.2)
        assert r.verdict is Verdict.VIOLATED
        assert r.perturbed[0] < 0.0

    def test_overlap_two_needs_two_rivals(self):
        net = zoo.three_class_linear()
        # from (1, 0), both rivals reach class 1 only on {x1 = 0}
        assert check_local_robustness(net, np.array([1.0, 0.0]), 0.9,
                                      k=2).verdict is Verdict.ROBUST
        r = check_local_robustness(net, np.array([1.0, 0.0]), 1.1, k=2)
        assert r.verdict is Verdict.VIOLATED
        assert competitor_count(net, r.perturbed, 1, tol=1e-6) >= 2

    @pytest.mark.parametrize("m", [None, 1])
    @pytest.mark.parametrize("anchor,match", [
        ([math.nan, 0.0], "non-finite"), ([math.inf, 0.0], "non-finite"),
        ([-math.inf, 0.0], "non-finite"), ([1.0, 0.0, 0.0], "dimension"),
    ])
    def test_bad_anchor_is_rejected_before_the_top_class(self, anchor, match, m):
        # the default class comes from the anchor's scores, so the anchor is
        # checked first: no RuntimeWarning and no model-construction error
        with pytest.raises(EncodingError, match=match):
            check_local_robustness(zoo.two_class_linear(), np.array(anchor), 0.1, m=m)


def _seeded_robustness_case(seed: int):
    """A seeded random rectifier net, an anchor in its domain and a budget."""
    rng = np.random.default_rng(seed)
    net = zoo.random_relu_net(rng, input_dim=2,
                              hidden=tuple(int(rng.integers(2, 4))
                                           for _ in range(int(rng.integers(1, 3)))),
                              classes=int(rng.integers(2, 4)), scale=2.0)
    return net, rng.uniform(-1.0, 1.0, size=2), float(rng.uniform(0.05, 1.0))


class TestBudgetBoxBounds:
    @pytest.mark.parametrize("seed", range(16))
    def test_verdict_matches_enumeration_over_the_domain(self, seed):
        net, a, delta = _seeded_robustness_case(seed)
        r = check_local_robustness(net, a, delta)
        q = QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=r.m, a=a, delta=delta)
        ref = enumerate_mip(encode_query(net, propagate_intervals(net), q).model)
        assert r.verdict is (Verdict.ROBUST if ref.status == "infeasible"
                             else Verdict.VIOLATED)

    @pytest.mark.parametrize("seed", range(16))
    def test_given_domain_bounds_add_no_nodes(self, seed):
        net, a, delta = _seeded_robustness_case(seed)
        r = check_local_robustness(net, a, delta)
        given = check_local_robustness(net, a, delta, bounds=propagate_intervals(net))
        assert given.verdict is r.verdict
        assert given.solve.nodes_explored <= r.solve.nodes_explored

    def test_other_queries_tighten_the_domain_bounds(self):
        """A query over the whole domain takes the plain intervals met with
        their back-substituted bounds: never looser anywhere, and strictly
        tighter on R8, and on lookback_chain's output, [-2, 1] -> [-1, 1]."""
        for net, tighter in ((zoo.relu_deep(), False), (r8_net(), True)):
            plain = propagate_intervals(net)
            for q in (QuerySpec(QueryKind.MAX_PERTURBATION, m=1,
                                a=np.full(net.input_dim, 0.5)),
                      QuerySpec(QueryKind.MAX_ALPHA, m=1)):
                got = resilience.query_bounds(net, q, None, None, None)
                for g, p in zip(got.layers, plain.layers):
                    assert np.all(g.lo >= p.lo) and np.all(g.hi <= p.hi)
                assert tighter == any(np.any(g.lo > p.lo) or np.any(g.hi < p.hi)
                                      for g, p in zip(got.layers, plain.layers))
        chain = zoo.lookback_chain()  # one score, so no query: the bounds command's path
        got = resilience.prepare_bounds(chain, None, None, None).layers[1]
        assert propagate_intervals(chain).layers[1].im_lo[0] == -2.0
        assert got.im_lo[0] == pytest.approx(-1.0, abs=1e-12) and got.im_hi[0] == 1.0
        with pytest.raises(EncodingError):  # checked before any bound is built
            resilience.query_bounds(zoo.relu_deep(), QuerySpec(QueryKind.MAX_ALPHA, m=9),
                                    None, 2, None)

    def test_a_stable_relu_loses_its_binary(self):
        net = zoo.relu_deep()
        a = np.array([0.5, 0.5])
        q = QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=a, delta=0.2)
        box = resilience.query_bounds(net, q, None, None, None)
        whole = encode_query(net, propagate_intervals(net), q).model
        model = encode_query(net, box, q).model
        assert len(model.binary_ids) < len(whole.binary_ids)
        # the perturbed inputs are declared over the budget box
        p = [v for v in model.variables if v.name in ("p0", "p1")]
        assert [(v.lo, v.hi) for v in p] == [(0.3, 0.7), (0.3, 0.7)]


def _layerwise_meet(net: Network, a: IntervalBounds, b: IntervalBounds) -> IntervalBounds:
    """Layer by layer, the intersection of two bounds of net, with phases
    and outputs recomputed from the intersected pre-activation bounds."""
    out = IntervalBounds(*meet(a.input_lo, a.input_hi, b.input_lo, b.input_hi))
    for spec, la, lb in zip(net.layers, a.layers, b.layers):
        if spec.kind in DENSE_KINDS:
            im_lo, im_hi = meet(la.im_lo, la.im_hi, lb.im_lo, lb.im_hi)
            layer = LayerBounds(lo=im_lo, hi=im_hi, im_lo=im_lo, im_hi=im_hi)
            _refresh_outputs(spec, layer)
        else:
            layer = LayerBounds(*meet(la.lo, la.hi, lb.lo, lb.hi))
        out.layers.append(layer)
    return out


_SOFTMAX_FIXTURES = sorted(name for name, make in zoo.FIXTURES.items()
                           if make().ends_in_softmax)


class TestCallerBounds:
    """Verify over bounds the caller gives: query_bounds meets the budget
    box B into their input box, and linear_bounds refines every layer from
    there."""

    @given(seed=st.integers(0, 100_000),
           fixture=st.sampled_from([None, *_SOFTMAX_FIXTURES]),
           kind=st.sampled_from(["domain", "lookback", "sub-box"]))
    def test_caller_bounds_are_met_with_the_budget_box(self, seed, fixture, kind):
        """Where the caller's input box contains B, the bounds are bit for
        bit those of linear_bounds over the layerwise meet of B's intervals
        and the caller's bounds. Otherwise every trace from the met box lies
        inside them, and none is looser than that meet."""
        rng = np.random.default_rng(seed)
        if fixture is None:
            net = zoo.random_relu_net(rng, input_dim=int(rng.integers(1, 4)),
                                      hidden=tuple(int(rng.integers(1, 5))
                                                   for _ in range(int(rng.integers(1, 3)))),
                                      classes=int(rng.integers(2, 4)), scale=2.0)
        else:
            net = zoo.FIXTURES[fixture]()
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        a = rng.uniform(lo, hi)
        delta = float(rng.uniform(0.0, 1.0) * np.max(hi - lo))
        box = (np.maximum(lo, a - delta), np.minimum(hi, a + delta))
        plain = propagate_intervals(net)
        if kind == "domain":
            caller = plain
        elif kind == "lookback":
            caller = tighten_lookback(net, plain, depth=2)
        else:  # a sub-box around the anchor, so that it meets B
            caller = propagate_intervals(net, (rng.uniform(lo, a), rng.uniform(a, hi)))
        q = QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=a, delta=delta)
        got = resilience.query_bounds(net, q, caller, None, None)
        both = _layerwise_meet(net, propagate_intervals(net, box), caller)
        if np.all(caller.input_lo <= box[0]) and np.all(box[1] <= caller.input_hi):
            want = linear_bounds(net, both)
            assert got.input_lo.tobytes() == want.input_lo.tobytes()
            assert got.input_hi.tobytes() == want.input_hi.tobytes()
            assert_same_bounds(got.layers, want.layers)
            return
        m_lo, m_hi = got.input_lo, got.input_hi
        np.testing.assert_array_equal(m_lo, both.input_lo)
        np.testing.assert_array_equal(m_hi, both.input_hi)
        for point in np.vstack([m_lo + rng.random((50, net.input_dim)) * (m_hi - m_lo),
                                m_lo, m_hi]):
            assert_trace_in_bounds(net, got, point)
        for g, b in zip(got.layers, both.layers):
            assert np.all(g.lo >= b.lo) and np.all(g.hi <= b.hi)
            if b.im_lo is not None:
                assert np.all(g.im_lo >= b.im_lo) and np.all(g.im_hi <= b.im_hi)


def _small_relu_net(seed: int) -> Network:
    """A seeded random 2-2-2-2 rectifier net, small enough that its phi
    models' binaries can be enumerated."""
    return zoo.random_relu_net(np.random.default_rng(seed), input_dim=2, hidden=(2, 2),
                               classes=2, scale=1.0)


def _within_gap(value: float, ref: float) -> bool:
    if math.isinf(ref):
        return value == ref
    return abs(value - ref) <= SolveConfig().mip_gap * max(1.0, abs(ref)) + 1e-9


class TestLinearBoundAnswers:
    """Every query is encoded over back-substituted bounds (resilience.
    prepare_bounds); its answer must be the exhaustive optimum of the same
    query encoded over the plain intervals. Verify verdicts are checked so
    in TestBudgetBoxBounds.test_verdict_matches_enumeration_over_the_domain."""

    @pytest.mark.parametrize("seed", range(16))
    def test_max_alpha_matches_enumeration_over_the_domain(self, seed):
        net, _, _ = _seeded_robustness_case(seed)
        plain = propagate_intervals(net)
        for m in range(1, net.num_classes + 1):
            r = compute_max_alpha(net, m)
            ref = enumerate_mip(encode_query(net, plain,
                                             QuerySpec(QueryKind.MAX_ALPHA, m=m)).model)
            assert r.status is SolveStatus.OPTIMAL
            assert _within_gap(r.t_star, ref.objective)

    @pytest.mark.parametrize("seed", range(10))
    def test_phi_matches_enumeration_over_the_domain(self, seed):
        """For each class that can lead, at alpha halfway to its attainable
        ratio."""
        net = _small_relu_net(seed)
        plain = propagate_intervals(net)
        for m in range(1, net.num_classes + 1):
            alpha_max = compute_max_alpha(net, m).alpha_max
            if alpha_max <= 1.0:
                continue
            alpha = (1.0 + alpha_max) / 2
            r = compute_phi(net, m, alpha=alpha)
            ref = enumerate_mip(encode_query(
                net, plain, QuerySpec(QueryKind.MAX_PERTURBATION, m=m, alpha=alpha)).model)
            assert r.status is (SolveStatus.INFEASIBLE if ref.status == "infeasible"
                                else SolveStatus.OPTIMAL)
            assert _within_gap(r.phi, ref.objective)


class TestMaxAlpha:
    def test_linear_fixture_attains_ratio_e(self):
        net = zoo.two_class_linear()
        r = compute_max_alpha(net, 1)
        assert r.status is SolveStatus.OPTIMAL
        assert r.alpha_max == pytest.approx(math.e, rel=1e-7)
        assert r.t_star == pytest.approx(1.0, abs=1e-9)
        assert r.attainable
        assert r.upper_bound >= r.alpha_max - 1e-6
        assert r.anchor == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_never_leading_class_is_unattainable(self):
        net = Network(
            input_dim=1,
            input_bounds=np.array([[0.0, 1.0]]),
            layers=(
                LayerSpec(LayerKind.LINEAR_OUTPUT,
                          weights=np.array([[0.0, 1.0], [1.0, 1.0]])),
                LayerSpec(LayerKind.SOFTMAX),
            ),
        )
        r = compute_max_alpha(net, 1)  # rival score is always one higher
        assert r.t_star == pytest.approx(-1.0, abs=1e-9)
        assert r.alpha_max == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert not r.attainable

    def test_ties_give_ratio_one(self):
        net = zoo.three_class_linear()
        r = compute_max_alpha(net, 3)  # the constant score ties at the origin
        assert r.t_star == pytest.approx(0.0, abs=1e-9)
        assert r.alpha_max == pytest.approx(1.0, abs=1e-9)
        assert r.attainable

    def test_a_margin_past_the_float_range_reports_an_infinite_ratio(self):
        """e^2000 overflows float64: alpha_max and its bound are inf, and
        t* keeps the exact margin."""
        net = Network(
            input_dim=1,
            input_bounds=np.array([[0.0, 1.0]]),
            layers=(
                LayerSpec(LayerKind.LINEAR_OUTPUT,
                          weights=np.array([[0.0, 0.0], [1000.0, -1000.0]])),
                LayerSpec(LayerKind.SOFTMAX),
            ),
        )
        r = compute_max_alpha(net, 1)
        assert r.status is SolveStatus.OPTIMAL
        assert r.alpha_max == math.inf and r.upper_bound == math.inf
        assert _within_gap(r.t_star, 2000.0)
        assert r.attainable


def _ill_scaled_net(seed: int) -> Network:
    """A random 2-4-4-3 rectifier net with each hidden neuron's incoming
    weights and bias scaled by 10^U(-3, 3) and its outgoing weights divided
    by the same factor: the same function, with weights spanning about 1e6
    and more."""
    rng = np.random.default_rng(seed)
    net = zoo.random_relu_net(rng, input_dim=2, hidden=(4, 4), classes=3)
    layers, scale = [], None
    for spec in net.layers:
        if spec.weights is None:
            layers.append(spec)
            continue
        w = spec.weights.copy()
        if scale is not None:
            w[1:] /= scale[:, None]
        if spec.kind is LayerKind.RELU_DENSE:
            scale = 10.0 ** rng.uniform(-3.0, 3.0, w.shape[1])
            w *= scale
        layers.append(replace(spec, weights=w))
    return Network(net.input_dim, net.input_bounds, tuple(layers))


@pytest.mark.parametrize("seed", range(24))
def test_max_alpha_on_ill_scaled_nets_matches_enumeration(seed):
    net = _ill_scaled_net(seed)
    m = seed % 3 + 1
    r = compute_max_alpha(net, m)
    enc = encode_query(net, propagate_intervals(net), QuerySpec(QueryKind.MAX_ALPHA, m=m))
    ref = enumerate_mip(enc.model)
    assert r.status is SolveStatus.OPTIMAL and ref.status == "optimal"
    assert r.t_star == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)


class TestQueryDeadline:
    """A driver's time limit bounds the whole query. The stand-in solve
    sleeps through its time limit, capped at 0.2 s, as a search that never
    finishes would: before one deadline bounded the query, every stage and
    every lookback window took its own full limit."""

    LIMIT = 0.3

    @pytest.fixture
    def limits(self, monkeypatch):
        seen = []

        def sleepy(model, config=None, start=None, repair=None):
            seen.append(config.time_limit)
            time.sleep(min(config.time_limit, 0.2))
            return SolveResult(SolveStatus.LIMIT, math.nan, math.nan, None, 0, 0.0, math.inf)

        monkeypatch.setattr(resilience, "solve", sleepy)
        monkeypatch.setattr(solver, "solve", sleepy)  # lookback's window MIPs
        return seen

    @pytest.mark.parametrize("query", [
        lambda net, cfg: compute_phi(net, 1, alpha=math.e, config=cfg, lookback=2),
        lambda net, cfg: compute_xi(net, alpha=math.e, config=cfg),
        lambda net, cfg: check_local_robustness(net, [1.0, 1.0], 0.4, config=cfg,
                                                lookback=2),
        lambda net, cfg: compute_max_alpha(net, 1, config=cfg, lookback=2),
    ], ids=["phi", "xi", "verify", "max_alpha"])
    def test_one_deadline_per_query(self, limits, query):
        t0 = time.monotonic()
        query(zoo.relu_mixed_phases(), SolveConfig(time_limit=self.LIMIT))
        elapsed = time.monotonic() - t0
        assert len(limits) >= 2
        assert all(0.0 <= t <= self.LIMIT for t in limits)
        assert limits == sorted(limits, reverse=True)
        assert limits[-1] < 0.05
        assert elapsed < self.LIMIT + 0.15
