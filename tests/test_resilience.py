"""End-to-end verification queries: perturbation bounds, network resilience,
robustness verdicts, attainable dominance ratios."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from resilmip import resilience, solver, zoo
from resilmip.dataflow import LOOKBACK_NODE_LIMIT, propagate_intervals
from resilmip.encoder import EncodingError, QueryKind, QuerySpec, encode_query
from resilmip.mipmodel import check_feasible, format_lp
from resilmip.network import (
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
            anchor, status, solution = real(net, *args)
            anchor[0] = net.input_bounds[0, 1] + 5e-9
            return anchor, status, solution

        monkeypatch.setattr(resilience, "find_strong_anchor", off_the_box)
        r = compute_phi(zoo.two_class_linear(), 1, alpha=math.e)
        assert r.status is SolveStatus.OPTIMAL
        assert r.phi == pytest.approx(1.0, abs=1e-7)

    def test_cold_solve_agrees_with_the_seeded_one(self):
        net = zoo.relu_mixed_phases()
        warm = compute_phi(net, 1, alpha=math.e)
        cold = compute_phi(net, 1, alpha=math.e, presolve=False)
        assert cold.phi == pytest.approx(warm.phi, abs=1e-6)

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

        def spy(model, config=None):
            seen.append(config)
            return real(model, config)

        monkeypatch.setattr(solver, "solve", spy)
        cfg = SolveConfig(time_limit=30.0, mip_gap=1e-3)
        compute_phi(zoo.relu_mixed_phases(), 1, alpha=math.e, config=cfg, lookback=2)
        assert seen
        assert all((c.mip_gap, c.node_limit) == (1e-3, LOOKBACK_NODE_LIMIT)
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
        a, status, solution = find_strong_anchor(net, 1, math.e, bounds)
        assert status is SolveStatus.OPTIMAL
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
        a, status, solution = find_strong_anchor(net, 1, math.exp(2.0),
                                                 propagate_intervals(net))
        assert a is None
        assert solution is None
        assert status is SolveStatus.INFEASIBLE


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
        assert format_lp(model) == format_lp(fresh.model)

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
        # at x = 1 the true flip distance is exactly 1; a budget a hair under
        # leaves room inside the arc-tangent envelope but not in the function
        net = zoo.atan_narrow()
        r = check_local_robustness(net, np.array([1.0]), 0.998)
        assert r.verdict is Verdict.UNKNOWN
        assert "envelope" in r.note

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

        def sleepy(model, config=None):
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
