"""MIP gadgets and query models: indicator semantics, envelope containment,
gating, warm starts, branch priorities."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilmip import resilience, zoo
from resilmip.dataflow import Phase, propagate_intervals
from resilmip.encoder import (
    _GATE_ABS,
    _GATE_REL,
    _atan_regions,
    ATAN_APPROX_ERR,
    ATAN_SEGMENTS,
    EncodingError,
    QueryKind,
    QuerySpec,
    add_gated,
    encode_atan,
    encode_maxpool,
    encode_network_eval,
    encode_query,
    encode_relu,
    encode_strong_classification,
    encode_window,
    validate_query,
)
from resilmip.mipmodel import MipModel, ObjSense, RowSense, check_feasible
from resilmip.network import (DENSE_KINDS, LayerKind, LayerSpec, Network, class_scores,
                              forward, network_from_dict)
from resilmip.oracle import encoding_consistency
from resilmip.simplex import LpStatus
from resilmip.solver import SolveConfig, SolveStatus, solve, solve_lp

_SECANT_CURVE = 2 * 0.273 / 8.0  # |q''| h^2 / 8 with the h factored out


def _relu_bench(im_value: float, big_m: float, force_b: int):
    """Feasibility of the rectifier gadget over [-M, M] with the indicator
    pinned."""
    m = MipModel("bench")
    x = m.add_variable("x", 0.0, big_m)
    im = m.add_variable("im", -big_m, big_m)
    m.add_constraint("fix", [(im, 1.0)], RowSense.EQ, im_value)
    g = encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, (-big_m, big_m), "R")
    m.add_constraint("pin", [(g.b_id, 1.0)], RowSense.EQ, float(force_b))
    return solve(m.freeze(), SolveConfig()), x


class TestReluGadget:
    @pytest.mark.parametrize("big_m", [1.0, 3.0])
    def test_correct_indicator_reproduces_the_function(self, big_m):
        for v in np.linspace(-big_m, big_m, 21):
            r, x = _relu_bench(float(v), big_m, 1 if v >= 0 else 0)
            assert r.status is SolveStatus.OPTIMAL
            assert r.assignment[x] == pytest.approx(max(0.0, v), abs=1e-9)

    @pytest.mark.parametrize("big_m", [1.0, 3.0])
    def test_wrong_indicator_is_infeasible(self, big_m):
        for v in np.linspace(-big_m, big_m, 21):
            if v == 0.0:
                continue  # both phases meet at the kink
            r, _ = _relu_bench(float(v), big_m, 0 if v >= 0 else 1)
            assert r.status is SolveStatus.INFEASIBLE, v

    def test_kink_accepts_both_indicators(self):
        for b in (0, 1):
            r, x = _relu_bench(0.0, 3.0, b)
            assert r.status is SolveStatus.OPTIMAL
            assert r.assignment[x] == pytest.approx(0.0, abs=1e-9)

    def test_fixed_phases_need_no_binary(self):
        m = MipModel("fixed")
        x = m.add_variable("x", 0.0, 5.0)
        im = m.add_variable("im", 1.0, 5.0)
        g = encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.ALWAYS_ACTIVE, (1.0, 5.0), "Ra")
        assert g.b_id is None
        x2 = m.add_variable("x2", 0.0, 0.0)
        im2 = m.add_variable("im2", -5.0, -1.0)
        g2 = encode_relu(m, x2, ([(im2, 1.0)], 0.0), Phase.ALWAYS_INACTIVE, (-5.0, -1.0), "Ri")
        assert g2.b_id is None
        assert not m.dense_arrays().binary_ids

    def test_unusable_bounds_rejected(self):
        m = MipModel("bad")
        x = m.add_variable("x", 0.0, 1.0)
        im = m.add_variable("im", -1.0, 1.0)
        bad = [(0.0, 1.0), (-1.0, 0.0), (1.0, -1.0), (-math.inf, 1.0),
               (-1.0, math.inf), (math.nan, 1.0)]
        for im_bounds in bad:
            with pytest.raises(EncodingError):
                encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, im_bounds, "R")
        assert not m.constraints and len(m.variables) == 2

    def test_negative_output_bound_rejected(self):
        # the rows leave x >= 0 to x's declared bound
        m = MipModel("neg")
        x = m.add_variable("x", -1.0, 1.0)
        im = m.add_variable("im", -1.0, 1.0)
        with pytest.raises(EncodingError):
            encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, (-1.0, 1.0), "R")

    def test_undecided_node_adds_three_rows_and_one_binary(self):
        m = MipModel("size")
        x = m.add_variable("x", 0.0, 2.0)
        im = m.add_variable("im", -1.0, 2.0)
        g = encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, (-1.0, 2.0), "R")
        assert len(m.constraints) == 3
        assert m.dense_arrays().binary_ids == [g.b_id]

    @pytest.mark.parametrize("lo,hi", [(-1.0, 3.0), (-4.0, 0.5)])
    def test_relaxation_is_the_triangle_hull(self, lo, hi):
        # with b relaxed to [0, 1], max x at im = t is u (t - l) / (u - l)
        # over the gadget's inflated bounds, not the looser symmetric big-M
        l = lo * (1.0 + _GATE_REL) - _GATE_ABS
        u = hi * (1.0 + _GATE_REL) + _GATE_ABS
        for t in np.linspace(lo, hi, 11):
            m = MipModel("hull")
            x = m.add_variable("x", 0.0, 2.0 * hi)
            im = m.add_variable("im", lo, hi)
            m.add_constraint("fix", [(im, 1.0)], RowSense.EQ, float(t))
            encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, (lo, hi), "R")
            m.set_objective([(x, 1.0)], ObjSense.MAXIMIZE)
            r = solve_lp(m.freeze())
            assert r.status is LpStatus.OPTIMAL
            assert r.objective == pytest.approx(u * (t - l) / (u - l), abs=1e-9), t

    @given(
        lo=st.floats(-10.0, -0.01),
        hi=st.floats(0.01, 10.0),
        theta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_exact_point_always_feasible(self, lo, hi, theta):
        v = lo + theta * (hi - lo)
        big_m = max(abs(lo), hi)
        m = MipModel("h")
        x = m.add_variable("x", 0.0, big_m)
        im = m.add_variable("im", lo, hi)
        g = encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, (lo, hi), "R")
        asg = {im: v, x: max(0.0, v), g.b_id: 1.0 if v >= 0 else 0.0}
        assert check_feasible(m, asg, 1e-9)


class TestMaxPool:
    def _pool_model(self, vals, lo=-1.0, hi=1.0):
        m = MipModel("pool")
        ops = []
        for i, v in enumerate(vals):
            vid = m.add_variable(f"u{i}", lo, hi)
            m.add_constraint(f"fix{i}", [(vid, 1.0)], RowSense.EQ, float(v))
            ops.append((vid, lo, hi))
        y = m.add_variable("y", lo, hi)
        pairs = encode_maxpool(m, y, ops, "P")
        return m, y, pairs

    @pytest.mark.parametrize("sense", [ObjSense.MINIMIZE, ObjSense.MAXIMIZE])
    def test_pair_and_quad_agree_with_brute_max(self, sense, rng):
        for n in (2, 4):
            for _ in range(10):
                vals = rng.uniform(-1.0, 1.0, size=n)
                m, y, _ = self._pool_model(vals)
                m.set_objective([(y, 1.0)], sense)
                r = solve(m.freeze(), SolveConfig())
                assert r.status is SolveStatus.OPTIMAL
                assert r.objective == pytest.approx(float(vals.max()), abs=1e-7)

    def test_dominated_operand_collapses_the_pair(self):
        m = MipModel("dom")
        u = m.add_variable("u", 5.0, 6.0)
        v = m.add_variable("v", 0.0, 1.0)
        y = m.add_variable("y", 5.0, 6.0)
        pairs = encode_maxpool(m, y, [(u, 5.0, 6.0), (v, 0.0, 1.0)], "P")
        assert pairs[0].b_id is None
        assert pairs[0].keep == "left"
        assert not m.dense_arrays().binary_ids

    def test_quad_builds_three_pairs(self):
        m, _, pairs = self._pool_model([0.1, 0.2, 0.3, 0.4])
        assert len(pairs) == 3

    def test_bad_group_size_rejected(self):
        m = MipModel("bad")
        ops = [(m.add_variable(f"u{i}", 0.0, 1.0), 0.0, 1.0) for i in range(3)]
        y = m.add_variable("y", 0.0, 1.0)
        with pytest.raises(EncodingError):
            encode_maxpool(m, y, ops, "P")


def _atan_extreme(im_lo, im_hi, im_value, sense):
    m = MipModel("atanbench")
    x = m.add_variable("x", -math.pi / 2 - 1.0, math.pi / 2 + 1.0)
    im = m.add_variable("im", im_lo, im_hi)
    m.add_constraint("fix", [(im, 1.0)], RowSense.EQ, float(im_value))
    encode_atan(m, x, im, im_lo, im_hi, "T")
    m.set_objective([(x, 1.0)], sense)
    r = solve(m.freeze(), SolveConfig())
    assert r.status is SolveStatus.OPTIMAL
    return r.objective


class TestAtanEnvelope:
    def test_central_band_contains_atan_and_stays_narrow(self):
        h = 2.0 / ATAN_SEGMENTS
        half = ATAN_APPROX_ERR + _SECANT_CURVE * h * h
        for v in np.linspace(-1.0, 1.0, 41):
            lo = _atan_extreme(-1.0, 1.0, v, ObjSense.MINIMIZE)
            hi = _atan_extreme(-1.0, 1.0, v, ObjSense.MAXIMIZE)
            truth = math.atan(v)
            assert lo - 1e-7 <= truth <= hi + 1e-7
            assert hi - lo <= 2.0 * half + 1e-6

    def test_outer_region_contains_atan(self):
        for v in (1.2, 2.0, 2.9):
            lo = _atan_extreme(1.1, 3.0, v, ObjSense.MINIMIZE)
            hi = _atan_extreme(1.1, 3.0, v, ObjSense.MAXIMIZE)
            assert lo - 1e-7 <= math.atan(v) <= hi + 1e-7
            assert hi - lo <= 0.05

    def test_three_regions_cover_a_wide_interval(self):
        m = MipModel("wide")
        x = m.add_variable("x", -2.0, 2.0)
        im = m.add_variable("im", -3.0, 3.0)
        g = encode_atan(m, x, im, -3.0, 3.0, "T")
        assert [r.kind for r in g.regions] == ["neg", "mid", "pos"]
        assert all(r.gate_id is not None for r in g.regions)
        assert g.regions[0].im_lo == -3.0 and g.regions[-1].im_hi == 3.0
        for left, right in zip(g.regions, g.regions[1:]):
            assert left.im_hi == right.im_lo
        # gating works end to end on points from each region
        for v in (-2.5, 0.3, 2.5):
            lo = _atan_extreme(-3.0, 3.0, v, ObjSense.MINIMIZE)
            hi = _atan_extreme(-3.0, 3.0, v, ObjSense.MAXIMIZE)
            assert lo - 1e-7 <= math.atan(v) <= hi + 1e-7

    def test_single_narrow_region_needs_no_gate(self):
        m = MipModel("narrow")
        x = m.add_variable("x", -2.0, 2.0)
        im = m.add_variable("im", -0.8, 0.9)
        g = encode_atan(m, x, im, -0.8, 0.9, "T")
        assert len(g.regions) == 1
        assert g.regions[0].kind == "mid"
        assert g.regions[0].gate_id is None

    def test_degenerate_interval_pins_the_output(self):
        m = MipModel("deg")
        x = m.add_variable("x", -2.0, 2.0)
        im = m.add_variable("im", 0.5, 0.5)
        g = encode_atan(m, x, im, 0.5, 0.5 + 1e-13, "T")
        assert g.regions == []
        m.set_objective([(x, 1.0)], ObjSense.MAXIMIZE)
        r = solve(m.freeze(), SolveConfig())
        assert r.objective == pytest.approx(math.atan(0.5), abs=1e-9)

    def test_unbounded_preactivation_rejected(self):
        m = MipModel("unb")
        x = m.add_variable("x", -2.0, 2.0)
        im = m.add_variable("im", 0.0, math.inf)
        with pytest.raises(EncodingError):
            encode_atan(m, x, im, 0.0, math.inf, "T")

    def test_slivers_merge_into_their_neighbour(self):
        # a cut at -1 or 1 within 1e-9 of an interval end leaves a sliver:
        # a leading one widens the next region, a trailing one the last
        net = Network(
            input_dim=2,
            input_bounds=np.array([[-1.0 - 5e-10, 0.5], [-0.5, 1.0 + 5e-10]]),
            layers=(
                LayerSpec(LayerKind.ATAN_DENSE, weights=np.vstack([np.zeros(2), np.eye(2)])),
                LayerSpec(LayerKind.LINEAR_OUTPUT, weights=np.vstack([np.zeros(2), np.eye(2)])),
                LayerSpec(LayerKind.SOFTMAX),
            ),
        )
        bounds = propagate_intervals(net)
        _, copy = encode_network_eval(net, bounds)
        lb = bounds.layers[0]
        for i, (lo, hi) in enumerate(zip(lb.im_lo, lb.im_hi)):
            cuts = [c for c in (-1.0, 1.0) if lo < c < hi]
            assert len(cuts) == 1  # two spans before merging
            spans = _atan_regions(float(lo), float(hi))
            assert spans == [("mid", float(lo), float(hi))]
            regions = copy.atan[1][i].regions
            assert len(regions) == 1 and regions[0].gate_id is None
        ends = np.array(np.meshgrid(*net.input_bounds)).reshape(2, -1).T
        samples = np.vstack([ends, np.random.default_rng(0).uniform(
            net.input_bounds[:, 0], net.input_bounds[:, 1], size=(16, 2))])
        assert encoding_consistency(net, samples).ok


class TestAddGated:
    def test_no_gate_is_a_plain_row(self):
        m = MipModel("g")
        x = m.add_variable("x", 0.0, 4.0)
        add_gated(m, "r", [(x, 1.0)], RowSense.LE, 1.0, None)
        assert not check_feasible(m, {x: 2.0}, 1e-9)
        assert check_feasible(m, {x: 0.5}, 1e-9)

    def test_open_gate_enforces_and_closed_gate_releases(self):
        m = MipModel("g")
        x = m.add_variable("x", 0.0, 4.0)
        b = m.add_binary("b")
        add_gated(m, "r", [(x, 1.0)], RowSense.LE, 1.0, b)
        assert check_feasible(m, {x: 4.0, b: 0.0}, 1e-9)  # vacuous at the bound
        assert not check_feasible(m, {x: 4.0, b: 1.0}, 1e-9)
        assert check_feasible(m, {x: 1.0, b: 1.0}, 1e-9)

    def test_ge_direction(self):
        m = MipModel("g")
        x = m.add_variable("x", -3.0, 3.0)
        b = m.add_binary("b")
        add_gated(m, "r", [(x, 1.0)], RowSense.GE, 2.0, b)
        assert check_feasible(m, {x: -3.0, b: 0.0}, 1e-9)
        assert not check_feasible(m, {x: 0.0, b: 1.0}, 1e-9)

    def test_equality_must_be_split(self):
        m = MipModel("g")
        x = m.add_variable("x", 0.0, 1.0)
        b = m.add_binary("b")
        with pytest.raises(EncodingError):
            add_gated(m, "r", [(x, 1.0)], RowSense.EQ, 0.5, b)

    def test_unbounded_expression_rejected(self):
        m = MipModel("g")
        x = m.add_variable("x", 0.0, math.inf)
        b = m.add_binary("b")
        with pytest.raises(EncodingError):
            add_gated(m, "r", [(x, 1.0)], RowSense.LE, 1.0, b)


class TestStrongClassification:
    def test_rows_encode_the_log_ratio_test(self):
        m = MipModel("sc")
        s = [m.add_variable(f"s{j}", -5.0, 5.0) for j in range(3)]
        rows = encode_strong_classification(m, s, 0, math.e, "SC")
        assert len(rows) == 2
        assert check_feasible(m, {s[0]: 2.0, s[1]: 1.0, s[2]: 0.5}, 1e-9)
        assert not check_feasible(m, {s[0]: 2.0, s[1]: 1.5, s[2]: 0.5}, 1e-9)


class TestBoundProbe:
    def test_window_recovers_the_exact_output_range(self):
        net = zoo.lookback_chain()
        bounds = propagate_intervals(net)
        window, input_ids, _ = encode_window(net, bounds, 2, 2)
        assert window.frozen and not window.objective
        w = net.layers[1].weights[:, 0]
        vals = {}
        for sense in (ObjSense.MINIMIZE, ObjSense.MAXIMIZE):
            r = solve(window.with_objective(zip(input_ids, w[1:]), sense), SolveConfig())
            assert r.status is SolveStatus.OPTIMAL
            vals[sense] = w[0] + r.objective
        assert vals[ObjSense.MINIMIZE] == pytest.approx(-1.0, abs=1e-7)
        assert vals[ObjSense.MAXIMIZE] == pytest.approx(0.0, abs=1e-7)

    def test_depth_one_window_is_the_box(self):
        net = zoo.lookback_chain()
        bounds = propagate_intervals(net)
        window, input_ids, _ = encode_window(net, bounds, 2, 1)
        assert window.num_constraints == 0
        assert input_ids == list(range(window.num_variables))

    def test_probe_rejects_pool_targets(self):
        net = zoo.pool_pairs()
        bounds = propagate_intervals(net)
        with pytest.raises(EncodingError):
            encode_window(net, bounds, 1, 1)


class TestQueryModels:
    def test_max_perturbation_reaches_the_known_optimum(self):
        net = zoo.two_class_linear()
        enc = encode_query(net, propagate_intervals(net),
                           QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e, k=1))
        r = solve(enc.model, SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(1.0, abs=1e-7)
        # the witness pair must be readable off the assignment
        a = [r.assignment[v] for v in enc.input_ids]
        p = [r.assignment[v] for v in enc.pert_input_ids]
        assert a == pytest.approx([1.0, 0.0], abs=1e-6)
        assert p[1] >= p[0] - 1e-7

    def test_local_robustness_budget_flips_feasibility(self):
        net = zoo.two_class_linear()
        bounds = propagate_intervals(net)
        anchor = np.array([1.0, 0.0])
        tight = encode_query(net, bounds, QuerySpec(
            QueryKind.LOCAL_ROBUSTNESS, m=1, k=1, a=anchor, delta=0.9))
        loose = encode_query(net, bounds, QuerySpec(
            QueryKind.LOCAL_ROBUSTNESS, m=1, k=1, a=anchor, delta=1.1))
        assert solve(tight.model, SolveConfig()).status is SolveStatus.INFEASIBLE
        assert solve(loose.model, SolveConfig()).status is SolveStatus.OPTIMAL

    def test_max_alpha_solves_the_margin(self):
        net = zoo.two_class_linear()
        enc = encode_query(net, propagate_intervals(net),
                           QuerySpec(QueryKind.MAX_ALPHA, m=1))
        r = solve(enc.model, SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(1.0, abs=1e-7)  # alpha_max = e^1

    def test_fixed_anchor_restriction(self):
        net = zoo.two_class_linear()
        enc = encode_query(net, propagate_intervals(net), QuerySpec(
            QueryKind.MAX_PERTURBATION, m=1, k=1, a=np.array([1.0, 0.0])))
        r = solve(enc.model, SolveConfig())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(1.0, abs=1e-7)

    def test_fixed_anchor_model_is_robustness_without_the_budget(self):
        net = zoo.relu_mixed_phases()
        bounds = propagate_intervals(net)
        anchor = np.array([1.0, 1.0])
        phi = encode_query(net, bounds, QuerySpec(
            QueryKind.MAX_PERTURBATION, m=1, alpha=math.e, a=anchor))
        rob = encode_query(net, bounds, QuerySpec(
            QueryKind.LOCAL_ROBUSTNESS, m=1, a=anchor, delta=0.5))
        assert phi.model.name == "fixed_min_m1"
        assert phi.model.constraints == [
            row for row in rob.model.constraints if row.name != "DBUDGET"]
        assert len(rob.model.constraints) == len(phi.model.constraints) + 1
        assert phi.model.variables == rob.model.variables
        assert phi.model.obj_sense is ObjSense.MINIMIZE
        assert phi.model.objective == {f: 1.0 for f in phi.eps_abs_ids}

    def test_fixed_anchor_within_tolerance_is_clipped_into_the_box(self):
        net = zoo.two_class_linear()
        enc = encode_query(net, propagate_intervals(net), QuerySpec(
            QueryKind.MAX_PERTURBATION, m=1, a=np.array([1.0 + 5e-10, -5e-10])))
        rhs = {row.name: row.rhs for row in enc.model.constraints}
        assert enc.model.name == "fixed_min_m1"
        assert (rhs["PE0"], rhs["PE1"]) == (1.0, 0.0)

    def test_strong_anchor_model_is_the_free_anchor_body(self):
        # phi's stage 1: the anchor inputs, the "b" copy and the strong
        # classification rows of the free-anchor model, with no objective;
        # it reads no k
        net = zoo.relu_mixed_phases()
        bounds = propagate_intervals(net)
        anchor = encode_query(net, bounds, QuerySpec(QueryKind.STRONG_ANCHOR, m=1,
                                                     alpha=math.e, k=5))
        full = encode_query(net, bounds, QuerySpec(QueryKind.MAX_PERTURBATION, m=1,
                                                   alpha=math.e)).model
        model = anchor.model
        assert model.name == "anchor_m1" and not model.objective
        assert [model.variables[i].name for i in anchor.input_ids] == ["a0", "a1"]

        def rows(m):
            return {r.name: ({m.variables[i].name: c for i, c in r.coefs}, r.sense, r.rhs)
                    for r in m.constraints}

        full_rows = rows(full)
        assert all(full_rows[name] == row for name, row in rows(model).items())
        full_vars = {v.name: v for v in full.variables}
        assert all(full_vars[v.name] == v for v in model.variables)
        assert any(name.startswith("SC") for name in rows(model))

    def test_validation_errors(self):
        net = zoo.two_class_linear()
        bounds = propagate_intervals(net)
        bad = [
            QuerySpec(QueryKind.MAX_PERTURBATION, m=0),
            QuerySpec(QueryKind.MAX_PERTURBATION, m=3),
            QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=0.5),
            QuerySpec(QueryKind.MAX_PERTURBATION, m=1, k=2),
            QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1),
            QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=np.array([0.5, 0.5]),
                      delta=-0.1),
            QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=np.array([2.0, 0.0]),
                      delta=0.1),
            QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=np.array([0.5]),
                      delta=0.1),
            QuerySpec(QueryKind.MAX_PERTURBATION, m=1, a=np.array([1.5, 0.0])),
            QuerySpec(QueryKind.MAX_PERTURBATION, m=1, a=np.array([1.0 + 2e-9, 0.0])),
            QuerySpec(QueryKind.MAX_PERTURBATION, m=1, a=np.array([1.0])),
            QuerySpec(QueryKind.STRONG_ANCHOR, m=3),
            QuerySpec(QueryKind.STRONG_ANCHOR, m=1, alpha=0.5),
        ]
        for q in bad:
            with pytest.raises(EncodingError):
                encode_query(net, bounds, q)

    def test_query_requires_a_softmax_head(self):
        net = zoo.lookback_chain()
        with pytest.raises(EncodingError):
            encode_query(net, propagate_intervals(net),
                         QuerySpec(QueryKind.MAX_PERTURBATION, m=1))


def _gadget_binaries(copy) -> dict[int, int]:
    """Binary id -> layer position, read from the copy's ReLU, arc-tangent
    and max-pool gadgets."""
    out: dict[int, int] = {}
    for pos, gadgets in copy.relu.items():
        out.update((g.b_id, pos) for g in gadgets.values() if g.b_id is not None)
    for pos, gadgets in copy.atan.items():
        for g in gadgets.values():
            for region in g.regions:
                out.update((b, pos) for b in region.seg_ids)
                if region.gate_id is not None:
                    out[region.gate_id] = pos
    for pos, groups in copy.pools.items():
        for pairs in groups.values():
            out.update((p.b_id, pos) for p in pairs if p.b_id is not None)
    return out


class TestBranchPriorities:
    def test_earlier_layers_branch_first(self):
        net = zoo.relu_mixed_phases()
        enc = encode_query(net, propagate_intervals(net),
                           QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e))
        total = net.num_layers
        every = set(enc.class_sel.values())
        for copy in (enc.base, enc.pert):
            binaries = _gadget_binaries(copy)
            assert binaries  # the fixture has undecided nodes
            every |= set(binaries)
            for vid, pos in binaries.items():
                assert enc.model.variables[vid].branch_priority == total - pos
        for cid in enc.class_sel.values():
            assert enc.model.variables[cid].branch_priority == 0
        assert every == set(enc.model.binary_ids)

    def test_atan_binaries_carry_their_layer_position(self):
        net = zoo.atan_wide()
        model, copy = encode_network_eval(net, propagate_intervals(net))
        binaries = _gadget_binaries(copy)
        assert binaries
        for vid, pos in binaries.items():
            assert pos == 1
            assert model.variables[vid].branch_priority == net.num_layers - 1

    def test_pool_binaries_carry_their_layer_position(self):
        net = zoo.pool_pairs()
        model, copy = encode_network_eval(net, propagate_intervals(net))
        binaries = _gadget_binaries(copy)
        assert binaries and set(binaries) == set(model.binary_ids)
        for vid, pos in binaries.items():
            assert model.variables[vid].branch_priority == net.num_layers - pos


class TestWarmStart:
    """The warm start compute_phi gives its full stage: stage 1's solution
    (or the exact trace of a user anchor) joined with stage 2's by name."""

    @staticmethod
    def _full_stage(monkeypatch, net, m, alpha, a_ini=None):
        models = []
        real = resilience.solve

        def spy(model, config=None):
            models.append(model)
            return real(model, config)

        monkeypatch.setattr(resilience, "solve", spy)
        r = resilience.compute_phi(net, m, alpha=alpha, a_ini=a_ini)
        return r, models[-1]

    @pytest.mark.parametrize("name,m,alpha,a,eps", [
        ("two_class_linear", 1, math.e, [1.0, 0.0], [-0.5, 0.5]),
        ("relu_mixed_phases", 1, math.e, [1.0, 1.0], [0.0, -1.0]),
        ("atan_wide", 1, 1.0, [1.0], [-1.0]),
        ("pool_pairs", 1, 1.0, [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]),
    ])
    def test_trace_assignment_satisfies_every_row(self, monkeypatch, name, m, alpha,
                                                  a, eps):
        net = zoo.FIXTURES[name]()
        for a_ini in (None, np.array(a)):
            r, model = self._full_stage(monkeypatch, net, m, alpha, a_ini)
            ws = model.warm_start
            assert len(ws) == len(model.variables)
            assert check_feasible(model, ws, 1e-6)
            # stage 2 solves from a; (a, eps) is one flip, so no dearer one
            cost = sum(ws[f] * c for f, c in model.objective.items())
            assert cost == pytest.approx(r.anchor_phi)
            if a_ini is not None:
                assert cost <= float(np.abs(eps).sum()) + 1e-9

    def test_warm_start_objective_matches_the_step(self, monkeypatch):
        net = zoo.two_class_linear()
        r, model = self._full_stage(monkeypatch, net, 1, math.e)
        ws = model.warm_start
        assert sum(ws[f] * c for f, c in model.objective.items()) == pytest.approx(
            r.anchor_phi)
        assert r.anchor_phi == pytest.approx(1.0)


def _max_alpha_solves(net, m):
    """compute_max_alpha's model solved without and with its root repair,
    and the candidates the repair returned."""
    enc = encode_query(net, propagate_intervals(net), QuerySpec(QueryKind.MAX_ALPHA, m=m))
    candidates = []

    def repair(x):
        candidates.append(enc.repair(x))
        return candidates[-1]

    plain = solve(enc.model, SolveConfig())
    fixed = solve(enc.model, SolveConfig(), repair=repair)
    return enc, plain, fixed, candidates


def _margin(net, point, m0):
    s = class_scores(net, point)
    return float(s[m0] - np.delete(s, m0).max())


class TestForwardRepair:
    """The root repair of max-alpha models and lookback windows."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 3),
           hidden=st.sampled_from([(3,), (5,), (3, 3)]), classes=st.integers(2, 3))
    def test_max_alpha_keeps_its_answer(self, seed, dim, hidden, classes):
        net = zoo.random_relu_net(np.random.default_rng(seed), input_dim=dim,
                                  hidden=hidden, classes=classes)
        for m in range(1, classes + 1):
            enc, plain, fixed, candidates = _max_alpha_solves(net, m)
            assert plain.status is fixed.status is SolveStatus.OPTIMAL
            gap = 1e-6 * max(1.0, abs(plain.objective))
            assert fixed.objective == pytest.approx(plain.objective, abs=gap + 1e-9)
            assert len(candidates) <= 1
            x = np.array([fixed.assignment[i] for i in range(enc.model.num_variables)])
            if candidates and np.array_equal(x, candidates[0]):
                # the incumbent is the repair's: t* is the anchor's exact margin
                anchor = x[enc.input_ids]
                assert _margin(net, anchor, m - 1) == pytest.approx(fixed.objective,
                                                                     abs=1e-12)

    def test_a_repaired_root_ends_the_search(self):
        # relu_deep class 2: the root's repair is within the gap of its bound
        net = zoo.relu_deep()
        enc, plain, fixed, candidates = _max_alpha_solves(net, 2)
        assert plain.nodes_explored > 1 and fixed.nodes_explored == 1
        x = np.array([fixed.assignment[i] for i in range(enc.model.num_variables)])
        assert np.array_equal(x, candidates[0])
        assert _margin(net, x[enc.input_ids], 1) == fixed.objective
        assert fixed.objective == pytest.approx(1.75, abs=1e-6)

    def test_the_repair_clips_into_the_domain_and_completes_every_variable(self):
        net = zoo.relu_deep()
        enc = encode_query(net, propagate_intervals(net), QuerySpec(QueryKind.MAX_ALPHA, m=1))
        x = np.full(enc.model.num_variables, 7.0)
        out = enc.repair(x)
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        assert np.array_equal(out[enc.input_ids], np.clip(x[enc.input_ids], lo, hi))
        assert enc.model.dense_arrays().feasible(out, 1e-9)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_window_repair_pickles_and_gives_an_exact_trace(self, depth):
        net = zoo.random_relu_net(np.random.default_rng(1), input_dim=2,
                                  hidden=(4, 4, 3), classes=2)
        bounds = propagate_intervals(net)
        window, input_ids, repair = encode_window(net, bounds, 4, depth)
        x = solve_lp(window).x
        out = repair(x)
        assert np.array_equal(pickle.loads(pickle.dumps(repair))(x), out)
        assert window.dense_arrays().feasible(out, 1e-9)
        box = 4 - depth  # the window boxes layer position `box` and encodes 3
        trace = forward(net, out[repair.copy.x_ids[box]], first=box)
        assert np.array_equal(out[input_ids], trace.x[3 - box - 1])


# A softmax net with one class: eval and bounds take it, no query does.
ONE_CLASS = {"input_dim": 1, "input_bounds": [[-1, 1]],
             "layers": [{"kind": "linear_output", "weights": [[0.0], [1.0]]},
                        {"kind": "softmax"}]}


@pytest.mark.parametrize("kind", list(QueryKind))
def test_queries_need_two_classes(kind):
    net = network_from_dict(ONE_CLASS)
    spec = QuerySpec(kind, m=1, alpha=math.e, a=np.zeros(1), delta=0.1)
    with pytest.raises(EncodingError, match="at least two classes; the network has 1"):
        validate_query(net, spec)


def _built_models(net):
    """Every model the program builds for ``net``: each query kind (phi over
    a free and a fixed anchor), lookback's windows at depths 2 and 3 and the
    evaluation model, over the plain bounds and over a budget box's."""
    lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
    a = (lo + hi) / 2
    delta = 0.25 * float(np.mean(hi - lo))
    specs = [QuerySpec(QueryKind.STRONG_ANCHOR, m=1, alpha=math.e),
             QuerySpec(QueryKind.MAX_ALPHA, m=1),
             QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e),
             QuerySpec(QueryKind.MAX_PERTURBATION, m=1, alpha=math.e, a=a),
             QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, alpha=math.e, a=a, delta=delta)]
    budget = (np.maximum(lo, a - delta), np.minimum(hi, a + delta))
    for bounds in (propagate_intervals(net), propagate_intervals(net, budget)):
        for spec in specs:
            yield encode_query(net, bounds, spec).model
        for pos, layer in enumerate(net.layers, start=1):
            if pos >= 2 and layer.kind in DENSE_KINDS:
                for depth in (2, 3):
                    yield encode_window(net, bounds, pos, depth)[0]
        yield encode_network_eval(net, bounds)[0]


def _assert_boxed(models):
    """Every variable has finite bounds, so ``solve`` takes every model."""
    n = 0
    for model in models:
        for v in model.variables:
            assert math.isfinite(v.lo) and math.isfinite(v.hi), (model.name, v.name)
        n += 1
    assert n > 0


@given(seed=st.integers(0, 100_000), input_dim=st.integers(1, 3),
       hidden=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       classes=st.integers(2, 3))
@settings(max_examples=25)
def test_random_nets_build_only_boxed_models(seed, input_dim, hidden, classes):
    net = zoo.random_relu_net(np.random.default_rng(seed), input_dim=input_dim,
                              hidden=tuple(hidden), classes=classes)
    _assert_boxed(_built_models(net))


def test_fixtures_build_only_boxed_models():
    nets = [build() for build in zoo.FIXTURES.values()]
    nets = [net for net in nets if net.ends_in_softmax]
    assert nets
    for net in nets:
        _assert_boxed(_built_models(net))
