"""Independent reference implementations: brute-force MIP enumeration, grid
search, trace-feasibility consistency."""

import math

import numpy as np
import pytest

from resilmip import zoo
from resilmip.dataflow import propagate_intervals
from resilmip.encoder import encode_network_eval
from resilmip.mipmodel import MipModel, ObjSense, RowSense
from resilmip.network import LayerKind, LayerSpec, Network, class_scores, forward
from resilmip.oracle import (
    MAX_ENUM_BINARIES,
    OracleGuardError,
    batch_scores,
    encoding_consistency,
    enumerate_mip,
    grid_max_alpha,
    grid_phi,
    trace_violations,
)


class TestEnumerateMip:
    def test_knapsack_by_exhaustion(self):
        m = MipModel("ks")
        b = [m.add_binary(f"b{i}") for i in range(3)]
        m.add_constraint("cap", [(b[0], 3.0), (b[1], 2.0), (b[2], 2.0)],
                         RowSense.LE, 4.0)
        m.set_objective([(b[0], 6.0), (b[1], 5.0), (b[2], 4.0)], ObjSense.MAXIMIZE)
        r = enumerate_mip(m)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(9.0)
        assert r.patterns_tried == 8
        assert r.assignment[b[1]] == pytest.approx(1.0)
        assert r.assignment[b[2]] == pytest.approx(1.0)

    def test_infeasible_everywhere(self):
        m = MipModel("inf")
        b = m.add_binary("b")
        x = m.add_variable("x", 0.0, 1.0)
        m.add_constraint("r", [(x, 1.0), (b, 1.0)], RowSense.GE, 3.0)
        r = enumerate_mip(m)
        assert r.status == "infeasible"
        assert r.assignment is None

    def test_mixed_continuous_part(self):
        m = MipModel("mix")
        b = m.add_binary("b")
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("r", [(x, 1.0), (b, -4.0)], RowSense.LE, 2.0)
        m.set_objective([(x, 1.0)], ObjSense.MAXIMIZE)
        r = enumerate_mip(m)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(6.0)  # b = 1 lets x reach 6

    def test_guard_on_binary_count(self):
        m = MipModel("big")
        for i in range(MAX_ENUM_BINARIES + 1):
            m.add_binary(f"b{i}")
        with pytest.raises(OracleGuardError):
            enumerate_mip(m)


class TestGridPhi:
    def test_linear_fixture_within_resolution(self):
        net = zoo.two_class_linear()
        g = grid_phi(net, 1, alpha=math.e, step=0.05)
        assert g.resolution == pytest.approx(0.1)
        assert abs(g.phi - 1.0) <= g.resolution + 1e-9
        assert g.strong_points >= 1
        assert g.dominated_points >= 1
        assert g.anchor is not None and g.dominated is not None
        # the reported pair realizes the reported value
        assert float(np.abs(g.anchor - g.dominated).sum()) == pytest.approx(g.phi)

    def test_empty_strong_region_gives_infinity(self):
        g = grid_phi(zoo.two_class_linear(), 1, alpha=math.exp(2.0), step=0.1)
        assert math.isinf(g.phi)
        assert g.strong_points == 0

    def test_overlap_two_reference(self):
        g = grid_phi(zoo.three_class_linear(), 1, alpha=math.e, k=2, step=0.1)
        assert abs(g.phi - 1.0) <= g.resolution + 1e-9

    def test_dimension_guard(self):
        with pytest.raises(OracleGuardError):
            grid_phi(zoo.pool_pairs(), 1, step=0.5)  # four inputs

    def test_point_count_guard(self):
        with pytest.raises(OracleGuardError):
            grid_phi(zoo.identity3(), 1, step=1e-4)

    def test_grid_max_alpha_matches_the_solver_fixture(self):
        assert grid_max_alpha(zoo.two_class_linear(), 1) == pytest.approx(math.e)


class TestBatchScores:
    @pytest.mark.parametrize("name", sorted(zoo.FIXTURES))
    def test_matches_the_scalar_forward_pass(self, name, rng):
        net = zoo.FIXTURES[name]()
        lo = net.input_bounds[:, 0]
        hi = net.input_bounds[:, 1]
        pts = rng.uniform(lo, hi, size=(32, net.input_dim))
        batch = batch_scores(net, pts)
        for row, point in zip(batch, pts):
            assert row == pytest.approx(class_scores(net, point), abs=1e-12)


class TestEncodingConsistency:
    @pytest.mark.parametrize("name", sorted(zoo.FIXTURES))
    def test_exact_traces_satisfy_every_fixture_encoding(self, name):
        report = encoding_consistency(zoo.FIXTURES[name](), samples=48)
        assert report.checked == 48
        assert report.ok, report.failures[:2]

    def test_random_nets_are_consistent_too(self, rng):
        for _ in range(5):
            net = zoo.random_relu_net(rng, input_dim=3, hidden=(4, 3), classes=3)
            assert encoding_consistency(net, samples=32, rng=rng).ok

    def test_tampered_trace_is_caught(self):
        # encode one network but replay the forward run of a rescaled clone:
        # the affine rows must flag the mismatch
        net = zoo.two_class_linear()
        other = Network(
            input_dim=2,
            input_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
            layers=(
                LayerSpec(LayerKind.LINEAR_OUTPUT,
                          weights=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])),
                LayerSpec(LayerKind.SOFTMAX),
            ),
        )
        model, copy = encode_network_eval(net, propagate_intervals(net))
        bad = trace_violations(model, copy, net, forward(other, np.array([0.7, 0.2])))
        assert bad

    def test_explicit_sample_array_is_used_verbatim(self):
        net = zoo.two_class_linear()
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.25, 0.75]])
        report = encoding_consistency(net, samples=pts)
        assert report.checked == 3
        assert report.ok
