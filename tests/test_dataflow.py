"""Interval propagation: phase detection, soundness, window tightening."""

import io
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilmip import solver, zoo
from resilmip.dataflow import (
    ADOPT_SLACK,
    IntervalBounds,
    Phase,
    _back_substitute,
    _relaxation,
    linear_bounds,
    propagate_intervals,
    relu_phases,
    tighten_lookback,
    write_bounds_dump,
)
from resilmip.encoder import QueryKind, QuerySpec, encode_window
from resilmip.mipmodel import ObjSense
from resilmip.network import DENSE_KINDS, LayerKind
from resilmip.oracle import enumerate_mip
from resilmip.resilience import query_bounds
from resilmip.solver import SolveConfig, SolveStatus

from conftest import (assert_same_bounds, assert_trace_in_bounds, domain_samples,
                      relu_bench_nets)


class TestPhases:
    def test_three_phases_detected(self):
        net = zoo.relu_mixed_phases()
        lb = propagate_intervals(net).layers[0]
        assert lb.phase[0] == Phase.ALWAYS_ACTIVE     # im in [2, 4]
        assert lb.phase[1] == Phase.ALWAYS_INACTIVE   # im in [-4, -2]
        assert lb.phase[2] == Phase.UNDECIDED
        assert lb.phase[3] == Phase.UNDECIDED

    def test_degenerate_zero_interval_is_active(self):
        # [0, 0] satisfies both phase predicates; active must win so the
        # gadget collapses to x = im (both give x = 0 there)
        phases = relu_phases(np.array([0.0]), np.array([0.0]))
        assert phases[0] == Phase.ALWAYS_ACTIVE

    def test_boundary_phases(self):
        phases = relu_phases(np.array([0.0, -1.0]), np.array([1.0, 0.0]))
        assert phases[0] == Phase.ALWAYS_ACTIVE
        assert phases[1] == Phase.ALWAYS_INACTIVE


class TestSoundness:
    @pytest.mark.parametrize("name", sorted(zoo.FIXTURES))
    def test_fixture_traces_inside_bounds(self, name, rng):
        net = zoo.FIXTURES[name]()
        bounds = propagate_intervals(net)
        for point in domain_samples(net, 200, rng):
            assert_trace_in_bounds(net, bounds, point)

    def test_random_nets_sound(self, rng):
        for _ in range(10):
            net = zoo.random_relu_net(
                rng,
                input_dim=int(rng.integers(1, 4)),
                hidden=tuple(int(rng.integers(2, 6))
                             for _ in range(int(rng.integers(1, 3)))),
                classes=int(rng.integers(2, 4)),
                scale=2.0,
            )
            bounds = propagate_intervals(net)
            for point in domain_samples(net, 100, rng):
                assert_trace_in_bounds(net, bounds, point)


def _count_layer_lps(monkeypatch) -> list:
    """Record the model of every layer LP that lookback solves."""
    models = []
    real = solver.solve_lp

    def counting(model):
        models.append(model)
        return real(model)

    monkeypatch.setattr(solver, "solve_lp", counting)
    return models


class TestLookback:
    def test_fixture_tightens_to_exact_range(self):
        """z = x - max(0, x) on [-1, 1]: plain bounds [-2, 1], exact [-1, 0]."""
        net = zoo.lookback_chain()
        plain = propagate_intervals(net)
        assert plain.layers[1].im_lo[0] == pytest.approx(-2.0)
        assert plain.layers[1].im_hi[0] == pytest.approx(1.0)
        tight = tighten_lookback(net, plain, depth=2)
        assert tight.layers[1].im_lo[0] == pytest.approx(-1.0, abs=1e-6)
        assert tight.layers[1].im_hi[0] == pytest.approx(0.0, abs=1e-6)

    def test_depth_one_reproduces_plain(self):
        net = zoo.lookback_chain()
        plain = propagate_intervals(net)
        same = tighten_lookback(net, plain, depth=1)
        for a, b in zip(plain.layers, same.layers):
            assert np.allclose(a.im_lo, b.im_lo, atol=1e-6)
            assert np.allclose(a.im_hi, b.im_hi, atol=1e-6)

    def test_tightened_bounds_remain_sound(self, rng):
        for name in ("relu_mixed_phases", "pool_pairs", "atan_wide"):
            net = zoo.FIXTURES[name]()
            tight = tighten_lookback(net, propagate_intervals(net), depth=2)
            for point in domain_samples(net, 200, rng):
                assert_trace_in_bounds(net, tight, point, slack=1e-6)

    def test_never_looser_than_input(self):
        net = zoo.relu_mixed_phases()
        plain = propagate_intervals(net)
        tight = tighten_lookback(net, plain, depth=2)
        for a, b in zip(plain.layers, tight.layers):
            if a.im_lo is None:
                continue
            assert np.all(b.im_lo >= a.im_lo - 1e-12)
            assert np.all(b.im_hi <= a.im_hi + 1e-12)

    def test_parallel_probes_match_serial(self):
        net = zoo.relu_mixed_phases()
        plain = propagate_intervals(net)
        serial = tighten_lookback(net, plain, depth=2, workers=1)
        in_processes = tighten_lookback(net, plain, depth=2, workers=4)
        for a, b in zip(serial.layers, in_processes.layers):
            if a.im_lo is None:
                continue
            assert np.allclose(a.im_lo, b.im_lo, atol=1e-9)
            assert np.allclose(a.im_hi, b.im_hi, atol=1e-9)

    @pytest.mark.parametrize("name", ["lookback_chain", "relu_mixed_phases", "R6"])
    def test_bounds_are_the_window_extremes(self, name):
        """Every tightened bound lies within ADOPT_SLACK outside the node's
        extreme over its window, found by binary enumeration in scipy."""
        net = (zoo.random_relu_net(np.random.default_rng(0), input_dim=3,
                                   hidden=(6,), classes=3)
               if name == "R6" else zoo.FIXTURES[name]())
        tight = tighten_lookback(net, propagate_intervals(net), depth=2)
        probed = 0
        for pos, spec in enumerate(net.layers[1:], start=2):
            if spec.kind not in DENSE_KINDS:
                continue
            # earlier layers are final, so this is the window lookback solved
            window, input_ids, _ = encode_window(net, tight, pos, 2)
            lb = tight.layers[pos - 1]
            for node in range(spec.weights.shape[1]):
                w = spec.weights[:, node]
                for sense, got, out in ((ObjSense.MINIMIZE, lb.im_lo[node], -1.0),
                                        (ObjSense.MAXIMIZE, lb.im_hi[node], 1.0)):
                    model = window.with_objective(zip(input_ids, w[1:]), sense)
                    ext = w[0] + enumerate_mip(model).objective
                    assert 0.0 <= out * (got - ext) <= ADOPT_SLACK * max(1.0, abs(ext)) + 1e-9
                    probed += 1
        assert probed > 0

    def test_worker_counts_give_identical_bounds(self):
        """Every probe of a layer starts from the same basis, so the bounds do
        not depend on the worker count at all."""
        net = zoo.random_relu_net(np.random.default_rng(0), input_dim=3,
                                  hidden=(8, 8), classes=3)
        plain = propagate_intervals(net)
        one, two = (tighten_lookback(net, plain, depth=2, workers=w) for w in (1, 2))
        for a, b in zip(one.layers, two.layers):
            if a.im_lo is not None:
                assert np.array_equal(a.im_lo, b.im_lo)
                assert np.array_equal(a.im_hi, b.im_hi)

    def test_callers_node_limit_and_gap_never_reach_the_probes(self, rng):
        """Probes fix their own node limit and gap: on R8 (the second draw of
        random_relu_net from seed 0, hidden (8, 8)) a caller's node limit of 1
        and gap of 0.5 give the default call's bounds bit for bit, and those
        contain every forward pass."""
        draws = np.random.default_rng(0)
        zoo.random_relu_net(draws, input_dim=3, hidden=(6,), classes=3)
        net = zoo.random_relu_net(draws, input_dim=3, hidden=(8, 8), classes=3)
        plain = propagate_intervals(net)
        default = tighten_lookback(net, plain, depth=2)
        coarse = tighten_lookback(net, plain, depth=2,
                                  config=SolveConfig(node_limit=1, mip_gap=0.5))
        for a, b in zip(default.layers, coarse.layers):
            if a.im_lo is not None:
                assert np.array_equal(a.im_lo, b.im_lo)
                assert np.array_equal(a.im_hi, b.im_hi)
        for point in domain_samples(net, 2000, rng):
            assert_trace_in_bounds(net, coarse, point)

    def test_time_limit_bounds_the_whole_call(self, monkeypatch):
        """One deadline for every window: each solve gets the time left, and
        windows reached after it are skipped with their bounds kept."""
        seen = []

        def slow_limit(model, config=None, start=None, repair=None):
            seen.append(config.time_limit)
            time.sleep(0.1)
            return SimpleNamespace(status=SolveStatus.LIMIT)

        monkeypatch.setattr(solver, "solve", slow_limit)
        layer_lps = _count_layer_lps(monkeypatch)
        net = zoo.relu_mixed_phases()  # 4 windows: 2 nodes, 2 senses
        plain = propagate_intervals(net)
        cfg = SolveConfig(time_limit=0.15)
        tight = tighten_lookback(net, plain, depth=2, config=cfg, workers=1)
        assert len(layer_lps) == 1  # the one probed layer, before the deadline
        assert 1 <= len(seen) <= 2
        assert all(0.0 < t <= 0.15 for t in seen)
        assert seen == sorted(seen, reverse=True)
        for a, b in zip(plain.layers, tight.layers):
            if a.im_lo is not None:
                assert np.array_equal(a.im_lo, b.im_lo)
                assert np.array_equal(a.im_hi, b.im_hi)

    def test_no_layer_lp_after_the_deadline(self, monkeypatch):
        """The first probed layer's probes use up the time; the second layer
        is neither encoded nor solved."""
        def slow_limit(model, config=None, start=None, repair=None):
            time.sleep(config.time_limit)
            return SimpleNamespace(status=SolveStatus.LIMIT)

        monkeypatch.setattr(solver, "solve", slow_limit)
        layer_lps = _count_layer_lps(monkeypatch)
        net = zoo.random_relu_net(np.random.default_rng(0), input_dim=2,
                                  hidden=(2, 2), classes=2)
        plain = propagate_intervals(net)
        cfg = SolveConfig(time_limit=0.2)
        tight = tighten_lookback(net, plain, depth=2, config=cfg, workers=1)
        assert [m.name for m in layer_lps] == ["window2"]
        for a, b in zip(plain.layers, tight.layers):
            if a.im_lo is not None:
                assert np.array_equal(a.im_lo, b.im_lo)
                assert np.array_equal(a.im_hi, b.im_hi)

    def test_depth_zero_rejected(self):
        net = zoo.lookback_chain()
        with pytest.raises(ValueError):
            tighten_lookback(net, propagate_intervals(net), depth=0)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16), hidden=st.sampled_from([(3, 3), (4, 3), (3, 3, 2)]),
           depth=st.integers(2, 3))
    def test_root_repair_keeps_the_bounds(self, seed, hidden, depth):
        """With and without the windows' forward-pass repair, each bound is
        its window's extreme to ADOPT_SLACK."""
        net = zoo.random_relu_net(np.random.default_rng(seed), input_dim=2,
                                  hidden=hidden, classes=2)
        plain = propagate_intervals(net)
        repaired = tighten_lookback(net, plain, depth=depth)
        real = solver.solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "solve", lambda model, config=None, start=None, repair=None:
                       real(model, config, start=start))
            unrepaired = tighten_lookback(net, plain, depth=depth)
        for a, b in zip(repaired.layers, unrepaired.layers):
            if a.im_lo is not None:
                for got, want in ((a.im_lo, b.im_lo), (a.im_hi, b.im_hi)):
                    tol = ADOPT_SLACK * np.maximum(1.0, np.abs(want))
                    assert np.all(np.abs(got - want) <= tol)

    def test_repaired_probes_give_identical_bounds_at_any_worker_count(self):
        """The repair travels in each probe job, so worker processes use it
        too; windows of depth 3 encode two exact layers."""
        net = zoo.random_relu_net(np.random.default_rng(3), input_dim=2,
                                  hidden=(5, 5, 4), classes=2)
        calls = []
        real = solver.solve

        def spy(model, config=None, start=None, repair=None):
            calls.append(repair is not None)
            return real(model, config, start=start, repair=repair)

        plain = propagate_intervals(net)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "solve", spy)
            one = tighten_lookback(net, plain, depth=3, workers=1)
        assert calls and all(calls)
        two = tighten_lookback(net, plain, depth=3, workers=2)
        for a, b in zip(one.layers, two.layers):
            if a.im_lo is not None:
                assert np.array_equal(a.im_lo, b.im_lo)
                assert np.array_equal(a.im_hi, b.im_hi)


def _budget_box(net, a, delta):
    lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
    return np.maximum(lo, a - delta), np.minimum(hi, a + delta)


def _seeded_case(seed):
    """A seeded random rectifier net, an anchor in its domain and a budget."""
    rng = np.random.default_rng(seed)
    net = zoo.random_relu_net(rng, input_dim=int(rng.integers(1, 4)),
                              hidden=tuple(int(rng.integers(2, 6))
                                           for _ in range(int(rng.integers(1, 3)))),
                              classes=int(rng.integers(2, 4)), scale=2.0)
    a = rng.uniform(-1.0, 1.0, size=net.input_dim)
    return net, a, float(rng.uniform(0.0, 1.5)), rng


class TestBudgetBox:
    @given(seed=st.integers(0, 100_000))
    def test_box_bounds_enclose_every_trace_from_the_box(self, seed):
        net, a, delta, rng = _seeded_case(seed)
        lo, hi = _budget_box(net, a, delta)
        bounds = propagate_intervals(net, (lo, hi))
        np.testing.assert_array_equal(bounds.input_lo, lo)
        np.testing.assert_array_equal(bounds.input_hi, hi)
        points = lo + rng.random((50, net.input_dim)) * (hi - lo)
        for point in np.vstack([points, lo, hi, a]):
            assert_trace_in_bounds(net, bounds, point)

    @given(seed=st.integers(0, 100_000))
    def test_box_bounds_are_never_looser_than_the_domain_bounds(self, seed):
        net, a, delta, _ = _seeded_case(seed)
        box = propagate_intervals(net, _budget_box(net, a, delta))
        plain = propagate_intervals(net)
        for lb, pb in zip(box.layers, plain.layers):
            assert np.all(lb.lo >= pb.lo - 1e-12) and np.all(lb.hi <= pb.hi + 1e-12)

    def test_the_domain_as_a_box_gives_the_plain_bounds(self):
        net = zoo.relu_deep()
        box = propagate_intervals(net, (net.input_bounds[:, 0], net.input_bounds[:, 1]))
        for lb, pb in zip(box.layers, propagate_intervals(net).layers):
            np.testing.assert_array_equal(lb.lo, pb.lo)
            np.testing.assert_array_equal(lb.hi, pb.hi)

    def test_intersection_keeps_the_tighter_side_and_recomputes_phases(self):
        """Verify over caller bounds: query_bounds meets the budget box into
        their input box, and every layer lies inside both the caller's
        bounds and the box's intervals, with phases from its im bounds."""
        net = zoo.relu_mixed_phases()
        plain = propagate_intervals(net)
        tight = tighten_lookback(net, plain, depth=2)
        a = np.array([1.0, 1.0])
        lo, hi = _budget_box(net, a, 0.4)
        box = propagate_intervals(net, (lo, hi))
        spec = QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=a, delta=0.4)
        both = query_bounds(net, spec, tight, None, None)
        np.testing.assert_array_equal(both.input_lo, lo)
        np.testing.assert_array_equal(both.input_hi, hi)
        for lb, lt, lx in zip(both.layers, tight.layers, box.layers):
            assert np.all(lb.lo >= np.maximum(lt.lo, lx.lo))
            assert np.all(lb.hi <= np.minimum(lt.hi, lx.hi))
            if lb.phase is not None:
                np.testing.assert_array_equal(lb.phase, relu_phases(lb.im_lo, lb.im_hi))
        # a budget box inside the domain leaves the domain's bounds nothing to add
        same = query_bounds(net, spec, plain, None, None)
        assert_same_bounds(same.layers, query_bounds(net, spec, None, None, None).layers)


def _exact_back_substitution(net, bounds, pos):
    """linear_bounds' back-substitution for the dense layer at pos, done in
    exact rationals over the float bounds it refined: the lower and upper
    bounds of each node's pre-activation, as Fractions."""
    w = net.layers[pos - 1].weights
    result = []
    for j in range(w.shape[1]):
        ends = []
        for sign in (1, -1):  # the minimum of sign * z
            const = Fraction(sign * w[0, j])
            lam = [Fraction(sign * v) for v in w[1:, j]]
            r = pos - 1
            while True:  # y_r by its lines in z_r, then z_r by its weights
                lb, wr = bounds.layers[r - 1], net.layers[r - 1].weights
                coef = []
                for c, lo, hi in zip(lam, lb.im_lo, lb.im_hi):
                    l, u = Fraction(lo), Fraction(hi)
                    if l >= 0:  # active: y = z
                        coef.append(c)
                    elif u <= 0:  # inactive: y = 0
                        coef.append(Fraction(0))
                    elif c >= 0:  # the lower line: y >= z if u > -l, else y >= 0
                        coef.append(c if u > -l else Fraction(0))
                    else:  # the upper line y <= u (z - l) / (u - l)
                        coef.append(c * u / (u - l))
                        const -= c * u * l / (u - l)
                const += sum(c * Fraction(v) for c, v in zip(coef, wr[0]))
                lam = [sum(c * Fraction(v) for c, v in zip(coef, row)) for row in wr[1:]]
                r -= 1
                if r == 0 or net.layers[r - 1].kind is not LayerKind.RELU_DENSE:
                    break
            box = zip(lam, bounds.x_lo(r), bounds.x_hi(r))
            ends.append(const + sum(c * Fraction(lo if c >= 0 else hi) for c, lo, hi in box))
        result.append((ends[0], -ends[1]))
    return result


def _relu_net_and_box(seed):
    """A seeded random rectifier net with 1-3 hidden layers, and its domain
    or a random box inside it."""
    rng = np.random.default_rng(seed)
    net = zoo.random_relu_net(rng, input_dim=int(rng.integers(1, 4)),
                              hidden=tuple(int(rng.integers(1, 6))
                                           for _ in range(int(rng.integers(1, 4)))),
                              classes=int(rng.integers(2, 4)), scale=2.0)
    lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
    if rng.random() < 0.5:
        lo, hi = np.sort(rng.uniform(lo, hi, size=(2, net.input_dim)), axis=0)
    return net, (lo, hi), rng


class TestLinearBounds:
    def test_lookback_chain_output_tightens_to_minus_one(self):
        """z = x - max(0, x) on [-1, 1]: the undecided node's upper line
        (x + 1) / 2 lifts the plain bound -2 to -1; its lower line y >= 0
        keeps the upper bound 1."""
        net = zoo.lookback_chain()
        plain = propagate_intervals(net)
        lin = linear_bounds(net, plain)
        assert lin.layers[1].im_lo[0] == pytest.approx(-1.0, abs=1e-12)
        assert lin.layers[1].im_lo[0] <= -1.0
        assert lin.layers[1].im_hi[0] == plain.layers[1].im_hi[0] == 1.0
        assert_same_bounds(lin.layers[:1], plain.layers[:1])

    @pytest.mark.parametrize("name", ["two_class_linear", "atan_wide", "pool_duel"])
    def test_nets_without_a_dense_layer_after_a_relu_keep_their_bounds(self, name):
        net = zoo.FIXTURES[name]()
        plain = propagate_intervals(net)
        lin = linear_bounds(net, plain)
        np.testing.assert_array_equal(lin.input_lo, plain.input_lo)
        np.testing.assert_array_equal(lin.input_hi, plain.input_hi)
        assert_same_bounds(lin.layers, plain.layers)

    @pytest.mark.parametrize("name", ["relu_deep", "relu_mixed_phases"])
    def test_bounds_it_cannot_tighten_are_kept_bit_for_bit(self, name):
        net = zoo.FIXTURES[name]()
        plain = propagate_intervals(net)
        lin = linear_bounds(net, plain)
        for a, b in zip(plain.layers, lin.layers):
            np.testing.assert_array_equal(a.lo, b.lo)
            np.testing.assert_array_equal(a.hi, b.hi)
            if a.phase is not None:
                np.testing.assert_array_equal(a.phase, b.phase)

    @pytest.mark.parametrize("name", sorted(zoo.FIXTURES) + ["R6", "R8", "R12"])
    def test_the_input_box_alone_gives_what_the_plain_intervals_give(self, name):
        """Bounds with no layers (how prepare_bounds and query_bounds start
        without caller bounds) refine every layer from the input box alone,
        bit for bit as over the plain intervals of that box: the domain and
        budget boxes inside it."""
        net = zoo.FIXTURES[name]() if name in zoo.FIXTURES else relu_bench_nets()[name]
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        rng = np.random.default_rng(5)
        boxes = [(lo, hi)]
        for a, delta in zip(rng.uniform(lo, hi, (10, lo.shape[0])), rng.random(10)):
            boxes.append((np.maximum(lo, a - delta), np.minimum(hi, a + delta)))
        for box in boxes:
            alone = linear_bounds(net, IntervalBounds(*box))
            plain = linear_bounds(net, propagate_intervals(net, box))
            for got, want in ((alone.input_lo, plain.input_lo), (alone.input_hi, plain.input_hi)):
                assert got.tobytes() == want.tobytes()
            assert_same_bounds(alone.layers, plain.layers)

    @given(seed=st.integers(0, 100_000))
    def test_sound_never_looser_and_enclosing_the_exact_computation(self, seed):
        net, box, rng = _relu_net_and_box(seed)
        plain = propagate_intervals(net, box)
        lin = linear_bounds(net, plain)
        lo, hi = box
        for point in np.vstack([lo + rng.random((50, net.input_dim)) * (hi - lo), lo, hi]):
            assert_trace_in_bounds(net, lin, point)
        for a, b in zip(plain.layers, lin.layers):
            assert np.all(b.lo >= a.lo) and np.all(b.hi <= a.hi)
            if a.im_lo is not None:
                assert np.all(b.im_lo >= a.im_lo) and np.all(b.im_hi <= a.im_hi)
        relax = {pos: _relaxation(spec.weights, lin.layers[pos - 1])
                 for pos, spec in enumerate(net.layers, start=1)
                 if spec.kind is LayerKind.RELU_DENSE}
        for pos in range(2, len(net.layers) + 1):
            if net.layers[pos - 1].kind not in DENSE_KINDS:
                continue
            b_lo, b_hi = _back_substitute(net, lin, relax, pos)
            exact = _exact_back_substitution(net, lin, pos)
            for j, (e_lo, e_hi) in enumerate(exact):
                assert Fraction(b_lo[j]) <= e_lo and e_hi <= Fraction(b_hi[j])
                # outward by rounding only, not by a gross margin
                assert b_lo[j] >= float(e_lo) - 1e-9 and b_hi[j] <= float(e_hi) + 1e-9
                assert lin.layers[pos - 1].im_lo[j] >= b_lo[j]
                assert lin.layers[pos - 1].im_hi[j] <= b_hi[j]


class TestDump:
    def test_dump_lists_every_node(self):
        net = zoo.relu_mixed_phases()
        buf = io.StringIO()
        write_bounds_dump(net, propagate_intervals(net), buf)
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        # 2 inputs + 4 hidden + 2 linear + 2 softmax
        assert len(lines) == 10
        assert all(len(l.split("\t")) == 8 for l in lines)  # one per header column
        assert any("always_active" in l for l in lines)
        assert any("always_inactive" in l for l in lines)
