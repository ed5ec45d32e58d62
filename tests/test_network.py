"""Network container: validation, (de)serialization, exact forward pass."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resilmip import zoo
from resilmip.network import (
    LayerKind,
    LayerSpec,
    Network,
    NetworkFormatError,
    NetworkValidationError,
    class_scores,
    competitor_count,
    forward,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    strongly_classifies,
)


def _linear(weights) -> LayerSpec:
    return LayerSpec(LayerKind.LINEAR_OUTPUT, weights=np.asarray(weights, dtype=float))


class TestValidation:
    def test_dimension_chain_checked(self):
        with pytest.raises(NetworkValidationError, match="layer 1"):
            Network(
                input_dim=2,
                input_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
                layers=(_linear(np.zeros((4, 1))),),  # expects 3 inputs, gets 2
            )

    def test_bounds_must_be_finite_and_ordered(self):
        with pytest.raises(NetworkValidationError):
            Network(1, np.array([[1.0, 0.0]]), (_linear(np.zeros((2, 1))),))
        with pytest.raises(NetworkValidationError):
            Network(1, np.array([[0.0, math.inf]]), (_linear(np.zeros((2, 1))),))

    def test_softmax_only_final(self):
        soft = LayerSpec(LayerKind.SOFTMAX)
        with pytest.raises(NetworkValidationError, match="softmax"):
            Network(1, np.array([[0.0, 1.0]]),
                    (soft, _linear(np.zeros((2, 1)))))

    def test_softmax_takes_no_parameters(self):
        with pytest.raises(NetworkValidationError):
            Network(1, np.array([[0.0, 1.0]]),
                    (_linear(np.zeros((2, 2))),
                     LayerSpec(LayerKind.SOFTMAX, weights=np.zeros((3, 2)))))

    def test_pool_groups_must_partition(self):
        with pytest.raises(NetworkValidationError, match="partition"):
            Network(4, np.tile([0.0, 1.0], (4, 1)),
                    (LayerSpec(LayerKind.MAX_POOL, pool_groups=((1, 2), (2, 3))),))

    def test_pool_group_size_two_or_four(self):
        with pytest.raises(NetworkValidationError):
            Network(3, np.tile([0.0, 1.0], (3, 1)),
                    (LayerSpec(LayerKind.MAX_POOL, pool_groups=((1, 2, 3),)),))

    def test_fixtures_all_valid(self):
        for name, builder in zoo.FIXTURES.items():
            net = builder()
            assert net.input_dim >= 1, name


class TestSerialization:
    def test_round_trip_all_fixtures(self, tmp_path):
        for name, builder in zoo.FIXTURES.items():
            net = builder()
            path = tmp_path / f"{name}.json"
            save_network(net, path)
            loaded = load_network(path)
            assert loaded.input_dim == net.input_dim
            assert np.array_equal(loaded.input_bounds, net.input_bounds)
            for a, b in zip(loaded.layers, net.layers):
                assert a.kind == b.kind
                if a.weights is not None:
                    assert np.array_equal(a.weights, b.weights)
                assert a.pool_groups == b.pool_groups

    def test_rejects_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(NetworkFormatError):
            load_network(bad)

    def test_rejects_missing_fields(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"input_dim": 2}))
        with pytest.raises(NetworkFormatError):
            load_network(bad)

    def test_dict_round_trip(self):
        net = zoo.pool_pairs()
        again = network_from_dict(network_to_dict(net))
        assert again.layer_dims() == net.layer_dims()

    @pytest.mark.parametrize("net,path,value", [
        ("two_class_linear", ["input_dim"], True),
        ("two_class_linear", ["input_bounds", 0, 1], "1"),
        ("two_class_linear", ["input_bounds", 1, 0], False),
        ("two_class_linear", ["layers", 0, "weights", 0], ["0", True]),
        ("two_class_linear", ["layers", 0, "weights", 1, 1], None),
        ("pool_duel", ["layers", 0, "pool_groups"], [[1.9, "2"]]),
        ("pool_duel", ["layers", 0, "pool_groups", 0, 1], 2.0),
        ("pool_duel", ["layers", 0, "pool_groups", 0, 0], True),
    ], ids=["input_dim-bool", "bound-str", "bound-bool", "weights-str-bool",
            "weight-null", "pool-float-str", "pool-float", "pool-bool"])
    def test_values_that_are_not_numbers_are_rejected(self, net, path, value):
        """JSON true, strings and null are not numbers, and pool indices and
        input_dim must be integers; Python's int() and float() would take
        true as 1, parse "2" and truncate 1.9."""
        doc = network_to_dict(zoo.FIXTURES[net]())
        network_from_dict(doc)
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(NetworkFormatError):
            network_from_dict(doc)

    def test_numpy_numbers_are_numbers(self):
        doc = network_to_dict(zoo.pool_duel())
        doc["input_dim"] = np.int64(2)
        doc["input_bounds"][0] = [np.float32(0.0), np.int64(1)]
        doc["layers"][0]["pool_groups"] = [[np.int64(1), np.int32(2)]]
        net = network_from_dict(doc)
        assert net.input_dim == 2 and net.layers[0].pool_groups == ((1, 2),)
        assert np.array_equal(net.input_bounds, [[0.0, 1.0], [0.0, 1.0]])


class TestForward:
    def test_softmax_point(self):
        # the classic probability anchor: scores (-1, 2, 3)
        net = zoo.identity3()
        out = forward(net, np.array([-1.0, 2.0, 3.0])).outputs
        assert np.allclose(out, [0.0132, 0.2654, 0.7214], atol=5e-4)
        assert math.isclose(float(np.sum(out)), 1.0, abs_tol=1e-12)

    def test_relu_and_linear_exact(self):
        net = zoo.relu_mixed_phases()
        tr = forward(net, np.array([0.5, -0.25]))
        # hidden pre-activations: 3.5, -2.5, 0.25, 0.75
        assert np.allclose(tr.im[0], [3.5, -2.5, 0.25, 0.75])
        assert np.allclose(tr.x[0], [3.5, 0.0, 0.25, 0.75])
        assert np.allclose(tr.x[1], [0.25, 0.75])

    def test_pool_takes_group_max(self):
        net = zoo.pool_quad()
        tr = forward(net, np.array([0.1, -0.5, 0.9, 0.3]))
        assert tr.x[0][0] == pytest.approx(0.9)

    def test_atan_is_exact_arctan(self):
        net = zoo.atan_wide()
        tr = forward(net, np.array([0.7]))
        assert tr.x[0][0] == pytest.approx(math.atan(2.1), abs=0)

    def test_trace_shapes(self):
        net = zoo.pool_pairs()
        tr = forward(net, np.zeros(4))
        assert [len(x) for x in tr.x] == [2, 2, 2]

    @pytest.mark.parametrize("name,first", [("relu_deep", 1), ("relu_deep", 2),
                                            ("pool_pairs", 1), ("atan_wide", 1)])
    def test_a_hidden_layer_start_is_the_tail_of_the_full_trace(self, name, first, rng):
        net = zoo.FIXTURES[name]()
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        full = forward(net, lo + rng.random(net.input_dim) * (hi - lo))
        tail = forward(net, full.x[first - 1], first=first)
        assert tail.first == first
        assert np.array_equal(tail.inputs, full.x[first - 1])
        assert len(tail.x) == len(full.x) - first
        for got, want in zip(tail.x, full.x[first:]):
            assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="dimension"):
            forward(net, np.zeros(net.layer_dims()[first] + 1), first=first)


class TestClassPredicates:
    def test_strongly_classifies_matches_probability_ratio(self, rng):
        """The log-domain margin test must agree with the literal softmax
        ratio for random score vectors and ratios (boundary cases excluded)."""
        net = zoo.identity3()
        checked = 0
        for _ in range(500):
            s = rng.normal(0.0, 1.5, size=3)  # in-domain: scores == inputs
            alpha = float(rng.uniform(1.0, 50.0))
            margin = min(s[0] - math.log(alpha) - s[j] for j in (1, 2))
            if abs(margin) < 1e-9:
                continue  # exact ties are a measure-zero knife edge
            probs = np.exp(s - s.max())
            probs /= probs.sum()
            ratio_ok = bool(all(probs[0] >= alpha * probs[j] for j in (1, 2)))
            assert strongly_classifies(net, s, 1, alpha) == ratio_ok
            checked += 1
        assert checked > 400

    def test_alpha_below_one_rejected(self):
        net = zoo.two_class_linear()
        with pytest.raises(ValueError):
            strongly_classifies(net, np.array([0.5, 0.5]), 1, 0.5)

    def test_competitor_count(self):
        net = zoo.identity3()
        assert competitor_count(net, np.array([1.0, 1.0, 0.0]), 1, tol=1e-9) == 1
        assert competitor_count(net, np.array([0.0, 1.0, 2.0]), 1, tol=1e-9) == 2
        assert competitor_count(net, np.array([3.0, 1.0, 2.0]), 1, tol=1e-9) == 0

    def test_class_scores_skip_softmax(self):
        net = zoo.two_class_linear()
        s = class_scores(net, np.array([0.25, 0.75]))
        assert np.allclose(s, [0.25, 0.75])


@given(st.lists(st.floats(-4, 4), min_size=3, max_size=3))
def test_softmax_normalizes(vals):
    net = zoo.identity3()
    out = forward(net, np.array(vals)).outputs
    assert math.isclose(float(np.sum(out)), 1.0, rel_tol=1e-12)
    assert np.all(out >= 0.0)
