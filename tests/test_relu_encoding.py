"""The ReLU encoding without pre-activation variables: each ReLU node's
pre-activation is an affine expression of its predecessors, written into
its gadget's rows. Dropping the variable drops its box, so these tests check
that no answer moved against answers recorded with the earlier encoding,
which gave each pre-activation a variable and an equality row; that every
query's and lookback probe's optimum equals the exhaustive optimum of both
encodings; and what each node adds to a model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilmip import encoder, resilience, zoo
from resilmip.dataflow import (ADOPT_SLACK, Phase, propagate_intervals,
                               tighten_lookback)
from resilmip.encoder import (QueryKind, QuerySpec, encode_network_eval, encode_query,
                              encode_relu, encode_window)
from resilmip.mipmodel import MipModel, ObjSense, RowSense
from resilmip.network import LayerKind
from resilmip.oracle import enumerate_mip
from resilmip.solver import SolveConfig, SolveStatus, solve

GAP = SolveConfig().mip_gap


def _table_net(seed: int):
    return zoo.random_relu_net(np.random.default_rng(seed), input_dim=3, hidden=(6, 6),
                               classes=3)


# Per seed of _table_net, recorded with one variable im and one row
# im - w.x = b per ReLU pre-activation: the max-alpha optimum t* of classes
# 1-3 without and with lookback depth 2; phi as (class, alpha, phi); the
# verify verdicts at VERIFY_QUERIES; and tighten_lookback at depth 2 (the
# undecided count, and im_lo, im_hi of layers 2 and 3).
VERIFY_QUERIES = (((0.25, -0.5, 0.1), 0.3), ((0.0, 0.0, 0.0), 1.0))
VARIABLE_ENCODING_ANSWERS = {
    7: {"max_alpha": (-0.0768734579814302, 0.6911631659733578, -0.7266685872348757),
        "max_alpha_lookback": (-0.0768734579814302, 0.6911632167276899,
                               -0.7266685872348757),
        "phi": (2, 1.41, math.inf),
        "verify": ("ROBUST", "ROBUST"),
        "lookback_undecided": 10,
        "lookback_im": (((-1.3246158193623707, -0.22432725621794547, -1.6743311183834173,
                          -1.5183600945737263, -0.0198005280458688, -0.6396657576762688),
                         (0.06399346314269283, 0.9648328819730285, -0.7077138571928014,
                          -0.06679991702465624, 1.6662718649534642, 0.1073156034615768)),
                        ((-0.022099286483396704, 0.40005104111900447, -0.6133930754486011),
                         (0.36461541947792814, 0.7028004463741239, -0.05456989619236746)))},
    8: {"max_alpha": (0.021170610736630957, -0.17891484216100034, 0.39980441418193746),
        "max_alpha_lookback": (0.021170610736631068, -0.1789148421610003,
                               0.39980441418193746),
        "phi": (3, 1.22, 0.49829454533887674),
        "verify": ("ROBUST", "ROBUST"),
        "lookback_undecided": 10,
        "lookback_im": (((-0.4174396667566768, -0.7472620758621095, -1.005791191158472,
                          -0.34731775327481845, -1.0795342545594218, -0.17940391270725503),
                         (0.18274791865108694, -0.09755516943525144, 0.365885920010296,
                          0.3304625934445907, -0.05004990570481321, 0.8918807954616809)),
                        ((-0.17479562455425, -0.3928640927927249, 0.21415486409345066),
                         (0.5072893393520999, 0.18050565127004492, 0.6616925448364513)))},
    9: {"max_alpha": (-0.44300411271791207, 0.5499363533151893, 0.19178142333350798),
        "max_alpha_lookback": (-0.4430041127179122, 0.5499363533151893,
                               0.19178142333350803),
        "phi": (2, 1.32, 0.3013348735831667),
        "verify": ("ROBUST", "VIOLATED"),
        "lookback_undecided": 10,
        "lookback_im": (((-1.350060937503536, -0.8957325231295067, -1.2098005035280617,
                          -1.436949264104542, 0.12589590125775746, -1.4902531846689118),
                         (0.27264469720811446, 0.767172493785716, 1.4837968943843,
                          1.9335573263831147, 0.5372659946913103, 0.03794177223532735)),
                        ((-1.1869147514821403, -0.11828581254521688, -0.8569482864319083),
                         (-0.3231064022130716, 0.5704303385312012, 0.8092065401738967)))},
}


def _within_gap(value: float, recorded: float) -> bool:
    if math.isinf(recorded):
        return value == recorded
    return abs(value - recorded) <= GAP * max(1.0, abs(recorded))


@pytest.mark.parametrize("seed", sorted(VARIABLE_ENCODING_ANSWERS))
def test_answers_match_the_variable_encoding(seed):
    net = _table_net(seed)
    rec = VARIABLE_ENCODING_ANSWERS[seed]
    for lookback, key in ((None, "max_alpha"), (2, "max_alpha_lookback")):
        for m, t in enumerate(rec[key], start=1):
            r = resilience.compute_max_alpha(net, m, lookback=lookback)
            assert r.status is SolveStatus.OPTIMAL
            assert _within_gap(r.t_star, t), (key, m, r.t_star, t)
    m, alpha, phi = rec["phi"]
    r = resilience.compute_phi(net, m, alpha=alpha)
    assert r.exact and _within_gap(r.phi, phi), (r.phi, phi)
    verdicts = tuple(resilience.check_local_robustness(net, np.array(a), d).verdict.value
                     for a, d in VERIFY_QUERIES)
    assert verdicts == rec["verify"]
    # lookback probes solve at gap 0; a bound may move by the gadget's
    # inflation of an undecided node's bounds, well inside the slack that
    # lookback widens every adopted bound by
    bounds = tighten_lookback(net, propagate_intervals(net), depth=2)
    assert sum(int((lb.phase == Phase.UNDECIDED).sum())
               for lb in bounds.layers if lb.phase is not None) == rec["lookback_undecided"]
    for lb, (im_lo, im_hi) in zip(bounds.layers[1:3], rec["lookback_im"]):
        np.testing.assert_allclose(lb.im_lo, im_lo, rtol=0.0, atol=ADOPT_SLACK)
        np.testing.assert_allclose(lb.im_hi, im_hi, rtol=0.0, atol=ADOPT_SLACK)


_ENCODE_RELU = encoder.encode_relu


def _relu_with_variable(model, x_id, expr, phase, im_bounds, tag):
    """The encoding with a pre-activation variable: im over [im_lo, im_hi],
    the row im = expr, and the gadget over the one-term expression im."""
    terms, const = expr
    im = model.add_variable(f"m{tag}", float(im_bounds[0]), float(im_bounds[1]))
    model.add_constraint(f"A{tag}", [(im, 1.0)] + [(v, -c) for v, c in terms],
                         RowSense.EQ, const)
    return _ENCODE_RELU(model, x_id, ([(im, 1.0)], 0.0), phase, im_bounds, tag)


def _query_spec(net, kind: QueryKind, m: int, anchor: np.ndarray) -> QuerySpec:
    if kind is QueryKind.LOCAL_ROBUSTNESS:
        return QuerySpec(kind, m=m, a=anchor, delta=0.5)
    a = anchor if kind is QueryKind.MAX_PERTURBATION and m == 1 else None
    return QuerySpec(kind, m=m, alpha=1.1, a=a)  # m == 1: phi's fixed-anchor stage


def _model_builder(net, hidden, kind, m, anchor, lookback):
    """A function that encodes the query (or, for "window", a lookback probe
    of score m's pre-activation over the score layer's depth-2 window) over
    bounds fixed here, and the number of ReLU nodes it encodes."""
    if kind == "window":
        bounds = propagate_intervals(net)
        if lookback is not None:
            bounds = tighten_lookback(net, bounds, depth=lookback)
        pos = len(hidden) + 1
        w = net.layers[pos - 1].weights[:, m - 1]
        sense = ObjSense.MAXIMIZE if m == 1 else ObjSense.MINIMIZE

        def build():
            window, ids, _ = encode_window(net, bounds, pos, 2)
            return window.with_objective(zip(ids, w[1:]), sense)
        return build, hidden[-1]
    spec = _query_spec(net, kind, m, anchor)
    bounds = resilience.query_bounds(net, spec, None, lookback, None)
    copies = 2 if kind is QueryKind.MAX_PERTURBATION and spec.a is None else 1
    return (lambda: encode_query(net, bounds, spec).model), sum(hidden) * copies


@given(seed=st.integers(0, 2**16), hidden=st.sampled_from([(2,), (3,), (2, 2), (3, 2)]),
       kind=st.sampled_from(list(QueryKind) + ["window"]), m=st.sampled_from([1, 2]),
       lookback=st.sampled_from([None, 2]))
@settings(max_examples=100)
def test_every_query_optimum_equals_both_encodings_exhaustive_optimum(
        seed, hidden, kind, m, lookback):
    rng = np.random.default_rng(seed)
    net = zoo.random_relu_net(rng, input_dim=2, hidden=hidden, classes=2)
    build, relu_nodes = _model_builder(net, hidden, kind, m, rng.uniform(-1.0, 1.0, size=2),
                                       lookback)
    model = build()
    if len(model.binary_ids) > 9:
        return  # keep the enumeration cheap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "encode_relu", _relu_with_variable)
        with_vars = build()
    lo_rows = sum(c.name.endswith(".lo") for c in model.constraints)  # tightened, inactive
    assert with_vars.num_constraints == model.num_constraints + relu_nodes - lo_rows
    assert with_vars.num_variables == model.num_variables + relu_nodes
    res = solve(model, SolveConfig(mip_gap=0.0))
    ref, ref_vars = enumerate_mip(model), enumerate_mip(with_vars)
    assert ref.status == ref_vars.status
    assert res.status is (SolveStatus.OPTIMAL if ref.status == "optimal"
                          else SolveStatus.INFEASIBLE)
    if ref.status == "optimal":
        tol = 2 * GAP * max(1.0, abs(ref_vars.objective))
        assert ref.objective == pytest.approx(ref_vars.objective, abs=tol)
        assert res.objective == pytest.approx(ref_vars.objective, abs=tol)


@given(seed=st.integers(0, 2**16), node=st.integers(0, 2), maximize=st.booleans())
@settings(max_examples=30)
def test_probes_over_tightened_bounds_equal_the_variable_encodings(seed, node, maximize):
    # a window boxes the layer before the one it encodes, so unlike a
    # query's optimum, a probe's optimum depends on the tightened
    # pre-activation bounds of the encoded layer
    net = _table_net(seed)
    bounds = tighten_lookback(net, propagate_intervals(net), depth=2)
    w = net.layers[2].weights[:, node]
    sense = ObjSense.MAXIMIZE if maximize else ObjSense.MINIMIZE
    window, ids, _ = encode_window(net, bounds, 3, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "encode_relu", _relu_with_variable)
        with_vars, ids_vars, _ = encode_window(net, bounds, 3, 2)
    probe = window.with_objective(zip(ids, w[1:]), sense)
    ref = enumerate_mip(probe)
    ref_vars = enumerate_mip(with_vars.with_objective(zip(ids_vars, w[1:]), sense))
    # the gadget confines an undecided pre-activation to its inflated bounds
    assert ref.objective == pytest.approx(ref_vars.objective, rel=0.0, abs=ADOPT_SLACK)
    assert solve(probe, SolveConfig(mip_gap=0.0)).objective == pytest.approx(
        ref.objective, rel=0.0, abs=1e-9)


# -- what each node adds ------------------------------------------------------


@pytest.mark.parametrize("phase,im_bounds,x_box,rows,binaries", [
    (Phase.UNDECIDED, (-1.0, 2.0), (0.0, 2.0), 3, 1),
    (Phase.ALWAYS_ACTIVE, (0.5, 2.0), (0.5, 2.0), 1, 0),
    (Phase.ALWAYS_INACTIVE, (-2.0, -0.5), (0.0, 0.0), 1, 0),
])
def test_a_relu_node_adds_no_pre_activation_column(phase, im_bounds, x_box, rows,
                                                   binaries):
    m = MipModel("node")
    u = m.add_variable("u", -1.0, 1.0)
    v = m.add_variable("v", -1.0, 1.0)
    x = m.add_variable("x", *x_box)
    cols = m.num_variables
    g = encode_relu(m, x, ([(u, 0.5), (v, 1.0)], 0.25), phase, im_bounds, "R")
    assert m.num_constraints == rows
    assert len(m.binary_ids) == binaries == (g.b_id is not None)
    assert m.num_variables == cols + binaries  # the binary, if any, and nothing else


@pytest.mark.parametrize("name", ["relu_mixed_phases", "relu_deep", "lookback_chain"])
def test_a_network_copy_has_rows_and_columns_per_phase(name):
    net = zoo.FIXTURES[name]()
    bounds = propagate_intervals(net)
    model, copy = encode_network_eval(net, bounds)
    rows, cols = 0, net.input_dim
    for pos, (spec, lb) in enumerate(zip(net.layers, bounds.layers), start=1):
        if spec.kind is LayerKind.RELU_DENSE:
            undecided = int((lb.phase == Phase.UNDECIDED).sum())
            rows += lb.phase.size + 2 * undecided
            cols += lb.phase.size + undecided
            assert pos not in copy.im_ids
            assert not [v for v in model.variables if v.name.startswith(f"mn{pos}_")]
        elif spec.kind is LayerKind.LINEAR_OUTPUT:
            n = spec.weights.shape[1]
            rows += n
            cols += n
            assert copy.x_ids[pos] == copy.im_ids[pos]
    assert (model.num_constraints, model.num_variables) == (rows, cols)


@pytest.mark.parametrize("name", ["atan_narrow", "atan_wide"])
def test_atan_and_score_layers_keep_their_pre_activation_variables(name):
    net = zoo.FIXTURES[name]()
    model, copy = encode_network_eval(net, propagate_intervals(net))
    names = [v.name for v in model.variables]
    for pos, spec in enumerate(net.layers[:-1], start=1):
        n = spec.weights.shape[1]
        assert [names[i] for i in copy.im_ids[pos]] == [f"mn{pos}_{i}" for i in range(n)]
        rows = [c for c in model.constraints if c.name.startswith(f"An{pos}_")]
        assert len(rows) == n
