"""Acceptance gate: twelve criteria, one PASS/FAIL line each.

Every criterion derives its expectation independently of the code under test
(hand-computed values, exhaustive enumeration, grid search, or exact forward
passes) and runs at its stated tolerance. The verdict lines print to the real
stdout so they remain visible under pytest's capture.
"""

import math
import sys
import time

import numpy as np
import pytest

from resilmip import zoo
from resilmip.dataflow import propagate_intervals, tighten_lookback
from resilmip.encoder import (ATAN_APPROX_ERR, EncodingError, QueryKind, QuerySpec,
                              encode_atan, encode_query, encode_relu)
from resilmip.dataflow import Phase
from resilmip.mipmodel import MipModel, ObjSense, RowSense
from resilmip.network import class_scores, competitor_count, forward, strongly_classifies
from resilmip.oracle import enumerate_mip, grid_phi
from resilmip.resilience import Verdict, check_local_robustness, compute_phi
from resilmip.solver import SolveConfig, SolveStatus, solve

ALPHAS = (1.0, 1.1, 1.5, math.e, 5.0)

# fixtures with exact (piecewise-linear) encodings and d <= 2, used wherever a
# criterion compares the MIP answer against ground truth at grid resolution
EXACT_FIXTURES = (
    ("two_class_linear", math.e, 1),
    ("three_class_linear", math.e, 1),
    ("relu_mixed_phases", math.e, 1),
    ("pool_duel", math.e, 1),
    ("relu_deep", 1.2, 1),
)

# every softmax-headed fixture, each with a ratio at which its phi is finite
PHI_FIXTURES = (
    "two_class_linear", "three_class_linear", "identity3", "relu_mixed_phases",
    "atan_narrow", "atan_wide", "pool_pairs", "pool_duel", "relu_deep",
)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _live_verdicts(request):
    # verdict lines must stay visible in a plain pytest run, so they print
    # with capture suspended rather than into the swallowed test stdout
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _note(text: str) -> None:
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(text, flush=True)
    else:
        print(text, file=sys.__stdout__, flush=True)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    _note(line)
    assert ok, line


def test_criterion_01_probability_head_point():
    out = forward(zoo.identity3(), np.array([-1.0, 2.0, 3.0])).outputs
    expect = np.array([0.0132, 0.2654, 0.7214])
    dev = float(np.abs(out - expect).max())
    _report(1, dev <= 5e-4,
            f"softmax(-1,2,3) = ({out[0]:.6f}, {out[1]:.6f}, {out[2]:.6f}), "
            f"max deviation {dev:.2e} <= 5e-4")


def _relu_bench(im_value: float, big_m: float, force_b: int):
    m = MipModel("bench")
    x = m.add_variable("x", 0.0, big_m)
    im = m.add_variable("im", -big_m, big_m)
    m.add_constraint("fix", [(im, 1.0)], RowSense.EQ, im_value)
    g = encode_relu(m, x, ([(im, 1.0)], 0.0), Phase.UNDECIDED, (-big_m, big_m), "R")
    m.add_constraint("pin", [(g.b_id, 1.0)], RowSense.EQ, float(force_b))
    return solve(m.freeze(), SolveConfig()), x


def test_criterion_02_rectifier_gadget_suite():
    worst = 0.0
    wrong_infeasible = 0
    ok = True
    for big_m in (1.0, 3.0, 10.0):
        for v in np.linspace(-big_m, big_m, 201):
            v = float(v)
            right = 1 if v >= 0 else 0
            res, x = _relu_bench(v, big_m, right)
            if res.status is not SolveStatus.OPTIMAL:
                ok = False
                continue
            worst = max(worst, abs(res.assignment[x] - max(0.0, v)))
            if v != 0.0:  # at the kink both indicator values are admissible
                wrong, _ = _relu_bench(v, big_m, 1 - right)
                if wrong.status is SolveStatus.INFEASIBLE:
                    wrong_infeasible += 1
                else:
                    ok = False
    ok = ok and worst <= 1e-9 and wrong_infeasible == 3 * 200
    _report(2, ok,
            f"M in {{1,3,10}} x 201 points: correct indicator reproduces "
            f"max(0,im) to {worst:.2e} (<= 1e-9), wrong indicator infeasible "
            f"in all {wrong_infeasible} off-kink cases")


def test_criterion_03_ratio_vs_log_domain():
    net = zoo.identity3()  # scores are the inputs themselves
    rng = np.random.default_rng(42)
    n = 10_000
    scores = rng.uniform(-5.0, 5.0, size=(n, 3))
    alphas = rng.uniform(1.0, 50.0, size=n)
    ms = rng.integers(1, 4, size=n)
    mismatches = 0
    knife = 0
    for s, alpha, m in zip(scores, alphas, ms):
        m0 = int(m) - 1
        margin = float(s[m0] - np.delete(s, m0).max())
        if abs(margin - math.log(alpha)) < 1e-9:
            knife += 1
            continue
        p = np.exp(s - s.max())
        p /= p.sum()
        ratio_ok = bool(p[m0] >= alpha * float(np.delete(p, m0).max()))
        log_ok = strongly_classifies(net, s, int(m), float(alpha))
        if ratio_ok != log_ok:
            mismatches += 1
    _report(3, mismatches == 0,
            f"{n} random (scores, alpha) samples: softmax-ratio test and "
            f"log-domain test agree on all {n - knife} decided cases "
            f"({knife} knife-edge skips at 1e-9)")


def _trace_within(net, bounds, trace, slack=1e-9) -> bool:
    for pos in range(1, net.num_layers + 1):
        lb = bounds.layers[pos - 1]
        im = trace.im[pos - 1]
        x = trace.x[pos - 1]
        if im is not None and lb.im_lo is not None and im.size:
            if np.any(im < lb.im_lo - slack) or np.any(im > lb.im_hi + slack):
                return False
        if np.any(x < lb.lo - slack) or np.any(x > lb.hi + slack):
            return False
    return True


def test_criterion_04_interval_soundness():
    rng = np.random.default_rng(42)
    traces = 0
    sound = True
    tight_sound = True
    never_looser = True
    for _ in range(20):
        d = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 3))
        widths = tuple(int(rng.integers(2, 11)) for _ in range(depth))
        classes = int(rng.integers(2, 5))
        net = zoo.random_relu_net(rng, input_dim=d, hidden=widths, classes=classes)
        plain = propagate_intervals(net)
        tight = tighten_lookback(net, plain, depth=2)
        for lb, tb in zip(plain.layers, tight.layers):
            if lb.im_lo is not None and (np.any(tb.im_lo < lb.im_lo - 1e-9)
                                         or np.any(tb.im_hi > lb.im_hi + 1e-9)):
                never_looser = False
            if np.any(tb.lo < lb.lo - 1e-9) or np.any(tb.hi > lb.hi + 1e-9):
                never_looser = False
        pts = rng.uniform(net.input_bounds[:, 0], net.input_bounds[:, 1],
                          size=(500, d))
        for p in pts:
            tr = forward(net, p)
            traces += 1
            sound = sound and _trace_within(net, plain, tr)
            tight_sound = tight_sound and _trace_within(net, tight, tr)
    _report(4, sound and tight_sound and never_looser,
            f"20 random nets (d<=5, <=3 layers, <=10 wide), {traces} forward "
            f"traces inside plain bounds: {sound}; inside tightened bounds: "
            f"{tight_sound}; tightened never looser: {never_looser}")


def test_criterion_05_lookback_witness():
    net = zoo.lookback_chain()
    plain = propagate_intervals(net)
    tight = tighten_lookback(net, plain, depth=2)
    p_lo, p_hi = float(plain.layers[1].im_lo[0]), float(plain.layers[1].im_hi[0])
    t_lo, t_hi = float(tight.layers[1].im_lo[0]), float(tight.layers[1].im_hi[0])
    dev = max(abs(p_lo + 2.0), abs(p_hi - 1.0), abs(t_lo + 1.0), abs(t_hi))
    _report(5, dev <= 1e-6,
            f"x - max(0,x) output interval: plain [{p_lo:.6g}, {p_hi:.6g}], "
            f"window-tightened [{t_lo:.6g}, {t_hi:.6g}] (target [-1, 0], "
            f"max deviation {dev:.2e} <= 1e-6)")


def _random_bounded_mip(seed: int) -> MipModel:
    rng = np.random.default_rng(7_000 + seed)
    n_bin = int(rng.integers(1, 13))
    n_cont = int(rng.integers(0, 4))
    m = MipModel(f"acc{seed}")
    ids = [m.add_binary(f"b{i}") for i in range(n_bin)]
    for i in range(n_cont):
        lo = float(rng.normal(-2, 1))
        ids.append(m.add_variable(f"x{i}", lo, lo + float(rng.random() * 4)))
    mid = np.array([0.5] * n_bin + [m.variables[v].lo + 0.1 for v in ids[n_bin:]])
    for r in range(int(rng.integers(1, 7))):
        coefs = [(v, float(rng.normal(0, 1.5))) for v in ids if rng.random() < 0.8]
        coefs = [(v, cf) for v, cf in coefs if cf != 0.0]
        if not coefs:
            continue
        sense = [RowSense.LE, RowSense.GE, RowSense.EQ][int(rng.integers(0, 3))]
        dense = np.zeros(len(ids))
        for v, cf in coefs:
            dense[v] = cf
        m.add_constraint(f"r{r}", coefs, sense,
                         float(dense @ mid) + float(rng.normal(0, 0.5)))
    m.set_objective([(v, float(rng.normal(0, 2))) for v in ids],
                    ObjSense.MAXIMIZE if rng.random() < 0.5 else ObjSense.MINIMIZE)
    return m


def test_criterion_06_solver_matches_enumeration():
    worst_rel = 0.0
    status_ok = True
    optimal = infeasible = 0
    for seed in range(50):
        model = _random_bounded_mip(seed)
        mine = solve(model.freeze(), SolveConfig())
        ref = enumerate_mip(model)
        if mine.status.value != ref.status:
            status_ok = False
            continue
        if ref.status == "optimal":
            optimal += 1
            worst_rel = max(worst_rel, abs(mine.objective - ref.objective)
                            / max(1.0, abs(ref.objective)))
        else:
            infeasible += 1
    _report(6, status_ok and worst_rel <= 1e-6,
            f"50 random MIPs (<=12 binaries): statuses identical "
            f"({optimal} optimal, {infeasible} infeasible), worst relative "
            f"objective gap {worst_rel:.2e} <= 1e-6")


def test_criterion_07_phi_against_grid():
    gaps = []
    ok = True
    linear_phi = None
    for name, alpha, k in EXACT_FIXTURES:
        net = zoo.FIXTURES[name]()
        r = compute_phi(net, 1, alpha=alpha, k=k)
        g = grid_phi(net, 1, alpha=alpha, k=k, step=0.02)
        gap = abs(r.phi - g.phi)
        gaps.append((name, gap, g.resolution))
        ok = ok and r.exact and gap <= g.resolution + 1e-9
        if name == "two_class_linear":
            linear_phi = r.phi
            ok = ok and abs(r.phi - 1.0) <= 1e-7
    worst = max(g for _, g, _ in gaps)
    _report(7, ok,
            f"5 hand-built fixtures (d<=2): |phi_mip - phi_grid| <= grid "
            f"resolution 0.04 on all (worst {worst:.4f}); linear 2-class "
            f"fixture phi = {linear_phi:.9g} (exactly 1 at alpha=e, k=1)")


def test_criterion_08_monotonicity():
    ok = True
    bad = []
    for name in PHI_FIXTURES:
        net = zoo.FIXTURES[name]()
        bounds = propagate_intervals(net)
        phis = [compute_phi(net, 1, alpha=a, bounds=bounds).phi for a in ALPHAS]
        for a0, a1, p0, p1 in zip(ALPHAS, ALPHAS[1:], phis, phis[1:]):
            if math.isinf(p0) and not math.isinf(p1):
                ok = False  # the feasible prefix must not resume
                bad.append(f"{name}: finite after inf at alpha={a1}")
            elif p1 < p0 - 1e-6:
                ok = False
                bad.append(f"{name}: phi({a1})={p1:.6g} < phi({a0})={p0:.6g}")
    k_checked = 0
    for name in ("three_class_linear", "identity3"):
        net = zoo.FIXTURES[name]()
        bounds = propagate_intervals(net)
        p1 = compute_phi(net, 1, alpha=math.e, k=1, bounds=bounds).phi
        p2 = compute_phi(net, 1, alpha=math.e, k=2, bounds=bounds).phi
        k_checked += 1
        if p2 < p1 - 1e-6:
            ok = False
            bad.append(f"{name}: phi(k=2)={p2:.6g} < phi(k=1)={p1:.6g}")
    _report(8, ok,
            f"phi non-decreasing over alpha in {{1, 1.1, 1.5, e, 5}} on "
            f"{len(PHI_FIXTURES)} fixtures and over k in {{1, 2}} on "
            f"{k_checked} multi-class fixtures (tol 1e-6)"
            + ("" if ok else "; " + "; ".join(bad)))


def test_criterion_09_seeding_invariants():
    ok = True
    bad = []
    for name in PHI_FIXTURES:
        net = zoo.FIXTURES[name]()
        bounds = propagate_intervals(net)
        warm = compute_phi(net, 1, alpha=1.1, bounds=bounds)
        # the free-anchor model, solved with no seed from the earlier stages
        cold = float(solve(encode_query(net, bounds, QuerySpec(
            QueryKind.MAX_PERTURBATION, m=1, alpha=1.1)).model).objective)
        if warm.anchor_phi is None or warm.anchor_phi < warm.phi - 1e-9:
            ok = False
            bad.append(f"{name}: seed bound {warm.anchor_phi} < phi {warm.phi}")
        gap_tol = 1e-6 * max(1.0, abs(cold)) + 1e-9
        same = (warm.phi == cold or abs(warm.phi - cold) <= gap_tol)
        if not same:
            ok = False
            bad.append(f"{name}: warm {warm.phi:.9g} != cold {cold:.9g}")
    _report(9, ok,
            f"fixed-anchor seed bound >= phi and warm-started optimum equals "
            f"the cold one within mip_gap on all {len(PHI_FIXTURES)} fixtures"
            + ("" if ok else "; " + "; ".join(bad)))


def _atan_extreme(im_value: float, sense) -> float:
    m = MipModel("env")
    x = m.add_variable("x", -math.pi / 2 - 1.0, math.pi / 2 + 1.0)
    im = m.add_variable("im", -1.0, 1.0)
    m.add_constraint("fix", [(im, 1.0)], RowSense.EQ, float(im_value))
    encode_atan(m, x, im, -1.0, 1.0, "T")
    m.set_objective([(x, 1.0)], sense)
    r = solve(m.freeze(), SolveConfig())
    assert r.status is SolveStatus.OPTIMAL
    return r.objective


def test_criterion_10_atan_envelope():
    h = 2.0 / 8.0
    half_bound = ATAN_APPROX_ERR + (2 * 0.273) * h * h / 8.0
    contained = True
    worst_half = 0.0
    for v in np.linspace(-1.0, 1.0, 101):
        lo = _atan_extreme(float(v), ObjSense.MINIMIZE)
        hi = _atan_extreme(float(v), ObjSense.MAXIMIZE)
        truth = math.atan(float(v))
        if not (lo - 1e-9 <= truth <= hi + 1e-9):
            contained = False
        worst_half = max(worst_half, (hi - lo) / 2.0)
    _report(10, contained and worst_half <= half_bound + 1e-9,
            f"101 points of [-1, 1]: envelope contains atan everywhere, "
            f"worst half-width {worst_half:.6f} <= 0.0038 + secant gap "
            f"{half_bound - ATAN_APPROX_ERR:.6f} = {half_bound:.6f}")


def test_criterion_11_parallel_invariance():
    ok = True
    times = {1: 0.0, 2: 0.0, 4: 0.0}
    for name, alpha, k in EXACT_FIXTURES:
        net = zoo.FIXTURES[name]()
        bounds = propagate_intervals(net)
        base = None
        for w in (1, 2, 4):
            t0 = time.perf_counter()
            r = compute_phi(net, 1, alpha=alpha, k=k, bounds=bounds, lookback=2,
                            config=SolveConfig(workers=w))
            times[w] += time.perf_counter() - t0
            if base is None:
                base = r.phi
            elif abs(r.phi - base) > 1e-6 * max(1.0, abs(base)):
                ok = False
    _report(11, ok,
            "workers {1, 2, 4} return identical optima within mip_gap on all "
            "5 ground-truth fixtures")
    _note(f"  report criterion 11 (non-gating wall time): "
          f"1 worker {times[1]:.2f}s | 2 workers {times[2]:.2f}s | "
          f"4 workers {times[4]:.2f}s on the same query set")


def test_criterion_12_witness_revalidation():
    ok = True
    phi_checked = 0
    for name, alpha, k in EXACT_FIXTURES:
        net = zoo.FIXTURES[name]()
        r = compute_phi(net, 1, alpha=alpha, k=k)
        if not (r.status is SolveStatus.OPTIMAL and r.witness_exact is True):
            ok = False
            continue
        s = class_scores(net, r.anchor)
        margin = float(s[0] - np.delete(s, 0).max())
        ok = (ok and margin >= math.log(alpha) - 1e-6
              and competitor_count(net, r.perturbed, 1, tol=1e-6) >= k
              and abs(float(np.abs(r.eps).sum()) - r.phi) <= 1e-6)
        phi_checked += 1

    relaxed_ok = True  # arc-tangent phi witnesses: documented relaxation slack
    for name, alpha in (("atan_narrow", math.e), ("atan_wide", 1.5)):
        net = zoo.FIXTURES[name]()
        r = compute_phi(net, 1, alpha=alpha)
        s = class_scores(net, r.anchor)
        margin = float(s[0] - np.delete(s, 0).max())
        relaxed_ok = (relaxed_ok and r.status is SolveStatus.OPTIMAL
                      and margin >= math.log(alpha) - 0.1
                      and competitor_count(net, r.perturbed, 1, tol=0.1) >= 1)

    violations = 0
    cases = (
        ("two_class_linear", [1.0, 0.0], 1.1, 1),
        ("three_class_linear", [1.0, 0.0], 1.1, 2),
        ("relu_mixed_phases", [1.0, 1.0], 1.2, 1),
        ("pool_duel", [1.0, 0.0], 0.6, 1),
        ("atan_narrow", [1.0], 1.2, 1),
    )
    for name, a, delta, k in cases:
        net = zoo.FIXTURES[name]()
        res = check_local_robustness(net, np.array(a), delta, k=k)
        good = (res.verdict is Verdict.VIOLATED
                and competitor_count(net, res.perturbed, res.m, tol=1e-6) >= k
                and float(np.abs(res.eps).sum()) <= delta + 1e-6)
        if good:
            violations += 1
        else:
            ok = False
    _report(12, ok and relaxed_ok,
            f"{phi_checked} phi witnesses and {violations} violation "
            f"witnesses re-validate through exact forward passes (tol 1e-6); "
            f"2 arc-tangent phi witnesses stay within the documented "
            f"under-approximation slack")
