"""Independent checks of every benchmark answer, run outside the timed region.

The referees are `resilmip.oracle` (dense grid search for phi and max-alpha
on nets with at most three inputs, exhaustive enumeration of small models),
the pencil-and-paper values quoted in `resilmip.zoo`, exact forward passes
through `network.forward` for every witness, and the answers recorded in
`reference.json` at the commit that defined this benchmark. Arc-tangent nets
are encoded by an outer envelope, so their answers are checked one-sided
only: phi may sit below the truth and max-alpha above it.

`check` returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from resilmip import encoder, oracle
from resilmip.dataflow import propagate_intervals
from resilmip.encoder import QueryKind, QuerySpec
from resilmip.network import DENSE_KINDS, LayerKind, forward

GAP = 1e-6          # the benchmark's mip_gap
WITNESS_TOL = 1e-6
ENUM_MAX_BINARIES = 8    # 2**8 scipy LPs per model at most
BALL_SAMPLES = 4000

# exact values quoted in the zoo docstrings
PENCIL = {
    "phi/two_class_linear/m1/alpha=e/k1": ("phi", 1.0),
    "max_alpha/two_class_linear/m1": ("t_star", 1.0),
    "phi/three_class_linear/m1/alpha=e/k2": ("phi", 1.0),
    "phi/pool_duel/m1/alpha=e/k1": ("phi", 0.5),
}


def close(x: float, ref: float, tol: float = GAP) -> bool:
    if math.isinf(x) or math.isinf(ref):
        return x == ref
    return abs(x - ref) <= tol * max(1.0, abs(ref)) + 1e-9


def has_atan(net) -> bool:
    return any(layer.kind is LayerKind.ATAN_DENSE for layer in net.layers)


def scores(net, x) -> np.ndarray:
    trace = forward(net, np.asarray(x, dtype=np.float64))
    return trace.x[net.score_layer]


def margin(net, x, m: int) -> float:
    s = scores(net, x)
    return float(s[m - 1] - np.delete(s, m - 1).max())


def competitors(net, x, m: int, tol: float) -> int:
    s = scores(net, x)
    return int(np.sum(np.delete(s, m - 1) >= s[m - 1] - tol))


def grid_step(net) -> float:
    """Grid spacing: 51 points per axis up to two inputs, 21 for three."""
    width = float(np.max(net.input_bounds[:, 1] - net.input_bounds[:, 0]))
    return width / (50 if net.input_dim <= 2 else 20)


def lipschitz(net) -> float:
    """Bound on how far any class score moves per unit of infinity-norm input
    change: the product of the dense layers' infinity operator norms (max
    pooling, rectifier and arc-tangent are 1-Lipschitz)."""
    bound = 1.0
    for layer in net.layers[: net.score_layer + 1]:
        if layer.kind in DENSE_KINDS:
            bound *= float(np.abs(layer.weights[1:]).sum(axis=0).max())
    return bound


class Referee:
    def __init__(self, nets: dict, reference: dict) -> None:
        self.nets = nets
        self.reference = reference
        self._memo: dict[tuple, object] = {}

    def _cached(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def check(self, q, answer: dict) -> list[str]:
        net = self.nets[q.net]
        rec = self.reference.get(q.key)
        if q.kind == "phi":
            problems = self._phi(q.key, net, answer, q.params["m"], q.params["alpha"],
                                 q.params["k"], rec)
        elif q.kind == "xi":
            problems = self._xi(q, net, answer, rec)
        elif q.kind == "max_alpha":
            problems = self._max_alpha(q, net, answer, rec)
        elif q.kind == "verify":
            problems = self._verify(q, net, answer, rec)
        else:
            problems = self._lookback(q, net, answer, rec)
        if q.key in PENCIL:
            field, value = PENCIL[q.key]
            if not close(float(answer[field]), value):
                problems.append(f"{field} {answer[field]} != pencil value {value}")
        return problems

    # -- phi and xi ------------------------------------------------------------

    def _phi(self, key, net, ans, m, alpha, k, rec) -> list[str]:
        out: list[str] = []
        atan = has_atan(net)
        phi = float(ans["phi"])
        if ans["status"] not in ("optimal", "infeasible"):
            return [f"status {ans['status']}"]
        if rec is not None and not atan and not close(phi, float(rec["phi"])):
            out.append(f"phi {phi!r} != recorded {rec['phi']!r}")
        if math.isfinite(phi):
            a, eps, p = (np.array(ans[f]) for f in ("anchor", "eps", "perturbed"))
            if not np.allclose(a + eps, p, rtol=0.0, atol=1e-7):
                out.append("perturbed point != anchor + eps")
            if not close(float(np.abs(eps).sum()), phi):
                out.append("|eps|_1 != phi")
            if not atan:
                if margin(net, a, m) < math.log(alpha) - WITNESS_TOL:
                    out.append("anchor is not strongly classified by forward()")
                if competitors(net, p, m, WITNESS_TOL) < k:
                    out.append("perturbed point is not dominated by forward()")
        if net.input_dim <= oracle.MAX_GRID_DIM:
            g = self._cached(("grid_phi", key), lambda: oracle.grid_phi(
                net, m, alpha, k, step=grid_step(net)))
            if phi > g.phi + WITNESS_TOL:
                out.append(f"phi {phi!r} above a grid witness pair at {g.phi!r}")
            if not atan and math.isfinite(g.phi) and g.phi - phi > g.resolution + 1e-9:
                out.append(f"phi {phi!r} more than the grid resolution below "
                           f"grid phi {g.phi!r}")
        enum = self._enumerate(key, net, QuerySpec(QueryKind.MAX_PERTURBATION, m=m,
                                                   alpha=alpha, k=k))
        if enum is not None:
            ref = enum.objective if enum.status == "optimal" else math.inf
            if not close(phi, ref):
                out.append(f"phi {phi!r} != enumerated optimum {ref!r}")
        return out

    def _xi(self, q, net, ans, rec) -> list[str]:
        out: list[str] = []
        if ans["status"] != "optimal":
            out.append(f"status {ans['status']}")
        finite = [float(p["phi"]) for p in ans["per_class"].values()
                  if math.isfinite(float(p["phi"]))]
        if not close(float(ans["xi"]), min(finite, default=math.inf)):
            out.append("xi is not the least finite per-class phi")
        if len(ans["per_class"]) != net.num_classes:
            out.append("xi is missing classes")
        for m, p in ans["per_class"].items():
            sub = None if rec is None else rec["per_class"][m]
            for problem in self._phi(f"{q.key}/m{m}", net, p, int(m), q.params["alpha"],
                                     q.params["k"], sub):
                out.append(f"class {m}: {problem}")
        return out

    # -- max-alpha ---------------------------------------------------------------

    def _max_alpha(self, q, net, ans, rec) -> list[str]:
        m = q.params["m"]
        if ans["status"] != "optimal":
            return [f"status {ans['status']}"]
        out: list[str] = []
        atan = has_atan(net)
        t = float(ans["t_star"])
        if rec is not None and not atan and not close(t, float(rec["t_star"])):
            out.append(f"t_star {t!r} != recorded {rec['t_star']!r}")
        t_anchor = margin(net, ans["anchor"], m)
        if t_anchor > t + WITNESS_TOL or (not atan and not close(t_anchor, t)):
            out.append(f"forward() margin {t_anchor!r} at the anchor != t_star {t!r}")
        if net.input_dim <= oracle.MAX_GRID_DIM:
            step = grid_step(net)
            t_grid = math.log(self._cached(("grid_ma", q.key), lambda: oracle.grid_max_alpha(
                net, m, step=step)))
            if t_grid > t + WITNESS_TOL:
                out.append(f"grid point attains margin {t_grid!r} above t_star {t!r}")
            if not atan and t - t_grid > lipschitz(net) * step + 1e-9:
                out.append(f"t_star {t!r} beyond the grid resolution above {t_grid!r}")
        enum = self._enumerate(q.key, net, QuerySpec(QueryKind.MAX_ALPHA, m=m))
        if enum is not None and not close(t, enum.objective):
            out.append(f"t_star {t!r} != enumerated optimum {enum.objective!r}")
        return out

    # -- verify ------------------------------------------------------------------

    def _verify(self, q, net, ans, rec) -> list[str]:
        a = np.array(q.params["a"])
        delta, k, m = q.params["delta"], q.params["k"], int(ans["class"])
        verdict = ans["verdict"]
        atan = has_atan(net)
        if verdict == "UNKNOWN" and not (atan and "envelope" in ans["note"]):
            return [f"verdict UNKNOWN: {ans['note']}"]
        out: list[str] = []
        if rec is not None and not atan and verdict != rec["verdict"]:
            out.append(f"verdict {verdict} != recorded {rec['verdict']}")
        if verdict == "VIOLATED":
            eps, p = np.array(ans["eps"]), np.array(ans["perturbed"])
            if float(np.abs(eps).sum()) > delta + 1e-7:
                out.append("witness exceeds the budget")
            lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
            if not np.allclose(np.clip(a + eps, lo, hi), p, rtol=0.0, atol=1e-9):
                out.append("perturbed point != anchor + eps")
            if competitors(net, p, m, 1e-7) < k:
                out.append("violation not confirmed by forward()")
        elif verdict == "ROBUST":
            near = self._cached(("ball", q.key), lambda: self._nearest_violation(
                net, a, delta, m, k, q.key))
            if near is not None:
                out.append(f"ROBUST but a point at 1-norm {near:.6g} <= {delta} "
                           "is dominated")
        if not atan:
            enum = self._enumerate(q.key, net, QuerySpec(
                QueryKind.LOCAL_ROBUSTNESS, m=m, k=k, a=a, delta=delta))
            if enum is not None:
                expect = "ROBUST" if enum.status == "infeasible" else "VIOLATED"
                if verdict != expect:
                    out.append(f"verdict {verdict} but enumeration says {expect}")
        return out

    def _nearest_violation(self, net, a, delta, m, k, key) -> float | None:
        """The 1-norm distance of the closest clearly dominated point found by
        sampling the budget ball (its vertices, a grid, uniform draws), or
        None when every sampled point keeps class m ahead."""
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        d = net.input_dim
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        w = rng.exponential(size=(BALL_SAMPLES, d + 1))
        w /= w.sum(axis=1, keepdims=True)
        signs = rng.choice((-1.0, 1.0), size=(BALL_SAMPLES, d))
        pts = [a + delta * signs * w[:, :d], a + delta * np.vstack([np.eye(d), -np.eye(d)])]
        if d <= oracle.MAX_GRID_DIM:
            step = grid_step(net)
            axes = [np.arange(l, h + step / 2, step) for l, h in zip(lo, hi)]
            grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes)], axis=1)
            pts.append(grid[np.abs(grid - a).sum(axis=1) <= delta])
        pts = np.clip(np.vstack(pts), lo, hi)
        pts = pts[np.abs(pts - a).sum(axis=1) <= delta]
        s = oracle.batch_scores(net, pts)
        others = np.delete(s, m - 1, axis=1)
        dominated = (others > s[:, [m - 1]] + 1e-7).sum(axis=1) >= k
        if not dominated.any():
            return None
        return float(np.abs(pts[dominated] - a).sum(axis=1).min())

    # -- lookback ----------------------------------------------------------------

    def _lookback(self, q, net, ans, rec) -> list[str]:
        out: list[str] = []
        plain = propagate_intervals(net)
        if rec is not None:
            if ans["undecided"] != rec["undecided"]:
                out.append(f"{ans['undecided']} undecided ReLUs, recorded "
                           f"{rec['undecided']}")
            for side in ("im_lo", "im_hi"):
                for pos, (got, want) in enumerate(zip(ans[side], rec[side]), start=1):
                    if got is None:
                        continue
                    if not all(close(g, w, 2 * GAP) for g, w in zip(got, want)):
                        out.append(f"layer {pos} {side} differs from the recorded bounds")
        rng = np.random.default_rng(zlib.crc32(q.key.encode()))
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        samples = lo + rng.random((BALL_SAMPLES, net.input_dim)) * (hi - lo)
        traces = [forward(net, x) for x in samples]
        for pos, lb in enumerate(plain.layers, start=1):
            got_lo, got_hi = ans["im_lo"][pos - 1], ans["im_hi"][pos - 1]
            if got_lo is None:
                continue
            got_lo, got_hi = np.array(got_lo), np.array(got_hi)
            if np.any(got_lo < lb.im_lo - 1e-9) or np.any(got_hi > lb.im_hi + 1e-9):
                out.append(f"layer {pos} bounds are not inside the plain intervals")
            ims = np.array([t.im[pos - 1] for t in traces])
            if np.any(ims < got_lo - 1e-7) or np.any(ims > got_hi + 1e-7):
                out.append(f"layer {pos} bounds exclude a sampled forward pass")
        return out

    # -- enumeration -------------------------------------------------------------

    def _enumerate(self, key, net, spec):
        def build():
            enc = encoder.encode_query(net, propagate_intervals(net), spec)
            if len(enc.model.binary_ids) > ENUM_MAX_BINARIES:
                return None
            return oracle.enumerate_mip(enc.model)
        return self._cached(("enum", key), build)
