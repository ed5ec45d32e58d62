"""The benchmark's two query sets, built from a seed.

Every query is a `Query`: `call()` is the timed part and returns whatever the
program returned, `collect()` turns that into a plain answer dict outside the
timed region. The networks never depend on the seed: R6, R8 and R12 are the
first three draws of `np.random.default_rng(0)` through
`zoo.random_relu_net(rng, input_dim=3, hidden=h, classes=3)`, the instances
the project's roadmap measures, and the R12 verify anchors are the next draws
of that generator; the fixture verify anchors are draws of
`np.random.default_rng(0)`. Fixed instances keep runs comparable: tree sizes
differ several-fold between random nets or anchors. The seed sets the order
in which a workload issues its queries.

Every query takes at most a few seconds, so that a run answers each one
several times and the median of its times can be taken (see
`report.end_to_end`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from resilmip import cli, dataflow, resilience, zoo
from resilmip.solver import SolveConfig

MIP_GAP = 1e-6
ALPHA_E = math.e
FIXTURE_TIME_LIMIT = 60.0      # per solve; a fixture pass takes about 5 s
RELU_TIME_LIMIT = 60.0         # per solve; the slowest relu_bb query takes about 3 s
R12_VERIFY_ANCHORS = 2
R12_VERIFY_DELTA = 0.1
# One anchor per fixture keeps the slow queries (atan and relu_deep phi) at
# 11% of a pass, so p90 lies inside the slow cluster; at 9.5% (two anchors)
# it fell on the gap between the clusters and jumped by 40% between runs.
FIXTURE_VERIFY_ANCHORS = 1
FIXTURE_VERIFY_SHARE = 0.2     # delta = this share of the mean domain width
MIN_FIXTURE_QUERIES = 100      # p90 needs ten samples above it


@dataclass
class Query:
    key: str                       # names the question; equal keys, equal answers
    kind: str                      # phi | max_alpha | verify | xi | lookback
    net: str
    params: dict
    call: Callable[[], object]
    collect: Callable[[object], dict]


@dataclass
class Workload:
    workers: int
    queries: list[Query]
    nets: dict = field(default_factory=dict)
    min_queries: int = 1


def relu_nets() -> tuple[dict, np.ndarray]:
    rng = np.random.default_rng(0)
    nets = {name: zoo.random_relu_net(rng, input_dim=3, hidden=h, classes=3)
            for name, h in (("R6", (6,)), ("R8", (8, 8)), ("R12", (12, 12)))}
    anchors = rng.uniform(-1.0, 1.0, size=(R12_VERIFY_ANCHORS, 3))
    return nets, anchors


# -- answers -----------------------------------------------------------------


def _num(v):
    if isinstance(v, str) and v in ("inf", "-inf"):
        return float(v)
    return v


def _vec(v):
    return None if v is None else [float(t) for t in v]


def _cli_phi(doc: dict) -> dict:
    return {k: _num(doc[k]) for k in ("phi", "status", "exact", "witness_exact",
                                       "anchor", "eps", "perturbed")}


# -- fixtures: the command-line path ------------------------------------------


def _cli_query(root: Path, out: Path, key: str, kind: str, net: str,
               params: dict, argv: list[str]) -> Query:
    sidecar = out / (hashlib.sha1(key.encode()).hexdigest()[:16] + ".json")
    full = argv + ["--net", str(root / "nets" / f"{net}.json"),
                   "--workers", "1", "--mip-gap", repr(MIP_GAP),
                   "--time-limit", repr(FIXTURE_TIME_LIMIT),
                   "--json-out", str(sidecar)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(full)

    def collect(code):
        doc = json.loads(sidecar.read_text())
        sidecar.unlink()
        if kind == "phi":
            ans = _cli_phi(doc)
        elif kind == "xi":
            ans = {"xi": _num(doc["xi"]), "status": doc["status"],
                   "per_class": {m: _cli_phi(p) for m, p in doc["per_class"].items()}}
        elif kind == "max_alpha":
            ans = {k: _num(doc[k]) for k in ("alpha_max", "t_star", "status", "anchor")}
        else:
            ans = {k: doc[k] for k in ("verdict", "class", "eps", "perturbed", "note")}
        ans["exit"] = code
        return ans

    return Query(key, kind, net, params, call, collect)


def fixtures(seed: int, root: Path, out: Path) -> Workload:
    rng = np.random.default_rng(0)
    nets = {name: build() for name, build in zoo.FIXTURES.items()}
    nets = {name: net for name, net in nets.items() if net.ends_in_softmax}
    qs: list[Query] = []
    for name, net in nets.items():
        for m in range(1, net.num_classes + 1):
            qs.append(_cli_query(root, out, f"phi/{name}/m{m}/alpha=e/k1", "phi", name,
                                 {"m": m, "alpha": ALPHA_E, "k": 1},
                                 ["phi", "--class", str(m), "--alpha", repr(ALPHA_E)]))
            qs.append(_cli_query(root, out, f"max_alpha/{name}/m{m}", "max_alpha", name,
                                 {"m": m}, ["max-alpha", "--class", str(m)]))
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        delta = FIXTURE_VERIFY_SHARE * float(np.mean(hi - lo))
        for a in rng.uniform(lo, hi, size=(FIXTURE_VERIFY_ANCHORS, net.input_dim)):
            qs.append(_verify_cli(root, out, name, a, delta))
    qs.append(_verify_cli(root, out, "relu_mixed_phases", np.array([1.0, 1.0]), 0.4))
    qs.append(_cli_query(root, out, "xi/three_class_linear/alpha=e/k1", "xi",
                         "three_class_linear", {"alpha": ALPHA_E, "k": 1},
                         ["xi", "--alpha", repr(ALPHA_E)]))
    for m in (1, 2, 3):
        qs.append(_cli_query(root, out, f"phi/three_class_linear/m{m}/alpha=e/k2", "phi",
                             "three_class_linear", {"m": m, "alpha": ALPHA_E, "k": 2},
                             ["phi", "--class", str(m), "--alpha", repr(ALPHA_E),
                              "--k", "2"]))
    order = np.random.default_rng(seed).permutation(len(qs))
    return Workload(1, [qs[i] for i in order], nets,
                    min_queries=MIN_FIXTURE_QUERIES)


def _verify_cli(root, out, name, a, delta) -> Query:
    text = ",".join(repr(float(t)) for t in a)
    return _cli_query(root, out, f"verify/{name}/a={text}/delta={delta!r}", "verify",
                      name, {"a": [float(t) for t in a], "delta": delta, "k": 1},
                      ["verify", f"--input={text}", "--delta", repr(delta)])


# -- library path: R12 branch-and-bound and lookback ----------------------------


def relu_bb(seed: int, root: Path, out: Path, lookback_workers: int = 2) -> Workload:
    nets, anchors = relu_nets()
    r8, r12 = nets["R8"], nets["R12"]
    cfg = SolveConfig(workers=1, mip_gap=MIP_GAP, time_limit=RELU_TIME_LIMIT)
    probe_cfg = SolveConfig(node_limit=10_000, time_limit=RELU_TIME_LIMIT)
    qs = [
        Query(f"max_alpha/R8/m{m}", "max_alpha", "R8", {"m": m},
              lambda m=m: resilience.compute_max_alpha(r8, m, config=cfg),
              lambda r: {"alpha_max": r.alpha_max, "t_star": r.t_star,
                         "status": r.status.value, "anchor": _vec(r.anchor)})
        for m in (1, 2, 3)
    ]
    qs.append(Query("lookback/R8/depth=2", "lookback", "R8", {"depth": 2},
                    lambda: dataflow.tighten_lookback(
                        r8, dataflow.propagate_intervals(r8), depth=2,
                        config=probe_cfg, workers=lookback_workers),
                    lookback_answer))
    for a in anchors:
        qs.append(Query(
            f"verify/R12/a={','.join(repr(float(t)) for t in a)}/delta={R12_VERIFY_DELTA!r}",
            "verify", "R12", {"a": [float(t) for t in a], "delta": R12_VERIFY_DELTA, "k": 1},
            lambda a=a: resilience.check_local_robustness(r12, a, R12_VERIFY_DELTA,
                                                          config=cfg),
            lambda r: {"verdict": r.verdict.value, "class": r.m, "eps": _vec(r.eps),
                       "perturbed": _vec(r.perturbed), "note": r.note}))
    order = np.random.default_rng(seed).permutation(len(qs))
    return Workload(lookback_workers, [qs[i] for i in order], nets)


def lookback_answer(bounds) -> dict:
    return {"im_lo": [_vec(lb.im_lo) for lb in bounds.layers],
            "im_hi": [_vec(lb.im_hi) for lb in bounds.layers],
            "undecided": sum(int((lb.phase == dataflow.Phase.UNDECIDED).sum())
                             for lb in bounds.layers if lb.phase is not None)}


WORKLOADS = {"fixtures": fixtures, "relu_bb": relu_bb}
