"""Mixed-integer encodings of network semantics and verification queries.

Every encoding is a relaxation: the feasible set of the emitted rows contains
every exact forward trace whose input satisfies the instantiated input rows,
so objective optima are sound bounds on the true quantities.

Every big-M constant is sized from interval bounds, separately for each side
of a gadget or each gated row, and inflated by _GATE_REL and _GATE_ABS so no
row binds exactly at an interval edge.

Conventions: a ReLU indicator takes value 1 exactly when the pre-activation
is >= 0 (at 0 either value satisfies the gadget); a max-pool pair indicator
takes 1 when the left operand attains the maximum; arc-tangent nodes are
relaxed to a two-sided piecewise-linear envelope around the classic quadratic
approximation (pi/4)t + 0.273 t (1 - |t|), widened by its 0.0038 worst-case
error plus the secant gap of the breakpoint grid; outside [-1, 1] the
envelope works through a reciprocal auxiliary variable so that
x = +-pi/2 - envelope(1/im). The grid's resolution is fixed here, at
ATAN_SEGMENTS segments per region.

A ReLU node's pre-activation is an affine expression of its predecessors
(affine_expr) written into its gadget's rows, as in MIPVerify, so the node
adds no variable and no equality row. Arc-tangent and score nodes keep a
variable m... and its row A...: substituting those changed no answer but
moved the LP's vertex choices, and with them the trees.

encode_relu records each ReLU indicator on the model with its output and its
row x - im >= const (MipModel.set_relu), so that the solver can branch on the
ReLU whose LP point lies farthest from its graph; other binaries record
nothing and are branched on by fractionality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dataflow import IntervalBounds, Phase
from .mipmodel import Assignment, MipModel, RowSense, ObjSense
from .network import DENSE_KINDS, ForwardTrace, LayerKind, Network, forward

ATAN_APPROX_ERR = 0.0038  # worst-case |atan(t) - q(t)| on [-1, 1]
ATAN_SEGMENTS = 8         # envelope segments per arc-tangent region
_Q_CURVE = 2 * 0.273      # |q''| away from t = 0
_GATE_REL = 1e-7
_GATE_ABS = 1e-9
Affine = tuple[list[tuple[int, float]], float]  # sum_j c_j v_j + c_0 as ([(v_j, c_j)], c_0)


class EncodingError(ValueError):
    """Raised for queries or bounds an encoding cannot represent."""


class QueryKind(Enum):  # each value prefixes its model's name
    MAX_PERTURBATION = "max_perturbation"
    LOCAL_ROBUSTNESS = "local_robustness"
    MAX_ALPHA = "max_alpha"
    STRONG_ANCHOR = "anchor"  # phi's stage 1: a strongly classified input


@dataclass(frozen=True)
class QuerySpec:
    """What to ask of a network: the class m (1-based), the dominance ratio
    alpha, the number k of classes that must reach class m's score, the
    anchor input a and, for local robustness, the perturbation budget delta.

    Local robustness needs a. A MAX_PERTURBATION query with a fixes phi's
    anchor at a (the fixed-anchor stage of compute_phi); without a the
    anchor is free. MAX_ALPHA and STRONG_ANCHOR ignore a, and only
    MAX_PERTURBATION and LOCAL_ROBUSTNESS read k."""

    kind: QueryKind
    m: int
    alpha: float = 1.0
    k: int = 1
    a: np.ndarray | None = None
    delta: float = 0.0


@dataclass
class ReluGadget:
    b_id: int | None  # None when the phase is fixed


@dataclass
class PoolPair:
    y_id: int
    left: int
    right: int
    b_id: int | None
    keep: str | None = None  # 'left'/'right' when dominance collapsed the pair


@dataclass
class AtanRegion:
    kind: str  # 'mid', 'pos', 'neg'
    im_lo: float
    im_hi: float
    bps: np.ndarray      # breakpoints on the interpolation axis (im or 1/im)
    lam_ids: list[int]
    seg_ids: list[int]
    gate_id: int | None
    recip_id: int | None


@dataclass
class AtanGadget:
    regions: list[AtanRegion]  # empty for a constant (degenerate) node


@dataclass
class NetworkCopy:
    """Variable bookkeeping for one encoded instantiation of (part of) a net.
    im_ids holds the pre-activation variables of the atan and score layers
    only: a ReLU layer's pre-activations are expressions (module docstring)."""

    first_pos: int
    last_pos: int
    x_ids: dict[int, list[int]] = field(default_factory=dict)
    im_ids: dict[int, list[int]] = field(default_factory=dict)
    relu: dict[int, dict[int, ReluGadget]] = field(default_factory=dict)
    pools: dict[int, dict[int, list[PoolPair]]] = field(default_factory=dict)
    atan: dict[int, dict[int, AtanGadget]] = field(default_factory=dict)


@dataclass(frozen=True)
class ForwardRepair:
    """The root repair (solver.solve's ``repair``) of a model in which the
    inputs of one exact network copy fix every other variable: a MAX_ALPHA
    query, or a lookback window. It clips the LP point's copy inputs into
    the box (lo, hi), evaluates the copy's layers from them with
    network.forward, fills the copy by copy_assignment and, for MAX_ALPHA,
    sets t to the exact margin s_m - max_j s_j (margin: t's id and the
    0-based class m). The result is an exact trace, which the solver adopts
    if it meets every row. Plain data, so that lookback's probe jobs pickle."""

    net: Network
    copy: NetworkCopy
    lo: np.ndarray
    hi: np.ndarray
    margin: tuple[int, int] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        first = self.copy.first_pos - 1
        z = np.clip(x[self.copy.x_ids[first]], self.lo, self.hi)
        trace = forward(self.net, z, first=first)
        asg: Assignment = {}
        copy_assignment(asg, self.copy, self.net, trace)
        out = x.copy()
        out[list(asg)] = list(asg.values())
        if self.margin is not None:
            t_id, m0 = self.margin
            s = trace.x[self.copy.last_pos - 1 - first]
            out[t_id] = s[m0] - np.delete(s, m0).max()
        return out


@dataclass
class EncodedQuery:
    """A query model plus the variable maps needed to read solutions back,
    and for MAX_ALPHA the model's root repair."""

    model: MipModel
    input_ids: list[int] | None   # the free anchor input, when instantiated
    eps_ids: list[int] | None
    eps_abs_ids: list[int] | None
    pert_input_ids: list[int] | None
    base: NetworkCopy | None
    pert: NetworkCopy | None
    class_sel: dict[int, int]     # 0-based class -> selector binary id
    repair: ForwardRepair | None = None


# -- gating helper ---------------------------------------------------------


def _interval_extreme(model: MipModel, coefs, *, upper: bool) -> float:
    total = 0.0
    for vid, a in coefs:
        var = model.variables[vid]
        lo, hi = a * var.lo, a * var.hi
        total += max(lo, hi) if upper else min(lo, hi)
    return total


def add_gated(model: MipModel, name: str, coefs, sense: RowSense, rhs: float,
              gate_id: int | None) -> int:
    """Add a row enforced only when the gate binary is 1.

    The relaxation constant is the row's worst violation over the variables'
    declared bounds, so the row is exactly vacuous at gate 0. All referenced
    variables must be bounded.
    """
    if gate_id is None:
        return model.add_constraint(name, coefs, sense, rhs)
    if sense is RowSense.EQ:
        raise EncodingError("gate equality rows as a <=/>= pair")
    if sense is RowSense.LE:
        worst = _interval_extreme(model, coefs, upper=True) - rhs
    else:
        worst = rhs - _interval_extreme(model, coefs, upper=False)
    if not math.isfinite(worst):
        raise EncodingError(f"row {name!r}: cannot gate unbounded expression")
    m_gate = max(0.0, worst) * (1.0 + _GATE_REL) + _GATE_ABS
    if sense is RowSense.LE:
        return model.add_constraint(name, list(coefs) + [(gate_id, m_gate)], sense, rhs + m_gate)
    return model.add_constraint(name, list(coefs) + [(gate_id, -m_gate)], sense, rhs - m_gate)


# -- per-node gadgets --------------------------------------------------------


def affine_expr(pred_ids: list[int], w_col: np.ndarray) -> Affine:
    """A dense node's pre-activation w_0 + sum_j w_j x_j over its
    predecessors' ids, as (terms, constant); zero weights drop out."""
    return [(pid, float(w)) for pid, w in zip(pred_ids, w_col[1:]) if w != 0.0], float(w_col[0])


def encode_relu(model: MipModel, x_id: int, expr: Affine, phase: int,
                im_bounds: tuple[float, float], tag: str) -> ReluGadget:
    """x = max(0, im) for a pre-activation im = expr with no variable of its
    own; x's declared box is [max(0, im_lo), max(0, im_hi)], and l < im_lo,
    u > im_hi are the inflated bounds. An active node gets the row x = im,
    so x's box bounds im; an inactive node the sign row im <= im_hi, x being
    fixed at 0, and im >= im_lo only if the variables' boxes leave im below
    l (after lookback). An undecided node (im_lo < 0 < im_hi) gets three
    rows and an indicator b = 1 iff im >= 0: x >= im, x <= im - l(1 - b),
    x <= u b. With x >= 0 they pin x = 0 >= im >= l at b = 0 and
    x = im <= u at b = 1; relaxed to b in [0, 1] they give the triangle
    hull x <= u (im - l) / (u - l) (Tjeng, Xiao & Tedrake, ICLR 2019).
    The model records b with x and the row x >= im (MipModel.set_relu)."""
    terms, const = expr
    x_minus_im = [(x_id, 1.0)] + [(v, -c) for v, c in terms]
    im_lo, im_hi = float(im_bounds[0]), float(im_bounds[1])
    lo = im_lo * (1.0 + _GATE_REL) - _GATE_ABS
    hi = im_hi * (1.0 + _GATE_REL) + _GATE_ABS
    if phase == Phase.ALWAYS_ACTIVE:
        model.add_constraint(f"{tag}.on", x_minus_im, RowSense.EQ, const)
        return ReluGadget(b_id=None)
    if phase == Phase.ALWAYS_INACTIVE:
        model.add_constraint(f"{tag}.off", terms, RowSense.LE, im_hi - const)
        if _interval_extreme(model, terms, upper=False) + const < lo:  # a tightened im_lo
            model.add_constraint(f"{tag}.lo", terms, RowSense.GE, im_lo - const)
        return ReluGadget(b_id=None)
    if not (math.isfinite(im_lo) and math.isfinite(im_hi) and im_lo < 0.0 < im_hi):
        raise EncodingError(f"{tag}: undecided node needs finite bounds lo < 0 < hi, "
                            f"got [{im_lo!r}, {im_hi!r}]")
    if model.variables[x_id].lo < 0.0:
        raise EncodingError(f"{tag}: output variable must be declared nonnegative")
    b = model.add_binary(f"{tag}.b")
    model.set_relu(b, x_id, model.add_constraint(f"{tag}.ge", x_minus_im, RowSense.GE, const))
    model.add_constraint(f"{tag}.ub", x_minus_im + [(b, -lo)], RowSense.LE, const - lo)
    model.add_constraint(f"{tag}.cap", [(x_id, 1.0), (b, -hi)], RowSense.LE, 0.0)
    return ReluGadget(b_id=b)


def _encode_max_pair(model: MipModel, y_id: int, left: tuple[int, float, float],
                     right: tuple[int, float, float], tag: str) -> PoolPair:
    u_id, u_lo, u_hi = left
    v_id, v_lo, v_hi = right
    if u_lo >= v_hi:  # left dominates
        model.add_constraint(f"{tag}.l", [(y_id, 1.0), (u_id, -1.0)], RowSense.EQ, 0.0)
        return PoolPair(y_id, u_id, v_id, None, "left")
    if v_lo >= u_hi:
        model.add_constraint(f"{tag}.r", [(y_id, 1.0), (v_id, -1.0)], RowSense.EQ, 0.0)
        return PoolPair(y_id, u_id, v_id, None, "right")
    b = model.add_binary(f"{tag}.b")  # 1 when the left operand is the max
    m_l = (v_hi - u_lo) * (1.0 + _GATE_REL) + _GATE_ABS
    m_r = (u_hi - v_lo) * (1.0 + _GATE_REL) + _GATE_ABS
    model.add_constraint(f"{tag}.gl", [(y_id, 1.0), (u_id, -1.0)], RowSense.GE, 0.0)
    model.add_constraint(f"{tag}.gr", [(y_id, 1.0), (v_id, -1.0)], RowSense.GE, 0.0)
    model.add_constraint(f"{tag}.ul", [(y_id, 1.0), (u_id, -1.0), (b, m_l)], RowSense.LE, m_l)
    model.add_constraint(f"{tag}.ur", [(y_id, 1.0), (v_id, -1.0), (b, -m_r)], RowSense.LE, 0.0)
    return PoolPair(y_id, u_id, v_id, b)


def encode_maxpool(model: MipModel, out_id: int, operands, tag: str) -> list[PoolPair]:
    """max over 2 or 4 operands as pairwise max gadgets (a 4-group becomes two
    leaf pairs plus a final pair on their results). operands: (vid, lo, hi)."""
    if len(operands) == 2:
        return [_encode_max_pair(model, out_id, operands[0], operands[1], f"{tag}.p0")]
    if len(operands) != 4:
        raise EncodingError(f"{tag}: pool group must have 2 or 4 members")
    pairs = []
    mids = []
    for half, (a, b) in enumerate(((operands[0], operands[1]), (operands[2], operands[3]))):
        lo = max(a[1], b[1])
        hi = max(a[2], b[2])
        y = model.add_variable(f"{tag}.y{half}", lo, hi)
        pairs.append(_encode_max_pair(model, y, a, b, f"{tag}.p{half}"))
        mids.append((y, lo, hi))
    pairs.append(_encode_max_pair(model, out_id, mids[0], mids[1], f"{tag}.p2"))
    return pairs


def _q(t: np.ndarray | float):
    return (math.pi / 4.0) * t + 0.273 * t * (1.0 - np.abs(t))


def _breakpoints(lo: float, hi: float, *, insert_zero: bool) -> np.ndarray:
    bps = np.linspace(lo, hi, ATAN_SEGMENTS + 1)
    if insert_zero and lo < -1e-12 and hi > 1e-12:
        bps = np.unique(np.concatenate([bps, [0.0]]))
    return bps


def _secant_gap(bps: np.ndarray) -> float:
    # q is quadratic with |q''| = 2 * 0.273 on each side of 0, and no
    # segment straddles 0, so a segment of width h has interpolation error
    # |q''| h^2 / 8 at its midpoint
    h = np.max(np.diff(bps))
    return _Q_CURVE * h * h / 8.0


def _atan_regions(im_lo: float, im_hi: float) -> list[tuple[str, float, float]]:
    cuts = [im_lo]
    for c in (-1.0, 1.0):
        if im_lo < c < im_hi:
            cuts.append(c)
    cuts.append(im_hi)
    raw = [(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    # merge slivers into a neighbour so the regions always cover the interval
    merged: list[list[float]] = []
    for a, b in raw:
        if merged and (b - a) <= 1e-9:
            merged[-1][1] = b
        elif not merged and (b - a) <= 1e-9 and len(raw) > 1:
            raw[1] = (a, raw[1][1])
        else:
            merged.append([a, b])
    out = []
    for a, b in merged:
        mid = 0.5 * (a + b)
        kind = "neg" if mid < -1.0 else ("pos" if mid > 1.0 else "mid")
        out.append((kind, a, b))
    return out


def encode_atan(model: MipModel, x_id: int, im_id: int, im_lo: float, im_hi: float,
                tag: str) -> AtanGadget:
    """Two-sided piecewise-linear envelope of x = atan(im) over [im_lo, im_hi].

    Each region (below -1, the central band, above 1) carries a breakpoint
    interpolation of the quadratic approximation over ATAN_SEGMENTS equal
    segments (the central band also breaks at 0), with segment-selection
    binaries; the envelope is the interpolant widened by the approximation
    error plus the grid's secant gap. Outer regions interpolate over the
    reciprocal r = 1/im, tied to im by tangent/chord envelope rows, and read
    x = +-pi/2 - value(r). With several regions, one binary per region picks
    the active case and every region-specific row is gated on it.
    """
    if not (math.isfinite(im_lo) and math.isfinite(im_hi)):
        raise EncodingError(f"{tag}: pre-activation interval is unbounded")
    if im_hi - im_lo <= 1e-12:
        xv = math.atan(0.5 * (im_lo + im_hi))
        model.add_constraint(f"{tag}.fix", [(x_id, 1.0)], RowSense.EQ, xv)
        return AtanGadget(regions=[])

    spans = _atan_regions(im_lo, im_hi)
    multi = len(spans) > 1
    gates: list[int | None] = []
    if multi:
        gids = [model.add_binary(f"{tag}.g{r}") for r in range(len(spans))]
        model.add_constraint(f"{tag}.one", [(g, 1.0) for g in gids], RowSense.EQ, 1.0)
        gates = list(gids)
    else:
        gates = [None]

    regions: list[AtanRegion] = []
    for ridx, ((kind, rlo, rhi), gate) in enumerate(zip(spans, gates)):
        rtag = f"{tag}.{ridx}"
        if gate is not None:
            add_gated(model, f"{rtag}.ilo", [(im_id, 1.0)], RowSense.GE, rlo, gate)
            add_gated(model, f"{rtag}.ihi", [(im_id, 1.0)], RowSense.LE, rhi, gate)

        if kind == "mid":
            bps = _breakpoints(rlo, rhi, insert_zero=True)
            axis_id = im_id
            recip_id = None
        else:
            r_lo, r_hi = 1.0 / rhi, 1.0 / rlo  # 1/t is decreasing on one sign
            recip_id = model.add_variable(f"{rtag}.r", min(r_lo, r_hi), max(r_lo, r_hi))
            bps = _breakpoints(min(r_lo, r_hi), max(r_lo, r_hi), insert_zero=False)
            axis_id = recip_id
            # envelope rows tying r to im: tangents on the curve side, the
            # chord on the hull side (1/t is convex for t>0, concave for t<0)
            tangent_ge = kind == "pos"
            for sidx, s in enumerate(np.linspace(rlo, rhi, ATAN_SEGMENTS + 1)):
                coefs = [(recip_id, 1.0), (im_id, 1.0 / (s * s))]
                rhs = 2.0 / s
                sense = RowSense.GE if tangent_ge else RowSense.LE
                add_gated(model, f"{rtag}.t{sidx}", coefs, sense, rhs, gate)
            slope = (1.0 / rhi - 1.0 / rlo) / (rhi - rlo)
            coefs = [(recip_id, 1.0), (im_id, -slope)]
            rhs = 1.0 / rlo - slope * rlo
            sense = RowSense.LE if tangent_ge else RowSense.GE
            add_gated(model, f"{rtag}.ch", coefs, sense, rhs, gate)

        qv = _q(bps)
        widen = ATAN_APPROX_ERR + _secant_gap(bps)
        lam = [model.add_variable(f"{rtag}.l{k}", 0.0, 1.0) for k in range(len(bps))]
        model.add_constraint(f"{rtag}.sum", [(l, 1.0) for l in lam], RowSense.EQ, 1.0)
        nseg = len(bps) - 1
        segs: list[int] = []
        if nseg > 1:
            segs = [model.add_binary(f"{rtag}.s{k}") for k in range(nseg)]
            model.add_constraint(f"{rtag}.sone", [(s, 1.0) for s in segs], RowSense.EQ, 1.0)
            for k, l in enumerate(lam):
                adj = [(segs[j], -1.0) for j in (k - 1, k) if 0 <= j < nseg]
                model.add_constraint(f"{rtag}.adj{k}", [(l, 1.0)] + adj, RowSense.LE, 0.0)

        # tie the interpolation axis to its lambda combination
        link = [(axis_id, 1.0)] + [(l, -float(t)) for l, t in zip(lam, bps)]
        if kind == "mid" and gate is not None:
            add_gated(model, f"{rtag}.lkl", link, RowSense.LE, 0.0, gate)
            add_gated(model, f"{rtag}.lkg", link, RowSense.GE, 0.0, gate)
        else:  # outer-region r is internal, so its link can stay ungated
            model.add_constraint(f"{rtag}.lk", link, RowSense.EQ, 0.0)

        if kind != "mid":
            # the same lambdas interpolate 1/r segment-wise; that chord sits
            # above the convex branch of 1/r (below the concave one), so it
            # one-sidedly bounds im and pins the weights to im's own segment
            imc = [(im_id, 1.0)] + [(l, -1.0 / float(t)) for l, t in zip(lam, bps)]
            sense = RowSense.LE if kind == "pos" else RowSense.GE
            add_gated(model, f"{rtag}.imc", imc, sense, 0.0, gate)

        # x sits within +-widen of the interpolated approximation
        zc = [(l, float(q)) for l, q in zip(lam, qv)]
        if kind == "mid":
            offset = 0.0
            x_c = [(x_id, 1.0)] + [(l, -c) for l, c in zc]
        else:
            offset = math.pi / 2.0 if kind == "pos" else -math.pi / 2.0
            x_c = [(x_id, 1.0)] + [(l, c) for l, c in zc]  # x + z = +-pi/2
        add_gated(model, f"{rtag}.xu", x_c, RowSense.LE, offset + widen, gate)
        add_gated(model, f"{rtag}.xl", x_c, RowSense.GE, offset - widen, gate)

        regions.append(AtanRegion(
            kind=kind, im_lo=rlo, im_hi=rhi, bps=bps, lam_ids=lam, seg_ids=segs,
            gate_id=gate, recip_id=recip_id,
        ))
    return AtanGadget(regions=regions)


def encode_strong_classification(model: MipModel, score_ids: list[int], m0: int,
                                 alpha: float, tag: str) -> list[int]:
    """Rows s_m - s_j >= ln(alpha) for every j != m (log-domain ratio test)."""
    ln_a = math.log(alpha)
    rows = []
    for j, sid in enumerate(score_ids):
        if j == m0:
            continue
        rows.append(model.add_constraint(
            f"{tag}{j}", [(score_ids[m0], 1.0), (sid, -1.0)], RowSense.GE, ln_a
        ))
    return rows


# -- network bodies ----------------------------------------------------------


def encode_network_copy(model: MipModel, net: Network, bounds: IntervalBounds,
                        first_pos: int, last_pos: int, input_ids: list[int],
                        prefix: str) -> NetworkCopy:
    """Encode layers first_pos..last_pos (1-based positions, no softmax) fed by
    the given input variables (the outputs of position first_pos - 1); `prefix`
    keeps its names apart from another copy's."""
    copy = NetworkCopy(first_pos, last_pos)
    copy.x_ids[first_pos - 1] = list(input_ids)
    prev = list(input_ids)
    for pos in range(first_pos, last_pos + 1):
        spec = net.layers[pos - 1]
        lb = bounds.layers[pos - 1]
        if spec.kind is LayerKind.SOFTMAX:
            raise EncodingError("softmax layers are never encoded")
        if spec.kind in DENSE_KINDS:
            n = spec.weights.shape[1]
            exprs = [affine_expr(prev, spec.weights[:, i]) for i in range(n)]
            if spec.kind is not LayerKind.RELU_DENSE:
                im_ids = [model.add_variable(f"m{prefix}{pos}_{i}", lb.im_lo[i], lb.im_hi[i])
                          for i in range(n)]
                for i, (terms, const) in enumerate(exprs):
                    model.add_constraint(f"A{prefix}{pos}_{i}", [(im_ids[i], 1.0)]
                                         + [(v, -c) for v, c in terms], RowSense.EQ, const)
                copy.im_ids[pos] = im_ids
            if spec.kind is LayerKind.LINEAR_OUTPUT:
                x_ids = im_ids  # the output is the pre-activation
            else:
                x_ids = [model.add_variable(f"x{prefix}{pos}_{i}", lb.lo[i], lb.hi[i])
                         for i in range(n)]
            if spec.kind is LayerKind.RELU_DENSE:
                copy.relu[pos] = {
                    i: encode_relu(model, x_ids[i], exprs[i], int(lb.phase[i]),
                                   (lb.im_lo[i], lb.im_hi[i]), f"R{prefix}{pos}_{i}")
                    for i in range(n)}
            elif spec.kind is LayerKind.ATAN_DENSE:
                copy.atan[pos] = {
                    i: encode_atan(model, x_ids[i], im_ids[i], float(lb.im_lo[i]),
                                   float(lb.im_hi[i]), f"T{prefix}{pos}_{i}")
                    for i in range(n)}
            copy.x_ids[pos] = x_ids
        else:  # max_pool
            p_lo, p_hi = bounds.x_lo(pos - 1), bounds.x_hi(pos - 1)
            x_ids = [model.add_variable(f"x{prefix}{pos}_{g}", lb.lo[g], lb.hi[g])
                     for g in range(len(spec.pool_groups))]
            copy.pools[pos] = {}
            for g, members in enumerate(spec.pool_groups):
                operands = [(prev[i - 1], float(p_lo[i - 1]), float(p_hi[i - 1]))
                            for i in members]
                copy.pools[pos][g] = encode_maxpool(model, x_ids[g], operands,
                                                    f"P{prefix}{pos}_{g}")
            copy.x_ids[pos] = x_ids
        prev = copy.x_ids[pos]
    return copy


def encode_network_eval(net: Network, bounds: IntervalBounds) -> tuple[MipModel, NetworkCopy]:
    """Whole-body encoding over free in-domain inputs (no query rows); used by
    the encoding-consistency oracle and the gadget test benches."""
    model = MipModel("eval")
    input_ids = [
        model.add_variable(f"a{i}", float(bounds.input_lo[i]), float(bounds.input_hi[i]))
        for i in range(net.input_dim)
    ]
    last = net.score_layer + 1
    copy = encode_network_copy(model, net, bounds, 1, last, input_ids, "n")
    return model, copy


def encode_window(net: Network, bounds: IntervalBounds, layer_pos: int, depth: int
                  ) -> tuple[MipModel, list[int], ForwardRepair | None]:
    """Lookback's window for the dense layer at `layer_pos`, without an
    objective: the `depth - 1` preceding layers are encoded exactly, and
    everything older is boxed at its current bounds. Returns the frozen
    model, the ids of the layer's inputs (node i's pre-activation over them
    is w[0, i] + w[1:, i] . x) and the window's root repair, which evaluates
    the exact layers from the box point (None at depth 1, which has none)."""
    if net.layers[layer_pos - 1].kind not in DENSE_KINDS:
        raise EncodingError("lookback windows end at dense layers only")
    box_pos = max(0, layer_pos - depth)
    model = MipModel(f"window{layer_pos}")
    box_lo = bounds.x_lo(box_pos)
    box_hi = bounds.x_hi(box_pos)
    ids = [
        model.add_variable(f"z{i}", float(box_lo[i]), float(box_hi[i]))
        for i in range(box_lo.shape[0])
    ]
    repair = None
    if layer_pos - 1 > box_pos:
        copy = encode_network_copy(model, net, bounds, box_pos + 1, layer_pos - 1,
                                   ids, "w")
        ids = copy.x_ids[layer_pos - 1]
        repair = ForwardRepair(net, copy, box_lo, box_hi)
    return model.freeze(), ids, repair


# -- queries -----------------------------------------------------------------


def _perturbation_vars(model: MipModel, bounds: IntervalBounds, anchor: np.ndarray | None,
                       a_ids: list[int] | None):
    """eps, |eps| and perturbed-input variables with their coupling rows.

    With a fixed anchor the perturbed input p = a + eps keeps rows
    p - eps = a; with the anchor variables a_ids the rows are
    p - a - eps = 0. The perturbed input is always confined to the bounds'
    input box: the input domain, or inside it a fixed-anchor query's budget
    box.
    """
    lo = bounds.input_lo
    hi = bounds.input_hi
    e_ids, f_ids, p_ids = [], [], []
    for i in range(lo.shape[0]):
        if anchor is None:
            e_lo, e_hi = lo[i] - hi[i], hi[i] - lo[i]
        else:
            e_lo, e_hi = lo[i] - anchor[i], hi[i] - anchor[i]
        e = model.add_variable(f"e{i}", float(e_lo), float(e_hi))
        f = model.add_variable(f"f{i}", 0.0, float(max(abs(e_lo), abs(e_hi))))
        p = model.add_variable(f"p{i}", float(lo[i]), float(hi[i]))
        model.add_constraint(f"FG{i}", [(f, 1.0), (e, -1.0)], RowSense.GE, 0.0)
        model.add_constraint(f"FH{i}", [(f, 1.0), (e, 1.0)], RowSense.GE, 0.0)
        e_ids.append(e)
        f_ids.append(f)
        p_ids.append(p)
    for i, (p, e) in enumerate(zip(p_ids, e_ids)):
        if anchor is None:
            model.add_constraint(f"PE{i}", [(p, 1.0), (a_ids[i], -1.0), (e, -1.0)],
                                 RowSense.EQ, 0.0)
        else:
            model.add_constraint(f"PE{i}", [(p, 1.0), (e, -1.0)], RowSense.EQ, float(anchor[i]))
    return e_ids, f_ids, p_ids


def _dominance_rows(model: MipModel, enc_scores: list[int], m0: int, k: int,
                    tag: str) -> dict[int, int]:
    """Selector binaries c_j with gated rows s_j >= s_m, plus sum c >= k."""
    sel: dict[int, int] = {}
    for j in range(len(enc_scores)):
        if j == m0:
            continue
        c = model.add_binary(f"c{j}")
        sel[j] = c
        add_gated(model, f"{tag}{j}",
                  [(enc_scores[j], 1.0), (enc_scores[m0], -1.0)], RowSense.GE, 0.0, c)
    model.add_constraint(f"{tag}k", [(c, 1.0) for c in sel.values()], RowSense.GE, float(k))
    return sel


def validate_query(net: Network, q: QuerySpec) -> QuerySpec:
    """Reject a query that cannot be encoded, before anything is built or
    solved. Returns the query in normal form: an anchor of a query that
    reads it becomes a float64 1-D array clipped into the input domain."""
    if not net.ends_in_softmax:
        raise EncodingError("queries expect a softmax-terminated network")
    n_cls = net.num_classes
    if n_cls < 2:
        raise EncodingError(f"queries need at least two classes; the network has {n_cls}")
    if not 1 <= q.m <= n_cls:
        raise EncodingError(f"class index {q.m} out of range 1..{n_cls}")
    if q.kind is QueryKind.MAX_ALPHA:
        return q
    if not (math.isfinite(q.alpha) and q.alpha >= 1.0):
        raise EncodingError("alpha must be a finite number >= 1")
    if q.kind is QueryKind.STRONG_ANCHOR:
        return q
    if not 1 <= q.k <= n_cls - 1:
        raise EncodingError(f"k must sit in 1..{n_cls - 1}")
    if q.kind is QueryKind.LOCAL_ROBUSTNESS:
        if q.a is None:
            raise EncodingError("local robustness needs an anchor input")
        if not (math.isfinite(q.delta) and q.delta >= 0.0):
            raise EncodingError("delta must be a finite number >= 0")
    if q.a is not None:
        a = np.asarray(q.a, dtype=np.float64).reshape(-1)
        lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
        if a.shape[0] != net.input_dim:
            raise EncodingError("anchor input has the wrong dimension")
        if not np.all(np.isfinite(a)):
            raise EncodingError("anchor input has a non-finite value")
        if np.any(a < lo - 1e-9) or np.any(a > hi + 1e-9):
            raise EncodingError("anchor input lies outside the input domain")
        q = replace(q, a=np.clip(a, lo, hi))
    return q


def encode_query(net: Network, bounds: IntervalBounds, q: QuerySpec) -> EncodedQuery:
    """Build the MIP for one query (checked first by validate_query).

    A query over a free anchor declares inputs a<i> over the domain and
    encodes the body at them as copy "b": STRONG_ANCHOR, phi's stage 1
    "anchor_m<m>", adds only strong-classification rows and has no
    objective; MAX_ALPHA maximizes t with s_m - s_j >= t (alpha_max = e^t);
    MAX_PERTURBATION adds a second copy "q" at a + eps, k-of-n dominance
    selectors on it and the objective min sum |eps_i|. With an anchor
    (clipped into the input box) MAX_PERTURBATION and LOCAL_ROBUSTNESS fold
    a into constants and keep only the perturbed copy: the former, phi's
    fixed-anchor stage "fixed_min_m<m>", minimizes sum |eps_i|; the latter
    has no objective and adds sum |eps_i| <= delta. The perturbed input
    ranges over the bounds' input box, which resilience.query_bounds makes
    the budget box for LOCAL_ROBUSTNESS and the domain otherwise.
    """
    q = validate_query(net, q)
    last = net.score_layer + 1
    m0 = q.m - 1
    lo, hi = net.input_bounds[:, 0], net.input_bounds[:, 1]
    perturbs = q.kind in (QueryKind.MAX_PERTURBATION, QueryKind.LOCAL_ROBUSTNESS)
    fixed = q.a if perturbs else None
    fixed_min = fixed is not None and q.kind is QueryKind.MAX_PERTURBATION
    model = MipModel(f"{'fixed_min' if fixed_min else q.kind.value}_m{q.m}")
    a_ids = e_ids = f_ids = p_ids = base = pert = repair = None
    sel: dict[int, int] = {}
    if fixed is None:
        a_ids = [model.add_variable(f"a{i}", float(lo[i]), float(hi[i]))
                 for i in range(net.input_dim)]
    if perturbs:
        e_ids, f_ids, p_ids = _perturbation_vars(model, bounds, fixed, a_ids)
    if a_ids is not None:
        base = encode_network_copy(model, net, bounds, 1, last, a_ids, "b")
    if perturbs:
        pert = encode_network_copy(model, net, bounds, 1, last, p_ids, "q")
    if q.kind is QueryKind.MAX_ALPHA:
        scores = base.x_ids[last]
        s_lo, s_hi = bounds.layers[last - 1].lo, bounds.layers[last - 1].hi
        # the bounds of s_m - max_j s_j, widened by 1
        t_lo = float(s_lo[m0] - np.delete(s_hi, m0).max()) - 1.0
        t_hi = float(s_hi[m0] - np.delete(s_lo, m0).min()) + 1.0
        t_id = model.add_variable("t", t_lo, t_hi)
        for j, sid in enumerate(scores):
            if j != m0:
                model.add_constraint(f"MA{j}", [(scores[m0], 1.0), (sid, -1.0), (t_id, -1.0)],
                                     RowSense.GE, 0.0)
        model.set_objective([(t_id, 1.0)], ObjSense.MAXIMIZE)
        repair = ForwardRepair(net, base, lo, hi, margin=(t_id, m0))
    elif base is not None:
        encode_strong_classification(model, base.x_ids[last], m0, q.alpha, "SC")
    if perturbs:
        sel = _dominance_rows(model, pert.x_ids[last], m0, q.k, "DOM")
        if q.kind is QueryKind.MAX_PERTURBATION:
            model.set_objective([(f, 1.0) for f in f_ids], ObjSense.MINIMIZE)
        else:
            model.add_constraint("DBUDGET", [(f, 1.0) for f in f_ids], RowSense.LE,
                                 float(q.delta))
    return EncodedQuery(model.freeze(), a_ids, e_ids, f_ids, p_ids, base, pert, sel, repair)


# -- assignments from exact traces --------------------------------------------


def _assign_lambda(asg: Assignment, region: AtanRegion, value: float) -> None:
    bps = region.bps
    v = min(max(value, float(bps[0])), float(bps[-1]))
    idx = int(np.clip(np.searchsorted(bps, v, side="right") - 1, 0, len(bps) - 2))
    for l in region.lam_ids:
        asg[l] = 0.0
    width = float(bps[idx + 1] - bps[idx])
    theta = (v - float(bps[idx])) / width if width > 0 else 0.0
    asg[region.lam_ids[idx]] = 1.0 - theta
    asg[region.lam_ids[idx + 1]] = theta
    for s in region.seg_ids:
        asg[s] = 0.0
    if region.seg_ids:
        asg[region.seg_ids[idx]] = 1.0


def _assign_atan(asg: Assignment, gadget: AtanGadget, im_val: float) -> None:
    if not gadget.regions:
        return
    active = 0
    for ridx, region in enumerate(gadget.regions):
        if region.im_lo - 1e-9 <= im_val <= region.im_hi + 1e-9:
            active = ridx
            break
    for ridx, region in enumerate(gadget.regions):
        if region.gate_id is not None:
            asg[region.gate_id] = 1.0 if ridx == active else 0.0
        if ridx == active:
            axis_val = im_val if region.kind == "mid" else 1.0 / im_val
            if region.recip_id is not None:
                asg[region.recip_id] = axis_val
            _assign_lambda(asg, region, axis_val)
        else:
            if region.recip_id is not None:
                asg[region.recip_id] = float(region.bps[0])
            _assign_lambda(asg, region, float(region.bps[0]))


def copy_assignment(asg: Assignment, copy: NetworkCopy, net: Network,
                    trace: ForwardTrace) -> None:
    """Fill asg with exact trace values for every variable of the copy,
    choosing gadget binaries consistently with the realized activations.
    The trace starts at or before the copy's inputs."""
    off = trace.first
    first_in = copy.x_ids[copy.first_pos - 1]
    in_vals = (trace.inputs if copy.first_pos - 1 == off
               else trace.x[copy.first_pos - 2 - off])
    for vid, v in zip(first_in, in_vals):
        asg[vid] = float(v)
    for pos in range(copy.first_pos, copy.last_pos + 1):
        xv = trace.x[pos - 1 - off]
        imv = trace.im[pos - 1 - off]
        if pos in copy.im_ids:  # atan and score layers
            asg.update(zip(copy.im_ids[pos], map(float, imv)))
        asg.update(zip(copy.x_ids[pos], map(float, xv)))
        for i, gadget in copy.relu.get(pos, {}).items():
            if gadget.b_id is not None:
                asg[gadget.b_id] = 1.0 if imv[i] >= 0.0 else 0.0
        for pairs in copy.pools.get(pos, {}).values():
            for pair in pairs:
                l_val = asg[pair.left]
                r_val = asg[pair.right]
                asg[pair.y_id] = max(l_val, r_val)
                if pair.b_id is not None:
                    asg[pair.b_id] = 1.0 if l_val >= r_val else 0.0
        for i, gadget in copy.atan.get(pos, {}).items():
            _assign_atan(asg, gadget, float(imv[i]))
