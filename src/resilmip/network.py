"""Feed-forward network model: file loading, validation, exact evaluation.

Networks are strictly layered. Every dense layer carries a weight matrix of
shape (d_prev + 1, d_out) whose row 0 is the bias (a virtual predecessor node
fixed at 1), rows 1..d_prev the incoming weights. Node and class indices are
1-based everywhere at the API surface; arrays are 0-based internally.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


class NetworkFormatError(ValueError):
    """Raised for files that cannot be parsed into a network description."""


class NetworkValidationError(ValueError):
    """Raised when a parsed description violates a structural rule."""


class LayerKind(str, Enum):
    RELU_DENSE = "relu_dense"
    ATAN_DENSE = "atan_dense"
    MAX_POOL = "max_pool"
    SOFTMAX = "softmax"
    LINEAR_OUTPUT = "linear_output"


# Layer kinds that carry a weight matrix (and hence a pre-activation vector).
DENSE_KINDS = frozenset(
    {LayerKind.RELU_DENSE, LayerKind.ATAN_DENSE, LayerKind.LINEAR_OUTPUT}
)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a kind plus its weights or pooling groups.

    weights: (d_prev + 1, d_out) with row 0 = bias, only for dense kinds.
    pool_groups: tuple of groups of 1-based predecessor indices (sizes 2 or 4),
    only for max_pool; one output node per group.
    """

    kind: LayerKind
    weights: np.ndarray | None = None
    pool_groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.weights is not None:
            object.__setattr__(self, "weights", _freeze(self.weights))
        if self.pool_groups is not None:
            groups = tuple(tuple(int(i) for i in g) for g in self.pool_groups)
            object.__setattr__(self, "pool_groups", groups)

    @property
    def out_dim(self) -> int:
        if self.kind in DENSE_KINDS:
            assert self.weights is not None
            return self.weights.shape[1]
        if self.kind is LayerKind.MAX_POOL:
            assert self.pool_groups is not None
            return len(self.pool_groups)
        raise ValueError("out_dim of a softmax layer depends on its predecessor")


@dataclass(frozen=True)
class Network:
    """A validated feed-forward network."""

    input_dim: int
    input_bounds: np.ndarray  # (input_dim, 2) columns lo, hi
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_bounds", _freeze(self.input_bounds))
        object.__setattr__(self, "layers", tuple(self.layers))
        _validate(self)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer_dims(self) -> list[int]:
        """Output dimension per layer position 0..L (position 0 = input)."""
        dims = [self.input_dim]
        for spec in self.layers:
            if spec.kind is LayerKind.SOFTMAX:
                dims.append(dims[-1])
            else:
                dims.append(spec.out_dim)
        return dims

    @property
    def ends_in_softmax(self) -> bool:
        return bool(self.layers) and self.layers[-1].kind is LayerKind.SOFTMAX

    @property
    def score_layer(self) -> int:
        """0-based index of the last non-softmax layer (the class scores)."""
        idx = len(self.layers) - 1
        if self.ends_in_softmax:
            idx -= 1
        if idx < 0:
            raise NetworkValidationError("network has no score layer")
        return idx

    @property
    def num_classes(self) -> int:
        return self.layer_dims()[self.score_layer + 1]


def _validate(net: Network) -> None:
    if net.input_dim < 1:
        raise NetworkValidationError("input_dim must be >= 1")
    bounds = net.input_bounds
    if bounds.shape != (net.input_dim, 2):
        raise NetworkValidationError(
            f"input_bounds has shape {bounds.shape}, expected ({net.input_dim}, 2)"
        )
    if not np.all(np.isfinite(bounds)):
        raise NetworkValidationError("input_bounds must be finite")
    if np.any(bounds[:, 0] > bounds[:, 1]):
        bad = int(np.argmax(bounds[:, 0] > bounds[:, 1])) + 1
        raise NetworkValidationError(f"input {bad}: lower bound exceeds upper bound")
    if not net.layers:
        raise NetworkValidationError("network must have at least one layer")

    prev = net.input_dim
    for pos, spec in enumerate(net.layers, start=1):
        where = f"layer {pos} ({spec.kind.value})"
        if spec.kind in DENSE_KINDS:
            if spec.weights is None:
                raise NetworkValidationError(f"{where}: missing weights")
            if spec.pool_groups is not None:
                raise NetworkValidationError(f"{where}: pool_groups not allowed")
            w = spec.weights
            if w.ndim != 2 or w.shape[0] != prev + 1 or w.shape[1] < 1:
                raise NetworkValidationError(
                    f"{where}: weights shape {w.shape}, expected ({prev + 1}, d) "
                    "with row 0 the bias"
                )
            if not np.all(np.isfinite(w)):
                raise NetworkValidationError(f"{where}: weights must be finite")
            prev = w.shape[1]
        elif spec.kind is LayerKind.MAX_POOL:
            if spec.weights is not None:
                raise NetworkValidationError(f"{where}: weights not allowed")
            groups = spec.pool_groups
            if not groups:
                raise NetworkValidationError(f"{where}: missing pool_groups")
            seen: list[int] = []
            for g, members in enumerate(groups, start=1):
                if len(members) not in (2, 4):
                    raise NetworkValidationError(
                        f"{where}: group {g} has size {len(members)}, expected 2 or 4"
                    )
                seen.extend(members)
            if sorted(seen) != list(range(1, prev + 1)):
                raise NetworkValidationError(
                    f"{where}: pool_groups must partition 1..{prev}"
                )
            prev = len(groups)
        elif spec.kind is LayerKind.SOFTMAX:
            if spec.weights is not None or spec.pool_groups is not None:
                raise NetworkValidationError(f"{where}: softmax takes no parameters")
            if pos != len(net.layers):
                raise NetworkValidationError(
                    f"{where}: softmax is only allowed as the final layer"
                )
        else:  # pragma: no cover - enum is exhaustive
            raise NetworkValidationError(f"{where}: unknown kind")


def load_network(path: str | Path) -> Network:
    """Load and validate a network from a JSON document.

    Expected fields: input_dim, input_bounds (list of [lo, hi] pairs), layers
    (list of objects with kind and, per kind, weights row-major with row 0 the
    bias, or pool_groups of 1-based indices).
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from exc
    return network_from_dict(doc)


def _is_number(v: object, kind: type = numbers.Real) -> bool:
    """True when v is a number of ``kind``, numpy's included. A bool is
    not a number here, though Python counts it as an int."""
    return isinstance(v, kind) and not isinstance(v, bool)


def real_array(obj: object, what: str, ndim: int) -> np.ndarray:
    """obj, ndim levels of nested JSON arrays whose entries are real numbers
    (a bool, string or null is none), as a float64 array. Raises
    NetworkFormatError, naming ``what``, for any other value or a ragged
    array."""
    def check(o: object, depth: int) -> None:
        if depth == 0:
            if not _is_number(o):
                raise NetworkFormatError(f"{what}: {o!r} is not a number")
        elif not isinstance(o, list):
            raise NetworkFormatError(f"{what}: {o!r} is not an array")
        else:
            for v in o:
                check(v, depth - 1)

    check(obj, ndim)
    try:
        return np.asarray(obj, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged, or an int too large
        raise NetworkFormatError(f"{what}: {exc}") from None


def network_from_dict(doc: object) -> Network:
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level document must be an object")
    for field in ("input_dim", "input_bounds", "layers"):
        if field not in doc:
            raise NetworkFormatError(f"missing field {field!r}")
    if not _is_number(doc["input_dim"], numbers.Integral):
        raise NetworkFormatError("input_dim must be an integer")
    if not isinstance(doc["layers"], list):
        raise NetworkFormatError("layers must be an array")

    bounds = real_array(doc["input_bounds"], "input_bounds", 2)

    specs: list[LayerSpec] = []
    for pos, item in enumerate(doc["layers"], start=1):
        if not isinstance(item, dict) or "kind" not in item:
            raise NetworkFormatError(f"layer {pos}: expected an object with a kind")
        try:
            kind = LayerKind(item["kind"])
        except ValueError as exc:
            raise NetworkFormatError(f"layer {pos}: unknown kind {item['kind']!r}") from exc
        weights = item.get("weights")
        if weights is not None:
            weights = real_array(weights, f"layer {pos}: weights", 2)
        groups = item.get("pool_groups")
        if groups is not None and not (isinstance(groups, list) and all(
                isinstance(g, list) and all(_is_number(i, numbers.Integral) for i in g)
                for g in groups)):
            raise NetworkFormatError(f"layer {pos}: pool_groups must be arrays of integers")
        specs.append(LayerSpec(kind=kind, weights=weights, pool_groups=groups))

    if bounds.ndim != 2 or (bounds.size and bounds.shape[1] != 2):
        raise NetworkFormatError("input_bounds must be a list of [lo, hi] pairs")
    return Network(input_dim=doc["input_dim"], input_bounds=bounds, layers=tuple(specs))


def network_to_dict(net: Network) -> dict:
    """Inverse of network_from_dict (used to write nets to disk)."""
    layers = []
    for spec in net.layers:
        item: dict[str, object] = {"kind": spec.kind.value}
        if spec.weights is not None:
            item["weights"] = spec.weights.tolist()
        if spec.pool_groups is not None:
            item["pool_groups"] = [list(g) for g in spec.pool_groups]
        layers.append(item)
    return {
        "input_dim": net.input_dim,
        "input_bounds": net.input_bounds.tolist(),
        "layers": layers,
    }


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


@dataclass(frozen=True)
class ForwardTrace:
    """All intermediate values of one exact evaluation.

    inputs are the outputs of layer position first (0: the network's input);
    im[l] is the pre-activation vector of layer first + l + 1 (None for
    max_pool and softmax layers, which have no weights); x[l] the layer's
    output vector.
    """

    inputs: np.ndarray
    im: tuple[np.ndarray | None, ...]
    x: tuple[np.ndarray, ...]
    first: int = 0

    @property
    def outputs(self) -> np.ndarray:
        return self.x[-1]


def forward(net: Network, inputs: np.ndarray, first: int = 0) -> ForwardTrace:
    """Evaluate the network exactly in float64 and record every node value.
    With first > 0 the inputs are the outputs of layer position first, and
    only the layers after it are evaluated."""
    a = np.asarray(inputs, dtype=np.float64).reshape(-1)
    dim = net.layer_dims()[first] if first else net.input_dim
    if a.shape[0] != dim:
        raise ValueError(f"input has dimension {a.shape[0]}, expected {dim}")

    ims: list[np.ndarray | None] = []
    xs: list[np.ndarray] = []
    cur = a
    for spec in net.layers[first:]:
        if spec.kind in DENSE_KINDS:
            w = spec.weights
            im = w[0] + cur @ w[1:]
            ims.append(im)
            if spec.kind is LayerKind.RELU_DENSE:
                cur = np.maximum(0.0, im)
            elif spec.kind is LayerKind.ATAN_DENSE:
                cur = np.arctan(im)
            else:
                cur = im.copy()
        elif spec.kind is LayerKind.MAX_POOL:
            ims.append(None)
            cur = np.array([max(cur[i - 1] for i in g) for g in spec.pool_groups])
        else:  # softmax
            ims.append(None)
            shifted = np.exp(cur - np.max(cur))
            cur = shifted / np.sum(shifted)
        xs.append(cur)
    return ForwardTrace(inputs=_freeze(a), im=tuple(ims), x=tuple(xs), first=first)


def class_scores(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Scores of the last non-softmax layer (the log-domain class values)."""
    trace = forward(net, inputs)
    return trace.x[net.score_layer]


def strongly_classifies(net: Network, inputs: np.ndarray, m: int, alpha: float) -> bool:
    """True when class m's softmax output is at least alpha times every other.

    Decided in the log domain on the pre-softmax scores: s_m >= ln(alpha) + s_j
    for all j != m, with non-strict comparisons and no tolerance. m is 1-based.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    s = class_scores(net, inputs)
    _check_class_index(m, s.shape[0])
    m0 = m - 1
    ln_a = math.log(alpha)
    others = np.delete(s, m0)
    return bool(np.all(s[m0] >= ln_a + others))


def competitor_count(net: Network, inputs: np.ndarray, m: int, *, tol: float = 0.0) -> int:
    """Number of classes j != m whose score reaches class m's (within tol)."""
    s = class_scores(net, inputs)
    _check_class_index(m, s.shape[0])
    m0 = m - 1
    others = np.delete(s, m0)
    return int(np.sum(others >= s[m0] - tol))


def _check_class_index(m: int, n_classes: int) -> None:
    if not 1 <= m <= n_classes:
        raise ValueError(f"class index {m} out of range 1..{n_classes}")
