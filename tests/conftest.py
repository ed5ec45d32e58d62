import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from resilmip import zoo
from resilmip.network import LayerKind, LayerSpec, Network, forward

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("default")


def domain_samples(net: Network, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the input box, shape (n, input_dim)."""
    lo = net.input_bounds[:, 0]
    hi = net.input_bounds[:, 1]
    return lo + rng.random((n, net.input_dim)) * (hi - lo)


def assert_trace_in_bounds(net, bounds, point, slack=1e-9):
    """The exact forward trace of point lies inside bounds, layer by layer."""
    tr = forward(net, point)
    for pos in range(1, len(net.layers) + 1):
        lb = bounds.layers[pos - 1]
        x = tr.x[pos - 1]
        assert np.all(x >= lb.lo - slack), f"layer {pos} x below lo"
        assert np.all(x <= lb.hi + slack), f"layer {pos} x above hi"
        im = tr.im[pos - 1]
        if im is not None and lb.im_lo is not None:
            assert np.all(im >= lb.im_lo - slack)
            assert np.all(im <= lb.im_hi + slack)


def assert_same_bounds(got, want):
    """Two lists of LayerBounds hold the same values, bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for field in ("lo", "hi", "im_lo", "im_hi", "phase"):
            a, b = getattr(g, field), getattr(w, field)
            assert (a is None) == (b is None), field
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def relu_bench_nets() -> dict[str, Network]:
    """R6, R8 and R12 of the benchmark: the first three draws of
    zoo.random_relu_net from np.random.default_rng(0), with 3 inputs, hidden
    layers (6,), (8, 8) and (12, 12), 3 classes."""
    rng = np.random.default_rng(0)
    return {name: zoo.random_relu_net(rng, input_dim=3, hidden=hidden, classes=3)
            for name, hidden in (("R6", (6,)), ("R8", (8, 8)), ("R12", (12, 12)))}


def r8_net() -> Network:
    """R8 of relu_bench_nets()."""
    return relu_bench_nets()["R8"]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def always_first() -> Network:
    """Scores (x1 + 2, x2) on [0, 1]^2 with a softmax head: class 1 leads
    everywhere, so its dominance region is empty."""
    return Network(
        input_dim=2,
        input_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
        layers=(
            LayerSpec(LayerKind.LINEAR_OUTPUT,
                      weights=np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
            LayerSpec(LayerKind.SOFTMAX),
        ),
    )
