"""Unit tests for the autograd engine's elementwise ops, reductions and shapes."""

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, no_grad
from repro.tensor import functional as F


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x.copy())
        flat[i] = original - eps
        lower = fn(x.copy())
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def assert_gradcheck(op, shape=(3, 4), seed=0, atol=2e-3):
    """Compare autograd gradient with a numerical gradient for ``op``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.5, size=shape).astype(np.float64)

    tensor = Tensor(x.astype(np.float32), requires_grad=True)
    out = op(tensor).sum()
    out.backward()

    numeric = numerical_gradient(
        lambda arr: float(op(Tensor(arr.astype(np.float32))).sum().item()), x)
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-3)


class TestArithmetic:
    def test_add_broadcast_backward(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3,), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_backward(self):
        a = Tensor(np.array([2.0, 3.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([5.0, 7.0], dtype=np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_and_rsub(self):
        a = Tensor(np.array([4.0], dtype=np.float32), requires_grad=True)
        out = (1.0 - a) / a
        out.backward()
        # d/da[(1-a)/a] = -1/a^2
        np.testing.assert_allclose(a.grad, [-1.0 / 16.0], atol=1e-6)

    def test_pow_backward(self):
        assert_gradcheck(lambda t: t ** 3)

    def test_neg(self):
        a = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])

    def test_matmul_2d(self):
        rng = np.random.default_rng(1)
        a_data = rng.standard_normal((3, 4)).astype(np.float32)
        b_data = rng.standard_normal((4, 5)).astype(np.float32)
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = a.matmul(b)
        np.testing.assert_allclose(out.data, a_data @ b_data, atol=1e-5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b_data.T, atol=1e-5)
        np.testing.assert_allclose(b.grad, a_data.T @ np.ones((3, 5)), atol=1e-5)

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)).astype(np.float32), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


class TestElementwiseFunctions:
    @pytest.mark.parametrize("name", ["sqrt", "sigmoid", "tanh", "silu", "gelu",
                                      "abs"])
    def test_gradcheck(self, name):
        assert_gradcheck(lambda t: getattr(t, name)())

    def test_clip_gradient_masked(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0], dtype=np.float32), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_mean_matches_numpy(self):
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        x = Tensor(data)
        np.testing.assert_allclose(x.mean(axis=(1, 2)).data, data.mean(axis=(1, 2)),
                                   rtol=1e-6)

    def test_var_matches_numpy(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 5)).astype(np.float32)
        np.testing.assert_allclose(Tensor(data).var(axis=1).data, data.var(axis=1),
                                   atol=1e-5)

    def test_max_backward_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((5, 7)).astype(np.float32))
        probs = x.softmax(axis=-1).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_softmax_gradcheck(self):
        weights = np.linspace(0.5, 2.0, 12, dtype=np.float32).reshape(3, 4)
        assert_gradcheck(lambda t: (t.softmax(axis=-1) * Tensor(weights)))


class TestShapeOps:
    def test_reshape_and_flatten(self):
        x = Tensor(np.arange(12, dtype=np.float32), requires_grad=True)
        out = x.reshape(3, 4).reshape(-1)
        assert out.shape == (12,)
        out.sum().backward()
        assert x.grad.shape == (12,)

    def test_transpose_roundtrip(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4), requires_grad=True)
        out = x.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_getitem_backward_accumulates(self):
        x = Tensor(np.zeros((4, 4), dtype=np.float32), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((4, 4))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_concatenate_and_stack(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        cat = concatenate([a, b], axis=0)
        assert cat.shape == (4, 3)
        cat.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        b.zero_grad()
        stacked = concatenate([a[None], b[None]], axis=0)
        assert stacked.shape == (2, 2, 3)
        stacked.sum().backward()
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))


#: Every operation of the engine, as (inputs' shapes, op).  Inputs are
#: positive so sqrt stays real; the 4-D ones are images.
OPS = {
    "add": ([(3, 4), (4,)], lambda a, b: a + b),
    "radd": ([(3, 4)], lambda a: 2.0 + a),
    "neg": ([(3, 4)], lambda a: -a),
    "sub": ([(3, 4), (3, 1)], lambda a, b: a - b),
    "rsub": ([(3, 4)], lambda a: 1.0 - a),
    "mul": ([(3, 4), (4,)], lambda a, b: a * b),
    "rmul": ([(3, 4)], lambda a: 3.0 * a),
    "truediv": ([(3, 4), (3, 4)], lambda a, b: a / b),
    "rtruediv": ([(3, 4)], lambda a: 1.0 / a),
    "pow": ([(3, 4)], lambda a: a ** 3),
    "matmul": ([(2, 3, 4), (2, 4, 5)], lambda a, b: a @ b),
    "sqrt": ([(3, 4)], lambda a: a.sqrt()),
    "abs": ([(3, 4)], lambda a: (a - 0.8).abs()),
    "sigmoid": ([(3, 4)], lambda a: a.sigmoid()),
    "tanh": ([(3, 4)], lambda a: a.tanh()),
    "silu": ([(3, 4)], lambda a: a.silu()),
    "gelu": ([(3, 4)], lambda a: a.gelu()),
    "clip": ([(3, 4)], lambda a: a.clip(0.5, 1.0)),
    "sum": ([(3, 4)], lambda a: a.sum(axis=1)),
    "mean": ([(3, 4)], lambda a: a.mean(axis=0, keepdims=True)),
    "var": ([(3, 4)], lambda a: a.var(axis=-1)),
    "max": ([(3, 4)], lambda a: a.max(axis=1)),
    "softmax": ([(3, 4)], lambda a: a.softmax(axis=-1)),
    "reshape": ([(3, 4)], lambda a: a.reshape(2, 6)),
    "transpose": ([(2, 3, 4)], lambda a: a.transpose(2, 0, 1)),
    "swapaxes": ([(2, 3, 4)], lambda a: a.swapaxes(-1, -2)),
    "getitem": ([(3, 4)], lambda a: a[1:, ::2]),
    "concatenate": ([(2, 3), (1, 3)], lambda a, b: concatenate([a, b], axis=0)),
    "conv2d": ([(2, 3, 6, 6), (4, 3, 3, 3), (4,)],
               lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1)),
    "avg_pool2d": ([(2, 3, 6, 6)], lambda x: F.avg_pool2d(x, kernel=2)),
    "upsample_nearest": ([(2, 3, 3, 3)], lambda x: F.upsample_nearest(x, scale=2)),
    "linear": ([(2, 5, 4), (3, 4), (3,)], F.linear),
    "scaled_dot_product_attention": ([(2, 5, 4), (2, 6, 4), (2, 6, 4)],
                                     F.scaled_dot_product_attention),
    "mse_loss": ([(3, 4), (3, 4)], F.mse_loss),
}


class TestGraphMechanics:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_graph_free_output_equals_graph_building_output(self, name):
        shapes, op = OPS[name]
        rng = np.random.default_rng(7)
        inputs = [Tensor(rng.uniform(0.2, 1.5, size=shape).astype(np.float32),
                         requires_grad=True) for shape in shapes]
        tracked = op(*inputs)
        with no_grad():
            free = op(*inputs)
        assert tracked.requires_grad and not free.requires_grad
        assert free._backward is None and free._parents == ()
        assert np.array_equal(free.data, tracked.data)

    def test_no_grad_disables_tracking(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            out = x * 2.0
        assert not out.requires_grad

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = (x.detach() * 2.0).sum()
        out.backward()
        assert x.grad is None

    def test_gradient_accumulation_over_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        out = x * x  # uses x twice
        out.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_deep_chain_does_not_overflow(self):
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        out = x
        for _ in range(300):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (x * 3.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None
