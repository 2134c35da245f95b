"""A small numpy-backed reverse-mode autograd engine.

The engine substitutes for PyTorch in this reproduction.  Every value in the
diffusion models is a :class:`Tensor` holding a ``numpy.ndarray`` plus,
when gradients are requested, the node that routes gradients back to its
parents; pretraining the zoo models is what differentiates through it.

Only the operations the reproduction calls are implemented: broadcast
arithmetic, matmul, reductions, activations, reshaping, indexing,
concatenation and clipping.  Convolution, pooling, resampling and attention
live in :mod:`repro.tensor.functional`.

Every operation is a forward on numpy arrays plus a vector-Jacobian product
(VJP), joined by :func:`_apply`.  ``_apply`` makes the engine's one grad-mode
decision (:func:`_builds_graph`: grad enabled and some input requires
gradients); when no graph is needed the result records nothing, so the
inference paths (samplers, serving, calibration forward passes) keep no
parents and build no closure.  A VJP is a module-level function
``vjp(grad, *params, *parents)`` returning one gradient per parent (``None``
to skip one); it runs only inside :meth:`Tensor.backward`.

Grad modes
----------

Two context managers control gradient tracking:

* :func:`no_grad` disables gradient *tracking*: results come out with
  ``requires_grad=False`` and no graph is recorded.
* :func:`inference_mode` is stricter: in addition to disabling tracking it
  promises that nothing produced inside will ever join an autograd graph,
  which lets the quantized layers take the integer kernels of
  :mod:`repro.tensor.functional`.  Calling :meth:`Tensor.backward` inside
  inference mode raises.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, Optional, Union

import numpy as np

from .backend import active_backend, reference_backend

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Grad mode is **thread-local**: the parallel experiment runner executes
#: independent stages on worker threads, and one stage entering ``no_grad``
#: (e.g. image decoding) must not switch off gradient tracking under a
#: concurrent stage that is pretraining a model.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking inside its block."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


@contextlib.contextmanager
def inference_mode():
    """Disable gradient tracking and promise no gradient is ever needed.

    Stricter than :func:`no_grad`: inside the block ``backward()`` raises,
    tensors cannot be created with ``requires_grad=True``, and quantized
    layers may take the integer kernels.  Use it on inference-only paths
    (sampling, serving, calibration forward passes).
    """
    prev_enabled = is_grad_enabled()
    prev_inference = is_inference_mode()
    _GRAD_STATE.enabled = False
    _GRAD_STATE.inference = True
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev_enabled
        _GRAD_STATE.inference = prev_inference


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return getattr(_GRAD_STATE, "enabled", True)


def is_inference_mode() -> bool:
    """Return whether the strict inference fast path is active."""
    return getattr(_GRAD_STATE, "inference", False)


def _builds_graph(parents: tuple) -> bool:
    """The engine's one grad-mode decision: whether an operation over
    ``parents`` records a node (grad enabled and some parent requires
    gradients)."""
    if not getattr(_GRAD_STATE, "enabled", True):
        return False
    for parent in parents:
        if parent.requires_grad:
            return True
    return False


def _apply(data, parents: tuple, vjp, *params) -> "Tensor":
    """Wrap an operation's forward result ``data`` computed from ``parents``.

    When :func:`_builds_graph` says so, the result records ``parents`` and
    ``vjp``; :meth:`Tensor.backward` later calls ``vjp(grad, *params,
    *parents)``, which returns one gradient per parent.  ``params`` carries
    whatever else the VJP needs (saved forward intermediates, axes), so no
    closure is built per call.
    """
    out = Tensor._from_data(data)
    if _builds_graph(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = (vjp, params)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Numpy broadcasting may have expanded an operand along new leading axes or
    along axes of size one; the gradient flowing back must be summed over the
    broadcast axes to recover the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _lift(value: ArrayLike) -> "Tensor":
    """``value`` as a tensor; non-tensors become float32 constants."""
    return value if isinstance(value, Tensor) else Tensor._from_data(value)


# ----------------------------------------------------------------------
# VJPs: vjp(grad, *params, *parents) -> one gradient per parent.  Every
# product runs on the reference backend, so gradient numerics never change
# with the backend selection.
# ----------------------------------------------------------------------
def _add_vjp(grad, a, b):
    return _unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)


def _neg_vjp(grad, x):
    return (-grad,)


def _sub_vjp(grad, a, b):
    return _unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape)


def _mul_vjp(grad, a, b):
    return (_unbroadcast(grad * b.data, a.shape),
            _unbroadcast(grad * a.data, b.shape))


def _div_vjp(grad, a, b):
    return (_unbroadcast(grad / b.data, a.shape),
            _unbroadcast(-grad * a.data / (b.data ** 2), b.shape))


def _pow_vjp(grad, exponent, x):
    return (grad * exponent * x.data ** (exponent - 1.0),)


def _matmul_vjp(grad, a, b):
    reference = reference_backend()
    grad_a = reference.batched_gemm(grad, np.swapaxes(b.data, -1, -2))
    grad_b = reference.batched_gemm(np.swapaxes(a.data, -1, -2), grad)
    return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


def _sqrt_vjp(grad, out, x):
    return (grad * 0.5 / np.maximum(out, 1e-12),)


def _abs_vjp(grad, x):
    return (grad * np.sign(x.data),)


def _sigmoid_vjp(grad, out, x):
    return (grad * out * (1.0 - out),)


def _tanh_vjp(grad, out, x):
    return (grad * (1.0 - out ** 2),)


def _silu_vjp(grad, sig, x):
    return (grad * (sig + x.data * sig * (1.0 - sig)),)


_GELU_C = np.sqrt(2.0 / np.pi).astype(np.float32)


def _gelu_vjp(grad, t, tensor):
    x = tensor.data
    dt = (1.0 - t ** 2) * (_GELU_C * (1.0 + 3 * 0.044715 * x ** 2))
    return (grad * (0.5 * (1.0 + t) + 0.5 * x * dt),)


def _clip_vjp(grad, minimum, maximum, x):
    return (grad * ((x.data >= minimum) & (x.data <= maximum)),)


def _sum_vjp(grad, axis, keepdims, x):
    grad = np.asarray(grad)
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % x.ndim for a in axes):
            grad = np.expand_dims(grad, ax)
    return (np.broadcast_to(grad, x.shape),)


def _max_vjp(grad, axis, keepdims, x):
    grad = np.asarray(grad)
    if axis is None:
        mask = (x.data == x.data.max())
        return (grad * mask / max(mask.sum(), 1),)
    mask = (x.data == x.data.max(axis=axis, keepdims=True))
    g = grad if keepdims else np.expand_dims(grad, axis)
    return (mask * g / np.maximum(mask.sum(axis=axis, keepdims=True), 1),)


def _softmax_vjp(grad, out, axis, x):
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _reshape_vjp(grad, x):
    return (grad.reshape(x.shape),)


def _transpose_vjp(grad, axes, x):
    return (grad.transpose(np.argsort(axes)),)


def _getitem_vjp(grad, index, x):
    full = np.zeros_like(x.data)
    np.add.at(full, index, grad)
    return (full,)


def _concatenate_vjp(grad, axis, *tensors):
    grads, start = [], 0
    for tensor in tensors:
        size = tensor.shape[axis]
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(start, start + size)
        grads.append(grad[tuple(slicer)])
        start += size
    return grads


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float32`` by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _from_data(data) -> "Tensor":
        """Fast constructor of a tensor that records no graph (graph-free
        results and constants)."""
        out = object.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float32)
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out.name = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones, which is the usual convention when the
        tensor is a scalar loss.
        """
        if is_inference_mode():
            raise RuntimeError(
                "backward() is not allowed inside inference_mode(); use "
                "no_grad() if downstream code still differentiates")
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion limits on deep graphs.
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if id(node) in visited or not node.requires_grad:
                continue
            if processed:
                visited.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for parent in node._parents:
                    if id(parent) not in visited and parent.requires_grad:
                        stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                vjp, params = node._backward
                grads = vjp(node.grad, *params, *node._parents)
                for parent, parent_grad in zip(node._parents, grads):
                    if parent_grad is not None:
                        parent._accumulate(parent_grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _lift(other)
        return _apply(self.data + other.data, (self, other), _add_vjp)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply(-self.data, (self,), _neg_vjp)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _lift(other)
        return _apply(self.data - other.data, (self, other), _sub_vjp)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _lift(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _lift(other)
        return _apply(self.data * other.data, (self, other), _mul_vjp)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _lift(other)
        return _apply(self.data / other.data, (self, other), _div_vjp)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        return _apply(self.data ** exponent, (self,), _pow_vjp, exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication supporting 2-D and batched (>2-D) operands.

        The product dispatches through the active compute backend; its VJP
        always uses the reference backend so gradient numerics are
        independent of the backend selection.
        """
        other = _lift(other)
        return _apply(active_backend().batched_gemm(self.data, other.data),
                      (self, other), _matmul_vjp)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return _apply(data, (self,), _sqrt_vjp, data)

    def abs(self) -> "Tensor":
        return _apply(np.abs(self.data), (self,), _abs_vjp)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        return _apply(data, (self,), _sigmoid_vjp, data)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return _apply(data, (self,), _tanh_vjp, data)

    def silu(self) -> "Tensor":
        """SiLU / swish activation, ``x * sigmoid(x)`` (used throughout U-Nets)."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        return _apply(self.data * sig, (self,), _silu_vjp, sig)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        t = np.tanh(_GELU_C * (x + 0.044715 * x ** 3))
        return _apply(0.5 * x * (1.0 + t), (self,), _gelu_vjp, t)

    def clip(self, minimum: float, maximum: float) -> "Tensor":
        """Element-wise clamp; the gradient is passed where values are inside."""
        return _apply(np.clip(self.data, minimum, maximum), (self,), _clip_vjp,
                      minimum, maximum)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                      _sum_vjp, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.shape[a % self.ndim]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply(self.data.max(axis=axis, keepdims=keepdims), (self,),
                      _max_vjp, axis, keepdims)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)
        return _apply(data, (self,), _softmax_vjp, data, axis)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply(self.data.reshape(shape), (self,), _reshape_vjp)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return _apply(self.data.transpose(axes), (self,), _transpose_vjp, axes)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        return _apply(self.data[index], (self,), _getitem_vjp, index)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each."""
    tensors = tuple(tensors)
    return _apply(np.concatenate([t.data for t in tensors], axis=axis),
                  tensors, _concatenate_vjp, axis)
