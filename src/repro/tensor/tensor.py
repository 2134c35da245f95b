"""A small numpy-backed reverse-mode autograd engine.

The engine substitutes for PyTorch in this reproduction.  Every value in the
diffusion models and in the quantization method (notably the gradient-based
rounding learning of the paper, Eq. 12-14) is a :class:`Tensor` holding a
``numpy.ndarray`` plus, when gradients are requested, a backward closure that
accumulates gradients into its parents.

Only the operations actually needed by the reproduction are implemented, but
they cover the usual deep-learning vocabulary: broadcast arithmetic, matmul,
reductions, activations, reshaping, indexing, concatenation and clipping.
Convolution and attention primitives live in :mod:`repro.tensor.functional`.

Grad modes
----------

Two context managers control how much autograd machinery an operation pays:

* :func:`no_grad` disables gradient *tracking*: results come out with
  ``requires_grad=False`` and no graph is recorded.
* :func:`inference_mode` is stricter: in addition to disabling tracking it
  promises that nothing produced inside will ever join an autograd graph,
  which lets every operation take the allocation-free fast path (no backward
  closure, no parent tuple) and lets :mod:`repro.tensor.functional` reuse
  cached im2col workspaces.  Calling :meth:`Tensor.backward` inside
  inference mode raises.

Every operation short-circuits graph construction whenever the result cannot
require gradients (grad disabled, or no input requires them), so the hot
inference paths — samplers, serving, calibration forward passes — never
allocate backward closures at all.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .backend import active_backend, reference_backend

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Grad mode is **thread-local**: the parallel experiment runner executes
#: independent stages on worker threads, and one stage entering ``no_grad``
#: (e.g. image decoding) must not switch off gradient tracking under a
#: concurrent stage that is learning rounding parameters.
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
    """Disable gradient tracking *and* every autograd allocation.

    Stricter than :func:`no_grad`: inside the block ``backward()`` raises,
    tensors cannot be created with ``requires_grad=True``, and operations
    skip backward-closure construction entirely.  Use it on inference-only
    paths (sampling, serving, calibration forward passes) where nothing will
    ever need a gradient.
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


def _no_graph(*parents: "Tensor") -> bool:
    """Whether an op over ``parents`` can skip graph construction entirely."""
    if not getattr(_GRAD_STATE, "enabled", True):
        return True
    for parent in parents:
        if parent.requires_grad:
            return False
    return True


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


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


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

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

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
        """Fast constructor for graph-free results (the inference path)."""
        out = object.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float32)
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out.name = None
        return out

    @staticmethod
    def _wire(data, parents: Sequence["Tensor"], backward) -> "Tensor":
        """Create a gradient-tracking result wired into the autograd graph."""
        out = Tensor._from_data(data)
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
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
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data + other_t.data
        if _no_graph(self, other_t):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._wire(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if _no_graph(self):
            return Tensor._from_data(-self.data)

        def backward(grad):
            self._accumulate(-grad)

        return Tensor._wire(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data - other_t.data
        if _no_graph(self, other_t):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(-grad, other_t.shape))

        return Tensor._wire(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data * other_t.data
        if _no_graph(self, other_t):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._wire(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data / other_t.data
        if _no_graph(self, other_t):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape))

        return Tensor._wire(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._wire(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication supporting 2-D and batched (>2-D) operands.

        The product dispatches through the active compute backend; the
        backward closure always uses the reference backend so gradient
        numerics are independent of the backend selection.
        """
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = active_backend().batched_gemm(self.data, other_t.data)
        if _no_graph(self, other_t):
            return Tensor._from_data(data)

        def backward(grad):
            a, b = self.data, other_t.data
            reference = reference_backend()
            grad_a = reference.batched_gemm(grad, np.swapaxes(b, -1, -2))
            grad_b = reference.batched_gemm(np.swapaxes(a, -1, -2), grad)
            self._accumulate(_unbroadcast(grad_a, a.shape))
            other_t._accumulate(_unbroadcast(grad_b, b.shape))

        return Tensor._wire(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * data)

        return Tensor._wire(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._wire(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12))

        return Tensor._wire(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * np.sign(self.data))

        return Tensor._wire(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._wire(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._wire(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad * (self.data > 0.0))

        return Tensor._wire(data, (self,), backward)

    def silu(self) -> "Tensor":
        """SiLU / swish activation, ``x * sigmoid(x)`` (used throughout U-Nets)."""
        if _no_graph(self):
            return Tensor._from_data(active_backend().silu(self.data))
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig

        def backward(grad):
            self._accumulate(grad * (sig + self.data * sig * (1.0 - sig)))

        return Tensor._wire(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi).astype(np.float32)
        inner = c * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
            dt = (1.0 - t ** 2) * dinner
            self._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x * dt))

        return Tensor._wire(data, (self,), backward)

    def clip(self, minimum: float, maximum: float) -> "Tensor":
        """Element-wise clamp; the gradient is passed where values are inside."""
        data = np.clip(self.data, minimum, maximum)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            inside = (self.data >= minimum) & (self.data <= maximum)
            self._accumulate(grad * inside)

        return Tensor._wire(data, (self,), backward)

    clamp = clip

    def floor(self) -> "Tensor":
        """Floor with a zero gradient (used only on detached quantities)."""
        data = np.floor(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(np.zeros_like(self.data))

        return Tensor._wire(data, (self,), backward)

    def round(self) -> "Tensor":
        """Round-to-nearest with a straight-through gradient estimator."""
        data = np.round(self.data)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad)

        return Tensor._wire(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                if not keepdims:
                    for ax in sorted(a % self.ndim for a in axes):
                        grad = np.expand_dims(grad, ax)
                expanded = np.broadcast_to(grad, self.shape)
            self._accumulate(expanded)

        return Tensor._wire(data, (self,), backward)

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
        data = self.data.max(axis=axis, keepdims=keepdims)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == self.data.max())
                self._accumulate(grad * mask / max(mask.sum(), 1))
            else:
                full = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == full)
                g = grad if keepdims else np.expand_dims(grad, axis)
                counts = mask.sum(axis=axis, keepdims=True)
                self._accumulate(mask * g / np.maximum(counts, 1))

        return Tensor._wire(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        if _no_graph(self):
            return Tensor._from_data(active_backend().softmax(self.data, axis))
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (grad - dot))

        return Tensor._wire(data, (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(grad.reshape(self.shape))

        return Tensor._wire(data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        if _no_graph(self):
            return Tensor._from_data(data)
        inverse = np.argsort(axes)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._wire(data, (self,), backward)

    permute = transpose

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._wire(data, (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero padding; ``pad_width`` follows ``numpy.pad`` conventions."""
        data = np.pad(self.data, pad_width)
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            slices = tuple(slice(before, before + size)
                           for (before, _), size in zip(pad_width, self.shape))
            self._accumulate(grad[slices])

        return Tensor._wire(data, (self,), backward)

    def broadcast_to(self, shape) -> "Tensor":
        data = np.broadcast_to(self.data, shape).copy()
        if _no_graph(self):
            return Tensor._from_data(data)

        def backward(grad):
            self._accumulate(_unbroadcast(grad, self.shape))

        return Tensor._wire(data, (self,), backward)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None,
              requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=requires_grad)

    @staticmethod
    def arange(n: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.arange(n, dtype=np.float32), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if _no_graph(*tensors):
        return Tensor._from_data(data)
    sizes = [t.shape[axis] for t in tensors]

    def backward(grad):
        start = 0
        for tensor, size in zip(tensors, sizes):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, start + size)
            tensor._accumulate(grad[tuple(slicer)])
            start += size

    return Tensor._wire(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    if _no_graph(*tensors):
        return Tensor._from_data(data)

    def backward(grad):
        moved = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, moved):
            tensor._accumulate(piece)

    return Tensor._wire(data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select elements from ``a`` where ``condition`` holds, otherwise ``b``."""
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(_as_array(a))
    b = b if isinstance(b, Tensor) else Tensor(_as_array(b))
    data = np.where(condition, a.data, b.data)
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        a._accumulate(_unbroadcast(grad * condition, a.shape))
        b._accumulate(_unbroadcast(grad * (~condition), b.shape))

    return Tensor._wire(data, (a, b), backward)
