"""numpy-backed tensor and autograd engine used throughout the reproduction."""

from .backend import (
    active_backend,
    backend_info,
    count_macs,
    get_backend,
    list_backends,
    set_backend,
    use_backend,
)
from .tensor import (
    Tensor,
    concatenate,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
)
from . import functional

__all__ = [
    "Tensor",
    "concatenate",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "functional",
    "active_backend",
    "backend_info",
    "count_macs",
    "get_backend",
    "list_backends",
    "set_backend",
    "use_backend",
]
