"""Request/response model and the bounded admission queue.

A :class:`Request` is one user's ask: generate an image from ``model`` —
optionally from a ``prompt`` for text-to-image models — under an optional
latency SLO.  The engine stamps the arrival time on admission and the
request then flows queue → batcher → variant pool → generation → stats
(see :mod:`repro.serving.engine` for the lifecycle).

The :class:`RequestQueue` is deliberately bounded: a serving system under
overload must shed load at admission rather than buffer unboundedly, so
``push`` raises :class:`QueueFullError` once ``capacity`` requests are
waiting and the engine converts that into a rejected-request statistic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from ..diffusion.plan import GenerationPlan


class QueueFullError(RuntimeError):
    """Raised when a request is pushed into a queue that is at capacity."""


@dataclass
class Request:
    """One inference request.

    ``scheme`` pins an explicit quantization scheme; when ``None`` the
    SLO router chooses one from ``latency_slo`` (seconds).  ``plan``
    requests a generation trajectory (sampler, step budget, guidance); the
    router treats its step budget as a ceiling it may reduce under a tight
    SLO.  ``num_steps`` is a bare step budget, folded into the plan when
    the plan sets none; both default to the model's standard sampling-step
    count.  ``seed`` makes the request's image deterministic
    regardless of how it is batched.

    ``tenant`` identifies the account the request bills to (the unit of
    admission-control fairness in the cluster front door) and ``tier`` is
    the symbolic SLO tier its ``latency_slo`` was derived from; both are
    optional and purely attributional — they never change how a single
    engine serves the request, only how rejections and latency are
    accounted per tenant/tier.
    """

    model: str
    prompt: Optional[str] = None
    num_steps: Optional[int] = None
    latency_slo: Optional[float] = None
    scheme: Optional[str] = None
    plan: Optional[GenerationPlan] = None
    seed: int = 0
    tenant: Optional[str] = None
    tier: Optional[str] = None
    request_id: Optional[int] = None
    arrival_time: Optional[float] = None


@dataclass
class Response:
    """The served result plus per-request instrumentation."""

    request_id: int
    model: str
    scheme: str
    num_steps: int
    image: np.ndarray
    queue_wait: float          # seconds from admission to batch formation
    batch_size: int            # size of the batch the request was served in
    batch_latency: float       # wall-clock seconds of the batch's generation
    total_latency: float       # queue_wait + dispatch_wait + batch_latency
    #: Seconds the formed batch waited for a free executor slot (always 0
    #: in single-engine live serving; nonzero under the cluster simulator
    #: when a batch queues behind a busy replica).
    dispatch_wait: float = 0.0
    embedding_cache_hit: Optional[bool] = None
    #: The generation plan the request was actually served with (the routed
    #: plan — possibly step-reduced relative to what was asked for).
    plan: Optional[GenerationPlan] = None

    def meets_slo(self, slo: Optional[float]) -> Optional[bool]:
        """Whether the measured total latency met the given SLO (None = no SLO)."""
        if slo is None:
            return None
        return self.total_latency <= slo


class RequestQueue:
    """Bounded FIFO admission queue."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: Deque[Request] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    def push(self, request: Request) -> None:
        if self.full:
            raise QueueFullError(
                f"request queue at capacity ({self.capacity}); shedding load")
        self._queue.append(request)

    def pop(self) -> Request:
        if not self._queue:
            raise IndexError("pop from an empty request queue")
        return self._queue.popleft()
