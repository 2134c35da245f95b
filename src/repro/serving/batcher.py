"""Dynamic batching: group compatible requests into one sampler pass.

Requests are only batchable when they can share a single U-Net forward per
denoising step, which means the same model, the same quantization scheme
(they must run on the same pooled pipeline variant) and the same *routed
generation plan* — one sampler walking one timestep grid at one guidance
scale per batch.  That triple is the :class:`BatchKey`; plans are frozen
and content-comparable, so two requests routed to ``dpm2 @ 4 steps`` land
in the same group whatever spelling they arrived with.

The batcher accumulates per-key groups and closes a batch when either

* the group reaches ``max_batch_size`` (returned immediately from
  :meth:`add`), or
* the group's *oldest* request has waited ``max_wait`` seconds
  (:meth:`due` — the engine polls this between arrivals), trading a bounded
  amount of queueing latency for larger, more efficient batches.

``clock`` is injectable so tests can drive timeout semantics with a virtual
clock instead of sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from ..diffusion.plan import GenerationPlan
from .request import Request


class BatchKey(NamedTuple):
    """Compatibility class of requests that may share one generation pass."""

    model: str
    scheme: str
    plan: GenerationPlan


@dataclass
class Batch:
    """A closed group of compatible requests ready for generation."""

    key: BatchKey
    requests: List[Request]
    formed_at: float

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def oldest_arrival(self) -> float:
        return min(r.arrival_time or self.formed_at for r in self.requests)


@dataclass
class _PendingGroup:
    requests: List[Request] = field(default_factory=list)
    opened_at: float = 0.0


class DynamicBatcher:
    """Groups requests by :class:`BatchKey` under size and wait bounds."""

    def __init__(self, max_batch_size: int = 8, max_wait: float = 0.05,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.clock = clock
        self._pending: Dict[BatchKey, _PendingGroup] = {}

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return sum(len(g.requests) for g in self._pending.values())

    def _close(self, key: BatchKey) -> Batch:
        group = self._pending.pop(key)
        return Batch(key=key, requests=group.requests, formed_at=self.clock())

    # ------------------------------------------------------------------
    def add(self, key: BatchKey, request: Request) -> Optional[Batch]:
        """Add a routed request; returns a batch the moment one fills up."""
        group = self._pending.get(key)
        if group is None:
            group = _PendingGroup(opened_at=self.clock())
            self._pending[key] = group
        group.requests.append(request)
        if len(group.requests) >= self.max_batch_size:
            return self._close(key)
        return None

    def next_due_at(self) -> Optional[float]:
        """Clock time when the oldest pending group ages out (None if empty).

        Event-driven callers (the cluster simulator) schedule one timer at
        this instant instead of polling :meth:`due`; at that time ``due()``
        is guaranteed to close at least the oldest group.
        """
        if not self._pending:
            return None
        return (min(group.opened_at for group in self._pending.values())
                + self.max_wait)

    def due(self) -> List[Batch]:
        """Close every group whose oldest request has waited ``max_wait``."""
        now = self.clock()
        expired = [key for key, group in self._pending.items()
                   if now - group.opened_at >= self.max_wait]
        return [self._close(key) for key in expired]

    def flush(self) -> List[Batch]:
        """Close all pending groups regardless of age (drain / shutdown)."""
        return [self._close(key) for key in list(self._pending)]
