"""Open-loop load generator: requests are sent on a schedule, not on replies.

Each request is timed from the moment it was *due*, not from when it was
submitted, so a stall in the engine (a long batch, a pause between
``pump()`` calls) counts against every request that fell due during it —
the wait a real client would see.  How late the generator itself ran is
reported separately as lateness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np


def poisson_arrivals(rate: float, seconds: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Due offsets of a Poisson process at ``rate`` over ``[0, seconds)``.

    The count is fixed at ``round(rate * seconds)`` and the times drawn as
    sorted uniforms — the Poisson process conditioned on its count — so
    every run offers the same number of requests at the same mean rate.
    """
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))


@dataclass
class Outcome:
    """What happened to one request of the schedule."""

    due: float
    sent: Optional[float] = None
    finished: Optional[float] = None
    response: object = None
    admitted: bool = False

    @property
    def latency(self) -> Optional[float]:
        """Seconds from due time to response, None if never answered."""
        return None if self.finished is None else self.finished - self.due

    @property
    def lateness(self) -> Optional[float]:
        """Seconds the generator submitted the request after its due time."""
        return None if self.sent is None else self.sent - self.due


def spin(seconds: float) -> None:
    """Wait by polling the clock instead of sleeping.

    The process stays on its CPU between requests, so a request never also
    pays for waking an idle virtual CPU — a cost that swings with the
    host's load and would otherwise dominate the run-to-run spread.
    """
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def run_open_loop(engine, requests: Sequence, due_offsets: Sequence[float],
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = spin) -> List[Outcome]:
    """Submit ``requests[i]`` at ``start + due_offsets[i]`` and drive
    ``engine`` (a :class:`repro.serving.ServingEngine`) with ``pump()``
    until every admitted request is answered.

    A request the engine refuses at ``submit`` is never answered; its
    outcome keeps ``finished=None`` and counts as failed.
    """
    start = clock()
    outcomes = [Outcome(due=start + offset) for offset in due_offsets]
    waiting = {}
    next_index = 0
    while next_index < len(requests) or waiting:
        now = clock()
        while next_index < len(requests) and outcomes[next_index].due <= now:
            request, outcome = requests[next_index], outcomes[next_index]
            outcome.sent = clock()
            outcome.admitted = engine.submit(request)
            if outcome.admitted:
                waiting[request.request_id] = outcome
            next_index += 1
        responses = engine.pump()
        answered = clock()
        for response in responses:
            outcome = waiting.pop(response.request_id)
            outcome.finished = answered
            outcome.response = response
        wake = [engine.batcher.next_due_at()]
        if next_index < len(requests):
            wake.append(outcomes[next_index].due)
        wake = [when for when in wake if when is not None]
        if not wake:
            if waiting:
                break  # nothing holds the rest any more: they stay failed
            continue
        delay = min(wake) - clock()
        if delay > 0:
            sleep(delay)
    return outcomes
