"""Host-speed calibration of the benchmark's timings.

The benchmark shares its host.  On a 2-vCPU VM the same code ran up to
1.9x slower for stretches of 10-60 s while other tenants were busy, and
the median op times of two 20 s runs of identical code differed by a
third.  A probe made only of the benchmark's own code measures how fast
the host is around each op, and the op's time is divided by the probe's
slowdown against a fixed reference.  What remains moves with the program,
not with the neighbours.

Each workload names the probe parts that stress what its ops are bound by:
``interpreter`` runs dict and integer work in the Python interpreter, and
``memory`` streams an 8 MB array three times.  Short ops are probed
between ops (:class:`BetweenOps`), so no probe interrupts the program.
An op that fills a whole window, or a window of overlapping requests, is
probed from a timer signal while it runs (:class:`DuringOps`).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

clock = time.perf_counter

#: Probe part -> its reference seconds: about its fastest time right after
#: an op on a 2-vCPU VM.  A reference only sets the scale: a scaled time
#: is the op's time at that probe speed.
PARTS: Dict[str, float] = {"interpreter": 0.0040, "memory": 0.0026}


class HostSpeed:
    """Measure the host's slowdown with the named probe parts."""

    def __init__(self, parts: Sequence[str]):
        self.parts = [getattr(self, name) for name in parts]
        self.reference = sum(PARTS[name] for name in parts)
        if "memory" in parts:
            self.buffer = np.ones(2_000_000, dtype=np.float32)  # 8 MB

    def slowdown(self) -> float:
        """Probe time over its reference."""
        started = clock()
        for part in self.parts:
            part()
        return (clock() - started) / self.reference

    @staticmethod
    def interpreter() -> None:
        table: Dict[int, int] = {}
        total = 0
        for i in range(30_000):
            key = i % 97
            table[key] = table.get(key, 0) + i
            total += i * 3 % 7

    def memory(self) -> None:
        for _ in range(3):
            self.buffer.sum()


@dataclass
class Reading:
    """What the probes measured around one op."""

    slowdown: float = 1.0
    #: Probe time spent inside the op, to take out of the op's time.
    seconds: float = 0.0


class Unprobed:
    """Leaves op times as measured."""

    @contextlib.contextmanager
    def around(self) -> Iterator[Reading]:
        yield Reading()


class BetweenOps:
    """Probe before the first op and after every op; an op's slowdown is
    the mean of the probes on either side of it."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.before: Optional[float] = None

    @contextlib.contextmanager
    def around(self) -> Iterator[Reading]:
        if self.before is None:
            self.before = self.speed.slowdown()
        reading = Reading()
        try:
            yield reading
        finally:
            after = self.speed.slowdown()
            reading.slowdown = (self.before + after) / 2
            self.before = after


class DuringOps:
    """Probe every ``every`` seconds from a ``SIGALRM`` timer while an op
    runs; its slowdown is the mean of those probes.  The handler runs in
    the main thread between bytecodes, so a probe waits for a running
    numpy call to return and never runs alongside the program."""

    def __init__(self, speed: HostSpeed, every: float):
        self.speed, self.every = speed, every

    @contextlib.contextmanager
    def around(self) -> Iterator[Reading]:
        slowdowns: List[float] = []
        reading = Reading()

        def probe(signum, frame):
            started = clock()
            slowdowns.append(self.speed.slowdown())
            reading.seconds += clock() - started

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not slowdowns:  # an op shorter than the interval
                slowdowns.append(self.speed.slowdown())
            reading.slowdown = statistics.mean(slowdowns)


def probe_for(parts: Sequence[str], every: Optional[float]):
    """The probing a workload asks for: none without ``parts``, a timer
    with ``every``, otherwise between ops."""
    if not parts:
        return Unprobed()
    speed = HostSpeed(parts)
    return DuringOps(speed, every) if every else BetweenOps(speed)
