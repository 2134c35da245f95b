"""Span tracing with Chrome trace-event export (Perfetto-loadable).

One :class:`Tracer` collects every kind of telemetry the stack produces:

* **spans** — named intervals with attributes, either measured live
  (:meth:`Tracer.span` as a context manager around wall-clock work) or
  recorded retroactively with explicit timestamps
  (:meth:`Tracer.add_span`, the discrete-event form: the cluster
  simulator *models* service time on a
  :class:`~repro.serving.clock.VirtualClock` and books the span after the
  fact);
* **async spans** — begin/end pairs correlated by id rather than stack
  nesting (:meth:`Tracer.async_span`): per-request lifecycles overlap
  arbitrarily on one replica, which lane-nested spans cannot express;
* **instant events** — zero-duration marks (:meth:`Tracer.instant`) for
  decisions: autoscaler actions, admission rejections.

The tracer is **clock-agnostic**: it never calls the ``time`` module
unless the default clock is left in place, so components driven by a
``VirtualClock`` produce traces in virtual seconds and — critically —
tracing can never perturb a deterministic simulation (events are
appended to a private buffer; no shared state the simulated system reads
is touched).

Lanes map to the Chrome trace-event ``pid``/``tid`` pair: ``process``
groups a subsystem ("runner", "serving", "cluster"), ``lane`` one track
inside it ("replica-3", a worker thread).  When no lane is given the
current thread's name is used, so the experiment Runner's worker threads
separate naturally.  Export follows the Chrome trace-event JSON format
(``X`` complete events, ``b``/``e`` async pairs, ``i`` instants, ``M``
metadata), loadable at https://ui.perfetto.dev.

Tracing is off when a component's ``tracer`` is ``None`` (every
instrumented call site's default): call sites guard with ``if tracer is
not None`` and skip even building the span payload.  The event buffer is
bounded (``max_events``); once full, further events are counted in
:attr:`Tracer.dropped` instead of growing without limit.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Event phases of the Chrome trace-event format this tracer emits.
_PHASES = ("X", "b", "e", "i", "M")

DEFAULT_PROCESS = "repro"


class _Span:
    """One live span; a context manager that records itself on exit."""

    __slots__ = ("_tracer", "name", "category", "_pid", "_tid", "attrs",
                 "started")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 pid: int, tid: int, attrs: Dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self._pid = pid
        self._tid = tid
        self.attrs = attrs
        self.started = tracer.time()

    def set(self, key: str, value) -> "_Span":
        """Attach (or overwrite) one attribute; chainable."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._append({
            "ph": "X", "name": self.name, "cat": self.category,
            "ts": self.started, "dur": self._tracer.time() - self.started,
            "pid": self._pid, "tid": self._tid, "args": self.attrs,
        })


class Tracer:
    """Collects spans/instants on an injectable clock; exports Chrome JSON.

    ``clock`` is any zero-argument callable returning seconds — the default
    is ``time.perf_counter``; hand it a
    :class:`~repro.serving.clock.VirtualClock` and every measured span
    lands on the simulation's timeline instead.  Components that model
    time themselves bypass the clock entirely via :meth:`add_span` /
    :meth:`async_span` with explicit timestamps.

    Thread-safe: the experiment Runner records stage spans from worker
    threads concurrently.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_events: int = 1_000_000,
                 process: str = DEFAULT_PROCESS):
        self._clock = clock
        self.max_events = max_events
        self.default_process = process
        self.dropped = 0
        self._events: List[Dict] = []
        self._lock = threading.Lock()
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[str, str], int] = {}
        self._meta: List[Dict] = []

    # ------------------------------------------------------------------
    def time(self) -> float:
        """Current time on the tracer's clock (seconds)."""
        return self._clock()

    def _lane_ids(self, process: Optional[str], lane) -> Tuple[int, int]:
        """Resolve (process, lane) names to stable (pid, tid) integers.

        New names emit ``M`` metadata events so Perfetto labels the
        tracks.  ``lane=None`` uses the calling thread's name, which
        separates thread-pool workers without any caller bookkeeping.
        """
        process = process or self.default_process
        if lane is None:
            lane = threading.current_thread().name
        lane = str(lane)
        with self._lock:
            pid = self._pids.get(process)
            if pid is None:
                pid = len(self._pids) + 1
                self._pids[process] = pid
                self._meta.append({
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": process}})
            key = (process, lane)
            tid = self._tids.get(key)
            if tid is None:
                tid = sum(1 for p, _ in self._tids if p == process) + 1
                self._tids[key] = tid
                self._meta.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": lane}})
        return pid, tid

    def _append(self, event: Dict) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "span", lane=None,
             process: Optional[str] = None, attrs: Optional[Dict] = None
             ) -> _Span:
        """Open a live span (use as a context manager); measured on exit."""
        pid, tid = self._lane_ids(process, lane)
        return _Span(self, name, category, pid, tid, dict(attrs or {}))

    def add_span(self, name: str, started: float, finished: float,
                 category: str = "span", lane=None,
                 process: Optional[str] = None,
                 attrs: Optional[Dict] = None) -> None:
        """Record a completed span with explicit timestamps (seconds)."""
        pid, tid = self._lane_ids(process, lane)
        self._append({
            "ph": "X", "name": name, "cat": category, "ts": started,
            "dur": max(finished - started, 0.0), "pid": pid, "tid": tid,
            "args": dict(attrs or {}),
        })

    def async_span(self, name: str, correlation_id: int, started: float,
                   finished: float, category: str = "span", lane=None,
                   process: Optional[str] = None,
                   attrs: Optional[Dict] = None) -> None:
        """Record a begin/end pair correlated by id (overlapping lifecycles)."""
        pid, tid = self._lane_ids(process, lane)
        ident = str(correlation_id)
        self._append({
            "ph": "b", "name": name, "cat": category, "ts": started,
            "pid": pid, "tid": tid, "id": ident, "args": dict(attrs or {}),
        })
        self._append({
            "ph": "e", "name": name, "cat": category, "ts": finished,
            "pid": pid, "tid": tid, "id": ident, "args": {},
        })

    def instant(self, name: str, ts: Optional[float] = None,
                category: str = "event", lane=None,
                process: Optional[str] = None,
                attrs: Optional[Dict] = None) -> None:
        """Record a zero-duration mark (a decision, a rejection, an error)."""
        pid, tid = self._lane_ids(process, lane)
        self._append({
            "ph": "i", "name": name, "cat": category,
            "ts": self.time() if ts is None else ts,
            "pid": pid, "tid": tid, "s": "t", "args": dict(attrs or {}),
        })

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def events(self) -> List[Dict]:
        """Snapshot of the recorded events (timestamps in seconds)."""
        with self._lock:
            return list(self._events)

    def spans(self, name: Optional[str] = None,
              category: Optional[str] = None) -> List[Dict]:
        """Recorded complete spans, optionally filtered by name/category."""
        return [event for event in self.events()
                if event["ph"] == "X"
                and (name is None or event["name"] == name)
                and (category is None or event.get("cat") == category)]

    def clear(self) -> None:
        """Drop every recorded event (lane ids and metadata are kept)."""
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def to_chrome_trace(self) -> Dict:
        """Render the Chrome trace-event JSON document (timestamps in us)."""
        with self._lock:
            events = [dict(event) for event in self._meta]
            recorded = [dict(event) for event in self._events]
            dropped = self.dropped
        for event in recorded:
            event["ts"] = event["ts"] * 1e6
            if "dur" in event:
                event["dur"] = event["dur"] * 1e6
        events.extend(recorded)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "clock_unit": "seconds",
                          "dropped_events": dropped},
        }

    def save(self, path) -> Path:
        """Write the Chrome trace JSON to ``path`` (open in Perfetto)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path


def validate_chrome_trace(document: Dict) -> List[Dict]:
    """Schema-check a Chrome trace-event document; returns its events.

    Raises ``ValueError`` on the first malformed event.  Checks the
    subset of the trace-event format this tracer emits (and Perfetto
    requires): a top-level ``traceEvents`` list whose members carry a
    known ``ph``, numeric ``ts`` (plus ``dur`` for ``X``), integer
    ``pid``/``tid``, a string ``name``, a JSON-object ``args``, and an
    ``id`` on async begin/end events.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("trace document must be a dict with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing/empty 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"{where}: '{field}' must be an int")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where}: 'args' must be an object")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"{where}: 'ts' must be a number")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ValueError(f"{where}: 'X' event needs a numeric 'dur'")
        if phase in ("b", "e") and not isinstance(event.get("id"), str):
            raise ValueError(f"{where}: async event needs a string 'id'")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where}: instant scope must be t/p/g")
    return events


def load_chrome_trace(path) -> Dict:
    """Load and schema-check a trace file; returns the document."""
    document = json.loads(Path(path).read_text())
    validate_chrome_trace(document)
    return document
