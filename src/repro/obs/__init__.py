"""Unified telemetry: span tracing, metrics, and cost-model calibration.

The substrate every subsystem reports into:

* :class:`Tracer` — clock-agnostic span tracing with Chrome trace-event
  export (open the saved JSON at https://ui.perfetto.dev);
* :class:`MetricsRegistry` — labeled counters/gauges/histograms with
  bounded reservoirs and snapshot round-trip;
* :class:`CalibrationReport` / :func:`run_cost_model_calibration` —
  predicted-vs-measured latency error of the roofline cost model per
  (workload, scheme).

Instrumented call sites default to ``tracer=None``, the one way to turn
tracing off, so telemetry costs nothing unless a caller passes a live
:class:`Tracer` — an invariant the bench suite's ``telemetry.overhead``
workload guards.
"""

from .calibration import CalibrationReport, run_cost_model_calibration
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Tracer, load_chrome_trace, validate_chrome_trace

__all__ = [
    "Tracer", "validate_chrome_trace", "load_chrome_trace",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "CalibrationReport", "run_cost_model_calibration",
]
