"""Observability substrate: metrics, spans, structured JSONL traces.

Three layers, smallest first:

* :mod:`repro.obs.metrics` — process-local counters / gauges /
  histograms in a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracing` — :class:`TraceWriter` (JSONL events + nested
  spans + run manifest) with a zero-cost :data:`NULL_TRACER` default;
* :mod:`repro.obs.runtime` — :class:`Instrumentation` bundles and the
  ambient process default used by substrate layers (DES kernel, simplex).

See DESIGN.md §6 for the span taxonomy and trace schema, and
:mod:`repro.analysis.trace_report` for the human-readable summarizer.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.runtime": (
        "Instrumentation", "activate", "get_active", "set_active",
    ),
    "repro.obs.tracing": (
        "NULL_TRACER",
        "NullTracer",
        "TraceWriter",
        "check_span_balance",
        "iter_trace",
        "read_trace",
    ),
})
