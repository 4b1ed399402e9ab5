"""Observability: hierarchical tracing, metrics, exporters, invariants.

The package is one seam with three faces:

- **Recording** (:mod:`~repro.obs.tracer`): :class:`Tracer` records span
  trees against an injected clock; :class:`NullTracer` is the
  zero-overhead off path every component defaults to;
  :class:`CapturingTracer` is the queryable test harness.
- **Aggregation** (:mod:`~repro.obs.metrics`): a
  :class:`MetricsRegistry` of counters and exact-quantile histograms,
  written only by span completion.
- **Export** (:mod:`~repro.obs.export`): Chrome ``trace_event`` JSON for
  Perfetto, a text tree, and JSONL span logs; ``python -m repro.obs``
  drives them from the command line.

:mod:`~repro.obs.invariants` holds the structural checks (balanced
spans, parent containment, kernel accounting) the fuzzer's ``--obs``
oracle and the trace-based tests share.
"""

from .export import render_tree, to_chrome_trace, to_jsonl, write_artifacts
from .invariants import (check_balanced, check_containment,
                         check_kernel_accounting, check_pass_coverage,
                         trace_failures)
from .metrics import Counter, Histogram, MetricsRegistry
from .tracer import (NULL_TRACER, ROOT, CapturingTracer, NullTracer,
                     Span, SpanSet, Tracer, resolve_tracer)

__all__ = [
    "Span", "SpanSet", "Tracer", "CapturingTracer", "NullTracer",
    "NULL_TRACER", "resolve_tracer", "ROOT",
    "Counter", "Histogram", "MetricsRegistry",
    "to_chrome_trace", "render_tree", "to_jsonl", "write_artifacts",
    "trace_failures", "check_balanced", "check_containment",
    "check_pass_coverage", "check_kernel_accounting",
]
