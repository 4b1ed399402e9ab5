"""Metrics registry: exact quantiles and the span-completion feed."""

import pytest

from repro.obs import CapturingTracer, Counter, Histogram, MetricsRegistry

from .conftest import StepClock


def test_counter_only_goes_up():
    c = Counter("requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_histogram_quantiles_are_exact_nearest_rank():
    h = Histogram("latency")
    for value in range(1, 101):       # 1..100, shuffled order irrelevant
        h.observe(value)
    assert h.count == 100
    assert h.quantile(0.50) == 50
    assert h.quantile(0.90) == 90
    assert h.quantile(0.99) == 99
    assert h.quantile(0.0) == 1       # rank clamps to the minimum
    assert h.quantile(1.0) == 100
    # nearest-rank, not interpolation: p50 of four values is the 2nd.
    small = Histogram("small")
    for value in (10.0, 20.0, 30.0, 40.0):
        small.observe(value)
    assert small.quantile(0.5) == 20.0


def test_histogram_edge_cases():
    h = Histogram("empty")
    assert h.quantile(0.5) == 0.0
    assert h.snapshot() == {"count": 0}
    assert h.mean == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_snapshot_fields():
    h = Histogram("h")
    for value in (1.0, 2.0, 3.0):
        h.observe(value)
    snap = h.snapshot()
    assert snap["count"] == 3
    assert snap["total"] == 6.0
    assert snap["mean"] == 2.0
    assert (snap["min"], snap["max"]) == (1.0, 3.0)
    assert snap["p50"] == 2.0


def test_registry_creates_on_first_touch_and_is_stable():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")


def test_tracer_feeds_the_registry_on_completion():
    registry = MetricsRegistry()
    tracer = CapturingTracer(clock=StepClock(), metrics=registry)
    for _ in range(3):
        with tracer.span("engine:run"):
            pass
    tracer.event("cache:plan:hit")
    snap = registry.snapshot()
    assert snap["counters"]["spans.engine:run"] == 3
    assert snap["counters"]["events.cache:plan:hit"] == 1
    hist = snap["histograms"]["span_us.engine:run"]
    assert hist["count"] == 3
    # StepClock: every span is exactly one tick wide.
    assert hist["mean"] == 1.0


def test_unfinished_spans_never_reach_the_registry():
    registry = MetricsRegistry()
    tracer = CapturingTracer(clock=StepClock(), metrics=registry)
    tracer.begin("leaked")
    assert registry.snapshot()["counters"] == {}


def test_snapshot_is_json_able():
    import json

    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.histogram("h").observe(2.0)
    parsed = json.loads(json.dumps(registry.snapshot()))
    assert parsed["counters"] == {"c": 1}
    assert parsed["histograms"]["h"]["mean"] == 2.0


def test_the_span_feed_is_the_registrys_only_writer():
    """No module outside ``repro.obs`` creates a registry metric: every
    count a component keeps lives in its own ``stats()``, and the registry
    aggregates spans and events only."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    writers = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")):
                writers.append(f"{path.relative_to(root)}:{node.lineno}")
    assert writers == []
