"""Harness internals: bench model configs and trace builders."""

from repro.bench import BENCH_MODELS
from repro.bench.experiments import _bench_model, _k_distinct_trace
from repro.models import MODEL_BUILDERS


def test_bench_models_cover_the_zoo():
    assert set(BENCH_MODELS) == set(MODEL_BUILDERS)


def test_bench_models_buildable():
    model = _bench_model("dien")
    assert model.name == "dien"


def test_k_distinct_trace_counts():
    model = _bench_model("dien")
    for k in (1, 3, 5):
        trace = _k_distinct_trace(model, 20, k)
        assert len(trace) == 20
        assert trace.distinct_signatures() == k


def test_k_distinct_trace_cycles_deterministically():
    model = _bench_model("dien")
    trace = _k_distinct_trace(model, 8, 2)
    values = trace.axis_values
    assert values[0] == values[2] == values[4]
    assert values[1] == values[3]

