"""One flow through every public subsystem, chained end to end.

trace -> serialise -> reload -> compile -> buffer plan -> plan-cached
serving -> queue simulation -> experiment table rendering.  If any public
seam breaks, this test names it.
"""

import numpy as np

from repro import A10, T4, compile_graph, evaluate, trace
from repro.bench import format_table, simulate_serving
from repro.device import CPU_X86
from repro.frontend import constant
from repro.ir import f32, load_graph, save_graph, verify
from repro.ir.dot import plan_to_dot
from repro.runtime import ExecutionEngine


def build_traced_graph():
    w = np.random.default_rng(0).normal(0, 0.1, (32, 16)).astype("f4")

    def model(x):
        h = (x @ constant(w)).gelu()
        return h.softmax(axis=-1)

    return trace(model, [("x", ("batch", 32), f32)])


def test_trace_serde_compile_serve(tmp_path, rng):
    graph = build_traced_graph()
    verify(graph)

    # serialise + reload
    path = save_graph(graph, tmp_path / "traced.json")
    reloaded = load_graph(path)
    verify(reloaded)

    # compile the reloaded graph
    executable = compile_graph(reloaded)
    assert executable.report.num_kernels >= 2
    assert executable.buffer_plan is not None
    dot = plan_to_dot(executable.plan)
    assert "digraph" in dot

    # serve across shapes, numerics vs interpreter
    engine = ExecutionEngine(executable, A10)
    for batch in (1, 5, 5, 5):
        x = rng.normal(size=(batch, 32)).astype(np.float32)
        (got,), stats = engine.run({"x": x})
        (want,) = evaluate(graph, {"x": x})
        assert np.allclose(got, want, atol=1e-5)
    # one record per signature, hits on the repeats
    plans = engine.plans.stats()
    assert plans["entries"] == 2
    assert (plans["misses"], plans["hits"]) == (2, 2)

    # queueing simulation over the same engine
    inputs = [{"x": rng.normal(size=(2, 32)).astype(np.float32)}
              for _ in range(10)]
    result = simulate_serving(engine, inputs, arrival_rate_qps=100.0)
    assert result.p99_us >= result.p50_us > 0

    # and the table renderer consumes its summary
    table = format_table(list(result.summary()),
                         [list(result.summary().values())])
    assert "p99_us" in table


def test_devices_rank_consistently(rng):
    graph = build_traced_graph()
    executable = compile_graph(graph)

    def times_at(batch):
        x = rng.normal(size=(batch, 32)).astype(np.float32)
        measured = {}
        for device in (A10, T4, CPU_X86):
            __, stats = ExecutionEngine(executable, device).run({"x": x})
            measured[device.name] = stats.device_time_us
        return measured

    # Throughput regime: the GPUs' bandwidth/compute dominate.
    big = times_at(1 << 16)
    assert big["A10"] < big["T4"] < big["CPU-x86"]
    # Launch-bound regime: the CPU's cheap kernel calls win — the real
    # reason tiny-batch inference often stays on CPU.
    tiny = times_at(8)
    assert tiny["CPU-x86"] < tiny["A10"]
