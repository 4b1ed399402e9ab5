"""The execution engine: correctness, shape-genericity, cost accounting."""

import numpy as np
import pytest

from repro.core import CompileOptions, compile_graph
from repro.device import A10, T4
from repro.interp import evaluate
from repro.runtime import EngineOptions, ExecutionEngine
from repro.runtime import engine as engine_module
from repro.runtime.engine import DISPATCH_US_PER_KERNEL

from ..conftest import softmax_graph, toy_mlp_graph, toy_mlp_inputs


@pytest.fixture(scope="module")
def toy_executable():
    b = toy_mlp_graph()
    return b.graph, compile_graph(b.graph)


def test_numerics_match_interpreter(toy_executable, rng):
    graph, exe = toy_executable
    engine = ExecutionEngine(exe, A10)
    inputs = toy_mlp_inputs(rng, 3, 5)
    (expected,) = evaluate(graph, inputs)
    (actual,), stats = engine.run(inputs)
    assert np.allclose(expected, actual, atol=1e-5)
    assert stats.kernels_launched > 0
    assert stats.device_time_us > 0


def test_one_compile_serves_every_shape(toy_executable, rng):
    graph, exe = toy_executable
    engine = ExecutionEngine(exe, A10)
    for batch, seq in [(1, 1), (4, 7), (2, 33), (9, 2)]:
        inputs = toy_mlp_inputs(rng, batch, seq)
        (expected,) = evaluate(graph, inputs)
        (actual,), __ = engine.run(inputs)
        assert actual.shape == (batch, seq, 16)
        assert np.allclose(expected, actual, atol=1e-5)


def test_cost_grows_with_input_size(toy_executable, rng):
    __, exe = toy_executable
    engine = ExecutionEngine(exe, A10)
    __, small = engine.run(toy_mlp_inputs(rng, 1, 2))
    __, large = engine.run(toy_mlp_inputs(rng, 16, 64))
    assert large.bytes_total > small.bytes_total
    assert large.device_time_us > small.device_time_us
    # kernel count is shape-independent: same compiled program
    assert large.kernels_launched == small.kernels_launched


def test_t4_slower_than_a10(toy_executable, rng):
    __, exe = toy_executable
    inputs = toy_mlp_inputs(rng, 8, 32)
    __, on_a10 = ExecutionEngine(exe, A10).run(inputs)
    __, on_t4 = ExecutionEngine(exe, T4).run(inputs)
    assert on_t4.device_time_us > on_a10.device_time_us


def test_fixed_schedule_option(rng):
    b = softmax_graph()
    exe = compile_graph(b.graph)
    x = rng.normal(size=(64, 128)).astype(np.float32)
    results = {}
    for name in ("row_per_warp", "row_per_block", "two_pass"):
        engine = ExecutionEngine(exe, A10,
                                 EngineOptions(fixed_schedule=name))
        (out,), stats = engine.run({"x": x})
        results[name] = stats.device_time_us
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)
    # variants genuinely differ in simulated time
    assert len({round(v, 3) for v in results.values()}) > 1


def test_selector_not_worse_than_worst_fixed(rng):
    b = softmax_graph()
    exe = compile_graph(b.graph)
    x = rng.normal(size=(2048, 256)).astype(np.float32)
    fixed = []
    for name in ("row_per_warp", "row_per_block", "two_pass"):
        engine = ExecutionEngine(exe, A10,
                                 EngineOptions(fixed_schedule=name))
        __, stats = engine.run({"x": x})
        fixed.append(stats.device_time_us)
    __, auto = ExecutionEngine(exe, A10).run({"x": x})
    assert auto[1] if isinstance(auto, tuple) else True
    __, selected = ExecutionEngine(exe, A10).run({"x": x})
    assert selected.device_time_us <= max(fixed) + 1e-9


def test_dispatch_overhead_scales_with_kernels(toy_executable, rng,
                                              monkeypatch):
    __, exe = toy_executable
    inputs = toy_mlp_inputs(rng, 2, 4)
    __, s1 = ExecutionEngine(exe, A10).run(inputs)
    monkeypatch.setattr(engine_module, "DISPATCH_US_PER_KERNEL", 10.0)
    __, s2 = ExecutionEngine(exe, A10).run(inputs)
    assert s1.kernels_launched > 0
    assert s2.host_time_us == pytest.approx(
        s1.host_time_us + (10.0 - DISPATCH_US_PER_KERNEL)
        * s1.kernels_launched)
    assert s2.device_time_us == pytest.approx(s1.device_time_us)


def test_metadata_kernels_free(toy_executable, rng):
    graph, exe = toy_executable
    from repro.core.fusion.kinds import FusionKind
    # depending on fusion, reshapes may be absorbed; when a metadata
    # kernel exists it must not count as a launch.
    engine = ExecutionEngine(exe, A10)
    __, stats = engine.run(toy_mlp_inputs(rng, 2, 3))
    launching = [k for k in exe.kernels
                 if k.kind not in (FusionKind.METADATA, FusionKind.HOST)]
    expected = 0
    dims = {"batch": 2, "seq": 3, "bs": 6}
    for k in launching:
        sched = k.select_schedule(dims)
        expected += 1 + (sched.extra_launches if sched else 0)
    assert stats.kernels_launched == expected
