"""Engine error handling and contract edges."""

import numpy as np
import pytest

from repro.core import compile_graph
from repro.device import A10
from repro.numerics import BindingError
from repro.runtime import EngineOptions, ExecutionEngine

from ..conftest import toy_mlp_graph, toy_mlp_inputs


@pytest.fixture(scope="module")
def engine():
    return ExecutionEngine(compile_graph(toy_mlp_graph().graph), A10)


def test_missing_input_rejected(engine, rng):
    inputs = toy_mlp_inputs(rng, 2, 3)
    del inputs["w"]
    with pytest.raises(BindingError, match="missing input"):
        engine.run(inputs)


def test_wrong_rank_rejected(engine, rng):
    inputs = toy_mlp_inputs(rng, 2, 3)
    inputs["x"] = inputs["x"][0]  # rank 2 instead of 3
    with pytest.raises(BindingError):
        engine.run(inputs)


def test_wrong_static_dim_rejected(engine, rng):
    inputs = toy_mlp_inputs(rng, 2, 3)
    inputs["w"] = np.zeros((32, 17), dtype=np.float32)
    with pytest.raises(BindingError):
        engine.run(inputs)


def test_extra_inputs_ignored(engine, rng):
    inputs = toy_mlp_inputs(rng, 2, 3)
    inputs["unrelated"] = np.zeros(3)
    (out,), __ = engine.run(inputs)
    assert out.shape == (2, 3, 16)


def test_zero_extent_dynamic_dim(engine, rng):
    """batch=0 is a legal binding: empty outputs, no crash."""
    inputs = toy_mlp_inputs(rng, 0, 3)
    (out,), stats = engine.run(inputs)
    assert out.shape == (0, 3, 16)
    assert stats.device_time_us > 0  # launches still happen


def test_unknown_fixed_schedule_rejected(rng):
    exe = compile_graph(toy_mlp_graph().graph)
    engine = ExecutionEngine(exe, A10,
                             EngineOptions(fixed_schedule="warp9"))
    with pytest.raises(KeyError):
        engine.run(toy_mlp_inputs(rng, 2, 3))


def test_float64_inputs_are_cast_or_rejected(engine, rng):
    """The contract: parameters carry the IR dtype; callers must match.

    Passing float64 where f32 is declared is accepted by numpy matmul
    but would silently change semantics — the engine executes with the
    caller's array, so results still cross-check against the interpreter
    which enforces the dtype.  We simply document the current behaviour:
    shapes are validated, dtypes are the caller's responsibility.
    """
    inputs = toy_mlp_inputs(rng, 2, 3)
    (expected,), __ = engine.run(inputs)
    assert expected.dtype == np.float32


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_raising_first_call_installs_no_plan(rng, traced):
    """A miss freezes, executes, then installs: a kernel that raises on
    the first call leaves no plan behind, and a traced call closes the
    raising kernel's span with the error."""
    from repro.obs import CapturingTracer

    tracer = CapturingTracer() if traced else None
    engine = ExecutionEngine(compile_graph(toy_mlp_graph().graph), A10,
                             tracer=tracer)
    inputs = toy_mlp_inputs(rng, 2, 3)
    kernel = engine.host_program.instructions[-1].kernel

    def broken(args, dims):
        raise RuntimeError("kernel fault")

    kernel.execute = broken
    try:
        with pytest.raises(RuntimeError, match="kernel fault"):
            engine.run(inputs)
    finally:
        del kernel.execute
    signature = engine.host_program.signature(inputs)
    assert engine.peek_plan(signature) is None
    if traced:
        span = tracer.spans.one(f"kernel:{kernel.name}")
        assert span.attrs["error"] == "RuntimeError"
        assert all(s.finished for s in tracer.spans.intervals())
    engine.run(inputs)                     # the next call records cleanly
    assert engine.peek_plan(signature) is not None
