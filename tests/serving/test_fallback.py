"""The eager fallback: bit-identical outputs, eager-shaped cost."""

import numpy as np
import pytest

from repro.core import compile_graph
from repro.device import A10
from repro.models import MODEL_BUILDERS
from repro.runtime import ExecutionEngine
from repro.serving import EagerFallback

from ..conftest import toy_mlp_inputs
from ..models.test_zoo import small
from .conftest import bit_identical


def test_outputs_bit_identical_to_engine(toy_exe, rng):
    fallback = EagerFallback(toy_exe, A10)
    engine = ExecutionEngine(toy_exe, A10)
    for batch, seq in [(1, 1), (3, 5), (3, 5), (8, 16)]:
        inputs = toy_mlp_inputs(rng, batch, seq)
        expected, _ = engine.run(inputs)
        got, _ = fallback.run(inputs)
        assert bit_identical(expected, got)


def test_outputs_come_from_the_compiled_host_program(toy_exe, rng,
                                                    monkeypatch):
    """One executor: perturbing one compiled kernel changes the
    fallback's outputs exactly as it changes the engine's."""
    inputs = toy_mlp_inputs(rng, 3, 5)
    fallback = EagerFallback(toy_exe, A10)
    before, _ = fallback.run(inputs)
    kernel = toy_exe.host_program.instructions[-1].kernel
    execute = kernel.execute
    monkeypatch.setattr(
        kernel, "execute",
        lambda args, dims: [value * 2 + 1 for value in execute(args, dims)])
    expected, _ = ExecutionEngine(toy_exe, A10).run(inputs)
    got, _ = fallback.run(inputs)
    assert not bit_identical(before, got)
    assert bit_identical(expected, got)


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_zoo_models_bit_identical(name, rng):
    model = small(name)
    exe = compile_graph(model.graph)
    inputs = model.make_inputs(
        rng, **{axis: lo for axis, (lo, _) in model.axes.items()})
    expected, _ = ExecutionEngine(exe, A10).run(inputs)
    got, _ = EagerFallback(exe, A10).run(inputs)
    assert bit_identical(expected, got)


def test_eager_cost_slower_than_compiled(toy_exe, rng):
    """The fallback must not be a free lunch: one dispatch-serialized
    launch per un-fused op dominates the fused engine's cost."""
    inputs = toy_mlp_inputs(rng, 3, 5)
    _, engine_stats = ExecutionEngine(toy_exe, A10).run(inputs)
    _, fallback_stats = EagerFallback(toy_exe, A10).run(inputs)
    assert fallback_stats.kernels_launched > engine_stats.kernels_launched
    assert fallback_stats.total_time_us > engine_stats.total_time_us
    assert fallback_stats.compile_time_us == 0.0


def test_cost_is_deterministic(toy_exe, rng):
    inputs = toy_mlp_inputs(rng, 2, 3)
    fallback = EagerFallback(toy_exe, A10)
    _, first = fallback.run(inputs)
    _, second = fallback.run(inputs)
    assert first == second
