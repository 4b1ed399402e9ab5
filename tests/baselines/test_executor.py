"""The simulated-baseline executor framework."""

import numpy as np
import pytest

from repro.baselines import BaselineSpec, SimulatedBaseline, pow2_bucket
from repro.core.fusion.kinds import FusionConfig
from repro.core.symbolic import ConstraintLevel
from repro.device import A10
from repro.interp import evaluate

from ..conftest import toy_mlp_graph, toy_mlp_inputs


def spec(**overrides):
    base = dict(
        name="test",
        lower_composites=True,
        constraint_level=ConstraintLevel.FULL,
        fusion=FusionConfig.loop_and_input(),
        base_efficiency=1.0,
        dispatch_us=1.0,
        eager_dispatch=False,
        compile_grade="jit",
        compile_policy="once",
    )
    base.update(overrides)
    return BaselineSpec(**base)


def test_pow2_bucket():
    assert pow2_bucket(1) == 1
    assert pow2_bucket(2) == 2
    assert pow2_bucket(3) == 4
    assert pow2_bucket(64) == 64
    assert pow2_bucket(65) == 128
    assert pow2_bucket(0) == 1


def test_numerics_match_interpreter(rng):
    b = toy_mlp_graph()
    executor = SimulatedBaseline(b.graph, A10, spec())
    inputs = toy_mlp_inputs(rng, 2, 5)
    (expected,) = evaluate(b.graph, inputs)
    (actual,), __ = executor.run(inputs)
    assert np.allclose(expected, actual, atol=1e-5)


def test_compile_once_policy(rng):
    b = toy_mlp_graph()
    executor = SimulatedBaseline(b.graph, A10, spec(compile_policy="once"))
    __, first = executor.run(toy_mlp_inputs(rng, 2, 3))
    __, second = executor.run(toy_mlp_inputs(rng, 4, 7))
    assert first.compile_time_us > 0 and not first.cache_hit
    assert second.compile_time_us == 0 and second.cache_hit


def test_per_signature_policy(rng):
    b = toy_mlp_graph()
    executor = SimulatedBaseline(b.graph, A10,
                                 spec(compile_policy="per_signature"))
    __, s1 = executor.run(toy_mlp_inputs(rng, 2, 3))
    __, s2 = executor.run(toy_mlp_inputs(rng, 2, 3))   # same shapes
    __, s3 = executor.run(toy_mlp_inputs(rng, 2, 4))   # new shapes
    assert s1.compile_time_us > 0
    assert s2.compile_time_us == 0
    assert s3.compile_time_us > 0


def test_per_bucket_policy_shares_within_bucket(rng):
    b = toy_mlp_graph()
    executor = SimulatedBaseline(b.graph, A10, spec(
        compile_policy="per_bucket", bucket=pow2_bucket))
    __, s1 = executor.run(toy_mlp_inputs(rng, 2, 5))   # buckets (2, 8)
    __, s2 = executor.run(toy_mlp_inputs(rng, 2, 7))   # same buckets
    __, s3 = executor.run(toy_mlp_inputs(rng, 2, 9))   # bucket (2, 16)
    assert s1.compile_time_us > 0
    assert s2.compile_time_us == 0
    assert s3.compile_time_us > 0


def test_padding_charged_not_executed(rng):
    b = toy_mlp_graph()
    padded = SimulatedBaseline(b.graph, A10, spec(
        compile_policy="per_bucket", bucket=pow2_bucket))
    exact = SimulatedBaseline(b.graph, A10, spec())
    inputs = toy_mlp_inputs(rng, 3, 5)  # pads to (4, 8)
    (out_p,), stats_p = padded.run(inputs)
    (out_e,), stats_e = exact.run(inputs)
    assert out_p.shape == (3, 5, 16)  # real shape computed
    assert np.allclose(out_p, out_e, atol=1e-6)
    assert stats_p.padding_waste_bytes > 0
    assert stats_p.bytes_total > stats_e.bytes_total
    assert stats_p.device_time_us > stats_e.device_time_us


def test_no_padding_on_exact_bucket(rng):
    b = toy_mlp_graph()
    padded = SimulatedBaseline(b.graph, A10, spec(
        compile_policy="per_bucket", bucket=pow2_bucket))
    __, stats = padded.run(toy_mlp_inputs(rng, 4, 8))
    assert stats.padding_waste_bytes == 0


def test_eager_dispatch_serialises(rng):
    b = toy_mlp_graph()
    slow_dispatch = SimulatedBaseline(b.graph, A10, spec(
        eager_dispatch=True, dispatch_us=1000.0, compile_policy="none",
        compile_grade=None))
    fast_dispatch = SimulatedBaseline(b.graph, A10, spec(
        eager_dispatch=True, dispatch_us=0.1, compile_policy="none",
        compile_grade=None))
    inputs = toy_mlp_inputs(rng, 2, 3)
    __, slow = slow_dispatch.run(inputs)
    __, fast = fast_dispatch.run(inputs)
    assert slow.device_time_us >= 1000.0 * slow.kernels_launched
    assert fast.device_time_us < slow.device_time_us


def test_guard_overhead_charged_per_call(rng):
    b = toy_mlp_graph()
    executor = SimulatedBaseline(b.graph, A10, spec(
        guard_overhead_us=123.0, compile_policy="none",
        compile_grade=None))
    __, stats = executor.run(toy_mlp_inputs(rng, 2, 3))
    assert stats.host_time_us >= 123.0


def test_fusion_config_controls_kernel_count(rng):
    b = toy_mlp_graph()
    none = SimulatedBaseline(b.graph, A10, spec(
        fusion=FusionConfig.none()))
    fused = SimulatedBaseline(b.graph, A10, spec())
    inputs = toy_mlp_inputs(rng, 2, 3)
    __, s_none = none.run(inputs)
    __, s_fused = fused.run(inputs)
    assert s_none.kernels_launched > s_fused.kernels_launched


@pytest.mark.parametrize("overrides", [
    {},
    {"compile_policy": "per_bucket", "bucket": pow2_bucket},
    {"eager_dispatch": True, "compile_policy": "none",
     "compile_grade": None},
])
def test_charge_runs_no_kernel_and_matches_run(rng, monkeypatch, overrides):
    b = toy_mlp_graph()
    charged = SimulatedBaseline(b.graph, A10, spec(**overrides))
    ran = SimulatedBaseline(b.graph, A10, spec(**overrides))

    def refuse(args, dims):
        raise AssertionError("charge executed a kernel")

    for kernel in charged.kernels:
        monkeypatch.setattr(kernel, "execute", refuse)
    for batch, seq in [(3, 5), (3, 5), (4, 8)]:
        inputs = toy_mlp_inputs(rng, batch, seq)
        __, expected = ran.run(inputs)
        dims = charged.program.bind(inputs)
        assert charged.charge(inputs, dims) == expected


def test_unknown_policy_rejected(rng):
    b = toy_mlp_graph()
    executor = SimulatedBaseline(b.graph, A10, spec(
        compile_policy="sometimes"))
    with pytest.raises(ValueError):
        executor.run(toy_mlp_inputs(rng, 2, 3))


@pytest.fixture
def build_counts(monkeypatch):
    """Counts the baseline's kernel-code and host-program builds."""
    from repro.baselines import executor as executor_module
    counts = {"emitted": 0, "lowered": 0}
    emit, lower = executor_module.emit_kernel, executor_module.lower_program

    def counting_emit(kernel):
        counts["emitted"] += 1
        return emit(kernel)

    def counting_lower(*args):
        counts["lowered"] += 1
        return lower(*args)

    monkeypatch.setattr(executor_module, "emit_kernel", counting_emit)
    monkeypatch.setattr(executor_module, "lower_program", counting_lower)
    return counts


def test_eager_fallback_is_charge_only_until_it_runs(rng, build_counts):
    from repro.baselines.systems import PYTORCH
    from repro.core import compile_graph
    from repro.serving.fallback import EagerFallback

    b = toy_mlp_graph()
    exe = compile_graph(b.graph)
    fallback = EagerFallback(exe, A10)
    eager = fallback.eager
    assert build_counts == {"emitted": 0, "lowered": 0}
    assert all(k.fn is None and k.source == "" for k in eager.kernels)

    # The charge reads recipes only, and equals a fully built baseline's.
    built = SimulatedBaseline(exe.graph, A10, PYTORCH)
    for batch, seq in [(2, 3), (5, 9)]:
        inputs = toy_mlp_inputs(rng, batch, seq)
        __, expected = built.run(inputs)
        outputs, stats = fallback.run(inputs)
        assert stats == expected
    assert all(k.fn is None for k in eager.kernels)
    built_counts = dict(build_counts)

    # A first run builds every kernel and the host program, once.
    inputs = toy_mlp_inputs(rng, 4, 7)
    (actual,), __ = eager.run(inputs)
    eager.run(inputs)
    assert build_counts["emitted"] - built_counts["emitted"] == \
        len(eager.kernels)
    assert build_counts["lowered"] - built_counts["lowered"] == 1
    (expected,) = evaluate(exe.graph, inputs)
    assert np.allclose(expected, actual, atol=1e-5)
