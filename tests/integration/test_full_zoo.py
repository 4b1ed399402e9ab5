"""Full-zoo integration: every model through the whole pipeline."""

import numpy as np
import pytest

from repro.baselines import DiscExecutor, make_baseline
from repro.core import CompileOptions, ConstraintLevel, compile_graph
from repro.device import A10, CPU_X86
from repro.interp import evaluate
from repro.lint import check_buffer_plan
from repro.models import MODEL_BUILDERS, build_model

SMALL = {
    "bert": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "albert": {"layers": 2, "hidden": 64, "heads": 2, "vocab": 128},
    "gpt2": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "t5": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
    "s2t": {"layers": 1, "hidden": 64, "heads": 2, "vocab": 64},
    "crnn": {"channels": 16, "charset": 32},
    "fastspeech2": {"layers": 1, "hidden": 64, "heads": 2},
    "dien": {"items": 256, "embed_dim": 16},
}


@pytest.fixture(scope="module")
def zoo_models():
    return {name: build_model(name, **SMALL[name])
            for name in MODEL_BUILDERS}


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_disc_compiles_and_matches_everywhere(zoo_models, name, rng):
    model = zoo_models[name]
    disc = DiscExecutor(model.graph, A10)
    for point in (0.0, 0.6, 1.0):
        values = {axis: int(lo + (hi - lo) * point)
                  for axis, (lo, hi) in model.axes.items()}
        inputs = model.make_inputs(rng, **values)
        expected = evaluate(model.graph, inputs)
        actual, stats = disc.run(inputs)
        for e, a in zip(expected, actual):
            assert np.allclose(e, a, atol=1e-3, rtol=1e-3), \
                f"{name} at {values}"
        assert stats.kernels_launched > 0


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_disc_beats_eager_everywhere(zoo_models, name, rng):
    model = zoo_models[name]
    inputs = model.sample_inputs(rng)
    __, disc_stats = DiscExecutor(model.graph, A10).run(inputs)
    __, eager_stats = make_baseline("PyTorch", model.graph, A10).run(
        inputs)
    assert disc_stats.steady_time_us < eager_stats.steady_time_us, name
    assert disc_stats.kernels_launched < eager_stats.kernels_launched


@pytest.mark.parametrize("name", ["bert", "crnn", "dien"])
def test_constraint_ablation_compiles_all_levels(zoo_models, name, rng):
    model = zoo_models[name]
    inputs = model.sample_inputs(rng)
    expected = evaluate(model.graph, inputs)
    for level in ConstraintLevel:
        exe = compile_graph(model.graph,
                            CompileOptions(constraint_level=level))
        from repro.runtime import ExecutionEngine
        actual, __ = ExecutionEngine(exe, A10).run(inputs)
        for e, a in zip(expected, actual):
            assert np.allclose(e, a, atol=1e-3, rtol=1e-3), \
                f"{name}/{level}"


def test_cpu_device_serves_the_zoo(zoo_models, rng):
    for name in ("bert", "dien"):
        model = zoo_models[name]
        inputs = model.sample_inputs(rng)
        disc = DiscExecutor(model.graph, CPU_X86)
        actual, stats = disc.run(inputs)
        expected = evaluate(model.graph, inputs)
        for e, a in zip(expected, actual):
            assert np.allclose(e, a, atol=1e-3, rtol=1e-3)
        assert stats.device_time_us > 0


def test_buffer_plans_valid_across_zoo(zoo_models):
    for name, model in zoo_models.items():
        exe = compile_graph(model.graph)
        assert check_buffer_plan(exe.buffer_plan).by_code("L301") == [], \
            name
