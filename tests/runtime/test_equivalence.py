"""Host-program engine vs. the legacy interpreter: bit-identical.

The slot-addressed host program and the launch-plan cache are pure
host-side optimisations: numeric outputs and simulated ``RunStats`` must
match :class:`LegacyExecutionEngine` bit for bit — on the first call of a
signature (the recording path) *and* on every warm replay — across the
model zoo, the regression corpus, random fuzz graphs, and every engine
ablation.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import compile_graph
from repro.device import A10, T4
from repro.fuzz import load_case, make_inputs
from repro.fuzz.corpus import iter_corpus
from repro.fuzz.sampler import binding_suite
from repro.models import MODEL_BUILDERS
from repro.runtime import (EngineOptions, ExecutionEngine,
                           LegacyExecutionEngine)

from ..conftest import softmax_graph, toy_mlp_graph, toy_mlp_inputs
from ..models.test_zoo import small
from ..strategies import fuzz_graphs

CORPUS = iter_corpus(Path(__file__).parent.parent
                     / "regressions" / "corpus")


def identical(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind in "fc":
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


def assert_equivalent(exe, device, inputs_list, options=None):
    """Legacy and hosted engines agree exactly, cold and warm."""
    legacy = LegacyExecutionEngine(exe, device, options)
    hosted = ExecutionEngine(exe, device, options)
    for inputs in inputs_list:
        expected_outs, expected = legacy.run(inputs)
        for attempt in ("record", "replay"):
            actual_outs, actual = hosted.run(inputs)
            context = f"{exe.graph.name} [{attempt}]"
            assert len(actual_outs) == len(expected_outs), context
            for exp, act in zip(expected_outs, actual_outs):
                assert identical(exp, act), context
            assert actual == expected, context


def test_toy_mlp_across_shapes_and_devices(rng):
    exe = compile_graph(toy_mlp_graph().graph)
    shapes = [(1, 1), (2, 5), (2, 5), (7, 3), (16, 64)]
    inputs = [toy_mlp_inputs(rng, b, s) for b, s in shapes]
    for device in (A10, T4):
        assert_equivalent(exe, device, inputs)


@pytest.mark.parametrize("options", [
    EngineOptions(fixed_schedule="two_pass"),
    EngineOptions(fixed_schedule="row_per_block"),
    EngineOptions(host_placement_enabled=False),
    EngineOptions(base_efficiency=0.5),
], ids=["two_pass", "row_per_block", "no_host_placement", "retuned"])
def test_ablations_stay_equivalent(options, rng):
    exe = compile_graph(softmax_graph().graph)
    inputs = [{"x": rng.normal(size=(rows, cols)).astype(np.float32)}
              for rows, cols in [(4, 8), (64, 128), (4, 8), (2048, 16)]]
    assert_equivalent(exe, A10, inputs)


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_zoo_model_engines_agree(name, rng):
    model = small(name)
    exe = compile_graph(model.graph)
    inputs = []
    for point in ("low", "high"):
        values = {axis: lo if point == "low" else min(hi, lo * 2 + 4)
                  for axis, (lo, hi) in model.axes.items()}
        inputs.append(model.make_inputs(rng, **values))
    inputs.append(inputs[0])  # warm replay of the first signature
    assert_equivalent(exe, A10, inputs)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_case_engines_agree(path):
    graph, bindings, meta = load_case(path)
    exe = compile_graph(graph)
    seed = int(meta.get("input_seed", 0))
    assert_equivalent(exe, A10, [make_inputs(graph, bindings, seed)])


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=fuzz_graphs(max_nodes=10))
def test_fuzz_graph_engines_agree(graph):
    exe = compile_graph(graph)
    inputs = [make_inputs(graph, bindings, seed=3)
              for bindings in binding_suite(graph, limit=3)]
    assert_equivalent(exe, A10, inputs)
