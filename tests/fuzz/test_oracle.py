"""Differential oracle: comparisons, invariants, fault detection."""

import numpy as np
import pytest

from repro.baselines import baseline_names
from repro.core import CompileOptions, compile_graph
from repro.device import A10
from repro.fuzz import (CorruptedInterpreter, DifferentialOracle,
                        corrupt_kernel, generate_graph)
from repro.fuzz.oracle import (DISC_EXECUTOR, bit_mismatches,
                               compare_arrays, make_inputs)
from repro.fuzz.sampler import binding_suite
from repro.interp import evaluate
from repro.ir import GraphBuilder, f32
from repro.runtime import ExecutionEngine

# -- compare_arrays ----------------------------------------------------------


def test_compare_accepts_tolerable_noise():
    a = np.linspace(-1, 1, 64, dtype=np.float32)
    b = a + 1e-7
    assert compare_arrays(a, b, "f32") is None


def test_compare_rejects_large_error():
    a = np.zeros(8, np.float32)
    b = a + 0.5
    assert compare_arrays(a, b, "f32") is not None


def test_compare_rejects_shape_and_dtype_drift():
    a = np.zeros((2, 3), np.float32)
    assert "shape" in compare_arrays(a, np.zeros((3, 2), np.float32),
                                     "f32")
    assert "dtype" in compare_arrays(a, np.zeros((2, 3), np.float64),
                                     "f32")


def test_compare_is_exact_for_ints_and_bools():
    a = np.arange(6, dtype=np.int32)
    assert compare_arrays(a, a.copy(), "i32") is None
    b = a.copy()
    b[3] += 1
    assert compare_arrays(a, b, "i32") is not None


def test_compare_matches_nonfinite_patterns():
    a = np.array([1.0, np.inf, np.nan], np.float32)
    assert compare_arrays(a, a.copy(), "f32") is None
    b = np.array([1.0, np.inf, 2.0], np.float32)
    assert compare_arrays(a, b, "f32") is not None
    c = np.array([1.0, -np.inf, np.nan], np.float32)
    assert compare_arrays(a, c, "f32") is not None


# -- bit_mismatches ----------------------------------------------------------


def test_bit_mismatches_accepts_identical_outputs():
    ref = [np.arange(4, dtype=np.float32), np.ones((2, 2), np.int64)]
    got = [a.copy() for a in ref]
    assert bit_mismatches(ref, got, "X", "differs") == []


def test_bit_mismatches_reports_a_short_output_list():
    """A path returning fewer outputs must fail, not pass on the prefix
    a ``zip`` would compare."""
    ref = [np.arange(4, dtype=np.float32), np.ones(3, np.float32)]
    failures = bit_mismatches(ref, ref[:1], "X", "path 'fast' differs")
    assert len(failures) == 1
    assert failures[0].kind == "mismatch"
    assert failures[0].executor == "X"
    assert "1 outputs, expected 2" in failures[0].detail
    assert bit_mismatches(ref, [], "X", "differs")


def test_bit_mismatches_flags_shape_dtype_and_bytes():
    ref = [np.zeros((2, 3), np.float32)] * 3
    got = [np.zeros((3, 2), np.float32), np.zeros((2, 3), np.float64),
           np.full((2, 3), -0.0, np.float32)]
    failures = bit_mismatches(ref, got, "X", "differs")
    assert [f.output_index for f in failures] == [0, 1, 2]


# -- clean cases -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_oracle_passes_clean_generated_cases(seed):
    oracle = DifferentialOracle()
    graph = generate_graph(seed)
    bindings = binding_suite(graph, limit=1, seed=seed)[0]
    result = oracle.check_case(graph, bindings, input_seed=seed)
    assert result.ok, [str(f) for f in result.failures]
    assert DISC_EXECUTOR in result.executors_checked
    assert set(result.executors_checked) == \
        {DISC_EXECUTOR, *baseline_names()}


def test_oracle_covers_all_seven_baselines():
    assert len(baseline_names()) == 7
    oracle = DifferentialOracle()
    assert set(oracle.baselines) == set(baseline_names())


# -- fault detection ---------------------------------------------------------


def _simple_graph():
    b = GraphBuilder("g")
    s = b.sym("s", hint=8)
    x = b.parameter("x", (s, 4), f32)
    b.outputs(b.add(b.tanh(x), b.abs(x)))
    return b.graph


def test_oracle_flags_corrupted_kernel():
    graph = _simple_graph()
    inputs = make_inputs(graph, {"s": 5}, 0)
    reference = [np.asarray(v) for v in evaluate(graph, inputs)]
    executable = corrupt_kernel(compile_graph(graph, CompileOptions()),
                                kernel_index=0, delta=1.0)
    outputs, _ = ExecutionEngine(executable, A10).run(inputs)
    diffs = [compare_arrays(ref, np.asarray(out), node.dtype.name)
             for ref, out, node in zip(reference, outputs, graph.outputs)]
    assert any(d is not None for d in diffs)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_flags_corrupted_kernel_on_generated_graphs(seed):
    graph = generate_graph(seed)
    bindings = binding_suite(graph, limit=1, seed=seed)[0]
    inputs = make_inputs(graph, bindings, seed)
    reference = [np.asarray(v) for v in evaluate(graph, inputs)]
    executable = compile_graph(graph, CompileOptions())
    corrupt_kernel(executable, kernel_index=0, delta=3.0)
    try:
        outputs, _ = ExecutionEngine(executable, A10).run(inputs)
    except Exception:
        return  # corruption broke a shape contract: also detected
    diffs = [compare_arrays(ref, np.asarray(out), node.dtype.name)
             for ref, out, node in zip(reference, outputs, graph.outputs)]
    assert any(d is not None for d in diffs)


def test_corrupted_interpreter_diverges_from_reference():
    graph = _simple_graph()
    inputs = make_inputs(graph, {"s": 3}, 1)
    reference = [np.asarray(v) for v in evaluate(graph, inputs)]
    corrupted = CorruptedInterpreter(graph, "tanh").run(inputs)
    diffs = [compare_arrays(ref, np.asarray(out), node.dtype.name)
             for ref, out, node in zip(reference, corrupted,
                                       graph.outputs)]
    assert any(d is not None for d in diffs)


def test_invariant_checks_run_when_enabled():
    oracle = DifferentialOracle()
    graph = _simple_graph()
    result = oracle.check_case(graph, {"s": 4}, input_seed=0)
    assert result.ok


def test_interpreter_exception_is_reported_not_raised():
    b = GraphBuilder("g")
    s = b.sym("s")
    x = b.parameter("x", (s,), f32)
    b.outputs(b.exp(x))
    graph = b.graph
    oracle = DifferentialOracle()
    # missing binding for another param symbol cannot happen here; instead
    # give an impossible static binding via a wrong-shaped input by binding
    # nothing (make_inputs needs 's') — simulate by empty bindings.
    result = oracle.check_case(graph, {}, input_seed=0)
    # either the input synthesis failed before the oracle (KeyError in
    # substitute) or the oracle recorded an interpreter failure; accept the
    # recorded-failure contract only:
    assert not result.ok
