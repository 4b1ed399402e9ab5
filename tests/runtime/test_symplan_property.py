"""Property suite for the symbolic (class-wide) memory planner.

Three claims, each over random graphs and the model zoo:

- **no aliasing of live data**: the class plan's own proof
  (``verify_sound``) and the independent L602 analyzer both come back
  clean on every pipeline artifact, and agree with each other;
- **peak soundness**: for every sampled in-class binding,
  ``peak_at(dims)`` is at least the peak the ground-truth oracle
  (``measure_peak_bytes``) actually observes, equals what the concrete
  plan charges, and lies inside the class peak interval — with
  ``assume_ranges`` the upper end is finite, so one number provably
  covers the whole class;
- **bit-identity**: the symbolic layer never changes what runs — the
  hosted engine matches the legacy per-shape engine on the same
  executable, outputs and ``RunStats`` both.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import compile_graph
from repro.core.pipeline import CompileOptions
from repro.device import A10
from repro.fuzz import make_inputs
from repro.lint.interval_checks import check_memory_symbolic
from repro.numerics.resolve import bind_inputs
from repro.runtime import (ExecutionEngine, LegacyExecutionEngine,
                           measure_peak_bytes)

from ..models.test_zoo import small
from ..strategies import random_graph

RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])

ZOO_SAMPLE = ("bert", "crnn", "dien")


def resolved_dims(executable, inputs) -> dict:
    """The full dim environment the engine would run under."""
    program = executable.host_program
    dims = bind_inputs(program.params, inputs)
    program.resolution.run(dims)
    return dims


def identical(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# -- claim 1: reuse never aliases two live values ----------------------------

@given(st.data())
@RELAXED
def test_slot_reuse_proven_sound_on_random_graphs(data):
    graph = random_graph(data.draw)
    executable = compile_graph(graph, CompileOptions(verify_each_pass=True))
    symbolic = executable.symbolic_plan
    assert symbolic is not None
    violations = symbolic.verify_sound()
    assert violations == [], violations
    analyzer = check_memory_symbolic(executable.buffer_plan,
                                     symbolic.imap).by_code("L602")
    # The plan's own proof and the L602 analyzer are two independent
    # implementations of one judgement: both clean, never disagreeing.
    assert analyzer == [], [str(d) for d in analyzer]


@pytest.mark.parametrize("name", ZOO_SAMPLE)
def test_slot_reuse_proven_sound_on_zoo(name):
    model = small(name)
    executable = compile_graph(model.graph, CompileOptions(
        assume_ranges=model.axes))
    symbolic = executable.symbolic_plan
    assert symbolic.verify_sound() == []
    assert check_memory_symbolic(executable.buffer_plan,
                                 symbolic.imap).by_code("L602") == []


# -- claim 2: the symbolic peak bounds every in-class binding ----------------

@given(st.data())
@RELAXED
def test_peak_bounds_measured_peak_on_random_graphs(data):
    graph = random_graph(data.draw)
    binding = {"s": data.draw(st.integers(min_value=1, max_value=9))}
    inputs = make_inputs(graph, binding, seed=0)
    executable = compile_graph(graph)
    symbolic = executable.symbolic_plan
    dims = resolved_dims(executable, inputs)

    peak = symbolic.peak_at(dims)
    # Frozen slot expressions price the binding exactly like the
    # concrete plan the engines charge.
    assert peak == executable.buffer_plan.evaluate(dims)["peak_bytes"]
    # The class interval contains every in-class binding's peak.
    interval = symbolic.peak_fact.interval
    assert interval.lo is None or interval.lo <= peak
    assert interval.hi is None or peak <= interval.hi
    # Ground truth: the plan never under-provisions what actually runs.
    measured = measure_peak_bytes(executable, inputs)
    assert measured["measured_peak_bytes"] <= peak


@pytest.mark.parametrize("name", ZOO_SAMPLE)
def test_proven_peak_covers_sampled_class_members(name):
    """With ``assume_ranges`` the class peak is one finite number; every
    sampled shape in the class must fit under it — that single bound is
    what :class:`repro.runtime.MemoryBudget` admits batches against."""
    model = small(name)
    executable = compile_graph(model.graph, CompileOptions(
        assume_ranges=model.axes))
    symbolic = executable.symbolic_plan
    assert symbolic.proven, "zoo axes must make the peak finitely provable"
    hi = symbolic.peak_hi_bytes()
    rng = np.random.default_rng(0)
    for draw in range(4):
        values = {axis: int(rng.integers(lo, hi_ax + 1))
                  for axis, (lo, hi_ax) in model.axes.items()}
        inputs = model.sample_inputs(rng, values)
        dims = resolved_dims(executable, inputs)
        peak = symbolic.peak_at(dims)
        assert peak <= hi
        assert peak == executable.buffer_plan.evaluate(dims)["peak_bytes"]
        measured = measure_peak_bytes(executable, inputs)
        assert measured["measured_peak_bytes"] <= peak


# -- claim 3: bit-identity with the legacy per-shape planner -----------------

@given(st.data())
@RELAXED
def test_symbolic_layer_is_invisible_to_execution(data):
    """Outputs and RunStats of the hosted engine match the legacy
    per-shape engine bit for bit on the same executable — one plan per
    class changes what is *proven*, never what runs."""
    graph = random_graph(data.draw)
    binding = {"s": data.draw(st.integers(min_value=1, max_value=9))}
    inputs = make_inputs(graph, binding, seed=1)

    executable = compile_graph(graph)
    assert executable.symbolic_plan is not None

    legacy_out, legacy_stats = LegacyExecutionEngine(executable, A10).run(
        inputs)
    hosted = ExecutionEngine(executable, A10)
    for _attempt in ("record", "replay"):
        outputs, stats = hosted.run(inputs)
        assert len(outputs) == len(legacy_out)
        for expected, got in zip(legacy_out, outputs):
            assert identical(expected, got)
        assert stats == legacy_stats


def test_launch_plans_share_one_class_snapshot():
    """Every signature's frozen plan carries the *same* class-wide
    memory snapshot — replay never re-derives the class story."""
    model = small("bert")
    executable = compile_graph(model.graph, CompileOptions(
        assume_ranges=model.axes))
    engine = ExecutionEngine(executable, A10)
    rng = np.random.default_rng(7)
    snapshots = []
    for draw in range(3):
        values = {axis: int(rng.integers(lo, hi + 1))
                  for axis, (lo, hi) in model.axes.items()}
        inputs = model.sample_inputs(rng, values)
        engine.run(inputs)
        signature = engine.host_program.signature(inputs)
        plan = engine.peek_plan(signature)
        assert plan is not None
        snapshots.append(plan.memory_class)
    reference = executable.symbolic_plan.snapshot()
    assert all(snap == reference for snap in snapshots)
