"""Perf smoke: instrumentation off-path cost is bounded below 2%.

The claim the whole design hangs on: with the default ``NullTracer``, an
instrumented ``ExecutionEngine.run`` pays one ``tracer.enabled``
attribute lookup and nothing else.  This gate measures it against a
hand-written replica of the *pre-instrumentation* warm replay path —
same signature computation, same cache access, same ``_replay`` — on the
E15 host-bound bert config, interleaved best-of so frequency and cache
drift hit both runners alike (the E15 methodology).

Wall-clock measurement is inherently noisy; the gate takes the best of
several interleaved repeats and allows up to three measurement attempts
before declaring a real regression.
"""

import time

import numpy as np

from repro.bench.experiments import E15_MODELS, _shape_points
from repro.core.pipeline import compile_graph
from repro.device.profiles import device_named
from repro.models import build_model
from repro.runtime import ExecutionEngine

#: hard bound from the observability contract: off-path overhead < 2%.
MAX_OVERHEAD = 0.02
REPEATS = 9
ATTEMPTS = 3


def replica_run(engine, inputs):
    """The warm path exactly as it read before instrumentation.

    ``ExecutionEngine.run`` today is this plus the one
    ``self.tracer.enabled`` branch under test.
    """
    program = engine.host_program
    signature = program.signature(inputs)
    plan = engine.plans.get(signature)
    return engine._replay(plan, inputs)


def measure_once(engine, inputs_list) -> float:
    """Relative overhead of engine.run over the replica, best-of."""
    def instrumented() -> None:
        for inputs in inputs_list:
            engine.run(inputs)

    def replica() -> None:
        for inputs in inputs_list:
            replica_run(engine, inputs)

    for run in (replica, instrumented):        # warmup both
        run()
    best = {"replica": float("inf"), "instrumented": float("inf")}
    for _ in range(REPEATS):
        for name, run in (("replica", replica),
                          ("instrumented", instrumented)):
            start = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - start)
    return best["instrumented"] / best["replica"] - 1.0


def test_null_tracer_overhead_is_below_two_percent():
    device = device_named("A10")
    model = build_model("bert", **E15_MODELS["bert"])
    executable = compile_graph(model.graph)
    rng = np.random.default_rng(0)
    inputs_list = [model.make_inputs(rng, **values)
                   for values in _shape_points(model, 3)]
    engine = ExecutionEngine(executable, device)    # default: NullTracer
    assert engine.tracer.enabled is False
    for inputs in inputs_list:                      # warm every plan
        engine.run(inputs)

    overheads = []
    for _ in range(ATTEMPTS):
        overhead = measure_once(engine, inputs_list)
        overheads.append(overhead)
        if overhead < MAX_OVERHEAD:
            break
    assert min(overheads) < MAX_OVERHEAD, (
        f"NullTracer off-path overhead measured at "
        f"{[f'{o:.2%}' for o in overheads]} across {ATTEMPTS} attempts "
        f"(gate {MAX_OVERHEAD:.0%})")


def test_replica_and_instrumented_paths_agree_bitwise():
    """The replica is only a fair baseline if it is the same code path:
    same outputs, same stats as the instrumented warm run."""
    device = device_named("A10")
    model = build_model("bert", **E15_MODELS["bert"])
    executable = compile_graph(model.graph)
    rng = np.random.default_rng(0)
    inputs = model.sample_inputs(rng)
    engine = ExecutionEngine(executable, device)
    engine.run(inputs)                              # record the plan
    expected_outs, expected = engine.run(inputs)
    actual_outs, actual = replica_run(engine, inputs)
    assert actual == expected
    for e, a in zip(expected_outs, actual_outs):
        assert e.tobytes() == a.tobytes()
