"""Serving golden: every response of every serving mode, pinned.

One seeded toy-MLP request stream (simultaneous arrivals, repeated and
fresh signatures, a tight deadline, a burst past the queue bound) is
replayed through each serving configuration below.  The golden file
pins, per mode:

- every response's id, status, path, arrival/finish µs and a hash of
  its output bytes;
- the engine counters, ``tuning_totals`` and ``quarantined_signatures()``;
- ``pool.stats`` for the background-compile modes (sync-mode pool
  stats are deliberately not pinned);
- for the fleet, the full transcript, the fleet counters and each
  replica's counters, quarantine and pool stats.

The golden file was generated before compile retry and quarantine were
moved into the compile pool alone; it must keep passing without being
edited.  Regenerate it only from a commit known to be correct, with
``python -m tests.serving.test_serving_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import compile_graph
from repro.device import A10
from repro.fuzz import CompileFaultInjector, TunerFaultInjector
from repro.runtime.launchplan import format_signature
from repro.serving import (BatchingOptions, BatchingServingEngine,
                           FleetEngine, FleetOptions,
                           PermanentCompileError, ServingEngine,
                           ServingOptions, SignatureCompileCost,
                           VirtualScheduler)
from repro.tuning import TuningOptions

from ..conftest import toy_mlp_graph, toy_mlp_inputs

GOLDEN = Path(__file__).parent / "golden" / "serving.json"

COMPILE_COST = SignatureCompileCost(fixed_us=10_000.0, per_kernel_us=100.0)

#: (at_us, (batch, seq), relative deadline_us or None), in submit order.
STREAM = (
    [(0.0, (3, 5), None), (0.0, (4, 7), None), (0.0, (3, 5), None),
     (0.0, (2, 2), None), (300.0, (5, 3), None), (300.0, (3, 5), 60.0)]
    + [(900.0, shape, None)
       for shape in [(4, 7), (2, 2), (3, 5), (5, 3), (4, 7), (2, 2)]]
    + [(40_000.0, (3, 5), None), (40_000.0, (4, 7), None),
       (41_000.0, (6, 4), None), (41_000.0, (5, 3), None)]
    + [(200_000.0, shape, None)
       for shape in [(3, 5), (4, 7), (2, 2), (5, 3), (6, 4), (3, 5)]]
)


def _batched_only_fault(model, signature, attempt):
    """Permanent fault on batched signatures (x gains a leading dim)."""
    if len(signature[0][1]) == 4:
        raise PermanentCompileError("injected batched-plan fault")


def _executable():
    return compile_graph(toy_mlp_graph().graph)


def _inputs():
    rng = np.random.default_rng(2024)
    shapes = sorted({shape for _, shape, _ in STREAM})
    return {shape: toy_mlp_inputs(rng, *shape) for shape in shapes}


def _digest(outputs) -> str | None:
    if outputs is None:
        return None
    h = hashlib.sha256()
    for out in outputs:
        h.update(f"{out.dtype.str}{out.shape}".encode())
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


def _response(response) -> list:
    return [response.request_id, response.status.value, response.path,
            response.arrival_us, response.finish_us,
            _digest(response.outputs)]


def _keys(keys) -> list:
    return sorted(f"{model}:{format_signature(sig)}" for model, sig in keys)


def _plain(value):
    """JSON-ready form: tuples to lists, numpy scalars to Python."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _engine_record(engine, pool: bool) -> dict:
    record = {
        "counters": dict(engine.counters),
        "tuning_totals": dict(engine.tuning_totals),
        "quarantined": _keys(engine.quarantined_signatures()),
        "tuning_quarantined": _keys(engine.tuning_quarantined_signatures()),
    }
    if pool:
        record["pool"] = engine.pool.stats.as_dict()
    return record


def _run_engine(engine, scheduler, inputs) -> list:
    tickets = []
    for at, shape, deadline in STREAM:
        scheduler.call_at(at, lambda s=shape, d=deadline: tickets.append(
            engine.submit("mlp", inputs[s], deadline_us=d)))
    scheduler.run_until_idle()
    return tickets


def _serving_mode(exe, inputs, *, background=True, compile_fault=None,
                  tuning=None, tuning_fault=None) -> dict:
    scheduler = VirtualScheduler(seed=7)
    options = ServingOptions(queue_capacity=8, compile_cost=COMPILE_COST,
                             compile_backoff_us=2_000.0,
                             background_compile=background, tuning=tuning)
    engine = ServingEngine(A10, scheduler, options,
                           compile_fault=compile_fault,
                           tuning_fault=tuning_fault)
    engine.register_model("mlp", exe)
    tickets = _run_engine(engine, scheduler, inputs)
    return dict(_engine_record(engine, pool=background),
                responses=[_response(t.response) for t in tickets])


def _batching_mode(exe, inputs, compile_fault=None) -> dict:
    scheduler = VirtualScheduler(seed=7)
    options = ServingOptions(queue_capacity=8, compile_cost=COMPILE_COST,
                             compile_backoff_us=2_000.0)
    engine = BatchingServingEngine(
        A10, scheduler, options,
        batching=BatchingOptions(max_batch_size=4,
                                 max_queue_delay_us=500.0),
        compile_fault=compile_fault)
    engine.register_model("mlp", exe)
    tickets = _run_engine(engine, scheduler, inputs)
    return dict(_engine_record(engine, pool=True),
                responses=[_response(t.response) for t in tickets])


def _fleet_mode(exe, inputs) -> dict:
    scheduler = VirtualScheduler(seed=7)
    options = FleetOptions(
        replicas=2, policy="round_robin",
        serving=ServingOptions(queue_capacity=8, compile_cost=COMPILE_COST,
                               compile_backoff_us=2_000.0))

    def fault_factory(uid):
        if uid == 0:
            return CompileFaultInjector(transient_attempts=1,
                                        permanent_every=2)
        return None

    fleet = FleetEngine(A10, scheduler, options,
                        compile_fault_factory=fault_factory)
    fleet.register_model("mlp", exe)
    tickets = []
    for at, shape, deadline in STREAM:
        scheduler.call_at(at, lambda s=shape, d=deadline: tickets.append(
            fleet.submit("mlp", inputs[s], deadline_us=d)))
    scheduler.call_at(40_500.0, lambda: fleet.drain("r0"))
    scheduler.run_until_idle()
    replicas = {r.name: _engine_record(r.engine, pool=True)
                for r in fleet.replicas() + fleet.retired}
    return {
        "responses": [[t.seq, t.replica] + _response(t.response)
                      for t in tickets],
        "fleet_counters": dict(fleet.counters),
        "transcript": fleet.transcript(),
        "replicas": replicas,
    }


def characterize() -> dict:
    """Every mode's golden structure, keyed by mode name."""
    exe = _executable()
    inputs = _inputs()
    tuning = TuningOptions(budget_us=50_000.0)
    modes = {
        "sync": _serving_mode(exe, inputs, background=False),
        "sync_faults": _serving_mode(
            exe, inputs, background=False,
            compile_fault=CompileFaultInjector(transient_attempts=1,
                                               permanent_every=2)),
        "async": _serving_mode(exe, inputs),
        "async_faults": _serving_mode(
            exe, inputs,
            compile_fault=CompileFaultInjector(transient_attempts=1,
                                               permanent_every=2)),
        "async_tuning": _serving_mode(exe, inputs, tuning=tuning),
        "async_tuning_fault": _serving_mode(
            exe, inputs, tuning=tuning,
            tuning_fault=TunerFaultInjector(fault_signatures=2)),
        "batching": _batching_mode(exe, inputs),
        "batching_faults": _batching_mode(
            exe, inputs, compile_fault=_batched_only_fault),
        "fleet": _fleet_mode(exe, inputs),
    }
    return json.loads(json.dumps(_plain(modes), sort_keys=True))


@pytest.fixture(scope="module")
def actual():
    return characterize()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


MODES = ["sync", "sync_faults", "async", "async_faults", "async_tuning",
         "async_tuning_fault", "batching", "batching_faults", "fleet"]


@pytest.mark.parametrize("mode", MODES)
def test_mode_matches_the_golden_file(mode, actual, golden):
    expected = golden[mode]
    got = actual[mode]
    assert sorted(got) == sorted(expected), mode
    for field in sorted(expected):
        assert got[field] == expected[field], f"{mode}: {field}"


def test_golden_covers_every_mode(golden):
    assert sorted(golden) == sorted(MODES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(characterize(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
