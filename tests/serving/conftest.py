"""Shared fixtures for the serving-runtime suite.

Everything here runs under the virtual clock — no test in this directory
may sleep or read wall time.  The compiled toy model is session-scoped
because compilation cost dominates these tests and the executable is
immutable.
"""

from __future__ import annotations

import pytest

from repro.core import compile_graph
from repro.device import A10
from repro.serving import (BatchingServingEngine, FleetEngine,
                           FleetOptions, ServingEngine, ServingOptions,
                           SignatureCompileCost, VirtualScheduler)

from ..conftest import toy_mlp_graph

#: small compile cost so tests exercise ordering, not magnitude.
FAST_COMPILE = SignatureCompileCost(fixed_us=10_000.0, per_kernel_us=100.0)


@pytest.fixture(scope="session")
def toy_exe():
    return compile_graph(toy_mlp_graph().graph)


@pytest.fixture
def device():
    return A10


def make_serving(exe, seed=0, compile_fault=None, **option_overrides):
    """A (scheduler, engine) pair with the toy model registered."""
    option_overrides.setdefault("compile_cost", FAST_COMPILE)
    options = ServingOptions(**option_overrides)
    scheduler = VirtualScheduler(seed=seed)
    engine = ServingEngine(A10, scheduler, options,
                           compile_fault=compile_fault)
    engine.register_model("mlp", exe)
    return scheduler, engine


def make_batching(exe, seed=0, compile_fault=None, batching=None,
                  tracer=None, **option_overrides):
    """A (scheduler, engine) pair with dynamic batching in front."""
    option_overrides.setdefault("compile_cost", FAST_COMPILE)
    options = ServingOptions(**option_overrides)
    scheduler = VirtualScheduler(seed=seed)
    engine = BatchingServingEngine(A10, scheduler, options,
                                   batching=batching,
                                   compile_fault=compile_fault,
                                   tracer=tracer)
    engine.register_model("mlp", exe)
    return scheduler, engine


def make_fleet(exe, seed=0, compile_fault_factory=None, tracer=None,
               fleet=None, tuning_fault_factory=None, **serving_overrides):
    """A (scheduler, fleet) pair with the toy model registered.

    ``fleet`` holds :class:`FleetOptions` field overrides (replicas,
    policy, batching, memory budget, ...); the remaining keyword arguments
    configure the per-replica :class:`ServingOptions`.
    """
    serving_overrides.setdefault("compile_cost", FAST_COMPILE)
    options = FleetOptions(serving=ServingOptions(**serving_overrides),
                           **(fleet or {}))
    scheduler = VirtualScheduler(seed=seed)
    engine = FleetEngine(A10, scheduler, options,
                         compile_fault_factory=compile_fault_factory,
                         tuning_fault_factory=tuning_fault_factory,
                         tracer=tracer)
    engine.register_model("mlp", exe)
    return scheduler, engine


def bit_identical(expected, got) -> bool:
    if len(expected) != len(got):
        return False
    for e, g in zip(expected, got):
        if e.shape != g.shape or e.dtype != g.dtype or \
                e.tobytes() != g.tobytes():
            return False
    return True
