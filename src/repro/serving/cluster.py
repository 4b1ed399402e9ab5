"""ClusterSim: deterministic whole-cluster simulation for tests and CI.

The fleet's unit of verification is a *transcript*: the exact sequence
of fleet events (route decisions with queue-depth snapshots, drains,
retirements) merged with every response.  ``ClusterSim`` is the fixture
that produces them — it drives arrival traces through a fresh
:class:`~repro.serving.fleet.FleetEngine` on a fresh seeded
:class:`~repro.serving.scheduler.VirtualScheduler`, so the same spec
(models, options, arrivals, seed) replays to a bit-identical transcript
on any machine, any run, any platform.  The determinism
suite and the CI fleet job are built on that contract:

    sim = ClusterSim(device, {"mlp": graph}, options, seed=7)
    arrivals = [Arrival(at_us=..., tenant="t0", model="mlp", inputs=...)]
    first = sim.run(arrivals)
    again = sim.run(arrivals)
    assert first.transcript == again.transcript      # bit-for-bit

Arrival generation is split from execution on purpose: a trace is data
(plain :class:`Arrival` records), so a failing cluster interleaving can
be minimized, saved, and replayed without re-running its generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.pipeline import CompileOptions
from ..device.profiles import DeviceProfile
from ..ir.graph import Graph
from ..runtime.executable import Executable
from .fleet import FleetEngine, FleetOptions, FleetTicket
from .scheduler import VirtualScheduler

__all__ = ["Arrival", "ClusterRun", "ClusterSim"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: data, not behaviour — save and replay it."""

    at_us: float
    tenant: str
    model: str
    inputs: Mapping[str, np.ndarray]
    deadline_us: float | None = None


@dataclass
class ClusterRun:
    """One completed simulation: the fleet, its tickets, its transcript."""

    fleet: FleetEngine
    scheduler: VirtualScheduler
    tickets: list[FleetTicket]
    #: the exact event transcript (see ``FleetEngine.transcript``).
    transcript: tuple = field(repr=False)


class ClusterSim:
    """Runs arrival traces through a fresh fleet, deterministically.

    Every :meth:`run` builds a brand-new scheduler and fleet from the
    same spec — state never leaks between runs, which is what makes
    transcript equality a meaningful replay check rather than an
    accident of shared caches.

    ``compile_fault_factory`` / ``tuning_fault_factory`` are called
    with the sim *seed* at every run and must return a fresh
    per-replica schedule (``uid -> injector``): injectors are stateful,
    and minting them anew per run is part of the replay contract.
    """

    def __init__(self, device: DeviceProfile,
                 models: Mapping[str, Graph | Executable],
                 options: FleetOptions | None = None,
                 seed: int = 0,
                 compile_fault_factory=None,
                 tuning_fault_factory=None,
                 compile_options: CompileOptions | None = None,
                 tracer=None) -> None:
        self.device = device
        self.models = dict(models)
        self.options = options or FleetOptions()
        self.seed = seed
        self.compile_fault_factory = compile_fault_factory
        self.tuning_fault_factory = tuning_fault_factory
        self.compile_options = compile_options
        self.tracer = tracer

    def build(self) -> tuple[VirtualScheduler, FleetEngine]:
        """A fresh scheduler + fleet with every model registered."""
        scheduler = VirtualScheduler(seed=self.seed)
        factory = self.compile_fault_factory
        fleet = FleetEngine(
            self.device, scheduler, self.options,
            compile_fault_factory=(
                factory(self.seed) if factory is not None else None),
            tuning_fault_factory=(
                self.tuning_fault_factory(self.seed)
                if self.tuning_fault_factory is not None else None),
            tracer=self.tracer)
        for name, model in self.models.items():
            fleet.register_model(name, model, self.compile_options)
        return scheduler, fleet

    def run(self, arrivals: Sequence[Arrival],
            drains: Sequence[tuple[float, str]] = (),
            max_events: int = 1_000_000) -> ClusterRun:
        """Play ``arrivals`` (plus optional timed drains) to completion.

        ``drains`` is a list of ``(at_us, replica_name)`` — the
        scale-down-mid-stream events the fuzz oracle and the replay
        suites exercise.
        """
        scheduler, fleet = self.build()
        for arrival in arrivals:
            scheduler.call_at(
                arrival.at_us,
                lambda a=arrival: fleet.submit(
                    a.model, a.inputs, tenant=a.tenant,
                    deadline_us=a.deadline_us))
        for at_us, name in drains:
            scheduler.call_at(at_us,
                              lambda n=name: fleet.drain(n))
        scheduler.run_until_idle(max_events=max_events)
        return ClusterRun(fleet, scheduler, fleet.tickets,
                          fleet.transcript())
