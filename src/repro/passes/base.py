"""Pass infrastructure: a uniform interface plus a pass manager.

Passes mutate the graph in place and report simple statistics.  The pass
manager runs a pipeline, optionally verifying after each pass (on by
default in tests, off in benchmarks), and records per-pass timing for the
compilation-overhead experiment (E6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..ir.graph import Graph
from ..ir.verifier import verify
from ..obs.tracer import resolve_tracer

__all__ = ["Pass", "PassResult", "PassManager"]


@dataclass
class PassResult:
    """What one pass did."""

    name: str
    changed: bool
    duration_s: float
    details: dict = field(default_factory=dict)


class Pass:
    """Base class: subclasses implement :meth:`run` returning change info."""

    name = "pass"

    def run(self, graph: Graph) -> dict:
        """Transform ``graph`` in place; return a details dict.

        The dict should include ``"changed": bool``; other keys are free-form
        statistics surfaced in compile reports.
        """
        raise NotImplementedError

    def __call__(self, graph: Graph) -> PassResult:
        start = time.perf_counter()
        details = self.run(graph) or {}
        duration = time.perf_counter() - start
        changed = bool(details.pop("changed", False))
        return PassResult(self.name, changed, duration, details)


class FunctionPass(Pass):
    """Adapter turning a plain function into a Pass."""

    def __init__(self, fn: Callable[[Graph], dict], name: str | None = None):
        self._fn = fn
        self.name = name or fn.__name__

    def run(self, graph: Graph) -> dict:
        return self._fn(graph)


class PassManager:
    """Runs a pipeline of passes over a graph.

    ``after_each`` is an observation hook called as ``after_each(result,
    graph)`` after every pass (before the fail-fast ``verify_each`` gate,
    so an observer such as :class:`repro.lint.BlameRecorder` sees — and can
    attribute — the breakage that ``verify`` would abort on).

    ``tracer`` (a :class:`repro.obs.Tracer`; None means off) gets one
    ``pass:<name>`` span per pass covering the pass body, the
    ``after_each`` hook and the ``verify_each`` gate, attributed with the
    node delta the pass produced.
    """

    def __init__(self, passes: list[Pass], verify_each: bool = False,
                 after_each: Callable[[PassResult, Graph], None] | None
                 = None, tracer=None) -> None:
        self.passes = list(passes)
        self.verify_each = verify_each
        self.after_each = after_each
        self.tracer = resolve_tracer(tracer)
        self.results: list[PassResult] = []

    def run(self, graph: Graph) -> list[PassResult]:
        self.results = []
        tracer = self.tracer
        for pass_ in self.passes:
            with tracer.span(f"pass:{pass_.name}") as span:
                nodes_before = len(graph.nodes)
                result = pass_(graph)
                self.results.append(result)
                if self.after_each is not None:
                    self.after_each(result, graph)
                if self.verify_each:
                    verify(graph)
                span.set(changed=result.changed,
                         nodes_before=nodes_before,
                         nodes_after=len(graph.nodes),
                         node_delta=len(graph.nodes) - nodes_before)
        return self.results
