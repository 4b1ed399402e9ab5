"""Deliberate fault injection, for validating the oracle and minimizer.

A fuzzer that has never caught a planted bug proves nothing.  This module
plants two kinds:

- :func:`corrupt_kernel` perturbs the output of one compiled kernel in an
  :class:`~repro.runtime.executable.Executable` — a stand-in for a codegen
  miscompile.  The differential oracle must flag the engine run.
- :class:`CorruptedInterpreter` mis-executes one op kind (by silently
  forwarding its input) — a *semantic* fault whose observability depends on
  the graph's structure, which is exactly what the minimizer needs: the
  minimal repro is the smallest graph where the bad op still reaches an
  output.
- :class:`CompileFaultInjector` fails *background compiles* in the serving
  runtime on a deterministic schedule — transient failures that must be
  retried away and permanent failures that must quarantine the signature
  to the eager fallback, never surfacing to a response.
"""

from __future__ import annotations

import numpy as np

from ..interp.interpreter import Interpreter
from ..ir.graph import Graph
from ..numerics import concretize_attrs
from ..runtime.executable import Executable
from ..serving.compilepool import (PermanentCompileError,
                                   TransientCompileError)

__all__ = ["CompileFaultInjector", "TunerFaultError",
           "TunerFaultInjector", "corrupt_kernel",
           "CorruptedInterpreter"]


def corrupt_kernel(executable: Executable, kernel_index: int = 0,
                   delta: float = 1.0) -> Executable:
    """Wrap one kernel's callable so its first output is off by ``delta``.

    Mutates (and returns) ``executable``.  Non-float outputs are perturbed
    by casting the delta into their dtype, so even integer kernels corrupt
    visibly.
    """
    kernels = [k for k in executable.kernels if k.members]
    kernel = kernels[kernel_index % len(kernels)]
    original = kernel.fn

    def corrupted(args, dims):
        outputs = list(original(args, dims))
        first = np.asarray(outputs[0])
        outputs[0] = first + np.asarray(delta).astype(first.dtype)
        return tuple(outputs)

    kernel.fn = corrupted
    return executable


class CompileFaultInjector:
    """Deterministic compile-fault schedule for serving-runtime runs.

    Plugs into ``ServingEngine(compile_fault=...)``; called once per
    compile attempt with ``(model, signature, attempt)``:

    - the first ``transient_attempts`` attempts of every signature raise
      :class:`TransientCompileError` (the pool must retry with backoff
      and eventually succeed);
    - if ``permanent`` is True — or the signature is the Nth distinct
      one with ``permanent_every=N`` (1-based) — every attempt raises
      :class:`PermanentCompileError` (the pool must quarantine).

    The schedule depends only on submission order, so it is exactly as
    deterministic as the virtual scheduler driving it.  ``calls`` logs
    every attempt for assertions.
    """

    def __init__(self, transient_attempts: int = 0,
                 permanent: bool = False,
                 permanent_every: int | None = None) -> None:
        self.transient_attempts = transient_attempts
        self.permanent = permanent
        self.permanent_every = permanent_every
        #: distinct (model, signature) keys in first-seen order.
        self.seen: dict = {}
        #: log of (model, signature, attempt) per invocation.
        self.calls: list[tuple] = []

    def __call__(self, model: str, signature: tuple,
                 attempt: int) -> None:
        key = (model, signature)
        if key not in self.seen:
            self.seen[key] = len(self.seen) + 1
        self.calls.append((model, signature, attempt))
        index = self.seen[key]
        if self.permanent or (self.permanent_every is not None
                              and index % self.permanent_every == 0):
            raise PermanentCompileError(
                f"injected permanent fault for {model} sig#{index}")
        if attempt < self.transient_attempts:
            raise TransientCompileError(
                f"injected transient fault for {model} sig#{index} "
                f"attempt {attempt}")


class TunerFaultError(RuntimeError):
    """Injected schedule-search failure (distinct from compile faults)."""


class TunerFaultInjector:
    """Deterministic tuner-fault schedule for serving-runtime runs.

    Plugs into ``ServingEngine(tuning_fault=...)``; called once per
    background compile attempt with ``(model, signature, attempt)``.
    The first ``fault_signatures`` distinct (model, signature) keys
    raise :class:`TunerFaultError` on every attempt.  The serving
    engine must quarantine only the key's *tuning*: the compile still
    completes, a heuristic (untuned) plan is installed, and every
    response stays OK and bit-identical — a tuner defect can cost
    performance, never correctness or availability.
    """

    def __init__(self, fault_signatures: int = 1) -> None:
        self.fault_signatures = fault_signatures
        #: distinct (model, signature) keys in first-seen order.
        self.seen: dict = {}
        #: log of (model, signature, attempt) per invocation.
        self.calls: list[tuple] = []

    def __call__(self, model: str, signature: tuple,
                 attempt: int) -> None:
        key = (model, signature)
        if key not in self.seen:
            self.seen[key] = len(self.seen) + 1
        self.calls.append((model, signature, attempt))
        if self.seen[key] <= self.fault_signatures:
            raise TunerFaultError(
                f"injected tuner fault for {model} "
                f"sig#{self.seen[key]}")


class CorruptedInterpreter(Interpreter):
    """An interpreter that mis-executes every node of one op kind.

    ``bad_op`` nodes forward their first operand unchanged (cast to the
    node's dtype so the graph still type-checks downstream).  Differential
    comparison against the true interpreter then fails exactly when a
    ``bad_op`` node's value reaches an output — the property the
    minimizer's test predicate uses.
    """

    def __init__(self, graph: Graph, bad_op: str) -> None:
        super().__init__(graph)
        self.bad_op = bad_op

    def _apply(self, node, args: list, bindings: dict) -> np.ndarray:
        """A ``bad_op`` node forwards its first operand, unchecked."""
        if node.op != self.bad_op:
            return super()._apply(node, args, bindings)
        concretize_attrs(node, bindings, [a.shape for a in args])
        value = np.asarray(args[0])
        return value.astype(node.dtype.to_numpy(), copy=False)
