"""``repro.lint`` — static analysis over graphs, plans, and pipelines.

The verifier (``repro.ir.verifier``) is a fail-fast gate: it raises on the
first broken structural invariant.  This package is the tooling layer on
top of the same (and many more) invariants:

- :mod:`diagnostics` — coded findings (``L001``...), severities, the
  collect-all :class:`DiagnosticSink`, and the code registry;
- :mod:`graph_checks` — structural well-formedness, re-derived from
  scratch (the verifier now delegates here);
- :mod:`symbolic_checks` — constraint-table consistency: contradictions,
  dangling symbols, lost likely-value hints;
- :mod:`fusion_checks` — re-validates every planned fusion group against
  the kLoop/kInput/kStitch legality rules, independent of the planner;
- :mod:`memory_checks` — live-range overlap/alias detection over buffer
  plans;
- :mod:`interval_checks` — whole-signature-class soundness (L6xx):
  interval-domain proofs that frozen launch/memory/batch plans hold for
  *every* shape in the class, not just the recorded ones;
- :mod:`blame` — per-pass attribution: runs the linter after each pass
  and names the pass that introduced each new finding;
- :mod:`engine` / ``__main__`` — suite orchestration and the
  ``python -m repro.lint`` CLI.

The fuzzer uses the suite as a second oracle (``python -m repro.fuzz
--lint``) and the pipeline exposes it as ``CompileOptions.lint_level``.
"""

from .blame import BlameRecord, BlameRecorder
from .diagnostics import (CODE_REGISTRY, CodeInfo, Diagnostic,
                          DiagnosticSink, LintLevel, Severity, code_info)
from .engine import lint_compiled, lint_executable, lint_graph
from .fusion_checks import check_fusion_plan, check_plan_structure
from .graph_checks import check_graph
from .hostprog_checks import check_host_program
from .interval_checks import (check_bucket_padding, check_intervals,
                              check_memory_symbolic, check_plan_coverage)
from .memory_checks import check_buffer_plan
from .obs_checks import check_pass_spans
from .symbolic_checks import check_symbols

__all__ = [
    "CODE_REGISTRY",
    "CodeInfo",
    "code_info",
    "Diagnostic",
    "DiagnosticSink",
    "LintLevel",
    "Severity",
    "BlameRecord",
    "BlameRecorder",
    "check_graph",
    "check_symbols",
    "check_fusion_plan",
    "check_plan_structure",
    "check_buffer_plan",
    "check_host_program",
    "check_pass_spans",
    "check_intervals",
    "check_memory_symbolic",
    "check_plan_coverage",
    "check_bucket_padding",
    "lint_graph",
    "lint_executable",
    "lint_compiled",
]
