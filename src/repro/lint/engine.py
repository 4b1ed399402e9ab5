"""Lint suite orchestration: run the right analyzers over an artifact.

Three granularities:

- :func:`lint_graph` — the graph-level analyzers (structural + symbolic);
  works on any IR graph, serialized or freshly built;
- :func:`lint_executable` — everything: graph-level analyzers over the
  optimized graph, the fusion auditor over the plan, and the memory-plan
  analyzer over the buffer plan;
- :func:`lint_compiled` — compile a source graph through the full pipeline
  (with per-pass blame) and lint the result; the one-call deep lint the
  CLI uses.
"""

from __future__ import annotations

from ..ir.graph import Graph
from .blame import BlameRecorder
from .diagnostics import DiagnosticSink, LintLevel
from .fusion_checks import check_fusion_plan
from .graph_checks import check_graph
from .hostprog_checks import check_host_program
from .interval_checks import (audit_stock_bucketer, check_intervals,
                              check_plan_coverage)
from .memory_checks import check_buffer_plan
from .symbolic_checks import check_symbols

__all__ = ["lint_graph", "lint_executable", "lint_compiled"]


def lint_graph(graph: Graph, sink: DiagnosticSink | None = None, *,
               assume_ranges=None, imap=None) -> DiagnosticSink:
    """Run the graph-level analyzers (structural + symbolic + interval).

    ``assume_ranges`` (symbol name -> ``(lo, hi)``) feeds proven
    deployment bounds into the interval derivation; ``imap`` reuses a
    map an outer caller already derived.
    """
    sink = sink if sink is not None else DiagnosticSink()
    check_graph(graph, sink)
    check_symbols(graph, sink)
    check_intervals(graph, sink, imap=imap, assume_ranges=assume_ranges)
    return sink


def _derive_imap(graph: Graph, assume_ranges=None):
    """Best-effort interval derivation for executable-level checks."""
    from ..core.symbolic.intervals import derive_intervals

    try:
        return derive_intervals(graph, assume_ranges=assume_ranges)
    except Exception:  # noqa: BLE001 - broken graph; skip L6xx deep checks
        return None


def lint_executable(executable, config=None,
                    sink: DiagnosticSink | None = None, *,
                    assume_ranges=None) -> DiagnosticSink:
    """Run the full analyzer suite over a compiled executable.

    ``config`` is the :class:`FusionConfig` the plan was built under
    (defaults to the stock bounds).  The fusion audit re-derives its own
    FULL-level shape analysis, independent of whatever the pipeline used.
    The interval map is derived once and shared by the graph-level L6xx
    pass and the plan-level soundness checks (L602/L603/L604).
    """
    sink = sink if sink is not None else DiagnosticSink()
    imap = _derive_imap(executable.graph, assume_ranges)
    lint_graph(executable.graph, sink, imap=imap)
    check_fusion_plan(executable.plan, config=config, sink=sink)
    check_buffer_plan(getattr(executable, "buffer_plan", None), sink,
                      imap=imap)
    check_host_program(executable.host_program, sink)
    if imap is not None:
        check_plan_coverage(executable.graph, imap, sink)
        audit_stock_bucketer(executable.graph, imap, sink)
    return sink


def lint_compiled(graph: Graph, options=None,
                  sink: DiagnosticSink | None = None, *,
                  assume_ranges=None) -> DiagnosticSink:
    """Compile ``graph`` and lint every stage of the result.

    Equivalent to ``compile_graph(graph, options)`` with
    ``options.lint_level`` forced on, except the diagnostics land in the
    returned sink instead of the compile report.  A pipeline crash is
    itself reported as ``L000`` rather than raised, so the caller always
    gets a sink back.  ``assume_ranges`` are proven deployment bounds
    for the interval analyzers (overrides ``options.assume_ranges``).
    """
    import dataclasses

    from ..core.pipeline import CompileOptions, compile_graph

    sink = sink if sink is not None else DiagnosticSink()
    options = options or CompileOptions()
    if options.lint_level is LintLevel.OFF:
        options = dataclasses.replace(options, lint_level=LintLevel.DEFAULT)
    if assume_ranges is not None:
        options = dataclasses.replace(options, assume_ranges=assume_ranges)
    try:
        executable = compile_graph(graph, options)
    except Exception as exc:  # noqa: BLE001 - surface as a diagnostic
        sink.emit(
            "L000",
            f"pipeline failed to compile graph {graph.name!r}: "
            f"{type(exc).__name__}: {exc}")
        return sink
    if executable.report.lint is not None:
        sink.extend(executable.report.lint)
    else:  # lint_level was OFF despite the force above; lint directly
        lint_executable(executable, config=options.fusion, sink=sink,
                        assume_ranges=options.assume_ranges)
    return sink


def _run_pipeline_lint(working: Graph, recorder: BlameRecorder | None,
                       plan, analysis, config, buffer_plan,
                       host_program=None,
                       assume_ranges=None) -> DiagnosticSink:
    """Post-pipeline lint used by ``DiscCompiler`` (internal).

    Lints the optimized graph, the fusion plan (reusing the pipeline's
    analysis *plus* an independent FULL re-derivation inside the auditor
    when none is supplied) and the buffer plan, then stamps per-pass blame
    onto any finding a pass introduced.
    """
    sink = DiagnosticSink()
    imap = _derive_imap(working, assume_ranges)
    lint_graph(working, sink, imap=imap)
    check_fusion_plan(plan, analysis=None, config=config, sink=sink)
    check_buffer_plan(buffer_plan, sink, imap=imap)
    check_host_program(host_program, sink)
    if imap is not None:
        check_plan_coverage(working, imap, sink)
        audit_stock_bucketer(working, imap, sink)
    if recorder is not None:
        recorder.annotate(sink)
    return sink
