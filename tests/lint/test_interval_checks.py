"""One seeded defect per L6xx code, plus clean-artifact guards.

Each analyzer must (a) fire on a hand-built unsound artifact with a
witness interval and constraint chain in the message, and (b) stay
silent on everything the real pipeline produces (the zoo guard lives in
``test_clean_models.py`` — interval checks run inside ``lint_graph`` /
``lint_executable`` there).
"""

import pytest

from repro.core.symbolic.intervals import derive_intervals
from repro.ir import GraphBuilder, f32
from repro.lint import (LintLevel, check_bucket_padding, check_buffer_plan,
                        check_intervals, check_memory_symbolic,
                        check_plan_coverage, lint_compiled, lint_graph)
from repro.runtime.memory import BufferPlan, Interval as LiveRange
from repro.serving.batching import ShapeBucketer


def seq_graph(bound=None):
    """One symbolic-seqlen graph: param (s, 8) through relu."""
    b = GraphBuilder("seq")
    s = b.sym("s", 16)
    x = b.parameter("x", (s, 8), f32)
    b.outputs(b.relu(x))
    return b.graph


# -- L601: empty interval ----------------------------------------------------

def test_l601_contradictory_assume_ranges():
    graph = seq_graph()
    sink = lint_graph(graph, assume_ranges={"s": (128, 64)})
    assert "L601" in sink.codes()
    diag = sink.by_code("L601")[0]
    assert "s" in diag.message and "assume_range" in diag.message


def test_l601_assume_vs_class_constant():
    from repro.core.symbolic import ConstraintStore
    from repro.ir.shapes import SymDim

    graph = seq_graph()
    store = ConstraintStore()
    store.assert_dims_equal(SymDim("s"), 4)   # the class pins s = 4
    store.assume_range("s", 9, 16)            # ... which excludes this
    imap = derive_intervals(graph, store=store)
    from repro.lint import DiagnosticSink
    sink = DiagnosticSink()
    check_intervals(graph, sink, imap=imap)
    assert "L601" in sink.codes()
    assert "class constant" in sink.by_code("L601")[0].message


def test_no_l601_on_satisfiable_ranges():
    graph = seq_graph()
    sink = lint_graph(graph, assume_ranges={"s": (1, 512)})
    assert "L601" not in sink.codes()


# -- L602: symbolic memory aliasing -----------------------------------------

def lr(node_id, shape, start, end):
    return LiveRange(node_id=node_id, shape=shape, dtype_size=4,
                     start=start, end=end)


def test_l602_overlap_with_positive_symbolic_sizes():
    graph = seq_graph()
    imap = derive_intervals(graph)
    ranges = [lr(1, ("s", 8), 0, 2), lr(2, ("s", 8), 1, 3)]
    plan = BufferPlan(ranges)
    assert ranges[0].slot != ranges[1].slot   # sanity: planner is sound
    ranges[1].slot = ranges[0].slot           # corrupt it
    sink = check_buffer_plan(plan, imap=imap)
    assert {"L301", "L602"} <= sink.codes()
    diag = sink.by_code("L602")[0]
    assert "every shape" in diag.message
    assert "default extent domain" in diag.message  # the witness chain


def test_l602_quantifier_weakens_with_possible_zero():
    graph = seq_graph()
    imap = derive_intervals(graph, assume_ranges={"s": (0, 8)})
    ranges = [lr(1, ("s", 8), 0, 2), lr(2, (4,), 1, 3)]
    plan = BufferPlan(ranges)
    ranges[1].slot = ranges[0].slot
    sink = check_memory_symbolic(plan, imap)
    assert sink.codes() == {"L602"}
    assert "some shape" in sink.by_code("L602")[0].message


def test_no_l602_when_one_occupant_is_provably_empty():
    graph = seq_graph()
    imap = derive_intervals(graph, assume_ranges={"s": (0, 0)})
    ranges = [lr(1, ("s", 8), 0, 2), lr(2, (4,), 1, 3)]
    plan = BufferPlan(ranges)
    ranges[1].slot = ranges[0].slot
    sink = check_buffer_plan(plan, imap=imap)
    assert "L301" in sink.codes()     # structurally still an overlap
    assert "L602" not in sink.codes()  # but no shape aliases live bytes


# -- L603: launch-plan signature coverage ------------------------------------

def two_unknown_reshape():
    """[s, 4] -> [u, v]: two fresh targets — inference-consistent, but
    no resolution plan can solve either from the signature."""
    b = GraphBuilder("underdetermined")
    s = b.sym("s", 8)
    x = b.parameter("x", (s, 4), f32)
    u, v = b.sym("u"), b.sym("v")
    b.outputs(b.reshape(x, (u, v)))
    return b.graph


def test_l603_underdetermined_reshape_targets():
    graph = two_unknown_reshape()
    imap = derive_intervals(graph)
    sink = check_plan_coverage(graph, imap)
    flagged = {d.message.split("symbol ")[1].split(" ")[0]
               for d in sink.by_code("L603")}
    assert flagged == {"u", "v"}


def test_l603_via_full_compile_lint():
    sink = lint_compiled(two_unknown_reshape())
    assert "L603" in sink.codes()


def test_no_l603_for_solvable_reshape():
    b = GraphBuilder("solvable")
    s = b.sym("s", 8)
    x = b.parameter("x", (s, 4), f32)
    u = b.sym("u")
    b.outputs(b.reshape(x, (u, 2)))   # u = 2s: single unknown, derivable
    imap = derive_intervals(b.graph)
    assert not check_plan_coverage(b.graph, imap)


# -- L604: bucket pad ceilings ----------------------------------------------

class TruncatingBucketer(ShapeBucketer):
    """A ceiling capped below the class's upper bound: pads by cutting."""

    def ceiling(self, value: int) -> int:
        return min(super().ceiling(value), 8)


class WastefulBucketer(ShapeBucketer):
    """Pads everything to one giant ceiling regardless of value."""

    def ceiling(self, value: int) -> int:
        return 4096


def test_l604_ceiling_below_member_upper_bound():
    graph = seq_graph()
    imap = derive_intervals(graph, assume_ranges={"s": (1, 12)})
    bucketer = TruncatingBucketer(graph, graph.params)
    sink = check_bucket_padding(bucketer, imap)
    assert sink.codes() == {"L604"}
    diag = sink.by_code("L604")[0]
    assert "truncate" in diag.message and "ceiling(" in diag.message


def test_l604_waste_provably_over_threshold():
    graph = seq_graph()
    imap = derive_intervals(graph, assume_ranges={"s": (1, 8)})
    sink = check_bucket_padding(WastefulBucketer(graph, graph.params), imap)
    assert sink.codes() == {"L604"}
    assert "provably" in sink.by_code("L604")[0].message


def test_stock_bucketer_is_sound_and_frugal():
    graph = seq_graph()
    for bounds in ((1, 12), (1, 8), (3, 4096), (None, None)):
        assume = {"s": bounds} if bounds[0] is not None else None
        imap = derive_intervals(graph, assume_ranges=assume)
        bucketer = ShapeBucketer(graph, graph.params)
        assert not check_bucket_padding(bucketer, imap), \
            f"stock bucketer flagged at bounds {bounds}"


# -- L605: possible zero/negative extents ------------------------------------

def conv_valid_graph():
    b = GraphBuilder("conv")
    h = b.sym("h", 32)
    x = b.parameter("x", (2, h, 16, 3), f32)
    w = b.parameter("w", (5, 3, 3, 8), f32)
    b.outputs(b.conv2d(x, w, strides=(1, 1), padding="valid"))
    return b.graph


def test_l605_conv_valid_possible_nonpositive_output():
    sink = lint_graph(conv_valid_graph())
    assert "L605" in sink.codes()
    diag = sink.by_code("L605")[0]
    assert "conv2d" in diag.message
    # warning severity: fails strict, passes default
    assert sink.ok(LintLevel.DEFAULT)
    assert not sink.ok(LintLevel.STRICT)


def test_l605_suppressed_by_proven_floor():
    sink = lint_graph(conv_valid_graph(), assume_ranges={"h": (8, 64)})
    assert "L605" not in sink.codes()


def test_l605_reshape_division_fallback():
    b = GraphBuilder("split")
    s = b.sym("s", 16)
    x = b.parameter("x", (s, 4), f32)
    b.outputs(b.reshape(x, (b.sym("u"), 8)))
    sink = lint_graph(b.graph)
    assert "L605" in sink.codes()


# -- robustness --------------------------------------------------------------

def test_interval_checks_survive_broken_graphs():
    """A structurally corrupt graph must not crash the interval pass or
    smear L6xx findings over defects other analyzers own."""
    b = GraphBuilder("broken")
    x = b.parameter("x", (4, 8), f32)
    y = b.relu(x)
    b.outputs(b.exp(y))
    b.graph.nodes.reverse()                      # L002 territory
    b.graph.nodes[0].attrs["new_shape"] = None   # garbage attr
    sink = lint_graph(b.graph)
    assert not {"L601", "L603", "L605"} & sink.codes()


def test_check_intervals_returns_reusable_map():
    graph = seq_graph()
    imap = check_intervals(graph)
    assert imap.interval_of(graph.params[0].shape[0]).lo == 1
