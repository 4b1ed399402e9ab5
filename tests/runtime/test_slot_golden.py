"""Slot golden: every buffer-plan slot decision, pinned.

For each of the 8 benchmark zoo models (``BENCH_MODELS``), compiled once
with default options and once with ``assume_ranges=model.axes``, the
golden file pins:

- every interval's ``(node_id, start, end, slot)`` and ``num_slots``;
- ``symbolic_plan.snapshot()``;
- ``buffer_plan.evaluate(dims)`` and ``replan_peak_for_shape`` at two
  seeded in-class shapes.

The golden file was generated before the three slot-assignment loops
(the hinted greedy, the per-shape re-planner and the class repack seed)
were folded into one best-fit primitive; it must keep passing without
being edited.  Regenerate it only from a commit known to be correct,
with ``python -m tests.runtime.test_slot_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.experiments import BENCH_MODELS
from repro.core import CompileOptions, compile_graph
from repro.models import build_model
from repro.runtime import replan_peak_for_shape

GOLDEN = Path(__file__).parent / "golden" / "slots.json"

SHAPES_PER_MODEL = 2


def _plain(value):
    """JSON-ready form: numpy scalars to Python, tuples to lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def characterize_model(name: str) -> dict:
    """Both compiles of one model; returns its golden structure."""
    model = build_model(name, **BENCH_MODELS[name])
    result = {}
    for label, ranges in (("default", None), ("ranges", model.axes)):
        exe = compile_graph(model.graph,
                            CompileOptions(assume_ranges=ranges))
        plan = exe.buffer_plan
        rng = np.random.default_rng(11)
        shapes = []
        for _draw in range(SHAPES_PER_MODEL):
            values = {axis: int(rng.integers(lo, hi + 1))
                      for axis, (lo, hi) in model.axes.items()}
            dims = exe.host_program.bind(model.sample_inputs(rng, values))
            shapes.append({
                "axes": values,
                "evaluate": plan.evaluate(dims),
                "replan": replan_peak_for_shape(plan.intervals, dims),
            })
        result[label] = {
            "num_slots": plan.num_slots,
            "intervals": [[iv.node_id, iv.start, iv.end, iv.slot]
                          for iv in plan.intervals],
            "snapshot": exe.symbolic_plan.snapshot(),
            "shapes": shapes,
        }
    return json.loads(json.dumps(_plain(result), sort_keys=True))


@pytest.mark.parametrize("name", sorted(BENCH_MODELS))
def test_slots_match_the_golden_file(name):
    golden = json.loads(GOLDEN.read_text())[name]
    actual = characterize_model(name)
    for label, expected in golden.items():
        got = actual[label]
        assert got["num_slots"] == expected["num_slots"], label
        assert got["intervals"] == expected["intervals"], label
        assert got["snapshot"] == expected["snapshot"], label
        assert got["shapes"] == expected["shapes"], label
    assert sorted(actual) == sorted(golden)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {name: characterize_model(name) for name in sorted(BENCH_MODELS)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
