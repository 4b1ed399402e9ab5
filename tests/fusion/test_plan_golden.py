"""Fusion-plan golden: every group the planner forms, pinned.

For each graph below, the golden file pins every
``plan.ordered_groups()`` entry as ``[kind, [member ids...]]`` in
order: the plan ``compile_graph`` makes under default
``CompileOptions`` and the plan each of the 7 baseline systems makes
for the same graph (``SimulatedBaseline(...).plan``).  The graphs are:

- the 8 benchmark zoo models (``BENCH_MODELS``);
- the 12-layer bert the ``fleet-batch`` benchmark workload serves;
- every case in ``tests/regressions/corpus``.

The golden file was generated before the planner's cycle check was
pruned by rank; it must keep passing without being edited.  Regenerate
it only from a commit known to be correct, with
``python -m tests.fusion.test_plan_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import ALL_BASELINES, SimulatedBaseline
from repro.bench.experiments import BENCH_MODELS
from repro.core import compile_graph
from repro.device import A10
from repro.fuzz import load_case
from repro.fuzz.corpus import iter_corpus
from repro.models import build_model

GOLDEN = Path(__file__).parent / "golden" / "plans.json"
CORPUS_DIR = Path(__file__).parent.parent / "regressions" / "corpus"

#: the model the fleet-batch workload serves (perfbench/spec.json).
FLEET_BERT = {"layers": 12, "hidden": 256, "heads": 4}


def _graphs() -> dict:
    """Golden key -> a thunk building the graph."""
    graphs = {f"model:{name}": (lambda name=name: build_model(
        name, **BENCH_MODELS[name]).graph) for name in BENCH_MODELS}
    graphs["model:bert-12"] = lambda: build_model("bert", **FLEET_BERT).graph
    for path in iter_corpus(CORPUS_DIR):
        graphs[f"corpus:{path.stem}"] = (
            lambda path=path: load_case(path)[0])
    return graphs


GRAPHS = _graphs()


def _groups(plan) -> list:
    return [[group.kind.value, [node.id for node in group.members]]
            for group in plan.ordered_groups()]


def characterize(key: str) -> dict:
    """Every plan made for one graph; returns its golden structure."""
    graph = GRAPHS[key]()
    result = {"disc": _groups(compile_graph(graph).plan)}
    for spec in ALL_BASELINES:
        result[spec.name] = _groups(SimulatedBaseline(graph, A10, spec).plan)
    return result


@pytest.mark.parametrize("key", sorted(GRAPHS))
def test_plans_match_the_golden_file(key):
    golden = json.loads(GOLDEN.read_text())[key]
    actual = characterize(key)
    assert sorted(actual) == sorted(golden)
    for system, expected in golden.items():
        assert actual[system] == expected, system


def test_golden_covers_every_graph():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(GRAPHS)


def _dump(golden: dict) -> str:
    """JSON with one group per line, so a changed plan diffs locally."""
    graphs = []
    for key in sorted(golden):
        systems = []
        for system in sorted(golden[key]):
            rows = ",\n   ".join(json.dumps(group, separators=(",", ":"))
                                for group in golden[key][system])
            systems.append(f"  {json.dumps(system)}: [\n   {rows}]")
        graphs.append(f" {json.dumps(key)}: {{\n" + ",\n".join(systems)
                      + "}")
    return "{\n" + ",\n".join(graphs) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({key: characterize(key) for key in GRAPHS}))
    print(f"wrote {GOLDEN}")
