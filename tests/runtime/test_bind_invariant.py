"""After ``HostProgram.bind``, executing kernels adds no binding.

Launch plans are frozen — every kernel charged at the bound dims —
before any kernel runs, and the simulated baselines charge before they
execute too.  That order is only sound because running the instruction
stream never adds a key to ``dims``: the codegen reshape helper can
solve a symbol from data, but the host program's resolution plan has
always solved it first.  Checked over the zoo, the regression corpus and
the baselines' own host programs.
"""

from pathlib import Path

import pytest

from repro.baselines import SimulatedBaseline
from repro.baselines.systems import ALL_BASELINES
from repro.core import compile_graph
from repro.device import A10
from repro.fuzz import load_case, make_inputs
from repro.fuzz.corpus import iter_corpus
from repro.models import MODEL_BUILDERS

from ..models.test_zoo import small

CORPUS = iter_corpus(Path(__file__).parent.parent
                     / "regressions" / "corpus")


class _DimsWatch:
    """Execute hook recording every instruction that grew ``dims``."""

    def __init__(self, dims: dict) -> None:
        self.dims = dims
        self.bound = set(dims)
        self.grown = []

    def before(self, instr) -> None:
        pass

    def after(self, instr, env) -> None:
        added = set(self.dims) - self.bound
        if added:
            self.grown.append((instr.kernel.name, sorted(added)))
            self.bound |= added


def assert_bind_is_complete(program, inputs) -> None:
    dims = program.bind(inputs)
    watch = _DimsWatch(dims)
    program.execute(inputs, dims, watch)
    assert watch.grown == []


def assert_all_programs(graph, inputs_list) -> None:
    programs = [compile_graph(graph).host_program]
    programs += [SimulatedBaseline(graph, A10, spec).program
                 for spec in ALL_BASELINES]
    for program in programs:
        for inputs in inputs_list:
            assert_bind_is_complete(program, inputs)


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_zoo_binding_is_complete_before_execution(name, rng):
    model = small(name)
    inputs = []
    for point in ("low", "high"):
        values = {axis: lo if point == "low" else min(hi, lo * 2 + 4)
                  for axis, (lo, hi) in model.axes.items()}
        inputs.append(model.make_inputs(rng, **values))
    assert_all_programs(model.graph, inputs)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_binding_is_complete_before_execution(path):
    graph, bindings, meta = load_case(path)
    seed = int(meta.get("input_seed", 0))
    assert_all_programs(graph, [make_inputs(graph, bindings, seed)])


def test_the_watch_sees_a_kernel_that_grows_dims(rng):
    """The hook is a real detector: a kernel that solves a symbol from
    data during execution is reported."""
    model = small("bert")
    program = compile_graph(model.graph).host_program
    inputs = model.make_inputs(rng, batch=2, seqlen=8)
    dims = program.bind(inputs)
    kernel = program.instructions[0].kernel
    original = kernel.execute

    def growing(args, call_dims):
        call_dims["solved_late"] = 1
        return original(args, call_dims)

    kernel.execute = growing
    try:
        watch = _DimsWatch(dims)
        program.execute(inputs, dims, watch)
    finally:
        del kernel.execute
    assert watch.grown == [(kernel.name, ["solved_late"])]
