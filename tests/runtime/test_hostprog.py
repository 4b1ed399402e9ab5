"""Host-program lowering: dense slots, release, signatures, describe."""

import numpy as np
import pytest

from repro.core import compile_graph
from repro.interp import evaluate
from repro.numerics.resolve import BindingError
from repro.runtime import HostProgram, shape_signature

from ..conftest import toy_mlp_graph, toy_mlp_inputs


@pytest.fixture(scope="module")
def exe():
    return compile_graph(toy_mlp_graph().graph)


@pytest.fixture(scope="module")
def program(exe):
    return exe.host_program


def test_pipeline_lowers_at_compile_time(exe):
    assert isinstance(exe.host_program, HostProgram)


def test_slot_table_is_a_dense_bijection(program):
    slots = sorted(program.slot_of.values())
    assert slots == list(range(program.num_slots))
    assert len(program.env_template) == program.num_slots


def test_param_slots_follow_program_order(exe, program):
    assert [name for __, name in program.param_slots] \
        == [p.attrs["param_name"] for p in exe.graph.params]
    for (slot, __), param in zip(program.param_slots, exe.graph.params):
        assert slot == program.slot_of[param.id]


def test_constants_are_prebound_in_the_template(exe, program):
    constant_slots = set()
    for node, value in exe.constants.items():
        slot = program.slot_of[node.id]
        constant_slots.add(slot)
        assert program.env_template[slot] is value
    for slot, value in enumerate(program.env_template):
        assert (value is not None) == (slot in constant_slots)


def test_output_slots_map_the_graph_outputs(exe, program):
    assert program.output_slots == tuple(
        program.slot_of[node.id] for node in exe.graph.outputs)


def test_instructions_mirror_the_kernel_list(exe, program):
    assert len(program.instructions) == len(exe.kernels)
    for instr, kernel in zip(program.instructions, exe.kernels):
        assert instr.kernel is kernel
        assert instr.in_slots == tuple(
            program.slot_of[n.id] for n in kernel.input_nodes)
        assert instr.out_slots == tuple(
            program.slot_of[n.id] for n in kernel.output_nodes)


def _last_reads(program):
    last_read = {}
    for index, instr in enumerate(program.instructions):
        for slot in instr.in_slots:
            last_read[slot] = index
    return last_read


def test_release_is_exactly_the_last_use(program):
    last_read = _last_reads(program)
    outputs = set(program.output_slots)
    released = set()
    for index, instr in enumerate(program.instructions):
        for slot in instr.release:
            assert slot not in outputs, "a program output was released"
            assert last_read.get(slot, index) <= index, \
                "a released slot is read by a later instruction"
            assert slot not in released, "a slot was released twice"
            released.add(slot)
    # Every dead value is released: produced non-outputs plus every
    # param/constant slot that any instruction reads.
    param_const = {slot for slot, __ in program.param_slots}
    param_const.update(slot for slot, value in
                       enumerate(program.env_template) if value is not None)
    produced = {slot for instr in program.instructions
                for slot in instr.out_slots}
    expected = ((param_const & set(last_read)) | produced) - outputs
    assert released == expected


def test_stream_executes_and_drops_dead_values(exe, program, rng):
    inputs = toy_mlp_inputs(rng, 2, 3)
    dims = program.bind(inputs)
    env = program.env_template.copy()
    for slot, name in program.param_slots:
        env[slot] = np.ascontiguousarray(inputs[name])
    for instr in program.instructions:
        args = [env[s] for s in instr.in_slots]
        assert all(a is not None for a in args), "read a released slot"
        for slot, value in zip(instr.out_slots,
                               instr.kernel.execute(args, dims)):
            env[slot] = value
        for slot in instr.release:
            env[slot] = None
    live = {slot for slot, value in enumerate(env) if value is not None}
    # only the results (plus params/constants no instruction ever reads)
    # survive to the end of the stream
    param_const = {slot for slot, __ in program.param_slots}
    param_const.update(slot for slot, value in
                       enumerate(program.env_template) if value is not None)
    unread = param_const - set(_last_reads(program))
    assert live == set(program.output_slots) | unread
    (expected,) = evaluate(exe.graph, inputs)
    assert np.allclose(env[program.output_slots[0]], expected, atol=1e-5)


def test_bind_solves_derived_symbols(program, rng):
    dims = program.bind(toy_mlp_inputs(rng, 2, 3))
    assert dims["batch"] == 2 and dims["seq"] == 3
    assert dims["bs"] == 6  # reshape-merged symbol, solved by the plan


def test_signature_fast_path_matches_sorted_signature(program, rng):
    inputs = toy_mlp_inputs(rng, 4, 7)
    fast = program.signature(inputs)
    assert tuple(sorted(fast)) == shape_signature(inputs)


def test_signature_ignores_extra_inputs(program, rng):
    inputs = toy_mlp_inputs(rng, 2, 5)
    extended = dict(inputs, spare=np.zeros((3,), dtype=np.float32))
    assert program.signature(extended) == program.signature(inputs)


def test_signature_missing_param_raises_binding_error(program, rng):
    inputs = toy_mlp_inputs(rng, 2, 5)
    del inputs["w"]
    with pytest.raises(BindingError, match="'w'"):
        program.signature(inputs)


def test_describe_lists_the_program(program):
    text = program.describe()
    assert "host program:" in text
    assert "param 'x'" in text
    assert "return" in text
    assert str(len(program.instructions) - 1) in text
