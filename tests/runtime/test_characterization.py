"""Characterization: every execution path's outputs and stats, pinned.

Pins, against a checked-in golden file, every ``RunStats`` field
(``details`` included) and the bytes of every output for:

- the engine's record (first call), replay (warm call), ``prepare``
  then run, and ``prepare_batched`` then ``run_batched`` paths, plus two
  engine ablations on the record path;
- the eager fallback;
- all seven simulated baseline systems (first and second call, so the
  compile-policy charge shows).

Three zoo models run at two shapes each.  The golden file was generated
from the code before the runtime's execution loops, cost charges and
plan-freeze paths were collapsed into one each; it must keep passing
without being edited.  Output bytes depend on the numpy build, so a
numpy upgrade is the one legitimate reason to regenerate it — from a
commit known to be correct, with ``python -m tests.runtime.
test_characterization``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.baselines import SimulatedBaseline
from repro.baselines.systems import ALL_BASELINES
from repro.core import compile_graph
from repro.device import A10
from repro.models import build_model
from repro.runtime import EngineOptions, ExecutionEngine
from repro.serving.fallback import EagerFallback

GOLDEN = Path(__file__).parent / "golden" / "characterization.json"

#: model -> (build kwargs, two axis-value points).
CASES = {
    "bert": ({"layers": 1, "hidden": 64, "heads": 2, "vocab": 128},
             [{"batch": 3, "seqlen": 13}, {"batch": 2, "seqlen": 40}]),
    "s2t": ({"layers": 1, "hidden": 64, "heads": 2, "vocab": 64},
            [{"batch": 2, "frames": 70}, {"batch": 3, "frames": 100}]),
    "crnn": ({"channels": 16, "charset": 32},
             [{"batch": 3, "width": 40}, {"batch": 2, "width": 70}]),
}

ABLATIONS = {
    "two_pass": EngineOptions(fixed_schedule="two_pass"),
    "no_host_placement": EngineOptions(host_placement_enabled=False),
}


def _plain(value):
    """JSON-ready form: numpy scalars to Python, tuples to lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _outputs(outputs) -> list:
    return [{"shape": list(np.shape(out)),
             "dtype": str(np.asarray(out).dtype),
             "sha256": hashlib.sha256(
                 np.ascontiguousarray(out).tobytes()).hexdigest()}
            for out in outputs]


def _entry(outputs, stats) -> dict:
    return {"outputs": _outputs(outputs),
            "stats": _plain(dataclasses.asdict(stats))}


def _plan(plan) -> dict:
    return {"type": type(plan).__name__,
            "memory_class": _plain(plan.memory_class)}


def characterize() -> dict:
    """Run every path over the cases; returns the golden structure."""
    result = {}
    for name, (kwargs, points) in CASES.items():
        model = build_model(name, **kwargs)
        exe = compile_graph(model.graph)
        rng = np.random.default_rng(7)
        inputs_list = [model.make_inputs(rng, **values)
                       for values in points]
        # Distinct data of the same shape, for batched members.
        twins = [model.make_inputs(rng, **values) for values in points]

        engine = ExecutionEngine(exe, A10)
        prepared = ExecutionEngine(exe, A10)
        batched = ExecutionEngine(exe, A10)
        fallback = EagerFallback(exe, A10)
        baselines = [SimulatedBaseline(model.graph, A10, spec)
                     for spec in ALL_BASELINES]
        ablated = {label: ExecutionEngine(exe, A10, options)
                   for label, options in ABLATIONS.items()}
        for index, (inputs, twin) in enumerate(zip(inputs_list, twins)):
            record = {}
            record["record"] = _entry(*engine.run(inputs))
            record["replay"] = _entry(*engine.run(inputs))
            plan = prepared.prepare(inputs)
            record["prepare"] = {"plan": _plan(plan),
                                 "frozen": _plain(dataclasses.asdict(
                                     plan.make_stats()))}
            record["prepared_run"] = _entry(*prepared.run(inputs))
            signature = exe.host_program.signature(inputs)
            for size, members in ((1, [inputs]), (3, [inputs, twin])):
                plan = batched.prepare_batched(signature, size)
                outs, stats = batched.run_batched(members, signature, size)
                record[f"batched_{size}"] = {
                    "plan": _plan(plan),
                    "members": [_outputs(o) for o in outs],
                    "stats": _plain(dataclasses.asdict(stats))}
            for label, ablation in ablated.items():
                record[f"ablation_{label}"] = _entry(*ablation.run(inputs))
            record["fallback"] = _entry(*fallback.run(inputs))
            for baseline in baselines:
                record[f"baseline_{baseline.name}"] = [
                    _entry(*baseline.run(inputs)) for _ in range(2)]
            result[f"{name}/{index}"] = record
    return result


def _canonical(data) -> dict:
    return json.loads(json.dumps(data, sort_keys=True))


def test_every_path_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    actual = _canonical(characterize())
    assert sorted(actual) == sorted(golden)
    for case, paths in golden.items():
        assert sorted(actual[case]) == sorted(paths), case
        for path, expected in paths.items():
            assert actual[case][path] == expected, f"{case} {path}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(characterize(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
