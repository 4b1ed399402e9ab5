"""Oracle verdict golden: every judgement the differential oracle makes,
pinned.

For each oracle configuration CI runs (the default legs, ``--lint``,
``--serving``, ``--batching``, ``--fleet``, ``--tuning``, ``--memplan``
and ``--obs``) and each case below, the golden file pins the case's
``executors_checked`` and every failure as ``[executor, kind,
output_index, detail]`` in the order the oracle recorded them.  The
cases are:

- the first binding of a few generated graphs (their input seeds cover
  every seed-varied fault schedule of the serving, tuning and fleet
  legs);
- the toy MLP from ``tests/conftest.py``;
- an unbindable case (a free symbol with no binding);
- the toy MLP with compiled kernels that compute a wrong value, and
  with compiled kernels that raise.  Each fault patches one codegen
  support helper for the duration of its case only, so the reference
  interpreter stays correct.

Regenerate it only from a commit known to be correct, with
``python -m tests.fuzz.test_oracle_golden``.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.core.codegen import SUPPORT_NAMESPACE
from repro.fuzz import DifferentialOracle, generate_graph
from repro.fuzz.sampler import binding_suite
from repro.ir import GraphBuilder, f32
from repro.lint.diagnostics import LintLevel
from tests.conftest import toy_mlp_graph

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"

#: configuration name -> DifferentialOracle keyword arguments.
CONFIGS = {
    "default": {},
    "lint": {"lint_level": LintLevel.DEFAULT},
    "serving": {"serving": True},
    "batching": {"batching": True},
    "fleet": {"fleet": True},
    "tuning": {"tuning": True},
    "memplan": {"memplan": True},
    "obs": {"obs": True},
}

_ERF = SUPPORT_NAMESPACE["_erf"]


def _wrong_erf(x):
    return _ERF(x) + 1.0


def _raising_rsqrt(x):
    raise RuntimeError("injected kernel fault")


def _generated(seed: int):
    graph = generate_graph(seed)
    return graph, binding_suite(graph, limit=1, seed=seed)[0], seed


def _toy_mlp():
    return toy_mlp_graph().graph, {"batch": 3, "seq": 5}, 2


def _unbindable():
    b = GraphBuilder("unbindable")
    x = b.parameter("x", (b.sym("s"),), f32)
    b.outputs(b.exp(x))
    return b.graph, {}, 0


#: case name -> (thunk returning (graph, bindings, input_seed), the
#: support helpers patched while the case runs).
CASES = {
    **{f"generated:{seed}": (lambda seed=seed: _generated(seed), {})
       for seed in range(6)},
    "toy_mlp": (_toy_mlp, {}),
    "unbindable": (_unbindable, {}),
    "wrong_kernel": (_toy_mlp, {"_erf": _wrong_erf}),
    "raising_kernel": (_toy_mlp, {"_rsqrt": _raising_rsqrt}),
}


def verdicts(config: str) -> dict:
    """Case name -> the oracle's judgement under ``config``."""
    oracle = DifferentialOracle(**CONFIGS[config])
    out = {}
    for name, (build, patches) in CASES.items():
        graph, bindings, input_seed = build()
        with (mock.patch.dict(SUPPORT_NAMESPACE, patches) if patches
              else contextlib.nullcontext()):
            result = oracle.check_case(graph, bindings, input_seed)
        out[name] = {
            "executors": list(result.executors_checked),
            "failures": [[f.executor, f.kind, f.output_index, f.detail]
                         for f in result.failures]}
    return out


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_verdicts_match_the_golden_file(config):
    golden = json.loads(GOLDEN.read_text())[config]
    actual = verdicts(config)
    assert sorted(actual) == sorted(golden)
    for case, expected in golden.items():
        assert actual[case] == expected, case


def test_golden_covers_every_configuration():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CONFIGS)
    assert all(sorted(cases) == sorted(CASES) for cases in golden.values())


def test_fault_cases_fail_and_clean_cases_pass():
    """The golden pins real verdicts: both kernel faults are caught by
    every leg's pipeline run, and the clean cases pass."""
    golden = json.loads(GOLDEN.read_text())
    for config, cases in golden.items():
        for case in ("wrong_kernel", "raising_kernel", "unbindable"):
            assert cases[case]["failures"], (config, case)
        for case in ("toy_mlp", "generated:0"):
            assert not cases[case]["failures"], (config, case)


def _dump(golden: dict) -> str:
    """JSON with one case per line, so a changed verdict diffs locally."""
    configs = []
    for config in sorted(golden):
        rows = ",\n  ".join(
            f"{json.dumps(case)}: "
            f"{json.dumps(golden[config][case], separators=(',', ':'))}"
            for case in sorted(golden[config]))
        configs.append(f" {json.dumps(config)}: {{\n  {rows}}}")
    return "{\n" + ",\n".join(configs) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump({config: verdicts(config)
                             for config in CONFIGS}))
    print(f"wrote {GOLDEN}")
