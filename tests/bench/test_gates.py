"""Every gated benchmark script passes its own gates on its checked-in
full artifact (JSON only: nothing here re-runs an experiment)."""

import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: every script that gates its artifact ``benchmarks/results/<eN_...>.json``.
GATED = [
    "bench_e6_compile_overhead",
    "bench_e9_schedule_selection",
    "bench_e11_memory_planning",
    "bench_e12_adaptive_specialization",
    "bench_e15_host_overhead",
    "bench_e16_async_serving",
    "bench_e17_dynamic_batching",
    "bench_e18_fleet_routing",
]


def bench_script(name: str):
    """Import ``benchmarks/<name>.py``, leaving ``os.environ`` as it was
    (the E15 script sets BLAS thread defaults when it loads)."""
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", GATED)
def test_checked_in_artifact_meets_its_gates(script):
    name = script.removeprefix("bench_")
    artifact = json.loads(
        (ROOT / "benchmarks" / "results" / f"{name}.json").read_text())
    assert bench_script(script).failures(artifact) == []


def test_loading_a_script_leaves_the_environment_alone(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    bench_script("bench_e15_host_overhead")
    assert dict(os.environ) == before
