"""Tests of the benchmark itself: determinism, input validity, failure
handling, statistics and the agreement of BENCHMARK.json with spec.json.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import compile_graph
from repro.bench.experiments import BENCH_MODELS, E15_MODELS
from repro.models import build_model
from repro.serving import ServingEngine, ServingOptions, VirtualScheduler

from perfbench import gen, workloads
from perfbench.stats import geomean, percentile, spread

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = workloads.SPEC


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one run takes about a second."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    churn = SPEC["workloads"]["shape-churn"]
    monkeypatch.setitem(churn, "grid_per_axis", 3)
    monkeypatch.setitem(churn, "repeats_per_model", 3)
    fleet = SPEC["workloads"]["fleet-batch"]
    monkeypatch.setitem(fleet, "model", {"layers": 1, "hidden": 64,
                                         "heads": 2})


def _run(name: str, seed: int, trace: bool) -> workloads.Result:
    ctx = workloads.Context(seed=seed, seconds=0.05, trace=trace)
    return workloads.WORKLOADS[name](ctx)


def _by_clock(result: workloads.Result, table: str, clocks) -> dict:
    return {name: result.metrics[name][0]
            for name, info in SPEC[table].items()
            if info["clock"] in clocks and name in result.metrics}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_repeats_sim_metrics_and_transcript(small, name):
    first, second = _run(name, 5, False), _run(name, 5, False)
    assert first.correct and second.correct, first.problems + second.problems
    assert first.transcript and first.transcript == second.transcript
    sim = _by_clock(first, "end_to_end", ("sim",))
    assert sim and sim == _by_clock(second, "end_to_end", ("sim",))


@pytest.mark.parametrize("name", ["shape-churn", "fleet-batch"])
def test_same_seed_repeats_layer_counters(small, name):
    first, second = _run(name, 5, True), _run(name, 5, True)
    assert first.correct and second.correct, first.problems + second.problems
    counters = _by_clock(first, "per_layer", ("sim", "none"))
    assert counters == _by_clock(second, "per_layer", ("sim", "none"))
    assert first.transcript == second.transcript


def _inputs(name: str, seed: int):
    if name == "warm-zoo":
        models = {m: build_model(m, **E15_MODELS[m]) for m in E15_MODELS}
        inputs = gen.warm_zoo(models, seed)
        return models, [(n, payload) for n, _v, payload in inputs.calls]
    if name == "shape-churn":
        spec = SPEC["workloads"][name]
        models = {m: build_model(m, **BENCH_MODELS[m])
                  for m in spec["models"]}
        inputs = gen.shape_churn(models, seed, 3, 3, spec["rate_qps"])
    else:
        spec = SPEC["workloads"][name]
        models = {"bert": build_model("bert", **spec["model"])}
        inputs = gen.fleet_batch(models["bert"], "bert", seed, 40,
                                 spec["rate_qps"],
                                 seqlen_range=tuple(spec["seqlen_range"]))
    return models, [(a.model, inputs.payloads[a.key][1])
                    for a in inputs.arrivals]


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        ma == mb and pa.keys() == pb.keys()
        and all(np.array_equal(pa[k], pb[k]) for k in pa)
        for (ma, pa), (mb, pb) in zip(a, b))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_decides_the_inputs(name):
    _models, first = _inputs(name, 1)
    assert _same(first, _inputs(name, 1)[1])
    assert not _same(first, _inputs(name, 2)[1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_requests_match_the_graph_parameters(name):
    """Rank, static dims and dtype of every generated request agree with
    ``model.graph``'s parameters, so no run sends a malformed request."""
    models, requests = _inputs(name, 3)
    for model_name, payload in requests:
        params = {p.attrs["param_name"]: p
                  for p in models[model_name].graph.params}
        assert payload.keys() == params.keys()
        for key, array in payload.items():
            param = params[key]
            assert array.dtype == param.dtype.to_numpy(), key
            assert array.ndim == len(param.shape), key
            for got, want in zip(array.shape, param.shape):
                if isinstance(want, int):
                    assert got == want, (key, array.shape, param.shape)


def test_grid_covers_every_cell_of_the_full_ranges():
    axes = {"batch": (1, 128), "hist": (5, 200)}
    points = gen.grid_axes(np.random.default_rng(0), axes, 4)
    assert len(points) == 16
    for axis, (lo, hi) in axes.items():
        values = sorted(p[axis] for p in points)
        assert lo <= values[0] and values[-1] <= hi
        cells = {min(3, (v - lo) * 4 // (hi - lo + 1)) for v in values}
        assert cells == {0, 1, 2, 3}


def test_bimodal_split_is_the_same_for_every_seed():
    longs = {int(np.sum(gen.bimodal_lengths(np.random.default_rng(s),
                                            8, 128, 400) > 68))
             for s in range(6)}
    assert longs == {120}


# ---------------------------------------------------------------------------
# failures are loud
# ---------------------------------------------------------------------------

def test_a_wedged_server_fails_the_run_instead_of_hanging():
    model = build_model("crnn", **E15_MODELS["crnn"])
    inputs = gen.shape_churn({"crnn": model}, 0, 2, 2, 1000.0)
    ctx = workloads.Context(seed=0, seconds=0.0, trace=False)
    executable = compile_graph(model.graph)
    refs = workloads.References(ctx.device)
    for key, (_values, payload) in inputs.payloads.items():
        refs.add(key, executable, model.graph, payload)
    scheduler = VirtualScheduler(seed=0)
    serving = ServingEngine(ctx.device, scheduler, ServingOptions())
    serving.register_model("crnn", executable)
    route = serving.router.route

    def wedging_route(request):
        if request.id == 1:
            raise RuntimeError("injected service failure")
        return route(request)

    serving.router.route = wedging_route
    scored = workloads.open_loop(scheduler, serving.submit, inputs, refs,
                                 workloads.ServiceTimer())
    assert scored.errors and "injected service failure" in scored.errors[0]
    assert scored.unanswered >= 1
    result = workloads.Result()
    workloads._score(result, scored)
    assert not result.correct
    assert any("never answered" in p for p in result.problems)


def test_a_scheduler_that_never_idles_stops_at_the_event_budget():
    scheduler = VirtualScheduler(seed=0)

    def rearm():
        scheduler.call_at(scheduler.now_us() + 1.0, rearm)

    scheduler.call_at(0.0, rearm)
    errors = workloads.drain(scheduler, 100)
    assert len(errors) == 1 and "did not go idle" in errors[0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-zoo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_percentile_is_nearest_rank_and_reports_its_sample_count():
    values = list(range(1, 101))
    p99 = percentile(values, 99)
    assert (p99.value, p99.count, p99.beyond) == (99.0, 100, 1)
    assert percentile(values, 50).value == 50.0
    assert percentile([7.0], 99).value == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_geomean_rejects_non_positive_and_empty_input():
    assert math.isclose(geomean([1.0, 4.0]), 2.0)
    for bad in ([], [1.0, 0.0], [2.0, -1.0]):
        with pytest.raises(ValueError):
            geomean(bad)


def test_spread_is_the_interquartile_distance_over_the_median():
    assert spread([10.0] * 4) == 0.0
    # quartiles 1.5 and 4.5 (the "exclusive" method), median 3
    assert math.isclose(spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)


# ---------------------------------------------------------------------------
# BENCHMARK.json and spec.json
# ---------------------------------------------------------------------------

def test_benchmark_json_agrees_with_spec():
    for table in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[table]}
        spec = {name: info["unit"] for name, info in SPEC[table].items()}
        assert {n: u for n, u in spec.items() if n in declared} == declared
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(SPEC["per_layer"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS) == list(SPEC["workloads"])
    # the wall figures are end-to-end but listed with the traced metrics
    end_to_end = set(SPEC["end_to_end"]) | {
        name for name, info in SPEC["per_layer"].items()
        if info["layer"] == "end-to-end"}
    for name, info in SPEC["per_layer"].items():
        for move in info["moves"]:
            metric, _on, workload = move.split(" ")
            assert metric in end_to_end and workload in SPEC["workloads"], \
                (name, move)
    for name, info in SPEC["workloads"].items():
        assert info["slo_us"] > 0 and info["slo_reason"] and info["why"], \
            name
