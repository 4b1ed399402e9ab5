"""EXPERIMENTS.md quotes the checked-in artifacts, not stale numbers."""

import json
import re
from pathlib import Path

from .test_gates import bench_script

ROOT = Path(__file__).resolve().parents[2]


def _raw_section(name: str) -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return text.split(f"## {name}")[1].split("\n## ")[0]


def _section(name: str) -> str:
    return " ".join(_raw_section(name).split())


def _artifact(name: str) -> dict:
    return json.loads(
        (ROOT / "benchmarks" / "results" / f"{name}.json").read_text())


#: artifact baseline name -> how the E1 table and E2's prose name it.
E1_NAMES = {"ONNXRuntime": "ONNX Runtime",
            "TorchInductor": "Torch Inductor (dyn)"}
E2_NAMES = {"ONNXRuntime": "ONNX Runtime", "TorchInductor": "Inductor"}


def _table_rows(name: str) -> list:
    """The cells of each table row in EXPERIMENTS.md's ``name`` section."""
    return [[c.strip().strip("*") for c in line.strip("|").split("|")]
            for line in _raw_section(name).splitlines()
            if line.startswith("|")]


def _e1_table() -> dict:
    """Baseline -> (measured mean, measured max) cells of E1's table."""
    return {cells[0]: (cells[2], cells[3]) for cells in _table_rows("E1 ")
            if len(cells) == 5 and cells[2].endswith("×")}


def test_e1_table_matches_the_artifact():
    summary = _artifact("e1_end_to_end_a10")["summary"]
    assert _e1_table() == {
        E1_NAMES.get(name, name): (f"{cell['mean']:.2f}×",
                                   f"{cell['max']:.2f}×")
        for name, cell in summary.items()}


def test_e2_means_match_the_artifact():
    summary = _artifact("e2_end_to_end_t4")["summary"]
    quoted = ", ".join(f"{E2_NAMES.get(name, name)} {cell['mean']:.2f}×"
                       for name, cell in summary.items())
    assert f"Measured means: {quoted}." in _section("E2")


def test_residual_deviations_quote_the_e1_artifact():
    summary = _artifact("e1_end_to_end_a10")["summary"]
    section = _section("Residual deviations")
    assert (f"TensorRT's measured mean ({summary['TensorRT']['mean']:.2f}×)"
            in section)
    assert f"TorchScript ({summary['TorchScript']['mean']:.2f}× vs" \
        in section


def _e15_table() -> dict:
    """Model (or ``geomean``) -> (overhead ratio, wall ratio) cells of
    the E15 table in EXPERIMENTS.md."""
    return {cells[0]: (cells[3], cells[4]) for cells in _table_rows("E15")
            if len(cells) == 6 and cells[3].endswith("×")}


def _ratio(value: float) -> str:
    """Three significant figures, the way the table prints ratios."""
    digits = max(0, 2 - int(f"{value:e}".split("e")[1]))
    return f"{value:,.{digits}f}×"


def test_e15_table_matches_the_full_artifact():
    artifact = _artifact("e15_host_overhead")
    table = _e15_table()
    aggregate = artifact["aggregate"]
    assert table.pop("geomean") == (
        _ratio(aggregate["overhead_speedup_geomean"]),
        _ratio(aggregate["wall_speedup_geomean"]))
    assert table == {
        row["model"]: (_ratio(row["overhead_speedup"]),
                       _ratio(row["wall_speedup"]))
        for row in artifact["rows"]}


def _series(values: list) -> str:
    """``a, b and c``, the way EXPERIMENTS.md lists a sweep."""
    return ", ".join(values[:-1]) + " and " + values[-1]


def test_e6_depth_sweep_matches_the_full_artifact():
    rows = sorted(_artifact("e6_compile_overhead")["depth"],
                  key=lambda row: row["layers"])
    section = _section("E6")
    layers = _series([str(row["layers"]) for row in rows])
    nodes = _series([f"{row['nodes']:,}" for row in rows])
    walls = _series([f"{row['pipeline_wall_s']:.2f}" for row in rows])
    per_node = _series([f"{row['us_per_node']:.0f}" for row in rows])
    assert (f"at {layers} layers, best of 5: {nodes} nodes in {walls} s, "
            f"that is {per_node} µs per node") in section


def test_e11_numbers_match_the_full_artifact():
    artifact = _artifact("e11_memory_planning")
    section = _section("E11")
    bert = {row["fusion"]: row for row in artifact["rows"]
            if row["model"] == "bert"}
    unfused, fused = bert["unfused"], bert["fused"]
    assert (f"unfused {unfused['naive_mb']:.0f} MB naive → "
            f"{unfused['peak_mb']:.0f} MB peak "
            f"({unfused['reuse_factor']:.1f}× reuse)") in section
    assert (f"fused {fused['naive_mb']:.0f} MB naive → "
            f"{fused['peak_mb']:.0f} MB peak") in section

    diversity = artifact["diversity"]
    worst = max(d["worst_ratio"] for d in diversity)
    assert re.search(r"within \*\*([\d.]+)×\*\*", section).group(1) \
        == f"{worst:.2f}"
    reuse = {d["model"]: d["naive_mb"] / d["symbolic_peak_mb"]
             for d in diversity}
    low = min(reuse, key=reuse.get)
    high = max(reuse, key=reuse.get)
    assert (f"{reuse[low]:.2f}× ({low}) to {reuse[high]:.2f}× ({high}) "
            f"less memory") in section


def test_e16_numbers_match_the_full_artifact():
    artifact = _artifact("e16_async_serving")
    section = _section("E16")
    assert (f"{artifact['num_queries']} queries over "
            f"{artifact['distinct_signatures']} distinct shape "
            f"signatures") in section
    for row in artifact["rows"]:
        cells = [f"{row['p50_us']:,.0f}", f"{row['p99_us']:,.0f}"] + [
            str(row[key]) for key in ("fast", "fallback", "quarantined",
                                      "compile_stalls", "errors")]
        assert f"| {row['mode']} | {' | '.join(cells)} |" in section
    assert f"**{artifact['p99_improvement']:.2f}× below sync**" in section
    faulted = {row["mode"]: row for row in artifact["rows"]}[
        "async + faults"]
    assert f"{faulted['quarantined']} signatures end up quarantined" \
        in section


def _text_table(name: str) -> list:
    """The cells of each row of an artifact's text table."""
    lines = (ROOT / "benchmarks" / "results" / f"{name}.txt").read_text() \
        .splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("---")) + 1
    rows = []
    for line in lines[start:]:
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) < 2:
            break
        rows.append(cells)
    return rows


def test_e12_numbers_match_the_full_artifact():
    artifact = _artifact("e12_adaptive_specialization")
    section = _section("E12")
    assert (f"{artifact['num_queries']} queries over "
            f"{artifact['distinct_shapes']} distinct shapes") in section
    assert f"at {artifact['arrival_rate_qps']:.0f} qps" in section
    rows = _text_table("e12_adaptive_specialization")
    assert [cells[0] for cells in rows] == \
        [row["engine"] for row in artifact["rows"]]
    assert _table_rows("E12")[2:] == rows
    paths = artifact["paths"]
    fast = artifact["fast_responses"]
    assert (f"answers {paths['fast']} of {artifact['num_queries']} "
            f"requests on the fast path, and {artifact['tuned_served']} "
            f"of them replay tuned plans") in section
    serving = artifact["rows"][1]
    assert (f"Its {serving['background_compiles']} background jobs are "
            f"the tuned signatures; "
            f"each is a {artifact['job_us'] / 1000:.0f} ms tuning job") \
        in section
    slower = sum(1 for r in fast if r["steady_us"] > r["generic_us"])
    assert (f"On the same {len(fast)} requests the fast path averages "
            f"{artifact['fast_mean_steady_us']:.1f} µs against the "
            f"generic engine's {artifact['fast_generic_mean_us']:.1f} µs, "
            f"and {slower} of them are slower") in section


def test_e9_numbers_match_the_artifact():
    artifact = _artifact("e9_schedule_selection")
    section = _section("E9")
    tune = artifact["autotune"]
    rows = {row["model"]: row for row in tune["rows"]}
    s2t = rows["s2t"]
    assert (f"{tune['geomean_kernel_speedup']:.2f}× geomean "
            f"tuned-vs-heuristic on schedulable-kernel device time "
            f"({tune['geomean_model_speedup']:.2f}× whole model; s2t best "
            f"at {s2t['kernel_speedup']:.2f}×/{s2t['model_speedup']:.2f}×"
            ) in section
    assert (f"worst-case picks {tune['geomean_worst_penalty']:.2f}× "
            f"*slower*") in section

    def extremes(key):
        ordered = sorted(rows, key=lambda model: key(rows[model]))
        return ordered[0], ordered[-1]

    low, high = extremes(lambda row: row["tuning_spent_us"])
    assert (f"its {tune['budget_us'] / 1000:.0f} ms simulated budget "
            f"({rows[low]['tuning_spent_us'] / 1000:.1f}–"
            f"{rows[high]['tuning_spent_us'] / 1000:.1f} ms of search, "
            f"{low} to {high}") in section
    low, high = extremes(lambda row: row["enumerated"])
    assert (f"{rows[low]['enumerated']:,}–{rows[high]['enumerated']:,} "
            f"candidates enumerated per model") in section
    low, high = extremes(lambda row: row["pruned"] / row["enumerated"])
    assert (f"{rows[low]['pruned'] / rows[low]['enumerated']:.1%} ({low}) "
            f"to {rows[high]['pruned'] / rows[high]['enumerated']:.1%} "
            f"({high}) pruned before scoring") in section

    sweep = artifact["shape_sweep"]["rows"]
    assert (f"({sweep[0]['speedup']:.2f}→{sweep[-1]['speedup']:.2f}× as "
            f"distinct shapes grow {sweep[0]['distinct_shapes']}→"
            f"{sweep[-1]['distinct_shapes']})") in section


#: artifact system name -> how EXPERIMENTS.md's E14 table names it.
E14_NAMES = {"ONNXRuntime": "ONNX Runtime"}


def test_e14_table_matches_the_artifact():
    artifact = _artifact("e14_serving_tail_latency")
    section = _section("E14")
    # The text artifact prints system, p50, p95, p99, max, stalls, util.
    printed = {cells[0]: cells
               for cells in _text_table("e14_serving_tail_latency")}
    assert {cells[0]: cells[1:] for cells in _table_rows("E14")[2:]} == {
        E14_NAMES.get(name, name): [cells[1], cells[3], cells[5]]
        for name, cells in printed.items()}
    rows = {row["system"]: row for row in artifact["rows"]}
    assert f"BERT at {artifact['arrival_rate_qps']:.0f} qps Poisson" \
        in section
    disc, torch = rows["BladeDISC"], rows["PyTorch"]
    assert disc["p99_us"] < 2 * disc["p50_us"]
    assert "BladeDISC's p99 stays within 2× of its p50" in section
    assert (f"raises utilisation to {torch['utilization']:.2f} against "
            f"BladeDISC's {disc['utilization']:.2f}") in section
    assert (f"each of XLA's {rows['XLA']['compile_stalls']} mid-traffic "
            f"recompiles") in section


def test_e18_table_matches_the_artifact():
    artifact = _artifact("e18_fleet_routing")
    section = _section("E18")
    assert _table_rows("E18")[2:] == [
        [row["policy"], str(row["replicas"]), f"{row['p50_us']:,.0f}",
         f"{row['p99_us']:,.0f}", str(row["fast"]), str(row["fallback"]),
         str(row["recompiles"])]
        for row in artifact["rows"] if row["replicas"] != 1]
    assert (f"{artifact['num_queries']} single-sequence queries over "
            f"{artifact['distinct_signatures']} distinct signatures") \
        in section
    gate = {row["policy"]: row for row in artifact["rows"]
            if row["replicas"] == artifact["gate_replicas"]}
    assert (f"At the {artifact['gate_replicas']}-replica gate affinity's "
            f"p99 is **{artifact['p99_ratio_at_gate']:.2f}× below "
            f"round-robin** ({gate['affinity']['p99_us'] / 1000:.1f} ms vs "
            f"{gate['round_robin']['p99_us'] / 1000:.1f} ms)") in section


def test_e10_numbers_match_the_artifact():
    artifact = _artifact("e10_placement_overhead")
    section = _section("E10")
    on, off = artifact["placement_rows"]
    assert (f"cuts {off['kernels_per_query']:.0f} kernels/query to "
            f"{on['kernels_per_query']:.0f} and "
            f"{off['mean_steady_us']:.0f} µs to "
            f"{on['mean_steady_us']:.0f} µs") in section
    slowest = max(_artifact("e6_compile_overhead")["rows"],
                  key=lambda row: row["analysis_ms"])
    assert (f"at most {slowest['analysis_ms']:.2f} ms per zoo model "
            f"({slowest['model']})") in section
    assert "wall-clock" in section


def test_e17_quotes_the_pinned_e16_baseline():
    bench = bench_script("bench_e17_dynamic_batching")
    assert (f"{bench.E16_P99_HEADROOM}× the E16 async-serving baseline "
            f"({bench.E16_ASYNC_P99_US / 1000:.1f} ms, the p99 of E16's "
            f"60-query `--quick` run") in _section("E17")


def test_ratio_formatting():
    assert _ratio(336.7) == "337×"
    assert _ratio(45.21) == "45.2×"
    assert _ratio(4.214) == "4.21×"
    assert _ratio(1234.0) == "1,234×"


def test_design_index_names_artifacts_not_parameters():
    """DESIGN.md §4 names each workload; its query counts, rates and
    shape counts live once, in the ``eN_*`` defaults and the artifact."""
    text = (ROOT / "DESIGN.md").read_text()
    index = text.split("## 4.")[1].split("\n## ")[0]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in index.splitlines() if line.startswith("| E")]
    assert len(rows) == 14
    for cells in rows:
        workload, target = cells[3], cells[5]
        # A standalone number (not an id like E1 or S2T) is a parameter.
        assert not re.search(r"\b\d", workload), cells[0]
        artifact = re.fullmatch(r"`benchmarks/bench_(\w+)\.py`", target)
        assert artifact is not None, cells[0]
        assert (ROOT / "benchmarks" / "results"
                / f"{artifact[1]}.json").exists()
