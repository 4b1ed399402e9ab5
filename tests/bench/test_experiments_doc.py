"""EXPERIMENTS.md quotes the checked-in artifacts, not stale numbers."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _section(name: str) -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return " ".join(text.split(f"## {name}")[1].split("\n## ")[0].split())


def _artifact(name: str) -> dict:
    return json.loads(
        (ROOT / "benchmarks" / "results" / f"{name}.json").read_text())


def _e15_table() -> dict:
    """Model (or ``geomean``) -> (overhead ratio, wall ratio) cells of
    the E15 table in EXPERIMENTS.md."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## E15")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
        if len(cells) == 6 and cells[3].endswith("×"):
            rows[cells[0]] = (cells[3], cells[4])
    return rows


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
    assert (f"at {layers} layers, best of 3: {nodes} nodes in {walls} s, "
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


def test_e17_quotes_the_pinned_e16_baseline():
    path = ROOT / "benchmarks" / "bench_e17_dynamic_batching.py"
    spec = importlib.util.spec_from_file_location("bench_e17", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert (f"{bench.E16_P99_HEADROOM}× the E16 async-serving baseline "
            f"({bench.E16_ASYNC_P99_US / 1000:.1f} ms, the p99 of E16's "
            f"60-query `--quick` run") in _section("E17")


def test_ratio_formatting():
    assert _ratio(336.7) == "337×"
    assert _ratio(45.21) == "45.2×"
    assert _ratio(4.214) == "4.21×"
    assert _ratio(1234.0) == "1,234×"
