"""EXPERIMENTS.md quotes the checked-in artifacts, not stale numbers."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


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
    artifact = json.loads(
        (ROOT / "benchmarks" / "results" / "e15_host_overhead.json")
        .read_text())
    table = _e15_table()
    aggregate = artifact["aggregate"]
    assert table.pop("geomean") == (
        _ratio(aggregate["overhead_speedup_geomean"]),
        _ratio(aggregate["wall_speedup_geomean"]))
    assert table == {
        row["model"]: (_ratio(row["overhead_speedup"]),
                       _ratio(row["wall_speedup"]))
        for row in artifact["rows"]}


def test_ratio_formatting():
    assert _ratio(336.7) == "337×"
    assert _ratio(45.21) == "45.2×"
    assert _ratio(4.214) == "4.21×"
    assert _ratio(1234.0) == "1,234×"
