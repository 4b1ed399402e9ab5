"""Experiment result formatting and persistence.

Every benchmark both prints its paper-style table and writes it (text +
JSON) under ``benchmarks/results/`` so the artifacts survive pytest output
capture and can be diffed across runs.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Callable, Sequence

__all__ = ["format_table", "save_results", "results_dir", "print_and_save",
           "gate_main"]


def results_dir() -> Path:
    """Where experiment artifacts land (override with REPRO_RESULTS_DIR)."""
    root = os.environ.get("REPRO_RESULTS_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    def text(cell) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            if abs(cell) >= 10:
                return f"{cell:.1f}"
            return f"{cell:.2f}"
        return str(cell)

    str_rows = [[text(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def save_results(name: str, payload: dict, text: str = "") -> Path:
    """Persist one experiment's results; returns the JSON path."""
    directory = results_dir()
    json_path = directory / f"{name}.json"
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    if text:
        with open(directory / f"{name}.txt", "w") as f:
            f.write(text + "\n")
    return json_path


def print_and_save(name: str, payload: dict, text: str) -> None:
    print()
    print(text)
    save_results(name, payload, text)


def gate_main(name: str, experiment: Callable[..., dict],
              format_result: Callable[[dict], str],
              failures: Callable[[dict], list],
              quick: dict | None = None) -> int:
    """The command line of a gated ``benchmarks/bench_eN_*.py`` script.

    Runs ``experiment`` at its defaults (the checked-in artifact's
    parameters) and saves ``name``; with ``--quick``, offered only when
    ``quick`` holds the smaller run's overrides, it saves ``name.quick``
    instead.  Prints every line of ``failures(result)`` and returns 1 if
    there is any, else 0.
    """
    parser = argparse.ArgumentParser(description=f"{name} with its gates")
    if quick is not None:
        parser.add_argument("--quick", action="store_true",
                            help=f"smaller run saved as {name}.quick; what "
                                 "CI runs")
    is_quick = getattr(parser.parse_args(), "quick", False)
    result = experiment(**(quick if is_quick else {}))
    print_and_save(name + (".quick" if is_quick else ""), result,
                   format_result(result))
    found = failures(result)
    for line in found:
        print(f"FAIL: {line}")
    if not found:
        print(f"OK: {name} meets every gate")
    return 1 if found else 0
