"""The ``python -m repro.obs`` CLI: artifacts exist and carry the goods."""

import json
from pathlib import Path

from repro.obs.__main__ import main

CORPUS_DIR = Path(__file__).parent.parent / "regressions" / "corpus"


def chrome_names(path: Path) -> set:
    payload = json.loads(path.read_text())
    return {event["name"] for event in payload["traceEvents"]}


def test_model_trace_exports_chrome(tmp_path, capsys):
    rc = main(["--model", "bert", "--export", "chrome",
               "--out", str(tmp_path)])
    assert rc == 0
    chrome = tmp_path / "bert_chrome.json"
    assert chrome.exists()
    names = chrome_names(chrome)
    # the acceptance bar: pipeline-pass spans, kernel-launch spans and
    # cache events all present in the Perfetto-loadable trace.
    assert any(n.startswith("pass:") for n in names)
    assert any(n.startswith("kernel:") for n in names)
    assert "cache:plan:miss" in names and "cache:plan:hit" in names
    out = capsys.readouterr().out
    assert "traced bert" in out


def test_all_formats_and_metrics(tmp_path):
    rc = main(["--model", "crnn", "--export", "chrome,tree,jsonl",
               "--out", str(tmp_path), "--calls", "3"])
    assert rc == 0
    assert (tmp_path / "crnn_chrome.json").exists()
    assert (tmp_path / "crnn_tree.txt").exists()
    assert (tmp_path / "crnn_spans.jsonl").exists()
    metrics = json.loads((tmp_path / "crnn_metrics.json").read_text())
    # 3 calls: one record, two replays
    assert metrics["counters"]["spans.engine:run"] == 3
    assert metrics["counters"]["events.cache:plan:hit"] == 2
    tree = (tmp_path / "crnn_tree.txt").read_text()
    assert "compile:" in tree and "pass:" in tree


def test_serving_mode_traces_the_request_lifecycle(tmp_path):
    rc = main(["--model", "dien", "--serving", "--out", str(tmp_path),
               "--export", "jsonl"])
    assert rc == 0
    rows = [json.loads(line) for line in
            (tmp_path / "dien_spans.jsonl").read_text().splitlines()]
    names = [row["name"] for row in rows]
    assert names.count("request") == 2
    assert "serving:admit" in names and "serving:respond" in names
    # Default options compile once: the cold request records its plan
    # on the shape-generic executable, the repeat replays it, and
    # nothing waits on a per-shape compile or the eager fallback.
    assert "compile:attempt" not in names and "fallback:run" not in names
    by_sid = {row["sid"]: row for row in rows}

    def request_id(row):
        while row["name"] != "request":
            row = by_sid[row["parent"]]
        return row["attrs"]["id"]

    runs = {name: [request_id(row) for row in rows if row["name"] == name]
            for name in ("engine:record", "engine:replay")}
    assert runs == {"engine:record": [0], "engine:replay": [1]}


def test_corpus_case_replay(tmp_path):
    case = sorted(CORPUS_DIR.glob("case_*.json"))[0]
    rc = main(["--case", str(case), "--out", str(tmp_path)])
    assert rc == 0
    assert list(tmp_path.glob("*_chrome.json"))


def test_unknown_export_format_fails(tmp_path, capsys):
    rc = main(["--model", "bert", "--export", "pdf",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown export format" in capsys.readouterr().err
