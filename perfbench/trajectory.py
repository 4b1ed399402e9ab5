"""Record one point of the benchmark trajectory.

Run from the repository root:

    python3 perfbench/trajectory.py --label baseline
    python3 perfbench/trajectory.py --label next \\
        --against perfbench/trajectory/baseline.json

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json once per
seed with tracing off, then once traced, and writes
``perfbench/trajectory/<label>.json``: per workload and end-to-end
metric every value, the median and the spread (interquartile distance
over the median, with the quartiles ``statistics.quantiles(values,
n=4)`` gives), and the traced run's per-layer metrics.  It prints each
spread against the metric's bound and, with ``--against``, each median's
change against an earlier point and, per metric, the geometric mean of
those changes over the workloads.  Exits 1 when any run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.stats import geomean, median, spread  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed} trace {trace}: exit "
              f"{proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds 1..N per workload (default 10)")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    parser.add_argument("--against", type=Path,
                        help="an earlier trajectory point to compare with")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    point = {"label": args.label, "run_seconds": bench["run_seconds"],
             "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    failed = False
    ratios: dict = {}
    for workload in names:
        values: dict = {}
        for seed in point["seeds"]:
            result = run(workload, seed, bench["run_seconds"], 0)
            if result is None:
                failed = True
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced = run(workload, point["seeds"][0], bench["run_seconds"], 1)
        failed |= traced is None
        entry = point["workloads"][workload] = {
            "end_to_end": {}, "per_layer": traced and traced["metrics"]}
        for name, samples in values.items():
            row = entry["end_to_end"][name] = {
                "unit": bounds[name]["unit"], "values": samples,
                "median": median(samples),
                "spread": spread(samples) if len(samples) > 1 else None}
            line = (f"{workload:12s} {name:12s} median {row['median']:14.6g}"
                    f" {row['unit']:5s}")
            if row["spread"] is not None:
                line += (f" spread {row['spread']:.3f} (bound "
                         f"{bounds[name]['bound']})")
            before = earlier.get("workloads", {}).get(workload, {}) \
                .get("end_to_end", {}).get(name)
            if before:
                ratio = row["median"] / before["median"]
                ratios.setdefault(name, []).append(ratio)
                line += f" vs {args.against.stem}: {ratio - 1:+.1%}"
            print(line, flush=True)
    for name, values in ratios.items():
        print(f"geomean over workloads {name:12s} "
              f"{geomean(values) - 1:+.1%}")
    out = ROOT / "perfbench" / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
