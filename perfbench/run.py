"""Two-clock benchmark of the repro compiler, runtime and serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload warm-zoo --seed 1 --seconds 20 --trace 0

Workloads: ``warm-zoo``, ``shape-churn`` and ``fleet-batch`` (see
``perfbench/spec.json`` for why each exists and its parameters).  The
command prints a human-readable report, writes the run's artifact to
``perfbench/out/``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``.

Exit status: 0 when every output is correct, 1 when any output differs
from its reference or a request went unanswered, 2 when there is no
program to measure next to the benchmark.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Every load comes from one process and one thread: numpy's BLAS pool
# would otherwise spread matmuls over the host's cores and turn wall
# time into a measure of whatever else shares them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("warm-zoo", "shape-churn", "fleet-batch")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "repro" / "__init__.py"
    benchmark = ROOT / "BENCHMARK.json"
    for required in (package, benchmark):
        if not required.is_file():
            print(f"perfbench: {required.relative_to(ROOT)} is missing; "
                  f"run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace),
                            import_s=time.perf_counter() - _STARTED)
    result = workloads.WORKLOADS[args.workload](ctx)

    wanted = json.loads(benchmark.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    for line in result.report:
        print(line)
    for problem in result.problems:
        print(f"PROBLEM: {problem}")
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"{name:34s} {value:16.6f} {unit}")

    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    artifact = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "problems": result.problems,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in sorted(result.metrics.items())},
        "transcript_digest": workloads.digest(result.transcript),
        "report": result.report,
        **result.artifact,
    }, default=str) + "\n")

    if missing and result.correct:
        print(f"perfbench: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in result.metrics},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
