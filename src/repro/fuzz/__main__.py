"""CLI entry point: ``python -m repro.fuzz --seed N --iters K``."""

from __future__ import annotations

import argparse
import sys

from ..lint.diagnostics import LintLevel
from .generator import GeneratorConfig
from .oracle import DifferentialOracle
from .runner import run_campaign


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the DISC pipeline against "
                    "the reference interpreter and simulated baselines.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--iters", type=int, default=100,
                        help="number of random graphs (default 100)")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="cap on generated graph size")
    parser.add_argument("--bindings-per-graph", type=int, default=3,
                        help="shape assignments checked per graph")
    parser.add_argument("--out", default="fuzz-artifacts",
                        help="directory for minimized failure repros")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip delta-debugging of failures")
    parser.add_argument("--lint", action="store_true",
                        help="run the repro.lint analyzer suite on every "
                             "case (generated graph + pipeline artifacts) "
                             "and treat failing diagnostics as oracle "
                             "failures; also cross-checks the interval "
                             "engine dynamically — every concrete shape "
                             "executed must lie inside its statically "
                             "derived interval")
    parser.add_argument("--lint-level", choices=["default", "strict"],
                        default="default",
                        help="lint strictness when --lint is set "
                             "(strict also fails on warnings)")
    parser.add_argument("--serving", action="store_true",
                        help="additionally replay every case through the "
                             "serving runtime (virtual scheduler seeded "
                             "from the case, injected compile faults); "
                             "responses must be OK and bit-identical to "
                             "a direct engine run")
    parser.add_argument("--batching", action="store_true",
                        help="additionally replay every case through the "
                             "dynamic-batching serving engine (cold burst "
                             "explodes, warm burst batches, lone request "
                             "serves solo; injected compile faults hit the "
                             "batched plan key); responses must be OK and "
                             "bit-identical to a direct engine run, and a "
                             "permanent fault must quarantine the batched "
                             "key to solo service")
    parser.add_argument("--obs", action="store_true",
                        help="additionally recompile and re-run every "
                             "case under a CapturingTracer: outputs and "
                             "RunStats must be bit-identical to the "
                             "untraced run and the recorded trace must "
                             "satisfy the structural trace invariants")
    parser.add_argument("--tuning", action="store_true",
                        help="additionally run the schedule autotuner on "
                             "every case: tuned plans must be bit-"
                             "identical to heuristic plans, never slower "
                             "on simulated device time, deterministic, "
                             "and within the search budget; seed-varied, "
                             "a serving run with an injected tuner fault "
                             "must quarantine the search while every "
                             "response stays OK")
    parser.add_argument("--fleet", action="store_true",
                        help="additionally drive every case through a "
                             "multi-replica serving fleet (routing policy "
                             "and replica count varied by seed, seeded "
                             "per-replica compile/tuner fault schedules, "
                             "a replica drained mid-stream); no request "
                             "may be lost or double-served across the "
                             "scale-down, quarantine must stay on the "
                             "faulted replica, and every response must be "
                             "OK and bit-identical to a direct engine run")
    parser.add_argument("--memplan", action="store_true",
                        help="additionally audit the symbolic (class-wide) "
                             "memory plan on every case: the frozen slot "
                             "expressions must price the binding exactly "
                             "like the concrete plan and stay inside the "
                             "class peak interval, the ground-truth memory "
                             "oracle must never observe more live bytes "
                             "than the plan charges, the plan's aliasing "
                             "proof and the independent L602 analyzer must "
                             "agree and both be clean, and a recompile "
                             "under the peak-aware reorder pass must stay "
                             "bit-identical")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = GeneratorConfig()
    if args.max_nodes is not None:
        config.max_nodes = args.max_nodes
    report = run_campaign(
        seed=args.seed, iters=args.iters, config=config,
        out_dir=args.out, minimize_failures=not args.no_minimize,
        oracle=DifferentialOracle(
            lint_level=LintLevel(args.lint_level) if args.lint
            else LintLevel.OFF,
            serving=args.serving, batching=args.batching, obs=args.obs,
            tuning=args.tuning, fleet=args.fleet, memplan=args.memplan),
        bindings_per_graph=args.bindings_per_graph,
        log=lambda msg: print(msg, file=sys.stderr))
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
