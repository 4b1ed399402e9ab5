"""CLI: trace a zoo model or a corpus case and write export artifacts.

``python -m repro.obs --model bert --export chrome`` compiles the model
under a :class:`CapturingTracer`, runs it twice (one record, one replay),
and writes a Perfetto-loadable Chrome trace — plus, on request, the text
tree, the JSONL span log and the metrics snapshot.  ``--case`` replays a
fuzz-corpus case instead; ``--serving`` routes the calls through the
serving runtime on a virtual scheduler so the trace carries the request
lifecycle.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..bench.experiments import E15_MODELS
from .export import write_artifacts
from .metrics import MetricsRegistry
from .tracer import CapturingTracer

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace one compile + run and export the spans "
                    "(Chrome trace for Perfetto, text tree, JSONL).")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model",
                        choices=sorted(E15_MODELS),
                        help="zoo model to compile and run (at E15's "
                             "small configs)")
    source.add_argument("--case",
                        help="fuzz-corpus case JSON to replay instead")
    parser.add_argument("--device", default="A10",
                        help="device profile (default A10)")
    parser.add_argument("--calls", type=int, default=2,
                        help="engine calls to trace (default 2: one "
                             "record, one replay)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input-synthesis seed (default 0)")
    parser.add_argument("--export", default="chrome",
                        help="comma list of chrome,tree,jsonl "
                             "(default chrome)")
    parser.add_argument("--out", default="obs-artifacts",
                        help="output directory (default obs-artifacts)")
    parser.add_argument("--serving", action="store_true",
                        help="route the calls through the serving "
                             "runtime on a virtual scheduler")
    return parser


def _load_subject(args) -> tuple:
    """Resolve (name, graph, inputs) from --model or --case."""
    if args.model is not None:
        from ..models import build_model
        model = build_model(args.model, **E15_MODELS[args.model])
        rng = np.random.default_rng(args.seed)
        return args.model, model.graph, model.sample_inputs(rng)
    from ..fuzz.corpus import load_case
    from ..fuzz.oracle import make_inputs
    graph, bindings, _meta = load_case(args.case)
    return graph.name, graph, make_inputs(graph, bindings, args.seed)


def _run_direct(tracer, graph, inputs, device, calls: int) -> dict:
    from ..core.pipeline import CompileOptions, compile_graph
    from ..runtime.engine import ExecutionEngine

    executable = compile_graph(graph, CompileOptions(tracer=tracer))
    engine = ExecutionEngine(executable, device, tracer=tracer)
    stats = None
    for _ in range(calls):
        _outputs, stats = engine.run(inputs)
    return {"plan_cache": engine.plans.stats(),
            "last_stats": None if stats is None else {
                "total_time_us": stats.total_time_us,
                "kernels_launched": stats.kernels_launched,
                "cache_hit": stats.cache_hit,
            }}


def _run_serving(tracer, graph, inputs, device, calls: int) -> dict:
    from ..serving import ServingEngine, ServingOptions, VirtualScheduler

    scheduler = VirtualScheduler(seed=0)
    tracer.clock = scheduler.clock
    serving = ServingEngine(device, scheduler, ServingOptions(),
                            tracer=tracer)
    serving.register_model(graph.name, graph)
    for _ in range(calls):
        serving.submit(graph.name, inputs)
        scheduler.run_until_idle()
    return serving.stats()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from ..device.profiles import device_named
    device = device_named(args.device)

    name, graph, inputs = _load_subject(args)
    metrics = MetricsRegistry()
    tracer = CapturingTracer(metrics=metrics)
    if args.serving:
        summary = _run_serving(tracer, graph, inputs, device, args.calls)
    else:
        summary = _run_direct(tracer, graph, inputs, device, args.calls)

    formats = tuple(f.strip() for f in args.export.split(",") if f.strip())
    unknown = set(formats) - {"chrome", "tree", "jsonl"}
    if unknown:
        print(f"unknown export format(s): {sorted(unknown)}",
              file=sys.stderr)
        return 2
    written = write_artifacts(tracer, args.out, formats=formats,
                              metrics=metrics, prefix=f"{name}")
    spans = tracer.spans
    print(f"traced {name}: {len(spans.intervals())} spans, "
          f"{len(spans.events())} events")
    for fmt, path in written.items():
        print(f"  {fmt}: {path}")
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
