"""The three workloads: set-up, measured phase, correctness gate, metrics.

Each workload function takes a :class:`Context` and returns a
:class:`Result`.  Untraced (``trace=False``) it measures the end-to-end
metrics; traced it runs an untraced phase and a traced phase on the same
inputs and derives the per-layer metrics from the benchmark's own
wrappers (see :mod:`perfbench.layers`).

Two clocks are kept apart everywhere: *wall* figures are real host time
of the Python/numpy path, *sim* figures come from the simulated device
(``RunStats`` µs and the serving scheduler's virtual clock) and repeat
exactly for a given seed.

Reference outputs are computed before anything is timed: a direct
``ExecutionEngine`` run per distinct payload, itself checked against
``repro.interp.evaluate`` on the source graph within dtype tolerance.
Every warm call and every OK response must then be bit-identical to its
reference.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import ExecutionEngine, compile_graph, evaluate
from repro.bench.experiments import BENCH_MODELS, E15_MODELS
from repro.core.pipeline import CompileOptions
from repro.device import device_named
from repro.models import build_model
from repro.obs.tracer import Tracer
from repro.runtime.engine import EngineOptions
from repro.runtime.symplan import measure_peak_bytes
from repro.serving import (BatchingOptions, BatchingServingEngine,
                           FleetEngine, FleetOptions, ResponseStatus,
                           ServingEngine, ServingOptions, VirtualScheduler)
from repro.tuning import TuningOptions

from . import gen
from .layers import KINDS, Recorder, kernel_table
from .stats import geomean, median, percentile

__all__ = ["Context", "Result", "SPEC", "WORKLOADS", "fleet_batch",
           "shape_churn", "warm_zoo"]

_now = time.perf_counter

#: workload parameters, latency limits, metric units and clocks, and the
#: layer-metric -> end-to-end-metric map.
SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())

#: set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: warm-zoo: passes per block of its wall figures (about a third of a
#: second of calls).
BLOCK_PASSES = 5
#: warm-zoo: signature + overhead + floor must land within this share of
#: the untraced ``wall_us_p50``.
RECONCILE_TOLERANCE = 0.10
#: serving runs stop dispatching after this many events per request,
#: so a scheduler that never drains fails instead of hanging.
EVENTS_PER_REQUEST = 200

_STAGES = ("analysis", "fusion", "codegen", "memory", "hostprog")
_TOLERANCE = {"float16": (2e-2, 2e-2), "float32": (2e-4, 1e-5),
              "float64": (1e-8, 1e-10)}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    #: real seconds from process start until the benchmark was imported.
    import_s: float = 0.0

    def __post_init__(self) -> None:
        self.device = device_named(SPEC["device"])


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: correctness problems other than failed requests.
    problems: list = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    #: written to the run's JSON artifact.
    artifact: dict = field(default_factory=dict)
    #: what must repeat exactly for a seed: per request of a serving run
    #: its status, path, arrival and finish on the virtual clock; per
    #: call of a warm-zoo pass its simulated µs.
    transcript: tuple = ()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def identical(got, want) -> bool:
    """Bit-identity of two output lists."""
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape
        and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def agrees(got, want) -> bool:
    """Agreement within the dtype's tolerance (exact for non-floats)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    tol = _TOLERANCE.get(want.dtype.name)
    if tol is None:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=tol[0], atol=tol[1],
                            equal_nan=True))


class References:
    """Direct ``ExecutionEngine`` outputs per payload, each checked
    against the interpreter on the model's source graph."""

    def __init__(self, device) -> None:
        self.device = device
        self.outputs: dict = {}
        self.problems: list = []
        self._engines: dict = {}

    def add(self, key, executable, graph, payload) -> None:
        engine = self._engines.get(id(executable))
        if engine is None:
            engine = self._engines[id(executable)] = ExecutionEngine(
                executable, self.device, EngineOptions(plan_capacity=None))
        outputs, _ = engine.run(payload)
        expected = evaluate(graph, payload)
        if len(outputs) != len(expected) or \
                not all(map(agrees, outputs, expected)):
            self.problems.append(
                f"reference {key}: engine output disagrees with the "
                f"interpreter")
        self.outputs[key] = outputs


# ---------------------------------------------------------------------------
# shared measurement helpers
# ---------------------------------------------------------------------------

def _setups(ctx: Context, setup) -> tuple:
    """Run ``setup`` (once traced, else ``SETUP_REPEATS`` times); returns
    the last state and every set-up's real seconds."""
    times = []
    state = None
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        state = None
        gc.collect()
        start = _now()
        state = setup()
        times.append(_now() - start)
    return state, times


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _put_end_to_end(result: Result, ctx: Context, setup_times: list, *,
                    wall_rps: float, wall_us_p50: float, wall_us_p90: float,
                    wall_samples: str, sim_us: list, sim_rps: float,
                    slo_frac: float, rss_mb: float) -> None:
    result.put("setup_s", ctx.import_s + median(setup_times), "s")
    _put_wall(result, wall_rps, wall_us_p50, wall_us_p90)
    sim50, sim99 = percentile(sim_us, 50), percentile(sim_us, 99)
    result.put("sim_us_p50", sim50.value, "us")
    result.put("sim_us_p99", sim99.value, "us")
    result.put("sim_rps", sim_rps, "1/s")
    result.put("slo_frac", slo_frac, "frac")
    result.put("peak_rss_mb", rss_mb, "MB")
    result.report.append(
        f"samples: wall {wall_samples}, "
        f"sim {sim99.count} ({sim99.beyond} beyond p99); "
        f"setups {', '.join(f'{t:.3f}' for t in setup_times)} s "
        f"+ import {ctx.import_s:.3f} s")
    result.report.append(
        f"failed_frac {result.failed / max(result.attempted, 1):.4f} "
        f"({result.failed} of {result.attempted})")


def _put_wall(result: Result, wall_rps: float, wall_us_p50: float,
              wall_us_p90: float) -> None:
    """The real-time figures.  Every run prints them; BENCHMARK.json lists
    them with the traced run's metrics, which carry no regression bound,
    because on a shared host identical runs drift by a fifth."""
    result.put("wall_rps", wall_rps, "1/s")
    result.put("wall_us_p50", wall_us_p50, "us")
    result.put("wall_us_p90", wall_us_p90, "us")


def _zero_layers(result: Result) -> None:
    """Every per-layer metric starts at 0 (a layer the workload does
    not exercise did no work)."""
    for name, info in SPEC["per_layer"].items():
        result.put(name, 0.0, info["unit"])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _compile_layers(result: Result, tracer: Tracer, compile_s: dict,
                    executables: dict) -> None:
    count = len(executables)
    stages = {stage: 0.0 for stage in _STAGES}
    for span in tracer.spans.named("stage:*"):
        stage = span.name.split(":", 1)[1]
        if stage in stages:
            stages[stage] += span.duration_us / 1e3
    result.put("core.compile_ms", 1e3 * sum(compile_s.values()) / count,
               "ms")
    for stage, total in stages.items():
        result.put(f"core.stage.{stage}_ms", total / count, "ms")
    result.put("core.kernels",
               sum(len(e.kernels) for e in executables.values()) / count,
               "count")
    result.report.append("compile: " + ", ".join(
        f"{name} {1e3 * compile_s[name]:.1f} ms/{len(e.kernels)} kernels"
        for name, e in executables.items()))


def _plan_layers(result: Result, engines) -> None:
    hits = misses = evictions = 0
    for engine in engines:
        stats = engine.plans.stats()
        hits += stats["hits"]
        misses += stats["misses"]
        evictions += stats["evictions"]
    result.put("runtime.plans.hit_rate",
               hits / (hits + misses) if hits + misses else 0.0, "frac")
    result.put("runtime.plans.evictions", evictions, "count")


def _kernel_layers(result: Result, recorder: Recorder, device,
                   requests: int) -> None:
    table = kernel_table(recorder.kernel_calls, device, EngineOptions())
    launches = wall = sim = 0.0
    lines = ["two-clock kernels (per launch): kind  calls/request  "
             "wall us  sim us  wall/sim"]
    for stem in KINDS.values():
        row = table["kinds"].get(stem)
        calls = row["calls"] if row else 0
        result.put(f"kernel.{stem}.calls", calls / max(requests, 1),
                   "count")
        result.put(f"kernel.{stem}.wall_us",
                   row["wall_us"] / calls if calls else 0.0, "us")
        result.put(f"kernel.{stem}.sim_us",
                   row["sim_us"] / calls if calls else 0.0, "us")
        if calls:
            launches += calls
            wall += row["wall_us"]
            sim += row["sim_us"]
            lines.append(
                f"  {stem:9s} {calls / max(requests, 1):8.2f} "
                f"{row['wall_us'] / calls:9.2f} {row['sim_us'] / calls:7.2f}"
                f" {row['wall_us'] / row['sim_us'] if row['sim_us'] else 0:8.1f}")
    result.put("kernel.wall_us", wall / launches if launches else 0.0, "us")
    result.put("kernel.sim_us", sim / launches if launches else 0.0, "us")
    lines.append("worst wall/sim kernels:")
    lines += [f"  {row['model']}/{row['kernel']} ({row['kind']}): "
              f"{row['wall_over_sim']:.1f}x over {row['calls']} calls"
              for row in table["worst"]]
    result.report += lines
    result.artifact["kernels"] = table


def _signature_children(recorder: Recorder) -> dict:
    """id(parent span) -> µs of its ``runtime.signature`` children."""
    out: dict = {}
    for span in recorder.spans:
        if span.name == "runtime.signature" and span.parent is not None:
            key = id(span.parent)
            out[key] = out.get(key, 0.0) + span.duration_us
    return out


# ---------------------------------------------------------------------------
# warm-zoo: closed loop over warm plans at host-bound sizes
# ---------------------------------------------------------------------------

@dataclass
class _Loop:
    walls: list
    #: simulated µs per call of the first pass.
    sims: list
    calls: int
    failed: int
    #: True when every pass charged exactly the first pass's sim µs.
    repeated: bool
    #: per traced call, the bare instruction stream's real µs, timed
    #: right after the call (empty unless a floor was asked for).
    floors: list = field(default_factory=list)

    @property
    def wall_rps(self) -> float:
        return self.calls / (sum(self.walls) / 1e6)

    def fast_side(self, stream: list) -> tuple:
        """(calls per second, per-signature p50 µs, per-signature p90 µs)
        on the host's fast side.

        The walls are cut into blocks of ``BLOCK_PASSES`` whole passes,
        so every block calls every signature equally often; each figure
        is the block-level value that 90 % of the blocks fall short of
        (rates) or exceed (times).  On a host whose speed swings between
        states for seconds at a time, a pooled median lands in whichever
        state the run happened to spend more time in; the fast side does
        not.
        """
        per_block = len(stream) * min(BLOCK_PASSES,
                                      self.calls // len(stream))
        calls = stream * (per_block // len(stream))
        blocks = [self.walls[i:i + per_block]
                  for i in range(0, self.calls - per_block + 1, per_block)]
        return (percentile([len(b) / (sum(b) / 1e6) for b in blocks],
                           90).value,
                percentile([per_signature(b, calls, 50) for b in blocks],
                           10).value,
                percentile([per_signature(b, calls, 90) for b in blocks],
                           10).value)


def per_signature(walls: list, calls: list, q: float) -> float:
    """Nearest-rank ``q`` percentile of each warm signature's own calls
    (``calls[k]`` names the signature of ``walls[k]``), combined by
    geometric mean over the signatures.  Every signature weighs the
    same, and the figure does not jump between models' latency clusters
    the way a percentile of the pooled calls does."""
    groups: dict = {}
    for call, wall in zip(calls, walls):
        groups.setdefault(call, []).append(wall)
    return geomean(percentile(group, q).value for group in groups.values())


def _closed_loop(engines: dict, inputs: gen.WarmZooInputs,
                 refs: References, seconds: float,
                 recorder: Recorder | None = None, floor=None) -> _Loop:
    """Whole passes of the warm stream until ``seconds`` have elapsed;
    ``floor(index)``, when given, times the bare instruction stream of
    each call right after it."""
    walls: list = []
    floors: list = []
    failed = 0
    first = None
    repeated = True
    start = _now()
    while True:
        sims = []
        for index in inputs.stream:
            name, _values, payload = inputs.calls[index]
            engine = engines[name]
            span = None
            if recorder is not None:
                recorder.rid = len(walls)
                span = recorder.open("runtime.run", call=index)
            began = _now()
            outputs, stats = engine.run(payload)
            walls.append((_now() - began) * 1e6)
            if span is not None:
                recorder.close(span)
            if floor is not None:
                floors.append(floor(index))
            sims.append(stats.total_time_us)
            if not identical(outputs, refs.outputs[index]):
                failed += 1
        if first is None:
            first = sims
        elif sims != first:
            repeated = False
        if _now() - start >= seconds:
            break
    return _Loop(walls, first, len(walls), failed, repeated, floors)


def _alternating(engines: dict, inputs: gen.WarmZooInputs,
                 refs: References, seconds: float,
                 recorder: Recorder, floor=None) -> tuple:
    """Untraced and traced passes in turn until ``seconds`` have elapsed,
    so drift in the host's speed lands on both sides alike.  Untraced
    passes run with ``recorder`` paused: its wrappers stay installed but
    call straight through, which a few percent of the kernel phase's
    untraced wall time pays for.  Returns (untraced, traced) loops."""
    sides: tuple = ([], [])
    start = _now()
    while not sides[0] or _now() - start < seconds:
        recorder.paused = True
        sides[0].append(_closed_loop(engines, inputs, refs, 0.0))
        recorder.paused = False
        sides[1].append(_closed_loop(engines, inputs, refs, 0.0, recorder,
                                     floor))
    return tuple(_Loop([w for loop in loops for w in loop.walls],
                       loops[0].sims, sum(loop.calls for loop in loops),
                       sum(loop.failed for loop in loops),
                       all(loop.repeated and loop.sims == loops[0].sims
                           for loop in loops),
                       [f for loop in loops for f in loop.floors])
                 for loops in sides)


def _floor(executables: dict, inputs: gen.WarmZooInputs):
    """``floor(index)``: real µs of one bare run of call ``index``'s
    instruction stream — ``kernel.execute`` in program order against
    pre-bound dims, with no signature, plan lookup or stats."""
    bound = []
    for name, _values, payload in inputs.calls:
        program = executables[name].host_program
        bound.append((program, program.bind(payload),
                      [(slot, np.ascontiguousarray(payload[param]))
                       for slot, param in program.param_slots]))

    def floor(index: int) -> float:
        program, dims, arrays = bound[index]
        began = _now()
        env = program.env_template.copy()
        for slot, array in arrays:
            env[slot] = array
        for instr in program.instructions:
            outputs = instr.kernel.execute(
                [env[s] for s in instr.in_slots], dims)
            for slot, value in zip(instr.out_slots, outputs):
                env[slot] = value
            for slot in instr.release:
                env[slot] = None
        return (_now() - began) * 1e6

    return floor


def _memory_rows(engines: dict, executables: dict,
                 inputs: gen.WarmZooInputs) -> list:
    """Per warm signature: tracemalloc peak of one warm call next to the
    proven class plan's ``peak_at`` and ``measure_peak_bytes``."""
    rows = []
    for name, values, payload in inputs.calls:
        executable = executables[name]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engines[name].run(payload)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        plan = executable.symbolic_plan
        dims = executable.host_program.bind(payload)
        measured = measure_peak_bytes(executable, payload)
        rows.append({
            "model": name, "axes": values,
            "tracemalloc_peak_kb": peak / 1024,
            "proven_peak_kb": (plan.peak_at(dims) / 1024
                               if plan is not None else 0.0),
            "measured_peak_kb": measured["measured_peak_bytes"] / 1024,
        })
    return rows


def warm_zoo(ctx: Context) -> Result:
    """All 8 zoo models at host-bound sizes, every plan warm, one caller
    replaying a seeded interleaved stream of ``ExecutionEngine.run``."""
    spec = SPEC["workloads"]["warm-zoo"]
    result = Result()
    names = list(E15_MODELS)
    inputs = gen.warm_zoo(
        {name: build_model(name, **E15_MODELS[name]) for name in names},
        ctx.seed, spec["signatures_per_model"], spec["repeats_per_pass"])
    tracer = Tracer() if ctx.trace else None
    compile_s: dict = {}
    record_us: list = []

    def setup():
        compile_s.clear()
        record_us.clear()
        models = {name: build_model(name, **E15_MODELS[name])
                  for name in names}
        executables = {}
        for name, model in models.items():
            began = _now()
            executables[name] = compile_graph(
                model.graph, CompileOptions(tracer=tracer))
            compile_s[name] = _now() - began
        engines = {name: ExecutionEngine(executable, ctx.device)
                   for name, executable in executables.items()}
        for name, _values, payload in inputs.calls:
            began = _now()
            engines[name].run(payload)      # cold: records the plan
            record_us.append((_now() - began) * 1e6)
        return models, executables, engines

    (models, executables, engines), setup_times = _setups(ctx, setup)
    refs = References(ctx.device)
    for index, (name, _values, payload) in enumerate(inputs.calls):
        refs.add(index, executables[name], models[name].graph, payload)
    result.problems += refs.problems
    limit = spec["slo_us"]

    if not ctx.trace:
        loop = _closed_loop(engines, inputs, refs, ctx.seconds)
        result.attempted, result.failed = loop.calls, loop.failed
        result.transcript = tuple(loop.sims)
        if not loop.repeated:
            result.problems.append("simulated µs differ between passes")
        wall_rps, wall_us_p50, wall_us_p90 = loop.fast_side(inputs.stream)
        _put_end_to_end(
            result, ctx, setup_times, wall_rps=wall_rps,
            wall_us_p50=wall_us_p50, wall_us_p90=wall_us_p90,
            wall_samples=f"{loop.calls} calls of {len(inputs.calls)} "
                         f"signatures in blocks of {BLOCK_PASSES} passes",
            sim_us=loop.sims,
            sim_rps=1e6 * len(loop.sims) / sum(loop.sims),
            slo_frac=sum(1 for s in loop.sims if s <= limit)
            / len(loop.sims), rss_mb=_rss_mb())
        return result

    _zero_layers(result)
    # Layer phase: only the signature is wrapped, so the run spans stay
    # close to untraced cost and reconcile against wall_us_p50.
    recorder = Recorder()
    for executable in executables.values():
        recorder.wrap(executable.host_program, "signature",
                      "runtime.signature")
    plain, layered = _alternating(engines, inputs, refs, ctx.seconds / 2,
                                  recorder, _floor(executables, inputs))
    _put_wall(result, *plain.fast_side(inputs.stream))
    runs = recorder.named("runtime.run")
    signature_of = _signature_children(recorder)
    signature = [signature_of.get(id(span), 0.0) for span in runs]
    replay = [span.duration_us - sig for span, sig in zip(runs, signature)]
    floor = layered.floors
    overhead = [r - f for r, f in zip(replay, floor)]
    reconciled = per_signature(
        [s + o + f for s, o, f in zip(signature, overhead, floor)],
        [span.attrs["call"] for span in runs], 50)
    untraced_p50 = per_signature(
        plain.walls, inputs.stream * (plain.calls // len(inputs.stream)), 50)
    error = reconciled / untraced_p50 - 1.0

    # Kernel phase: every kernel launch is a span too.
    mark = len(recorder.spans)
    for name, executable in executables.items():
        recorder.wrap_kernels(executable, name)
    plain_too, traced = _alternating(engines, inputs, refs, ctx.seconds / 2,
                                     recorder)
    recorder.paused = True
    rows = _memory_rows(engines, executables, inputs)
    recorder.paused = False

    fresh_per_call: dict = {}
    for span, _kernel, _model, _dims, fresh in recorder.kernel_calls:
        key = id(span.parent)
        fresh_per_call[key] = fresh_per_call.get(key, 0) + fresh
    allocs: dict = {}
    for span in recorder.spans[mark:]:
        if span.name == "runtime.run":
            allocs.setdefault(span.attrs["call"], []).append(
                fresh_per_call.get(id(span), 0))
    for index, row in enumerate(rows):
        row["alloc_count"] = median(allocs[index])

    loops = (plain, layered, plain_too, traced)
    result.attempted = sum(loop.calls for loop in loops)
    result.failed = sum(loop.failed for loop in loops)
    _compile_layers(result, tracer, compile_s, executables)
    result.put("runtime.signature_us", median(signature), "us")
    result.put("runtime.replay_us", median(replay), "us")
    result.put("runtime.record_us", median(record_us), "us")
    result.put("runtime.floor_us", median(floor), "us")
    result.put("runtime.overhead_us", median(overhead), "us")
    _plan_layers(result, engines.values())
    for metric in ("alloc_count", "tracemalloc_peak_kb", "proven_peak_kb",
                   "measured_peak_kb"):
        result.put(f"runtime.mem.{metric}", _mean(r[metric] for r in rows),
                   SPEC["per_layer"][f"runtime.mem.{metric}"]["unit"])
    _kernel_layers(result, recorder, ctx.device, traced.calls)
    result.put("obs.trace_overhead_frac",
               1.0 - traced.wall_rps / plain_too.wall_rps, "frac")
    result.put("obs.reconcile_err_frac", abs(error), "frac")
    verdict = "holds" if abs(error) <= RECONCILE_TOLERANCE else "FAILS"
    result.report.append(
        f"reconcile: signature {median(signature):.1f} + overhead "
        f"{median(overhead):.1f} + floor {median(floor):.1f} -> "
        f"{reconciled:.1f} us vs untraced wall_us_p50 {untraced_p50:.1f} "
        f"us ({100 * error:+.1f}%, tolerance "
        f"{100 * RECONCILE_TOLERANCE:.0f}%: {verdict})")
    result.report.append("memory per warm call (kb): model  tracemalloc  "
                         "proven  measured  fresh buffers")
    result.report += [
        f"  {r['model']:11s} {r['tracemalloc_peak_kb']:10.1f} "
        f"{r['proven_peak_kb']:8.1f} {r['measured_peak_kb']:8.1f} "
        f"{r['alloc_count']:6.0f}" for r in rows]
    result.artifact.update(memory=rows, spans=recorder.to_json())
    return result


# ---------------------------------------------------------------------------
# serving workloads: open loop on the virtual scheduler
# ---------------------------------------------------------------------------

class ServiceTimer:
    """Real µs each request spends in service, for ``wall_us_p*``.

    Solo requests are timed around ``PathRouter.route``; a batched launch
    (``ExecutionEngine.run_batched``) shares its wall time evenly among
    its members.  With a recorder the same wrappers also record
    ``serving.route`` / ``runtime.run_batched`` spans, stamped with the
    request id of the arrival that produced them.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self.us: list = []
        #: (live members, batch dim) per batched launch.
        self.batches: list = []
        #: (engine name, engine request id) -> arrival index.
        self.rid_of: dict = {}

    def install(self, serving: ServingEngine, models) -> None:
        router = serving.router
        route = router.route
        name = serving.name
        recorder = self.recorder

        def timed_route(request):
            if recorder is None:
                began = _now()
                out = route(request)
                self.us.append((_now() - began) * 1e6)
                return out
            recorder.rid = self.rid_of.get((name, request.id),
                                           recorder.rid)
            span = recorder.open("serving.route")
            try:
                return route(request)
            finally:
                recorder.close(span)
                self.us.append(span.duration_us)

        router.route = timed_route
        if isinstance(serving, BatchingServingEngine):
            for model in models:
                self._install_batched(serving.model(model).engine)

    def _install_batched(self, engine: ExecutionEngine) -> None:
        run_batched = engine.run_batched
        recorder = self.recorder

        def timed(inputs_list, signature, batch_size):
            span = None
            if recorder is not None:
                span = recorder.open("runtime.run_batched")
            began = _now()
            try:
                return run_batched(inputs_list, signature, batch_size)
            finally:
                elapsed = (_now() - began) * 1e6
                if span is not None:
                    recorder.close(span)
                members = len(inputs_list)
                self.us.extend([elapsed / members] * members)
                self.batches.append((members, batch_size))

        engine.run_batched = timed


def _wrap_engine(recorder: Recorder, entry, signature) -> None:
    """Spans for one model entry's runtime and fallback calls.

    ``signature`` is the unwrapped signature function: the run wrapper
    uses it to tell a record (cold plan) from a replay (warm plan).
    """
    engine = entry.engine
    run = engine.run

    def timed_run(inputs, signature_arg=None):
        if recorder.paused:
            return run(inputs, signature_arg)
        warm = engine.peek_plan(signature(inputs)) is not None
        span = recorder.open("runtime.replay" if warm else "runtime.record")
        try:
            return run(inputs, signature_arg)
        finally:
            recorder.close(span)

    engine.run = timed_run
    recorder.wrap(engine, "prepare", "runtime.prepare")
    recorder.wrap(engine, "prepare_batched", "runtime.prepare_batched")
    recorder.wrap(entry.fallback, "run", "fallback.run")


def _instrument(recorder: Recorder, servings: list, executables: dict) -> None:
    """Wrap every layer the serving workloads exercise."""
    originals = {}
    for name, executable in executables.items():
        originals[name] = recorder.wrap(executable.host_program,
                                        "signature", "runtime.signature")
        recorder.wrap_kernels(executable, name)
    for serving in servings:
        for name in executables:
            _wrap_engine(recorder, serving.model(name), originals[name])
        if serving.tuner is not None:
            recorder.wrap(serving.tuner, "tune", "tuning.search")


@dataclass
class _Pass:
    responses: list
    wall_s: float
    timer: ServiceTimer
    #: the process's peak resident memory when the pass ended.
    rss_mb: float
    #: exceptions that escaped a scheduler callback.
    errors: list = field(default_factory=list)
    unanswered: int = 0
    shed: int = 0
    timeouts: int = 0
    mismatches: int = 0

    @property
    def failed(self) -> int:
        return self.unanswered + self.shed + self.timeouts + self.mismatches

    @property
    def ok(self) -> list:
        return [r for r in self.responses if r is not None and r.ok]

    @property
    def wall_rps(self) -> float:
        return len(self.responses) / self.wall_s


def drain(scheduler: VirtualScheduler, max_events: int) -> list:
    """Run ``scheduler`` until idle; returns the exceptions that escaped
    its callbacks.

    A raising callback is recorded and the rest of the queue still runs,
    so a server it wedged shows up as unanswered tickets instead of a
    crash, and ``max_events`` in total turns a scheduler that never goes
    idle into a failure instead of a hang.
    """
    errors = []
    start = scheduler.events_dispatched
    while True:
        left = max_events - (scheduler.events_dispatched - start)
        try:
            scheduler.run_until_idle(max_events=left)
            return errors
        except Exception as exc:  # reported as a problem of the run
            errors.append(f"{type(exc).__name__}: {exc}")
            if scheduler.events_dispatched - start >= max_events:
                return errors


def open_loop(scheduler: VirtualScheduler, submit, inputs, refs: References,
              timer: ServiceTimer, recorder: Recorder | None = None,
              engine_name: str = "serving") -> _Pass:
    """Submit every arrival at its due virtual instant, run the scheduler
    until idle and score every ticket against its reference."""
    arrivals = inputs.arrivals
    tickets: list = [None] * len(arrivals)
    for index, arrival in enumerate(arrivals):
        payload = inputs.payloads[arrival.key][1]

        def fire(index=index, model=arrival.model, payload=payload):
            span = None
            if recorder is not None:
                recorder.rid = index
                span = recorder.open("serving.submit")
            try:
                ticket = tickets[index] = submit(model, payload)
            finally:
                if span is not None:
                    recorder.close(span)
            request = ticket.request
            if request is not None:
                replica = getattr(ticket, "replica", None) or engine_name
                timer.rid_of[(replica, request.id)] = index

        scheduler.call_at(arrival.at_us, fire)
    began = _now()
    errors = drain(scheduler, EVENTS_PER_REQUEST * max(len(arrivals), 1))
    wall_s = _now() - began
    scored = _Pass([t.response if t is not None else None for t in tickets],
                   wall_s, timer, _rss_mb(), errors)
    for response, arrival in zip(scored.responses, arrivals):
        if response is None:
            scored.unanswered += 1
        elif response.status is ResponseStatus.SHED:
            scored.shed += 1
        elif response.status is ResponseStatus.TIMEOUT:
            scored.timeouts += 1
        elif not identical(response.outputs, refs.outputs[arrival.key]):
            scored.mismatches += 1
    return scored


def _score(result: Result, scored: _Pass) -> None:
    result.attempted += len(scored.responses)
    result.failed += scored.failed
    result.problems += [f"scheduler callback raised {error}"
                        for error in scored.errors]
    if scored.unanswered:
        result.problems.append(
            f"{scored.unanswered} request(s) never answered")
    if scored.mismatches:
        result.problems.append(
            f"{scored.mismatches} response(s) differ from a direct run")
    result.report.append(
        f"requests {len(scored.responses)}: ok {len(scored.ok)}, shed "
        f"{scored.shed}, timed out {scored.timeouts}, unanswered "
        f"{scored.unanswered}, mismatched {scored.mismatches}")


def transcript(scored: _Pass) -> tuple:
    return tuple(
        None if r is None else
        (r.status.value, r.path, r.arrival_us, r.finish_us)
        for r in scored.responses)


def _serving_end_to_end(result: Result, ctx: Context, setup_times: list,
                        passes: list, inputs, limit_us: float) -> None:
    """Wall figures from the fastest pass: its rate, and the lowest
    per-pass percentiles of real µs in service, so a pass that other
    load on the host slowed does not count.  Sim figures from the first
    pass, which every later pass repeats exactly.  Peak memory is taken
    when the first pass ends: later passes only add wall samples, and
    how many fit in the run depends on the host's speed."""
    first = passes[0]
    ok = first.ok
    if not ok:
        result.problems.append("no request was answered OK")
        return
    latency = [r.finish_us - r.arrival_us for r in ok]
    makespan = max(r.finish_us for r in ok) - inputs.arrivals[0].at_us
    wall_rps, wall_us_p50, wall_us_p90 = _serving_wall(passes)
    _put_end_to_end(
        result, ctx, setup_times, wall_rps=wall_rps,
        wall_us_p50=wall_us_p50, wall_us_p90=wall_us_p90, wall_samples=f"{len(passes)} pass(es) of {len(first.timer.us)}",
        sim_us=latency,
        sim_rps=1e6 * len(ok) / makespan,
        slo_frac=sum(1 for value in latency if value <= limit_us)
        / len(first.responses), rss_mb=first.rss_mb)
    result.report.append(
        f"passes {len(passes)}: wall rps "
        + ", ".join(f"{p.wall_rps:.1f}" for p in passes))


def _serving_wall(passes: list) -> tuple:
    """(wall_rps, wall_us_p50, wall_us_p90) of the fastest pass: its
    rate, and the lowest per-pass percentiles of real µs in service."""
    return (max(p.wall_rps for p in passes),
            min(percentile(p.timer.us, 50).value for p in passes),
            min(percentile(p.timer.us, 90).value for p in passes))


def _score_passes(result: Result, passes: list) -> None:
    """Score every pass; each must repeat the first one's transcript."""
    for scored in passes:
        _score(result, scored)
    result.transcript = transcript(passes[0])
    diverged = sum(1 for p in passes[1:] if transcript(p) != result.transcript)
    if diverged:
        result.problems.append(
            f"{diverged} pass(es) diverged from the first on the virtual "
            f"clock")


def _passes(seconds: float, one_pass) -> list:
    """Whole passes of ``one_pass()`` until ``seconds`` of real time have
    elapsed (at least one)."""
    passes: list = []
    start = _now()
    while not passes or _now() - start < seconds:
        passes.append(one_pass())
    return passes


def _serving_layers(result: Result, ctx: Context, scored: _Pass,
                    plain: list, servings: list, recorder: Recorder,
                    models, mark: int) -> None:
    """Per-layer metrics of one traced pass.  Call timings average over
    every span (fleet-batch prepares its plans during set-up); shares of
    wall time count only spans from ``mark`` on, which the pass made."""
    ok = scored.ok
    timer = scored.timer
    wall_us = scored.wall_s * 1e6
    summary = recorder.summary()
    in_pass = recorder.summary(mark)

    def mean_us(name: str) -> float:
        entry = summary.get(name)
        return entry["total_us"] / entry["count"] if entry else 0.0

    signature_of = _signature_children(recorder)
    replays = recorder.named("runtime.replay")
    result.put("runtime.signature_us", mean_us("runtime.signature"), "us")
    result.put("runtime.replay_us", _mean(
        s.duration_us - signature_of.get(id(s), 0.0) for s in replays),
        "us")
    result.put("runtime.record_us", mean_us("runtime.record"), "us")
    result.put("runtime.prepare_us", mean_us("runtime.prepare"), "us")
    result.put("runtime.prepare_batched_us",
               mean_us("runtime.prepare_batched"), "us")
    result.put("runtime.run_batched_us", mean_us("runtime.run_batched"),
               "us")
    _plan_layers(result, [s.model(m).engine for s in servings
                          for m in models])
    submit = summary.get("serving.submit")
    result.put("serving.submit_us",
               submit["self_us"] / submit["count"] if submit else 0.0, "us")
    for name, entry in in_pass.items():
        metric = f"{name}.self_frac"
        if metric in SPEC["per_layer"]:
            result.put(metric, entry["self_us"] / wall_us, "frac")
    result.put("serving.unattributed_frac",
               1.0 - recorder.root_us(mark) / wall_us, "frac")

    waits = [max(0.0, r.latency_us - r.stats.total_time_us) for r in ok]
    result.put("serving.queue_wait_us_p50", percentile(waits, 50).value,
               "us")
    result.put("serving.queue_wait_us_p99", percentile(waits, 99).value,
               "us")
    paths: dict = {}
    for response in ok:
        paths[response.path] = paths.get(response.path, 0) + 1
    fallback = paths.get("fallback", 0) + paths.get("quarantined", 0)
    result.put("serving.path.fast_frac", paths.get("fast", 0) / len(ok),
               "frac")
    result.put("serving.path.fallback_frac", fallback / len(ok), "frac")
    counters: dict = {}
    for serving in servings:
        for key, value in serving.counters.items():
            counters[key] = counters.get(key, 0) + value
    result.put("serving.shed", counters["shed"], "count")
    result.put("serving.timeouts", counters["timeouts"], "count")

    result.put("fallback.run_us", mean_us("fallback.run"), "us")
    result.put("fallback.sim_us", _mean(
        r.stats.total_time_us for r in ok
        if r.path in ("fallback", "quarantined")), "us")

    pools = {id(s.pool): s.pool.stats for s in servings}
    jobs = sum(p.jobs_submitted for p in pools.values())
    result.put("pool.jobs", jobs, "count")
    result.put("pool.coalesced",
               sum(p.jobs_coalesced for p in pools.values()), "count")
    result.put("pool.succeeded_frac", sum(
        p.compiles_succeeded for p in pools.values()) / jobs
        if jobs else 0.0, "frac")
    first_arrival: dict = {}
    first_fast: dict = {}
    for response in ok:
        key = (response.model, response.signature)
        first_arrival[key] = min(first_arrival.get(key, response.arrival_us),
                                 response.arrival_us)
        if response.path == "fast":
            first_fast[key] = min(first_fast.get(key, response.finish_us),
                                  response.finish_us)
    warmed = [first_fast[k] - first_arrival[k] for k in first_fast]
    if warmed:
        result.put("pool.time_to_warm_us_p50",
                   percentile(warmed, 50).value, "us")

    tuned = counters["tuned_signatures"]
    if tuned:
        totals: dict = {}
        for serving in servings:
            for key, value in serving.tuning_totals.items():
                totals[key] = totals.get(key, 0) + value
        result.put("tuning.search_ms", mean_us("tuning.search") / 1e3, "ms")
        result.put("tuning.spent_us", totals["spent_us"] / tuned, "us")
        result.put("tuning.improved_frac",
                   totals["improved"] / max(totals["kernels"], 1), "frac")
        result.put("tuning.tuned_served_frac",
                   counters["tuned_served"] / max(counters["fast_served"], 1),
                   "frac")

    if timer.batches:
        result.put("batch.mean_size",
                   _mean(members for members, _dim in timer.batches),
                   "count")
        waste = [s.bucketer(r.model).padding_waste(r.signature)
                 for s in servings for r in s.completed
                 if r.ok and r.path == "batched"]
        result.put("batch.padding_waste", _mean(waste), "frac")
    result.put("batch.exploded", counters.get("batches_exploded", 0),
               "count")
    result.put("batch.batched_frac",
               counters.get("batched_served", 0) / len(ok), "frac")
    result.put("obs.trace_overhead_frac",
               1.0 - scored.wall_rps / median(p.wall_rps for p in plain),
               "frac")
    result.report.append(
        "layer self time (share of traced wall): " + ", ".join(
            f"{name} {entry['self_us'] / wall_us:.3f}"
            for name, entry in sorted(in_pass.items(),
                                      key=lambda kv: -kv[1]["self_us"])))
    _kernel_layers(result, recorder, ctx.device, len(ok))


# ---------------------------------------------------------------------------
# shape-churn
# ---------------------------------------------------------------------------

def shape_churn(ctx: Context) -> Result:
    """Unseen and evicted signatures through one ``ServingEngine`` with
    background compile, the default bounded plan cache and tuning.

    Every pass serves the same arrivals on a fresh engine, so each one
    starts cold; passes repeat until the run's time is up.
    """
    spec = SPEC["workloads"]["shape-churn"]
    result = Result()
    names = spec["models"]
    inputs = gen.shape_churn(
        {name: build_model(name, **BENCH_MODELS[name]) for name in names},
        ctx.seed, spec["grid_per_axis"], spec["repeats_per_model"],
        spec["rate_qps"])
    tracer = Tracer() if ctx.trace else None
    compile_s: dict = {}

    def serving_for(executables):
        scheduler = VirtualScheduler(seed=ctx.seed)
        serving = ServingEngine(ctx.device, scheduler,
                                ServingOptions(tuning=TuningOptions()))
        for name in names:
            serving.register_model(name, executables[name])
        return scheduler, serving

    def setup():
        compile_s.clear()
        models = {name: build_model(name, **BENCH_MODELS[name])
                  for name in names}
        executables = {}
        for name, model in models.items():
            began = _now()
            executables[name] = compile_graph(
                model.graph, CompileOptions(tracer=tracer))
            compile_s[name] = _now() - began
        return models, executables, [serving_for(executables)]

    (models, executables, built), setup_times = _setups(ctx, setup)
    refs = References(ctx.device)
    for key in {arrival.key for arrival in inputs.arrivals}:
        refs.add(key, executables[key[0]], models[key[0]].graph,
                 inputs.payloads[key][1])
    result.problems += refs.problems

    def one_pass(recorder=None):
        scheduler, serving = built.pop() if built else \
            serving_for(executables)
        if recorder is not None:
            recorder.virtual_clock = scheduler.now_us
            _instrument(recorder, [serving], executables)
        timer = ServiceTimer(recorder)
        timer.install(serving, names)
        scored = open_loop(scheduler, serving.submit, inputs, refs, timer,
                           recorder)
        return scored, serving

    plain = [scored for scored, _serving in
             _passes(ctx.seconds / 2 if ctx.trace else ctx.seconds,
                     one_pass)]
    _score_passes(result, plain)
    if not ctx.trace:
        _serving_end_to_end(result, ctx, setup_times, plain, inputs,
                            spec["slo_us"])
        return result

    _zero_layers(result)
    _put_wall(result, *_serving_wall(plain))
    recorder = Recorder()
    traced, serving = one_pass(recorder)
    _score(result, traced)
    if transcript(traced) != result.transcript:
        result.problems.append("traced run diverged from the untraced one")
    _compile_layers(result, tracer, compile_s, executables)
    _serving_layers(result, ctx, traced, plain, [serving], recorder, names,
                    0)
    result.artifact["spans"] = recorder.to_json()
    return result


# ---------------------------------------------------------------------------
# fleet-batch
# ---------------------------------------------------------------------------

def fleet_batch(ctx: Context) -> Result:
    """Two batching replicas behind affinity routing on 12-layer bert,
    every solo and batched plan pre-warmed.

    One pass (pre-warming a fleet costs seconds, so passes cannot
    repeat cheaply): ``requests_per_second`` times the run length.
    """
    spec = SPEC["workloads"]["fleet-batch"]
    result = Result()
    name = "bert"
    sizes = spec["model"]
    requests = max(20, round(spec["requests_per_second"] * ctx.seconds))
    inputs = gen.fleet_batch(
        build_model(name, **sizes), name, ctx.seed,
        requests // 2 if ctx.trace else requests, spec["rate_qps"],
        seqlen_range=tuple(spec["seqlen_range"]))
    batching = BatchingOptions(max_batch_size=spec["max_batch_size"])
    tracer = Tracer() if ctx.trace else None
    compile_s: dict = {}

    def fleet_for(executable, recorder=None):
        program = executable.host_program
        solo: dict = {}
        for _values, payload in inputs.payloads.values():
            solo.setdefault(program.signature(payload), payload)
        scheduler = VirtualScheduler(seed=ctx.seed)
        # Room for every solo plan and a batched plan per padded bucket
        # and batch dim, so the run measures batching, not eviction.
        capacity = len(solo) * (1 + spec["max_batch_size"].bit_length())
        fleet = FleetEngine(ctx.device, scheduler, FleetOptions(
            replicas=spec["replicas"], policy="affinity",
            serving=ServingOptions(
                engine=EngineOptions(plan_capacity=capacity)),
            batching=batching))
        fleet.register_model(name, executable)
        servings = [replica.engine for replica in fleet.replicas()]
        if recorder is not None:
            recorder.virtual_clock = scheduler.now_us
            _instrument(recorder, servings, {name: executable})
        for serving in servings:
            engine = serving.model(name).engine
            for signature, payload in solo.items():
                engine.prepare(payload, signature)
            bucketer = serving.bucketer(name)
            for padded in {bucketer.padded_signature(s) for s in solo}:
                size = 2
                while size <= batching.max_batch_size:
                    engine.prepare_batched(padded, size)
                    size *= 2
        return scheduler, fleet

    def setup():
        compile_s.clear()
        model = build_model(name, **sizes)
        began = _now()
        executable = compile_graph(model.graph,
                                   CompileOptions(tracer=tracer))
        compile_s[name] = _now() - began
        return (model, executable) + fleet_for(executable)

    (model, executable, scheduler, fleet), setup_times = _setups(ctx, setup)
    refs = References(ctx.device)
    for key in {arrival.key for arrival in inputs.arrivals}:
        refs.add(key, executable, model.graph, inputs.payloads[key][1])
    result.problems += refs.problems

    def run(scheduler, fleet, recorder=None):
        timer = ServiceTimer(recorder)
        for replica in fleet.replicas():
            timer.install(replica.engine, [name])
        return open_loop(scheduler, fleet.submit, inputs, refs, timer,
                         recorder)

    plain = [run(scheduler, fleet)]
    _score_passes(result, plain)
    if not ctx.trace:
        _serving_end_to_end(result, ctx, setup_times, plain, inputs,
                            spec["slo_us"])
        _fleet_report(result, fleet)
        return result

    _zero_layers(result)
    _put_wall(result, *_serving_wall(plain))
    recorder = Recorder()
    scheduler, fleet = fleet_for(executable, recorder)
    mark = len(recorder.spans)
    traced = run(scheduler, fleet, recorder)
    _score(result, traced)
    if transcript(traced) != result.transcript:
        result.problems.append("traced run diverged from the untraced one")
    servings = [replica.engine for replica in fleet.replicas()]
    _compile_layers(result, tracer, compile_s, {name: executable})
    _serving_layers(result, ctx, traced, plain, servings, recorder, [name],
                    mark)
    routed = [replica.routed for replica in fleet.replicas()]
    counters = fleet.counters
    result.put("fleet.affinity_hit_frac",
               counters["affinity_hits"] / max(counters["routed"], 1),
               "frac")
    result.put("fleet.spills", counters["affinity_spills"], "count")
    result.put("fleet.imbalance", max(routed) / _mean(routed), "ratio")
    _fleet_report(result, fleet)
    result.artifact["spans"] = recorder.to_json()
    return result


def _fleet_report(result: Result, fleet: FleetEngine) -> None:
    counters = fleet.counters
    result.report.append(
        "fleet: routed " + ", ".join(f"{r.name} {r.routed}"
                                     for r in fleet.replicas())
        + f"; affinity hits {counters['affinity_hits']}, spills "
        f"{counters['affinity_spills']}")


WORKLOADS = {
    "warm-zoo": warm_zoo,
    "shape-churn": shape_churn,
    "fleet-batch": fleet_batch,
}


def digest(value) -> str:
    """Short stable hash of a transcript (for artifacts and tests)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]
