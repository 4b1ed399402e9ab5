"""Seeded workload generation: the only inputs the program under test sees.

Every function here is a pure function of its arguments, so the same
``--seed`` always yields the same requests.  Stratified draws keep a
run's figures close across seeds without narrowing what is sampled:

- shape-churn's axis values come from a jittered grid: the box the
  declared axes span is cut into equal cells, one uniform draw per cell
  — still uniform over the full ranges, but the spread of request sizes
  barely moves from seed to seed;
- Poisson inter-arrival gaps are drawn the same way (stratified
  uniforms through the exponential inverse CDF), so the offered load of
  a run is nearly seed-independent while arrivals stay memoryless;
- the short/long split of bimodal sequence lengths is stratified too,
  so every seed sends the same share of long sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Arrival", "FleetBatchInputs", "ShapeChurnInputs",
           "WarmZooInputs", "bimodal_lengths", "fleet_batch", "grid_axes",
           "poisson_arrivals", "shape_churn", "warm_zoo"]

#: stream ids keep each workload's draws independent of the others.
_WARM_ZOO, _SHAPE_CHURN, _FLEET_BATCH = 1, 2, 3


def _rng(seed: int, stream: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *parts])


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1), one per equal stratum, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def grid_axes(rng: np.random.Generator, axes: dict,
              per_axis: int) -> list[dict]:
    """One uniform point in each of ``per_axis ** len(axes)`` equal cells
    of the box the axes span: uniform over the full declared ranges, and
    the joint spread of request sizes (batch times length, say) is the
    same for every seed."""
    names = list(axes)
    points = []
    for cell in itertools.product(range(per_axis), repeat=len(names)):
        point = {}
        for axis, index in zip(names, cell):
            lo, hi = axes[axis]
            u = (index + rng.random()) / per_axis
            point[axis] = min(lo + int(u * (hi - lo + 1)), hi)
        points.append(point)
    return points


def poisson_arrivals(rng: np.random.Generator, n: int,
                     rate_qps: float) -> np.ndarray:
    """Virtual arrival instants (us) of ``n`` Poisson arrivals."""
    gaps = -np.log1p(-_stratified(rng, n)) * (1e6 / rate_qps)
    return np.cumsum(gaps)


def _signature(values: dict) -> tuple:
    return tuple(sorted(values.items()))


# ---------------------------------------------------------------------------
# warm-zoo: closed loop over a seeded handful of warm signatures per model
# ---------------------------------------------------------------------------

@dataclass
class WarmZooInputs:
    #: (model name, axis values, payload) per distinct warm signature.
    calls: list
    #: one pass of the closed loop: indices into ``calls``.
    stream: list


def warm_zoo(models: dict, seed: int, signatures: int = 3,
             repeats: int = 4) -> WarmZooInputs:
    """``signatures`` distinct points near the low end of every model's
    axes; one pass calls each of them ``repeats`` times, shuffled.

    Every model gets the same share of each pass, so which model sits at
    a latency percentile does not depend on the seed.
    """
    rng = _rng(seed, _WARM_ZOO, 0)
    calls = []
    for name, model in models.items():
        chosen: dict = {}
        while len(chosen) < signatures:
            values = {axis: int(lo + rng.integers(0, max(3, (hi - lo) // 32)))
                      for axis, (lo, hi) in model.axes.items()}
            chosen.setdefault(_signature(values), values)
        for values in chosen.values():
            calls.append((name, values, model.make_inputs(rng, **values)))
    stream = [index for index in range(len(calls)) for _ in range(repeats)]
    stream = [stream[i] for i in rng.permutation(len(stream))]
    return WarmZooInputs(calls=calls, stream=stream)


# ---------------------------------------------------------------------------
# shape-churn: open loop, signatures uniform over the full declared ranges
# ---------------------------------------------------------------------------

@dataclass
class Arrival:
    at_us: float
    model: str
    #: key into the workload's payload table.
    key: tuple


@dataclass
class ShapeChurnInputs:
    arrivals: list
    #: (model, grid index) -> (axis values, payload).
    payloads: dict = field(default_factory=dict)


def shape_churn(models: dict, seed: int, per_axis: int, repeats: int,
                rate_qps: float) -> ShapeChurnInputs:
    """Poisson arrivals of every model's grid signatures plus repeats.

    Each model contributes one arrival per cell of a ``per_axis`` grid
    over its full declared axes (see :func:`grid_axes`) and ``repeats``
    more arrivals of grid signatures picked uniformly, all shuffled and
    interleaved across models.  So most arrivals carry a signature that
    is unseen (or, past the plan capacity, evicted), and a repeat is
    warm only if its compile finished before it arrived.
    """
    names = list(models)
    payloads = {}
    keys = {}
    for part, name in enumerate(names, start=1):
        rng = _rng(seed, _SHAPE_CHURN, part)
        points = grid_axes(rng, models[name].axes, per_axis)
        picks = list(range(len(points))) + [
            int(i) for i in rng.integers(0, len(points), size=repeats)]
        keys[name] = [(name, picks[i]) for i in rng.permutation(len(picks))]
        for index, values in enumerate(points):
            payload_rng = _rng(seed, _SHAPE_CHURN, part, index)
            payloads[(name, index)] = (
                values, models[name].make_inputs(payload_rng, **values))
    rng = _rng(seed, _SHAPE_CHURN, 0)
    order = [name for name in names for _ in keys[name]]
    order = [order[i] for i in rng.permutation(len(order))]
    at = poisson_arrivals(rng, len(order), rate_qps)
    queues = {name: iter(keys[name]) for name in names}
    arrivals = [Arrival(float(at[i]), name, next(queues[name]))
                for i, name in enumerate(order)]
    return ShapeChurnInputs(arrivals=arrivals, payloads=payloads)


# ---------------------------------------------------------------------------
# fleet-batch: open loop, batch 1, bimodal sequence lengths
# ---------------------------------------------------------------------------

@dataclass
class FleetBatchInputs:
    arrivals: list
    #: (model, seqlen, variant) -> (axis values, payload).
    payloads: dict = field(default_factory=dict)


def bimodal_lengths(rng: np.random.Generator, lo: int, hi: int,
                    n: int) -> np.ndarray:
    """The short/long mix of ``sample_axis(..., "bimodal")`` — 70 % near
    ``lo + (hi-lo)/8``, 30 % near ``lo + 3(hi-lo)/4``, jittered by up to
    ``(hi-lo)/16`` — with the mode split and the jitter stratified, so
    the share of long requests is the same for every seed."""
    short, long = lo + (hi - lo) // 8, lo + (hi - lo) * 3 // 4
    half = max(1, (hi - lo) // 16)
    centers = np.where(_stratified(rng, n) < 0.7, short, long)
    jitter = np.floor(_stratified(rng, n) * (2 * half + 1)).astype(np.int64)
    return np.clip(centers + jitter - half, lo, hi).astype(np.int64)


def fleet_batch(model, name: str, seed: int, requests: int,
                rate_qps: float, variants: int = 2,
                seqlen_range: tuple | None = None) -> FleetBatchInputs:
    """Single-sequence requests with bimodal lengths.

    Requests of one length carry one of ``variants`` distinct payloads,
    so batch members of equal length still differ in data and a
    cross-member mix-up in a batch shows as a mismatch.
    """
    rng = _rng(seed, _FLEET_BATCH, 0)
    lo, hi = seqlen_range or model.axes["seqlen"]
    lengths = bimodal_lengths(rng, lo, hi, requests)
    picks = rng.integers(0, variants, size=requests)
    at = poisson_arrivals(rng, requests, rate_qps)
    payloads = {}
    arrivals = []
    for i in range(requests):
        key = (name, int(lengths[i]), int(picks[i]))
        if key not in payloads:
            values = {"batch": 1, "seqlen": key[1]}
            payload_rng = _rng(seed, _FLEET_BATCH, 1, *key[1:])
            payloads[key] = (values,
                             model.make_inputs(payload_rng, **values))
        arrivals.append(Arrival(float(at[i]), name, key))
    return FleetBatchInputs(arrivals=arrivals, payloads=payloads)
