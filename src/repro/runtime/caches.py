"""Shape-signature utilities.

Compile-per-shape systems (XLA, and per-bucket systems like TVM/TensorRT)
key their compiled artifacts on a shape signature; the simulated
baselines charge a compile for every signature they have not seen.
BladeDISC itself does not need one — its executable is shape-generic —
which is precisely the point of the comparison.  (The shape-generic
engine *does* key its per-signature launch plans on the same signatures;
see :mod:`repro.runtime.launchplan`.)
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["shape_signature", "make_signature_fn"]


def shape_signature(inputs: Mapping[str, np.ndarray]) -> tuple:
    """A hashable key identifying the exact input shapes of one call.

    Sorting makes the key independent of the mapping's iteration order,
    at the cost of an O(n log n) sort per call.  Hot paths that know the
    program's parameter list should use :func:`make_signature_fn`
    instead, which fixes the order once at compile time.
    """
    return tuple(sorted(
        (name, tuple(int(d) for d in array.shape))
        for name, array in inputs.items()))


def make_signature_fn(params: Sequence) -> Callable[[Mapping], tuple]:
    """Precompute a param-order signature function for one executable.

    The returned callable produces a key with the same distinguishing
    power as :func:`shape_signature` (it covers every parameter's name
    and concrete shape) but walks the parameters in their fixed program
    order — no per-call sort, no tuple-of-int conversion.  Extra entries
    in ``inputs`` are ignored, exactly as ``bind_inputs`` ignores them;
    a missing parameter raises :class:`~repro.numerics.resolve
    .BindingError` just as binding would.
    """
    from ..numerics.resolve import BindingError

    names = tuple(p.attrs["param_name"] for p in params)

    def signature(inputs: Mapping[str, np.ndarray],
                  _names=names) -> tuple:
        try:
            return tuple((name, inputs[name].shape) for name in _names)
        except KeyError as exc:
            raise BindingError(
                f"missing input for parameter {exc.args[0]!r}") from None
    return signature
