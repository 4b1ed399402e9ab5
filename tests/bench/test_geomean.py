"""The experiments' one geometric-mean helper."""

import math

import pytest

from repro.bench.experiments import _geomean


def test_geomean_of_positive_ratios():
    assert _geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert _geomean([3.5]) == pytest.approx(3.5)
    assert _geomean(iter([1.0, 10.0, 100.0])) == pytest.approx(10.0)


def test_geomean_rejects_empty_input():
    with pytest.raises(ValueError, match="no values"):
        _geomean([])


@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan])
def test_geomean_rejects_non_positive_ratios(bad):
    with pytest.raises(ValueError, match="positive"):
        _geomean([2.0, bad])
