"""Tensor-product integration schemes."""

import math

import numpy as np
import pytest

import wigsim.quadrature as quad
from wigsim.model import NumericalError
from wigsim.quadrature import (
    box_scheme,
    hermite_scheme,
    integrate,
)

from oracles import gaussian_moment


def gauss2(x, y):
    return np.exp(-(x ** 2) - y ** 2)


def test_plain_gaussian_2d():
    sch = hermite_scheme((24, 24))
    val = integrate(gauss2, 2, sch)
    assert val == pytest.approx(math.pi, rel=1e-13)


def test_polynomial_times_gaussian():
    sch = hermite_scheme((16, 16))
    val = integrate(lambda x, y: (x ** 4 + y ** 2) * gauss2(x, y), 2, sch)
    want = gaussian_moment(4) * math.sqrt(math.pi) + gaussian_moment(2) * math.sqrt(math.pi)
    assert val == pytest.approx(want, rel=1e-12)


def test_shifted_scaled_gaussian():
    # integral of exp(-((x-3)/2)^2) dx = 2 sqrt(pi)
    sch = hermite_scheme((20,), centers=(3.0,), scales=(2.0,))
    val = integrate(lambda x: np.exp(-(((x - 3.0) / 2.0) ** 2)), 1, sch)
    assert val == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)


def test_box_midpoint_converges():
    sch = box_scheme((400, 400), bounds=((0.0, 1.0), (0.0, 1.0)))
    val = integrate(lambda x, y: x * y, 2, sch)
    assert val == pytest.approx(0.25, rel=1e-12)


def test_box_matches_hermite_on_gaussian():
    b = box_scheme((501, 501), bounds=((-8.0, 8.0), (-8.0, 8.0)))
    h = hermite_scheme((32, 32))
    vb = integrate(gauss2, 2, b)
    vh = integrate(gauss2, 2, h)
    assert vb == pytest.approx(vh, rel=1e-10)


def test_dims_mismatch_rejected():
    sch = hermite_scheme((8, 8))
    with pytest.raises(ValueError):
        integrate(gauss2, 3, sch)


def test_scheme_validation():
    with pytest.raises(ValueError):
        hermite_scheme(())
    with pytest.raises(ValueError):
        hermite_scheme((8,), scales=(0.0,))
    with pytest.raises(ValueError):
        box_scheme((10,), bounds=((1.0, 0.0),))
    with pytest.raises(ValueError):
        hermite_scheme((8,), centers=(0.0, 0.0))
    # infinite bounds, a width hi - lo that overflows, a non-finite center
    for bounds in (((-math.inf, 0.0),), ((0.0, math.inf),), ((-1e308, 1e308),)):
        with pytest.raises(ValueError, match="finite width"):
            box_scheme((10,), bounds=bounds)
    for center in (math.nan, math.inf):
        with pytest.raises(ValueError, match="centers must be finite"):
            hermite_scheme((8,), centers=(center,))
    # an order that is not an integer is rejected, not truncated
    with pytest.raises(ValueError, match="orders must be positive integers"):
        box_scheme((2.7,), [(0, 1)])
    with pytest.raises(ValueError, match="orders must be positive integers"):
        hermite_scheme((2.7,))


def test_node_budget_rejects_before_allocating(monkeypatch):
    # the whole grid is held in memory at once, so its node count is bounded
    monkeypatch.setattr(quad, "_NODE_LIMIT", 64)

    def ones(*coords):
        return np.ones(np.broadcast_shapes(*(np.shape(c) for c in coords)))

    assert integrate(ones, 3, box_scheme((4, 4, 4), [(0.0, 1.0)] * 3)) == pytest.approx(1.0)
    assert integrate(ones, 1, box_scheme((64,), [(0.0, 1.0)])) == pytest.approx(1.0)

    def no_axes(scheme):
        raise AssertionError("nodes were built for a rejected scheme")

    monkeypatch.setattr(quad, "_axes", no_axes)
    for orders in ((2, 9, 4), (5, 13), (65,)):
        sch = box_scheme(orders, [(0.0, 1.0)] * len(orders))
        with pytest.raises(ValueError, match=f"grid has {math.prod(orders)} nodes"):
            integrate(ones, len(orders), sch)


def test_nonfinite_integrand_reports_node():
    sch = box_scheme((5,), bounds=((0.0, 1.0),))

    def bad(x):
        out = np.ones_like(x)
        out[x > 0.5] = np.nan
        return out

    with pytest.raises(NumericalError) as err:
        integrate(bad, 1, sch)
    assert "0.7" in str(err.value)


def test_overflowing_weighted_sum_is_not_finite():
    # every node value is finite, but the box weights are ~8e199 and the sum
    # overflows; the library keeps numpy's default warning on the way
    sch = box_scheme((5, 5), [(-1e200, 1e200)] * 2)
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(NumericalError, match="weighted sum .* not finite: inf"):
        integrate(lambda x, y: np.ones(np.broadcast(x, y).shape), 2, sch)


def test_chunked_error_names_every_coordinate():
    # the whole 4D grid is one call of f; the first inf in C order is named
    # by all four of its coordinates
    sch = box_scheme((8,) * 4, [(-1.0, 1.0)] * 4)
    calls = []

    def spike(x, y, px, py):
        calls.append(np.broadcast_shapes(*map(np.shape, (x, y, px, py))))
        return np.where((x < -0.8) & (y < -0.8), np.inf, 1.0) + 0.0 * (px + py)

    with pytest.raises(NumericalError) as err:
        integrate(spike, 4, sch)
    assert calls == [(8, 8, 8, 8)]
    assert str(err.value).endswith("node (-0.875, -0.875, -0.875, -0.875)")


def test_integrate_returns_float():
    val = integrate(gauss2, 2, hermite_scheme((12, 12)))
    assert type(val) is float
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_integrate_deterministic():
    sch = hermite_scheme((32, 32), centers=(0.3, -0.2))
    a = integrate(gauss2, 2, sch)
    b = integrate(gauss2, 2, sch)
    assert a == b
