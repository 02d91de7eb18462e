"""Tensor-product integration schemes."""

import math

import numpy as np
import pytest

import wigsim.quadrature as quad
from wigsim.quadrature import (
    NonFiniteIntegrandError,
    QuadratureScheme,
    SchemeKind,
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
        QuadratureScheme(kind=SchemeKind.TENSOR_HERMITE, orders=(8,),
                         centers=(0.0, 0.0), scales=(1.0,), bounds=None)


def test_nonfinite_integrand_reports_node():
    sch = box_scheme((5,), bounds=((0.0, 1.0),))

    def bad(x):
        out = np.ones_like(x)
        out[x > 0.5] = np.nan
        return out

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate(bad, 1, sch)
    assert "0.7" in str(err.value)


def test_chunked_matches_unchunked(monkeypatch):
    sch = hermite_scheme((40, 40))
    whole = integrate(gauss2, 2, sch)
    monkeypatch.setattr(quad, "_CHUNK_LIMIT", 64)
    pieces = integrate(gauss2, 2, sch)
    assert pieces == pytest.approx(whole, rel=1e-13)


def test_chunked_error_names_every_coordinate():
    # 46^4 nodes are above the chunk limit, so the first axis runs one node
    # per chunk; the inf sits in the first chunk, which is the only one run
    sch = box_scheme((46,) * 4, [(-1.0, 1.0)] * 4)
    assert math.prod(sch.orders) > quad._CHUNK_LIMIT
    calls = []

    def spike(x, y, px, py):
        calls.append(np.shape(x))
        return np.where((x < -0.97) & (y < -0.97), np.inf, 1.0) + 0.0 * (px + py)

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate(spike, 4, sch)
    assert calls == [(1, 1, 1, 1)]
    node = str(err.value).split("node ", 1)[1]
    assert node.count(",") == 3
    assert node.startswith("(-0.978")


@pytest.mark.parametrize("limit", [10 ** 6, 64], ids=["one-chunk", "per-node"])
def test_integrate_returns_float(monkeypatch, limit):
    monkeypatch.setattr(quad, "_CHUNK_LIMIT", limit)
    val = integrate(gauss2, 2, hermite_scheme((12, 12)))
    assert type(val) is float
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_integrate_deterministic():
    sch = hermite_scheme((32, 32), centers=(0.3, -0.2))
    a = integrate(gauss2, 2, sch)
    b = integrate(gauss2, 2, sch)
    assert a == b
