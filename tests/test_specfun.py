"""Laguerre, Airy, and Gauss-Hermite building blocks."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wigsim import specfun
from wigsim.model import NumericalError
from wigsim.specfun import (
    _build_gauss_hermite,
    airy_ai,
    airy_zero,
    gauss_hermite,
    laguerre,
)

from oracles import airy_ode_values, gaussian_moment, laguerre_series

AIRY_A1 = -2.3381074104597674
AIRY_A2 = -4.087949444130971
AIRY_AT_10 = 1.1047532552898695e-10

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# mpmath values at 30 digits, written by tools/mpmath_reference.py; each test
# that reads a table has a companion that recomputes a seeded sample live
MPMATH_REFERENCE = _load_tool("mpmath_reference")
REFERENCE = json.loads((Path(__file__).with_name("mpmath_reference.json")).read_text())


class TestLaguerre:
    def test_matches_binomial_series(self):
        xs = np.linspace(0.0, 10.0, 41)
        for n in range(13):
            want = np.array([laguerre_series(n, x) for x in xs])
            got = laguerre(n, xs)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_value_at_zero(self):
        for n in range(30):
            assert laguerre(n, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_exponential_bound(self):
        # |L_n(x)| <= e^{x/2} for x >= 0
        xs = np.linspace(0.0, 30.0, 61)
        for n in (0, 1, 3, 8, 20):
            assert np.all(np.abs(laguerre(n, xs)) <= np.exp(xs / 2) * (1 + 1e-12))

    def test_three_term_recurrence(self):
        # (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 20.0, 40)
        for n in range(1, 31):
            lhs = (n + 1) * laguerre(n + 1, xs)
            rhs = (2 * n + 1 - xs) * laguerre(n, xs) - n * laguerre(n - 1, xs)
            scale = np.maximum(np.abs(lhs), 1.0)
            assert np.all(np.abs(lhs - rhs) / scale <= 1e-10)

    def test_scalar_and_array_agree(self):
        assert laguerre(2, 1.0) == pytest.approx(laguerre(2, np.array([1.0]))[0], rel=1e-15)

    def test_negative_order_rejected(self):
        # nor a non-integer or a bool degree: laguerre(True, x) is not L_1
        for bad in (-1, 1.5, True, np.array([2])):
            with pytest.raises(ValueError, match="nonnegative integer"):
                laguerre(bad, 0.5)


class TestAiry:
    def test_against_ode_march(self):
        xs = np.array([-12.0, -7.5, -6.9, -3.0, -1.0, -0.2, 0.0, 0.4, 1.7, 3.0])
        want = airy_ode_values(xs)
        got = airy_ai(xs)
        assert np.allclose(got, want, rtol=0, atol=5e-9)

    def test_ode_residual_sweep(self):
        # five-point central second difference of Ai against Ai'' = x Ai;
        # the wider stencil keeps rounding noise below the 1e-7 budget
        xs = np.linspace(-10.0, 5.0, 100)
        h = 5e-3
        second = (
            -airy_ai(xs + 2 * h) + 16 * airy_ai(xs + h) - 30 * airy_ai(xs)
            + 16 * airy_ai(xs - h) - airy_ai(xs - 2 * h)
        ) / (12 * h * h)
        assert np.max(np.abs(second - xs * airy_ai(xs))) <= 1e-7

    def test_value_at_origin(self):
        assert airy_ai(0.0) == pytest.approx(0.3550280539, abs=1e-9)

    def test_decay_value(self):
        assert airy_ai(10.0) < 1e-9
        assert airy_ai(10.0) == pytest.approx(AIRY_AT_10, rel=1e-10)

    def test_vanishes_at_first_zero(self):
        assert abs(airy_ai(-2.3381074105)) <= 1e-9

    def test_scalar_passthrough(self):
        out = airy_ai(1.5)
        assert isinstance(out, float)

    def test_first_zeros(self):
        assert airy_zero(1) == pytest.approx(AIRY_A1, rel=1e-12)
        assert airy_zero(2) == pytest.approx(AIRY_A2, rel=1e-12)

    def test_zero_residuals(self):
        for n in range(1, 31):
            a = airy_zero(n)
            assert abs(airy_ai(a)) <= 1e-10

    def test_zeros_decrease(self):
        zs = [airy_zero(n) for n in range(1, 16)]
        assert all(b < a for a, b in zip(zs, zs[1:]))

    def test_zero_index_validated(self):
        with pytest.raises(ValueError):
            airy_zero(0)

    def test_array_of_zeros_matches_scalar_calls(self):
        zs = airy_zero(np.arange(1, 31))
        assert zs.shape == (30,)
        for n, z in enumerate(zs, start=1):
            want = airy_zero(n)
            assert abs(z - want) <= 1e-13 * abs(want)
            assert abs(airy_ai(z)) <= 1e-10
        assert airy_zero(np.array([[2, 1]])).shape == (1, 2)

    @pytest.mark.parametrize("bad", [np.array([1, 0, 3]), np.array([1.0, 2.0]),
                                     np.array([-2]), 2.0, True])
    def test_array_index_validated(self, bad):
        with pytest.raises(ValueError):
            airy_zero(bad)


def _mp_airy(xs, derivative=0):
    from mpmath import mp   # the `test` extra; a test-only oracle
    with mp.workdps(30):
        return np.array([float(mp.airyai(mp.mpf(float(x)), derivative=derivative)) for x in xs])


# both sides of every branch boundary: the table ends at -8 and 10, and the
# nearest-node switch halfway between nodes
_EDGES = np.array([-8.0, 10.0] + [-8.0 + 0.25 * k + 0.125 for k in range(72)])
_BOUNDARY_XS = np.concatenate([_EDGES + d for d in (-1e-9, 0.0, 1e-9)])


class TestAiryAgainstMpmath:
    def test_ai_absolute_on_negative_axis(self):
        xs = np.concatenate([np.linspace(-15.0, 0.0, 1201), _BOUNDARY_XS[_BOUNDARY_XS <= 0]])
        assert np.max(np.abs(airy_ai(xs) - _mp_airy(xs))) <= 1e-14

    def test_ai_relative_on_positive_axis(self):
        xs = np.concatenate([np.linspace(0.0, 10.0, 801), _BOUNDARY_XS[_BOUNDARY_XS >= 0],
                             np.linspace(10.0, 14.0, 41)])
        want = _mp_airy(xs)
        assert np.max(np.abs(airy_ai(xs) / want - 1.0)) <= 1e-13

    def test_ai_prime_absolute_on_negative_axis(self):
        xs = np.concatenate([np.linspace(-15.0, 0.0, 601), _BOUNDARY_XS[_BOUNDARY_XS <= 0]])
        ai, aip = airy_ai(xs, prime=True)
        assert np.array_equal(ai, airy_ai(xs))
        assert np.max(np.abs(aip - _mp_airy(xs, derivative=1))) <= 1e-13

    def test_ai_prime_relative_on_positive_axis(self):
        xs = np.concatenate([np.linspace(0.0, 14.0, 281), [10.0 - 1e-9, 10.0 + 1e-9]])
        _, aip = airy_ai(xs, prime=True)
        assert np.max(np.abs(aip / _mp_airy(xs, derivative=1) - 1.0)) <= 1e-13

    def test_ai_prime_matches_finite_difference(self):
        xs = np.linspace(-20.0, 12.0, 161)
        h = 1e-3
        diff = (airy_ai(xs - 2 * h) - 8 * airy_ai(xs - h) + 8 * airy_ai(xs + h)
                - airy_ai(xs + 2 * h)) / (12 * h)
        assert np.max(np.abs(airy_ai(xs, prime=True)[1] - diff)) <= 1e-10

    def test_prime_scalar_and_shape(self):
        ai, aip = airy_ai(0.0, prime=True)
        assert isinstance(ai, float) and isinstance(aip, float)
        assert ai == pytest.approx(0.35502805388781724, rel=1e-15)
        assert aip == pytest.approx(-0.25881940379280680, rel=1e-15)
        ai, aip = airy_ai(np.zeros((2, 3)), prime=True)
        assert ai.shape == aip.shape == (2, 3)

    def test_zeros_within_four_ulp(self):
        ns = np.array(REFERENCE["airy_zeros"]["n"])
        want = np.array(REFERENCE["airy_zeros"]["a_n"])
        assert ns.tolist() == MPMATH_REFERENCE.zero_indices()
        got = airy_zero(ns)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_zero_table_sample_equals_live_mpmath(self):
        ns, want = REFERENCE["airy_zeros"]["n"], REFERENCE["airy_zeros"]["a_n"]
        for i in np.random.default_rng(17).choice(len(ns), 5, replace=False):
            assert MPMATH_REFERENCE.airy_zero_entry(ns[i]) == want[i]

    def test_zero_search_reports_no_convergence(self, monkeypatch):
        real = specfun.airy_ai

        def shifted(x, prime=False):
            # Ai + 1 has no real zero, so Newton cannot settle anywhere
            ai, aip = real(x, prime=True)
            return (ai + 1.0, aip) if prime else ai + 1.0

        monkeypatch.setattr(specfun, "airy_ai", shifted)
        with pytest.raises(NumericalError, match=r"n=\[1, 2\]"):
            airy_zero(np.array([1, 2]))

    def test_table_equals_generator_output(self):
        module = _load_tool("airy_table")
        assert np.array_equal(specfun._AIRY_TABLE.ravel(), np.array(module.table()))
        assert np.array_equal(specfun._AIRY_NODES,
                              np.arange(len(specfun._AIRY_TABLE)) * module.STEP + module.X_LO)
        assert specfun._AIRY_NODES[-1] == module.X_HI


class TestGaussHermite:
    def test_weight_sum_is_sqrt_pi(self):
        for n in (1, 2, 7, 32, 101, 200, 256):
            rule = gauss_hermite(n)
            assert math.fsum(rule.weights) == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_single_node_rule(self):
        rule = gauss_hermite(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_nodes_strictly_increasing(self):
        for n in (2, 33, 100, 256):
            rule = gauss_hermite(n)
            assert np.all(np.diff(rule.nodes) > 0)

    def test_low_moments_at_twenty(self):
        rule = gauss_hermite(20)
        m2 = float(np.sum(rule.weights * rule.nodes ** 2))
        m4 = float(np.sum(rule.weights * rule.nodes ** 4))
        assert m2 == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-13)
        assert m4 == pytest.approx(3 * math.sqrt(math.pi) / 4, abs=1e-13)

    def test_even_moments(self):
        rule = gauss_hermite(24)
        for k in (2, 4, 8, 12):
            got = float(np.sum(rule.weights * rule.nodes ** k))
            assert got == pytest.approx(gaussian_moment(k), rel=1e-12)

    def test_odd_moments_vanish(self):
        rule = gauss_hermite(33)
        for k in (1, 3, 7):
            assert abs(np.sum(rule.weights * rule.nodes ** k)) <= 1e-13

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_polynomial_exactness_degree(self, n):
        # an n-point rule integrates every monomial of degree <= 2n-1 exactly;
        # errors are judged against the unsigned mass sum |w| |x|^k, since the
        # odd moments vanish only through cancellation of huge node terms
        rule = gauss_hermite(n)
        for k in range(2 * n):
            got = float(np.sum(rule.weights * rule.nodes ** k))
            scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** k))
            assert abs(got - gaussian_moment(k)) <= 1e-13 * scale + 1e-13

    def test_symmetry_exact(self):
        for n in (8, 9, 64):
            rule = gauss_hermite(n)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            assert np.array_equal(rule.weights, rule.weights[::-1])

    def test_odd_rule_has_exact_center(self):
        rule = gauss_hermite(9)
        assert rule.nodes[4] == 0.0

    def test_node_residuals(self):
        # each node should satisfy the orthonormal recurrence to rounding
        for n in (16, 256):
            rule = gauss_hermite(n)
            for z in rule.nodes:
                p2, p3 = 0.0, 0.0
                p1 = math.pi ** -0.25
                for j in range(1, n + 1):
                    p3 = p2
                    p2 = p1
                    p1 = z * math.sqrt(2.0 / j) * p2 - math.sqrt((j - 1.0) / j) * p3
                pp = math.sqrt(2.0 * n) * p2
                assert abs(p1 / pp) <= 1e-13 * max(1.0, abs(z))

    def test_order_bounds(self):
        # a bool is not an order: True is not the order-1 rule
        for bad in (0, 257, 2.5, True, np.array([4])):
            with pytest.raises(ValueError, match="order must satisfy"):
                gauss_hermite(bad)

    def test_rule_is_built_once_per_order(self):
        assert gauss_hermite(12) is gauss_hermite(np.int64(12))
        assert gauss_hermite(np.array(12)) is gauss_hermite(12)

    def test_shared_rule_is_read_only(self):
        rule = gauss_hermite(7)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0

    def test_cached_rule_equals_fresh_build(self):
        for n in (1, 2, 9, 32, 256):
            fresh = _build_gauss_hermite.__wrapped__(n)
            cached = gauss_hermite(n)
            assert np.array_equal(cached.nodes, fresh.nodes)
            assert np.array_equal(cached.weights, fresh.weights)

    @pytest.mark.parametrize("n", MPMATH_REFERENCE.HERMITE_ORDERS)
    def test_against_mpmath(self, n):
        x_ref = np.array(REFERENCE["gauss_hermite"][str(n)]["nodes"])
        w_ref = np.array(REFERENCE["gauss_hermite"][str(n)]["weights"])
        assert x_ref.shape == w_ref.shape == (n,)
        rule = gauss_hermite(n)
        assert np.all(np.abs(rule.nodes - x_ref) <= 1e-15 * np.maximum(1.0, np.abs(x_ref)))
        assert np.all(np.abs(rule.weights - w_ref) <= 2e-15 * n * w_ref)

    @pytest.mark.parametrize("n", MPMATH_REFERENCE.HERMITE_ORDERS)
    def test_table_sample_equals_live_mpmath(self, n):
        ref = REFERENCE["gauss_hermite"][str(n)]
        for k in np.random.default_rng(n).choice(n, min(n, 5), replace=False):
            want = (ref["nodes"][k], ref["weights"][k])
            assert MPMATH_REFERENCE.hermite_entry(n, ref["nodes"][k]) == want

    def test_weights_positive(self):
        rule = gauss_hermite(256)
        assert np.all(rule.weights > 0)
        assert np.all(np.isfinite(rule.weights))
