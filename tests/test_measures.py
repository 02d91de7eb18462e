"""Fidelity and entropy measures."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wigsim import dynamics, measures
from wigsim.dynamics import evolve
from wigsim.measures import (
    EntropyConvention,
    entropy_vs_field,
    fidelity_curve,
    fidelity_quadrature,
    shannon_entropy,
)
from wigsim.model import NumericalError, PhasePoint, SystemKind, SystemParams
from wigsim.quadrature import box_scheme, hermite_scheme, integrate
from wigsim.wigner import Gaussian2D, GaussianWigner, LandauState, StationaryHOState

from oracles import fidelity_gaussian_closed, paper_form_point, printed_fidelity
from test_dynamics import _PROPERTY, valid_params

C0 = PhasePoint(1.0, 1.0, 1.0, 1.0)
ORIGIN = PhasePoint(0.0, 0.0, 0.0, 0.0)


class _Offset:
    """Gaussian shifted down by a constant; probes the negativity clamp."""

    def __init__(self, dip):
        self.base = GaussianWigner()
        self.dip = dip

    def value(self, x, y, px, py):
        return self.base.value(x, y, px, py) - self.dip


class _Scaled2D:
    """Sector Gaussian times a constant; probes entropy conventions."""

    def __init__(self, factor):
        self.base = Gaussian2D()
        self.factor = factor

    def value(self, a, b):
        return self.factor * self.base.value(a, b)


class TestFidelityClosed:
    def test_displacement_value(self):
        assert fidelity_gaussian_closed(ORIGIN, C0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_identity_at_zero_displacement(self):
        assert fidelity_gaussian_closed(C0, C0) == 1.0

    def test_symmetric(self):
        a = PhasePoint(0.3, -0.7, 1.2, 0.1)
        assert fidelity_gaussian_closed(a, C0) == pytest.approx(
            fidelity_gaussian_closed(C0, a), rel=1e-15)

    def test_broadcasts(self):
        ct = PhasePoint(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        out = fidelity_gaussian_closed(ORIGIN, ct)
        assert out.shape == (2,)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(math.exp(-2.0), rel=1e-14)


class TestFidelityQuadrature:
    def test_matches_closed_form(self):
        w0 = GaussianWigner(ORIGIN)
        for ct in (C0, PhasePoint(2.0, -1.0, 0.5, 0.0)):
            wt = GaussianWigner(ct)
            got = fidelity_quadrature(
                w0, wt, hermite_scheme((32,) * 4, centers=0.5 * np.add(w0.center, wt.center)))
            assert got == pytest.approx(fidelity_gaussian_closed(ORIGIN, ct), rel=1e-13)

    def test_trap_ground_state_matches_gaussian(self):
        p = SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)
        state = StationaryHOState(0, 0, p)
        w = GaussianWigner()
        got = fidelity_quadrature(state, w, hermite_scheme((32,) * 4))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_excited_state_rejected(self):
        p = SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)
        state = StationaryHOState(1, 0, p)
        w = GaussianWigner()
        with pytest.raises(NumericalError, match="is negative at node") as err:
            fidelity_quadrature(state, w, hermite_scheme((32,) * 4))
        assert "StationaryHOState" in str(err.value)

    def test_rounding_dips_clamped(self):
        w = GaussianWigner()
        soft = _Offset(5e-13)
        sch = hermite_scheme((32,) * 4)
        val = fidelity_quadrature(w, soft, sch)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_real_negativity_raises(self):
        w = GaussianWigner()
        bad = _Offset(1e-9)
        sch = hermite_scheme((32,) * 4)
        with pytest.raises(NumericalError, match="is negative at node"):
            fidelity_quadrature(w, bad, sch)


def _paper_column(omega, ts, form, c0=C0):
    """The paper column of the omega0 = 1 trap at field rotation omega (b0 = 2 omega)."""
    params = SystemParams(kind=SystemKind.HO_FIELD, b0=2.0 * omega, omega0=1.0)
    return fidelity_curve(params, c0, ts, order=1, form=form).paper


class TestPaperForm:
    def test_equals_closed_form_on_its_trajectory(self):
        ts = np.linspace(0.0, 12.0, 97)
        for omega, form in itertools.product((0.1, 0.5, 1.0), ("consistent", "paper")):
            want = fidelity_gaussian_closed(C0, paper_form_point(omega, ts, C0))
            got = _paper_column(omega, ts, form)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
            assert np.allclose(got, printed_fidelity(omega, ts, C0), rtol=1e-12, atol=1e-14)

    def test_paper_form_column_is_its_closed_column(self):
        # the family's displacement is formed once: in paper form the two columns are one array
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)
        ts = np.linspace(0.0, 6.0, 7)
        curve = fidelity_curve(p, C0, ts, order=4, form="paper")
        assert curve.paper is curve.closed
        assert fidelity_curve(p, C0, ts, order=4).paper.tolist() == curve.closed.tolist()

    @pytest.mark.parametrize("b0", [0.1, 0.5, 1.0, 1.9])
    def test_printed_family_is_the_trap_at_total_frequency_one(self, b0):
        # the printed family holds big_omega at 1: it is the trap at omega0' = sqrt(1 - omega^2)
        unit = SystemParams(kind=SystemKind.HO_FIELD, b0=b0, omega0=1.0)
        trap = SystemParams(kind=SystemKind.HO_FIELD, b0=b0,
                            omega0=math.sqrt(1.0 - unit.omega ** 2))
        assert trap.big_omega == 1.0
        ts = np.linspace(0.0, 40.0, 4001)
        c0 = PhasePoint(0.3, -0.7, 1.1, 0.4)
        assert np.array_equal(fidelity_curve(unit, c0, ts, order=1).paper,
                              fidelity_curve(trap, c0, ts, order=1).closed)

    @pytest.mark.parametrize("form", ["consistent", "paper"])
    def test_far_centre_keeps_its_digits(self, form):
        # the printed exp[|c0|^2 (cos t cos omega t - 1) + ...] cancels in its bracket
        # and printed 0.587869973615 here; the displacement's value is mpmath's
        c0 = PhasePoint(1e5, 0.0, 0.0, 0.0)
        got = _paper_column(0.25, [1e-5, 4e-5], form, c0)
        assert got.tolist() == pytest.approx([0.587869673126, 0.00020346836931], rel=1e-11)

    def test_unity_at_zero(self):
        for form in ("consistent", "paper"):
            assert _paper_column(0.5, 0.0, form)[0] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("t", [math.inf, np.array([0.0, math.nan, 1.0])],
                             ids=["scalar-inf", "array-nan"])
    def test_non_finite_time_rejected(self, t):
        params = SystemParams(kind=SystemKind.HO_FIELD, b0=1.0, omega0=1.0)
        with pytest.raises(ValueError, match="times must be finite"):
            fidelity_curve(params, C0, t, form="paper")

    def test_period_without_field(self):
        # omega = 0: pure oscillation, full revival at t = 2 pi
        for form in ("consistent", "paper"):
            assert _paper_column(0.0, 2 * math.pi, form)[0] == pytest.approx(1.0, rel=1e-12)


class TestFidelityCurve:
    def test_consistent_curve_trap(self):
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=1.0, omega0=1.0)
        ts = np.linspace(0.0, 2.0, 5)
        curve = fidelity_curve(p, C0, ts, order=24)
        assert curve.closed[0] == pytest.approx(1.0, rel=1e-13)
        assert np.all(curve.abs_diff <= 1e-10)
        assert curve.paper is not None
        assert curve.paper[0] == pytest.approx(1.0, rel=1e-13)

    def test_paper_form_requires_unit_trap(self):
        free = SystemParams(kind=SystemKind.FREE_FIELD, b0=1.0)
        with pytest.raises(ValueError):
            fidelity_curve(free, C0, [0.0, 1.0], form="paper")
        soft = SystemParams(kind=SystemKind.HO_FIELD, b0=1.0, omega0=0.5)
        with pytest.raises(ValueError):
            fidelity_curve(soft, C0, [0.0, 1.0], form="paper")

    def test_free_curve_has_no_paper_column(self):
        free = SystemParams(kind=SystemKind.FREE_FIELD, b0=1.0)
        curve = fidelity_curve(free, C0, np.linspace(0.0, 1.0, 3), order=16)
        assert curve.paper is None
        assert np.all(curve.abs_diff <= 1e-10)

    @pytest.mark.parametrize("system, form", [
        ("ho", "consistent"), ("ho", "paper"), ("free", "consistent"),
        ("gqw", "consistent"), ("gqw-b", "consistent"),
    ])
    def test_sector_product_matches_4d_oracle(self, system, form):
        params = {
            "ho": SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0),
            "free": SystemParams(kind=SystemKind.FREE_FIELD, b0=0.5),
            "gqw": SystemParams(kind=SystemKind.GQW_BALLISTIC, g=0.3),
            "gqw-b": SystemParams(kind=SystemKind.GQW_FIELD, b0=0.5, g=0.3),
        }[system]
        c0 = PhasePoint(0.3, -0.7, 1.1, 0.4)
        ts = np.linspace(0.0, 6.0, 7)
        curve = fidelity_curve(params, c0, ts, order=8, form=form)
        ct = (paper_form_point(params.omega, ts, c0) if form == "paper"
              else evolve(params, c0, ts))
        # the 4D oracle on W0's own rule: centred at c0, not at the pair's midpoint
        w0 = GaussianWigner(c0)
        for i, center in enumerate(ct.as_array()):
            wt = GaussianWigner(PhasePoint(*center))
            want = fidelity_quadrature(w0, wt, hermite_scheme((8,) * 4, centers=w0.center))
            assert curve.quad[i] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("form", ["consistent", "paper"])
    @pytest.mark.parametrize("times", [math.inf, np.array([0.0, math.nan, 1.0])],
                             ids=["scalar-inf", "array-nan"])
    def test_non_finite_time_rejected(self, form, times):
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)
        with pytest.raises(ValueError, match="finite"):
            fidelity_curve(p, C0, times, order=2, form=form)

    @pytest.mark.parametrize("form", ["consistent", "paper"])
    def test_scalar_time_gives_one_sample(self, form):
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)
        c0 = PhasePoint(1.0, 1.0, 1.0, 1.0)
        curve = fidelity_curve(p, c0, 1.0, order=4, form=form)
        want = fidelity_curve(p, c0, [1.0], order=4, form=form)
        for name in ("times", "closed", "quad", "paper", "abs_diff"):
            got, ref = getattr(curve, name), getattr(want, name)
            assert got.shape == (1,)
            assert got.tolist() == ref.tolist()

    def test_unknown_form_rejected(self):
        p = SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)
        with pytest.raises(ValueError):
            fidelity_curve(p, C0, [0.0], form="exotic")

    @pytest.mark.parametrize("form", ["consistent", "paper"])
    @pytest.mark.parametrize("c0", [
        PhasePoint(math.inf, 1.0, 1.0, 1.0),
        PhasePoint(np.array([1.0, math.nan, 2.0]), 1.0, 1.0, 1.0),
    ], ids=["scalar-inf", "array-nan"])
    def test_non_finite_initial_point_rejected(self, form, c0):
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)
        with pytest.raises(ValueError, match="finite"):
            fidelity_curve(p, c0, np.linspace(0.0, 1.0, 3), order=2, form=form)

    @pytest.mark.parametrize("form", ["consistent", "paper"])
    def test_far_center_rejected_before_the_flow(self, monkeypatch, form):
        # the flow's arrays scale with the times, so a c0 whose |c0|^2
        # overflows must be refused before either form's flow is applied
        def no_flow(*args):
            raise AssertionError("the flow was built for an out-of-range initial point")

        # every flow is applied here, through either module's name for it
        monkeypatch.setattr(dynamics, "_displacement", no_flow)
        monkeypatch.setattr(measures, "_displacement", no_flow)
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)
        for c0 in (PhasePoint(1e300, 0.0, 0.0, 0.0), PhasePoint(0.0, 0.0, 0.0, -2.0 ** 510)):
            with pytest.raises(ValueError, match="below 2\\^510"):
                fidelity_curve(p, c0, np.linspace(0.0, 1.0, 3), order=2, form=form)

    @_PROPERTY
    @given(valid_params(), st.tuples(*[st.floats(-5.0, 5.0)] * 4), st.floats(-10.0, 10.0),
           st.integers(1, 64))
    def test_columns_stay_in_unit_interval(self, params, z0, t, order):
        # closed = exp(-d^2/2) is at most 1 exactly; quad is capped at 1
        curve = fidelity_curve(params, PhasePoint(*z0), [0.0, t], order=order)
        assert np.all((curve.closed >= 0.0) & (curve.closed <= 1.0))
        assert np.all((curve.quad >= 0.0) & (curve.quad <= 1.0))

    def test_far_free_quadrature_error_falls_with_order(self):
        # d = (2 pi, 2 pi, 0, 0) beside x0 = 1e100: the rule's error, well above
        # rounding at orders 8 and 16, falls as the order doubles
        free = SystemParams(kind=SystemKind.FREE_FIELD, b0=0.0)
        far = PhasePoint(1e100, 1.0, 1.0, 1.0)
        rel = [fidelity_curve(free, far, [2.0 * math.pi], order=n).abs_diff[0]
               / math.exp(-4.0 * math.pi ** 2) for n in (8, 16, 32)]
        assert rel[0] > rel[1] > 1e-6 > 1e-12 > rel[2]

    def test_quad_rounding_excess_capped_at_one(self):
        # uncapped, the order-100 sector sums at t = 0 round to 1 + 9e-16
        p = SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)
        curve = fidelity_curve(p, PhasePoint(0.0, 0.0, 0.0, 0.0), [0.0], order=100)
        assert curve.quad[0] == 1.0
        assert curve.abs_diff[0] == 0.0


# the field's effect on a curve: the largest |F_b0 - F_0| over tau in [0, 4 pi],
# with F_0 the zero-field curve (the ballistic flow for gqw-b)
def _field_effect(kind, b0, g=0.0):
    taus = np.linspace(0.0, 4.0 * math.pi, 40001)
    zero_kind = SystemKind.GQW_BALLISTIC if kind is SystemKind.GQW_FIELD else kind
    f_b0, f_0 = (fidelity_curve(SystemParams(kind=k, b0=b, g=g), C0, taus, order=1).closed
                 for k, b in ((kind, b0), (zero_kind, 0.0)))
    return float(np.max(np.abs(f_b0 - f_0)))


# the abstract says gravity suppresses the field's effect on the fidelity; on
# this measure that holds from b0 = 0.5 up and fails at b0 = 0.1 (gqw-b / free)
@pytest.mark.parametrize("g, b0, ratio", [
    (2.0, 0.1, 13.44), (9.81, 0.1, 2.69), (2.0, 0.5, 0.113), (2.0, 1.0, 0.230)])
def test_gravitational_suppression_depends_on_field(g, b0, ratio):
    got = (_field_effect(SystemKind.GQW_FIELD, b0, g)
           / _field_effect(SystemKind.FREE_FIELD, b0))
    assert got > 1.0 if b0 < 0.5 else got < 1.0
    assert got == pytest.approx(ratio, rel=5e-3)


class TestEntropy:
    def test_unit_gaussian_sector(self):
        # -/int w ln w for w = e^{-a^2-b^2}/pi is ln(pi) + 1
        sch = box_scheme((101, 101), [(-8.0, 8.0)] * 2)
        res = shannon_entropy(Gaussian2D(), sch)
        assert res == pytest.approx(math.log(math.pi) + 1.0, abs=1e-8)

    def test_product_state_additivity(self):
        w = GaussianWigner(PhasePoint(0.5, -0.3, 0.2, 0.0))
        sch4 = box_scheme((45,) * 4, [(-8.0, 8.0)] * 4)
        sch2 = box_scheme((45,) * 2, [(-8.0, 8.0)] * 2)
        total = shannon_entropy(w, sch4)
        sx = shannon_entropy(w.sector_x, sch2)
        sy = shannon_entropy(w.sector_y, sch2)
        assert total == pytest.approx(sx + sy, abs=1e-8)

    def test_normalized_convention_relation(self):
        # S_norm = S_raw / Z + ln Z for a state of box mass Z
        doubled = _Scaled2D(2.0)
        sch = box_scheme((101, 101), [(-8.0, 8.0)] * 2)
        raw = shannon_entropy(doubled, sch)
        norm = shannon_entropy(doubled, sch, EntropyConvention.NORMALIZED_BOX)
        z = 2.0
        assert norm == pytest.approx(raw / z + math.log(z), abs=1e-9)

    def test_normalized_convention_scale_invariant(self):
        sch = box_scheme((81, 81), [(-8.0, 8.0)] * 2)
        a = shannon_entropy(_Scaled2D(1.0), sch, EntropyConvention.NORMALIZED_BOX)
        b = shannon_entropy(_Scaled2D(7.3), sch, EntropyConvention.NORMALIZED_BOX)
        assert a == pytest.approx(b, abs=1e-10)

    def test_hermite_scheme_rejected(self):
        from wigsim.quadrature import hermite_scheme
        with pytest.raises(ValueError):
            shannon_entropy(Gaussian2D(), hermite_scheme((16, 16)))


class TestEntropyVsField:
    def test_trap_curve_is_flat(self):
        values = entropy_vs_field([SystemParams(kind=SystemKind.HO_FIELD, b0=b0, omega0=1.0)
                                   for b0 in (0.0, 0.5, 1.0)], nodes_per_axis=81)
        want = 2.0 * (math.log(math.pi) + 1.0)
        for v in values:
            assert v == pytest.approx(want, abs=1e-6)

    def test_free_curve_vanishes_with_field(self):
        values = entropy_vs_field([SystemParams(kind=SystemKind.FREE_FIELD, b0=b0)
                                   for b0 in (0.05, 0.2, 0.5)], nodes_per_axis=41)
        assert all(v > 0 for v in values)
        assert values[0] < values[1] < values[2]
        # the raw box entropy of the lowest Landau level is linear in b0
        assert values[0] / values[2] == pytest.approx(0.1, rel=0.02)

    @pytest.mark.parametrize("kind", [SystemKind.HO_FIELD, SystemKind.FREE_FIELD],
                             ids=["ho", "free"])
    @pytest.mark.parametrize("convention", list(EntropyConvention))
    @pytest.mark.parametrize("half_width", [1.0, 2.0, 8.0])
    def test_trap_sector_route_matches_4d_box(self, half_width, convention, kind):
        # the sweep's sector route against the 4D oracle, for the trap ground
        # state and the lowest Landau level; boxes of half-width 1 and 2
        # truncate the state, so each sector's box mass enters the raw sum
        if kind is SystemKind.HO_FIELD:
            params = SystemParams(kind=kind, b0=0.5, omega0=1.0)
            state = StationaryHOState(0, 0, params)
        else:
            params = SystemParams(kind=kind, b0=0.5)
            state = LandauState(0, params)
        [got] = entropy_vs_field([params], box_half_width=half_width,
                                 nodes_per_axis=41, convention=convention)
        box = box_scheme((41,) * 4, [(-half_width, half_width)] * 4)
        want = shannon_entropy(state, box, convention)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("half_width, want", [(1.0, 1.666462), (2.0, 4.128245)])
    def test_trap_truncating_box_values(self, half_width, want):
        [got] = entropy_vs_field([SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)],
                                 box_half_width=half_width, nodes_per_axis=41)
        assert got == pytest.approx(want, abs=1e-6)

    def test_raw_landau_keeps_printed_prefactor(self):
        # the raw sweep integrates W_0 as printed, not box-normalized: its box
        # mass is the erf closed form of the two truncated ridges (64 here)
        p = SystemParams(kind=SystemKind.FREE_FIELD, b0=0.5)
        half_width, a = 8.0, math.sqrt(p.mass * p.omega)

        def ridge(z):
            return z * math.erf(z) + math.exp(-z * z) / math.sqrt(math.pi)

        sector = math.sqrt(math.pi) * (ridge(a * half_width + half_width / a)
                                       - ridge(a * half_width - half_width / a))
        state = LandauState(0, p)
        box41 = box_scheme((41,) * 4, [(-half_width, half_width)] * 4)
        assert integrate(state.value, 4, box41) == pytest.approx(sector ** 2 / math.pi, rel=1e-6)
        assert sector ** 2 / math.pi == pytest.approx(64.0, rel=1e-12)
        box = box_scheme((21,) * 4, [(-half_width, half_width)] * 4)
        [got] = entropy_vs_field([p], box_half_width=half_width, nodes_per_axis=21)
        # the sweep sums over the two Landau ridges, the oracle over the 4D box
        assert got == pytest.approx(shannon_entropy(state, box), rel=1e-12)

    def test_gravitational_kind_rejected(self):
        with pytest.raises(ValueError):
            entropy_vs_field([SystemParams(kind=SystemKind.GQW_BALLISTIC, b0=0.1)])

    def test_non_integer_node_count_rejected(self):
        # 41.9 nodes per axis is not read as 41
        with pytest.raises(ValueError, match="orders must be positive integers"):
            entropy_vs_field([SystemParams(kind=SystemKind.HO_FIELD, b0=0.5, omega0=1.0)],
                             nodes_per_axis=41.9)
