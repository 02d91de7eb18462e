"""Noncommutative parameter maps."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wigsim.dynamics import flow_map
from wigsim.model import PhasePoint, SystemKind, SystemParams
from wigsim.ncmap import (
    CoordinateShift,
    NCParams,
    auxiliary_s,
    effective_b0,
    gqw_nc_map,
    sigma_invertible,
)
from oracles import nc_modes


def test_trapped_effective_field():
    # m = hbar = q = 1, omega0 = 1: B_eff = theta + eta
    p = SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)
    nc = NCParams(theta=0.1, eta=0.2)
    assert effective_b0(nc, p) == pytest.approx(0.3, rel=1e-15)


def test_trapped_field_scales_with_mass_and_trap():
    p = SystemParams(kind=SystemKind.HO_FIELD, mass=2.0, omega0=3.0)
    nc = NCParams(theta=0.5, eta=0.0)
    # m^2 omega0^2 theta / (q hbar) = 4 * 9 * 0.5
    assert effective_b0(nc, p) == pytest.approx(18.0, rel=1e-14)


def test_free_effective_field_ignores_theta():
    p = SystemParams(kind=SystemKind.FREE_FIELD)
    a = effective_b0(NCParams(theta=0.0, eta=0.2), p)
    b = effective_b0(NCParams(theta=5.0, eta=0.2), p)
    assert a == b == pytest.approx(0.2, rel=1e-15)


def test_effective_field_uses_charge_and_hbar():
    p = SystemParams(kind=SystemKind.FREE_FIELD, hbar=2.0, charge=0.5)
    assert effective_b0(NCParams(eta=0.2), p) == pytest.approx(0.2, rel=1e-15)


def test_zero_charge_rejected():
    p = SystemParams(kind=SystemKind.FREE_FIELD, charge=0.0)
    with pytest.raises(ValueError):
        effective_b0(NCParams(eta=0.1), p)
    trap = SystemParams(kind=SystemKind.HO_FIELD, charge=0.0, omega0=1.0)
    with pytest.raises(ValueError):
        effective_b0(NCParams(eta=0.1), trap)


@pytest.mark.parametrize("mass, hbar, charge, theta, eta", [
    (1.0, 1.0, 1.0, 0.1, 0.2),
    (2.0, 0.5, 1.5, 0.3, 0.05),
    (0.5, 2.0, 0.8, 5.0, 0.4),
    (1e200, 3.0, 0.7, 1e300, 0.3),
])
def test_trap_map_at_omega0_zero_is_the_free_map(mass, hbar, charge, theta, eta):
    # omega0 = 0 drops theta: eta / (q hbar) rounded once, for every system without a trap
    want = float(Fraction(eta) / (Fraction(charge) * Fraction(hbar)))
    nc = NCParams(theta=theta, eta=eta)
    for kind in (SystemKind.HO_FIELD, SystemKind.FREE_FIELD, SystemKind.GQW_FIELD):
        p = SystemParams(kind=kind, mass=mass, hbar=hbar, charge=charge)
        assert effective_b0(nc, p) == want
    assert effective_b0(nc, SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, hbar=hbar,
                                         charge=charge, g=2.0)) == want


def test_gqw_map_field_and_shift():
    p = SystemParams(kind=SystemKind.GQW_FIELD, b0=0.0, g=2.0)
    nc = NCParams(theta=0.4, eta=0.3, nu=2.0)
    assert effective_b0(nc, p) == pytest.approx(0.3, rel=1e-15)
    shift = gqw_nc_map(nc, p)
    assert isinstance(shift, CoordinateShift)
    assert shift.scale_x == 2.0
    assert shift.shear_x_from_py == pytest.approx(-0.1, rel=1e-14)


def test_shift_apply():
    shift = CoordinateShift(scale_x=2.0, shear_x_from_py=-0.1)
    pt = shift.apply(PhasePoint(1.0, 5.0, 6.0, 1.0))
    assert pt.x == pytest.approx(1.9, rel=1e-15)
    assert (pt.y, pt.px, pt.py) == (5.0, 6.0, 1.0)


def test_auxiliary_s_values():
    assert auxiliary_s(1.0, 1.0) == 0.0
    assert auxiliary_s(0.5, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert auxiliary_s(2.0, 1.0) == pytest.approx(-0.5, rel=1e-15)


def test_sigma_invertibility_boundary():
    assert sigma_invertible(NCParams(theta=0.5, eta=0.5), hbar=1.0)
    assert not sigma_invertible(NCParams(theta=1.0, eta=1.0), hbar=1.0)
    assert not sigma_invertible(NCParams(theta=0.5, eta=2.0), hbar=1.0)
    assert sigma_invertible(NCParams(theta=0.5, eta=2.0), hbar=2.0)


def test_products_that_leave_float_range():
    # m^2 overflows, q hbar and hbar^2 underflow; each form is exact before rounding
    heavy = SystemParams(kind=SystemKind.HO_FIELD, mass=1e200, omega0=1.0)
    assert effective_b0(NCParams(), heavy) == 0.0
    tiny = SystemParams(kind=SystemKind.FREE_FIELD, charge=1e-300, hbar=1e-100)
    assert effective_b0(NCParams(), tiny) == 0.0
    with pytest.raises(ValueError):
        effective_b0(NCParams(eta=1.0), tiny)
    assert sigma_invertible(NCParams(), hbar=1e-170)
    assert sigma_invertible(NCParams(theta=1e-200, eta=2e-200), hbar=1e-200)
    assert not sigma_invertible(NCParams(theta=1e-200, eta=1e-200), hbar=1e-200)


def test_nc_params_validation():
    with pytest.raises(ValueError):
        NCParams(theta=-0.1)
    with pytest.raises(ValueError):
        NCParams(eta=-0.1)
    with pytest.raises(ValueError):
        NCParams(mu=0.0)
    with pytest.raises(ValueError):
        NCParams(nu=-1.0)
    with pytest.raises(ValueError):
        NCParams(theta=float("inf"))


def _flow_modes(params):
    """Normal-mode frequencies of flow_map, sorted, each one twice: the
    eigenphases of M(t) over t, at a t where every phase is below pi."""
    t = 1.0 / (params.big_omega + params.omega)
    m, _ = flow_map(params, t)
    return np.sort(np.abs(np.angle(np.linalg.eigvals(m)))) / t


@pytest.mark.parametrize("mass, hbar, charge, omega0, theta, eta", [
    (1.0, 1.0, 1.0, 1.0, 0.1, 0.2),
    (2.0, 0.5, 1.5, 0.7, 0.3, 0.05),
    (0.5, 2.0, 0.8, 1.3, 0.02, 0.4),
])
def test_trapped_map_gives_the_nc_mode_splitting(mass, hbar, charge, omega0, theta, eta):
    # the deformed trap H = p^2/2m + m omega0^2 r^2/2 has no field; its
    # splitting must be that of the field-carrying trap at the effective b0
    trap = SystemParams(kind=SystemKind.HO_FIELD, mass=mass, hbar=hbar, charge=charge,
                        omega0=omega0)
    hessian = np.diag([mass * omega0 ** 2] * 2 + [1.0 / mass] * 2)
    nc = nc_modes(hessian, theta, eta, hbar)
    b0 = effective_b0(NCParams(theta=theta, eta=eta), trap)
    flow = _flow_modes(replace(trap, b0=b0))
    assert nc[2] - nc[0] == pytest.approx(flow[2] - flow[0], abs=1e-12)


@pytest.mark.parametrize("mass, hbar, charge, theta, eta", [
    (1.0, 1.0, 1.0, 0.1, 0.2),
    (2.0, 0.5, 1.5, 0.3, 0.05),
    (0.5, 2.0, 0.8, 0.02, 0.4),
])
def test_free_map_gives_the_nc_cyclotron_frequency(mass, hbar, charge, theta, eta):
    free = SystemParams(kind=SystemKind.FREE_FIELD, mass=mass, hbar=hbar, charge=charge)
    nc = nc_modes(np.diag([0.0, 0.0, 1.0 / mass, 1.0 / mass]), theta, eta, hbar)
    assert nc[-1] == pytest.approx(eta / (mass * hbar), rel=1e-12)
    b0 = effective_b0(NCParams(theta=theta, eta=eta), free)
    params = replace(free, b0=b0)
    # the cyclotron frequency 2 omega is the flow's nonzero mode
    assert _flow_modes(params)[-1] == pytest.approx(2.0 * params.omega, rel=1e-12)
    assert nc[-1] == pytest.approx(2.0 * params.omega, rel=1e-12)
