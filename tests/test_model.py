"""Parameter validation and derived frequencies."""

import math

import numpy as np
import pytest

from wigsim.model import (
    PhasePoint,
    SystemKind,
    SystemParams,
    TimeGrid,
    hamiltonian_value,
)


def test_omega_is_half_cyclotron():
    p = SystemParams(kind=SystemKind.FREE_FIELD, b0=1.0)
    assert p.omega == 0.5
    p = SystemParams(kind=SystemKind.FREE_FIELD, mass=2.0, charge=0.5, b0=2.0)
    assert p.omega == pytest.approx(0.25, rel=1e-15)


def test_lambda_kappa_values():
    p = SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)
    assert p.lam ** 2 == pytest.approx(0.5, rel=1e-15)
    assert p.kappa ** 2 == pytest.approx(0.5, rel=1e-15)
    assert p.big_omega == pytest.approx(1.0, rel=1e-15)


def test_big_omega_invariant_random_params():
    # Omega = 2 lam kappa must equal sqrt(omega^2 + omega0^2) to rounding
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = SystemParams(
            kind=SystemKind.HO_FIELD,
            mass=rng.uniform(0.2, 5.0),
            charge=rng.uniform(0.1, 2.0),
            b0=rng.uniform(0.0, 3.0),
            omega0=rng.uniform(0.0, 3.0),
        )
        assert p.big_omega == pytest.approx(math.hypot(p.omega, p.omega0), rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(mass=0.0),
    dict(mass=-1.0),
    dict(hbar=0.0),
    dict(b0=-0.1),
    dict(omega0=-1.0),
    dict(g=-2.0),
    dict(mass=math.inf),
])
def test_bad_scalar_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.HO_FIELD, **{"omega0": 1.0, **kwargs})


def test_negative_charge_times_field_rejected():
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.FREE_FIELD, charge=-1.0, b0=1.0)
    # zero field with negative charge is allowed
    SystemParams(kind=SystemKind.FREE_FIELD, charge=-1.0, b0=0.0)


def test_kind_constraints():
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0, g=2.0)
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.FREE_FIELD, omega0=1.0)
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.FREE_FIELD, g=2.0)
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.GQW_FIELD, b0=0.5, g=2.0, omega0=1.0)
    with pytest.raises(ValueError):
        SystemParams(kind=SystemKind.GQW_BALLISTIC, b0=0.5, g=2.0)


def test_hamiltonian_examples():
    trap = SystemParams(kind=SystemKind.HO_FIELD, omega0=1.0)
    assert hamiltonian_value(trap, PhasePoint(1, 0, 0, 0)) == pytest.approx(0.5, rel=1e-15)

    # free at b0 = 1: omega = 1/2, lam^2 = 1/8, kap^2 = 1/2
    free = SystemParams(kind=SystemKind.FREE_FIELD, b0=1.0)
    assert hamiltonian_value(free, PhasePoint(0, 1, 1, 0)) == pytest.approx(1.125, rel=1e-15)
    assert hamiltonian_value(free, PhasePoint(1, 0, 0, 1)) == pytest.approx(0.125, rel=1e-15)
    # isolating the cross term fixes its sign: +omega px y and -omega py x
    plus = hamiltonian_value(free, PhasePoint(0, 1, 1, 0))
    minus = hamiltonian_value(free, PhasePoint(0, 1, -1, 0))
    assert plus - minus == pytest.approx(2 * free.omega, rel=1e-14)
    plus = hamiltonian_value(free, PhasePoint(1, 0, 0, 1))
    minus = hamiltonian_value(free, PhasePoint(1, 0, 0, -1))
    assert plus - minus == pytest.approx(-2 * free.omega, rel=1e-14)

    gqw = SystemParams(kind=SystemKind.GQW_FIELD, b0=0.0, g=2.0)
    assert hamiltonian_value(gqw, PhasePoint(0, 1, 0, 0)) == pytest.approx(2.0, rel=1e-15)


def test_hamiltonian_broadcasts():
    p = SystemParams(kind=SystemKind.HO_FIELD, b0=1.0, omega0=1.0)
    xs = np.linspace(-1, 1, 5)
    vals = hamiltonian_value(p, PhasePoint(xs, 0.0, 0.0, 0.0))
    assert vals.shape == (5,)
    assert vals[0] == pytest.approx(hamiltonian_value(p, PhasePoint(-1.0, 0.0, 0.0, 0.0)))


def test_phase_point_as_array():
    pt = PhasePoint(1.0, 2.0, 3.0, 4.0)
    assert np.array_equal(pt.as_array(), [1.0, 2.0, 3.0, 4.0])
    traj = PhasePoint(np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))
    assert traj.as_array().shape == (3, 4)


def test_time_grid():
    g = TimeGrid(0.0, 1.0, 5)
    assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    for start, end in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            TimeGrid(start, end, 5)
