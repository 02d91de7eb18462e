"""Closed-form phase-space flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigsim.dynamics import _displacement, evolve, flow_map
from wigsim.model import PhasePoint, SystemKind, SystemParams

from oracles import (
    canonical_rhs,
    flow_generator_mp,
    flow_jacobian,
    hamiltonian_rhs,
    hamiltonian_value,
    ode_residual,
    rk4_evolve,
)

C0 = PhasePoint(1.0, 1.0, 1.0, 1.0)


def free_params(b0=1.0):
    return SystemParams(kind=SystemKind.FREE_FIELD, b0=b0)


def ho_params(b0=0.0, omega0=1.0):
    return SystemParams(kind=SystemKind.HO_FIELD, b0=b0, omega0=omega0)


def test_free_half_period_point():
    # b0 = 1 means omega = 1/2; at t = pi the flow lands on (2, -2, -1/2, 1/2)
    pt = evolve(free_params(), C0, math.pi)
    assert pt.x == pytest.approx(2.0, rel=1e-12)
    assert pt.y == pytest.approx(-2.0, rel=1e-12)
    assert pt.px == pytest.approx(-0.5, rel=1e-12)
    assert pt.py == pytest.approx(0.5, rel=1e-12)


def test_free_flow_period_is_pi_over_omega():
    p = free_params()
    pt = evolve(p, C0, math.pi / p.omega)
    for got, want in zip(pt, C0):
        assert got == pytest.approx(want, abs=1e-12)


def test_ho_quarter_period_without_field():
    # pure trap with m big_omega = 1: positions and momenta swap with a sign
    pt = evolve(ho_params(), C0, math.pi / 2)
    assert pt.x == pytest.approx(1.0, rel=1e-12)
    assert pt.y == pytest.approx(1.0, rel=1e-12)
    assert pt.px == pytest.approx(-1.0, rel=1e-12)
    assert pt.py == pytest.approx(-1.0, rel=1e-12)


def test_ho_full_period():
    p = ho_params(b0=0.0, omega0=0.7)
    pt = evolve(p, C0, 2 * math.pi / p.big_omega)
    for got, want in zip(pt, C0):
        assert got == pytest.approx(want, abs=1e-10)


def test_ballistic_drop():
    p = SystemParams(kind=SystemKind.GQW_BALLISTIC, g=2.0)
    pt = evolve(p, C0, 1.0)
    assert pt.x == pytest.approx(2.0, rel=1e-15)
    assert pt.y == pytest.approx(1.0, rel=1e-15)
    assert pt.px == pytest.approx(1.0, rel=1e-15)
    assert pt.py == pytest.approx(-1.0, rel=1e-15)


@pytest.mark.parametrize("params", [
    ho_params(b0=1.0, omega0=1.0),
    free_params(b0=1.0),
    SystemParams(kind=SystemKind.GQW_BALLISTIC, g=2.0),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=0.8, g=2.0),
])
def test_flow_matches_numeric_integration(params):
    u0 = np.array([1.0, 0.5, -0.3, 0.7])
    t = 1.7
    want = rk4_evolve(params, u0, t)
    got = evolve(params, PhasePoint(*u0), t).as_array()
    assert np.allclose(got, want, rtol=0, atol=5e-8)


def test_gravity_off_reduces_to_free():
    withfield = SystemParams(kind=SystemKind.GQW_FIELD, b0=0.6, g=0.0)
    plain = free_params(b0=0.6)
    for t in (0.0, 0.4, 2.9):
        a = evolve(withfield, C0, t)
        b = evolve(plain, C0, t)
        for u, v in zip(a, b):
            assert u == pytest.approx(v, rel=1e-14, abs=1e-14)


def test_trap_off_approaches_free():
    soft = ho_params(b0=1.0, omega0=1e-8)
    plain = free_params(b0=1.0)
    a = evolve(soft, C0, 2.3)
    b = evolve(plain, C0, 2.3)
    for u, v in zip(a, b):
        assert u == pytest.approx(v, abs=1e-8)


@pytest.mark.parametrize("params", [
    ho_params(b0=0.5, omega0=1.3),
    free_params(b0=0.8),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=1.0, g=2.0),
])
def test_flow_composition(params):
    t1, t2 = 0.7, 1.9
    mid = evolve(params, C0, t1)
    two_step = evolve(params, mid, t2)
    one_step = evolve(params, C0, t1 + t2)
    for u, v in zip(two_step, one_step):
        assert u == pytest.approx(v, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("params", [
    ho_params(b0=1.0, omega0=1.0),
    free_params(b0=1.0),
    SystemParams(kind=SystemKind.GQW_BALLISTIC, g=2.0),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=0.8, g=2.0),
])
def test_energy_conserved_along_flow(params):
    e0 = hamiltonian_value(params, C0)
    for t in np.linspace(0.0, 9.0, 19):
        e = hamiltonian_value(params, evolve(params, C0, float(t)))
        assert e == pytest.approx(e0, rel=1e-11)


@pytest.mark.parametrize("params", [
    ho_params(b0=1.0, omega0=1.0),
    free_params(b0=1.0),
    SystemParams(kind=SystemKind.GQW_BALLISTIC, g=2.0),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=0.8, g=2.0),
])
def test_flow_satisfies_equations_of_motion(params):
    for t in (0.3, 1.1, 4.0):
        assert ode_residual(params, C0, t) <= 1e-6


def test_canonical_rhs_matches_hamiltonian_gradients():
    params = SystemParams(kind=SystemKind.GQW_FIELD, b0=0.8, g=2.0)
    u = np.array([0.4, -1.2, 0.9, 0.3])
    want = hamiltonian_rhs(params, u)
    got = canonical_rhs(params, PhasePoint(*u))
    assert np.allclose(got, want, rtol=0, atol=1e-7)


@pytest.mark.parametrize("params", [
    ho_params(b0=1.0, omega0=1.0),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=0.8, g=2.0),
])
def test_flow_jacobian_is_symplectic(params):
    jac = flow_jacobian(params, C0, 1.3)
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    form = np.block([[zero, eye], [-eye, zero]])
    assert np.allclose(jac.T @ form @ jac, form, atol=1e-6)
    assert np.linalg.det(jac) == pytest.approx(1.0, rel=1e-6)


def test_dispatch_fallbacks():
    # no field: the free system coasts in a straight line
    coast = SystemParams(kind=SystemKind.FREE_FIELD, b0=0.0)
    pt = evolve(coast, C0, 2.0)
    assert pt.x == pytest.approx(3.0, rel=1e-14)
    assert pt.py == pytest.approx(1.0, rel=1e-14)

    # gqw with the field switched off falls back to the ballistic flow
    nofield = SystemParams(kind=SystemKind.GQW_FIELD, b0=0.0, g=2.0)
    drop = SystemParams(kind=SystemKind.GQW_BALLISTIC, g=2.0)
    a = evolve(nofield, C0, 1.5)
    b = evolve(drop, C0, 1.5)
    for u, v in zip(a, b):
        assert u == pytest.approx(v, rel=1e-14)


def test_array_times():
    params = free_params()
    ts = np.linspace(0.0, 2 * math.pi, 9)
    pt = evolve(params, C0, ts)
    assert pt.x.shape == ts.shape
    single = evolve(params, C0, float(ts[3]))
    assert pt.x[3] == pytest.approx(single.x, rel=1e-14)
    assert pt.py[3] == pytest.approx(single.py, rel=1e-14)


FLOW_CASES = [
    SystemParams(kind=SystemKind.HO_FIELD, mass=1.7, b0=0.5, omega0=1.3),
    SystemParams(kind=SystemKind.FREE_FIELD, b0=0.8),
    SystemParams(kind=SystemKind.FREE_FIELD, b0=0.0),
    SystemParams(kind=SystemKind.GQW_BALLISTIC, g=2.0),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=1.0, g=2.0),
    SystemParams(kind=SystemKind.GQW_FIELD, b0=0.0, g=2.0),
]
FLOW_IDS = ["ho", "free", "free-b0-0", "gqw", "gqw-b", "gqw-b-b0-0"]
FLOW_TIMES = np.linspace(0.0, 20.0, 41)


@pytest.mark.parametrize("params", FLOW_CASES, ids=FLOW_IDS)
def test_flow_map_is_symplectic(params):
    m, b = flow_map(params, FLOW_TIMES)
    assert m.shape == (41, 4, 4)
    assert b.shape == (41, 4)
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    form = np.block([[zero, eye], [-eye, zero]])
    assert np.max(np.abs(np.swapaxes(m, -1, -2) @ form @ m - form)) <= 1e-12


@pytest.mark.parametrize("params", FLOW_CASES, ids=FLOW_IDS)
def test_flow_map_matches_finite_difference_jacobian(params):
    m, _ = flow_map(params, FLOW_TIMES)
    for i in range(0, 41, 8):
        jac = flow_jacobian(params, C0, float(FLOW_TIMES[i]), h=1e-3)
        assert np.max(np.abs(jac - m[i])) <= 1e-9


@pytest.mark.parametrize("params", FLOW_CASES, ids=FLOW_IDS)
def test_flow_map_array_matches_scalar_calls(params):
    m, b = flow_map(params, FLOW_TIMES)
    for i, t in enumerate(FLOW_TIMES):
        ms, bs = flow_map(params, float(t))
        assert ms.shape == (4, 4) and bs.shape == (4,)
        assert np.allclose(ms, m[i], rtol=1e-15, atol=1e-15)
        assert np.allclose(bs, b[i], rtol=1e-15, atol=1e-15)
    m2, b2 = flow_map(params, FLOW_TIMES[1:].reshape(5, 8))
    assert m2.shape == (5, 8, 4, 4) and b2.shape == (5, 8, 4)
    assert np.allclose(m2.reshape(40, 4, 4), m[1:], rtol=1e-15, atol=1e-15)
    assert np.allclose(b2.reshape(40, 4), b[1:], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("initial", [
    PhasePoint(math.inf, 1.0, 1.0, 1.0),
    PhasePoint(np.array([1.0, math.nan, 2.0]), 1.0, 1.0, 1.0),
], ids=["scalar-inf", "array-nan"])
def test_non_finite_initial_point_rejected(initial):
    with pytest.raises(ValueError, match="finite"):
        evolve(ho_params(b0=0.5), initial, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("t", [math.inf, np.array([0.0, math.nan, 1.0])],
                         ids=["scalar-inf", "array-nan"])
@pytest.mark.parametrize("params", FLOW_CASES, ids=FLOW_IDS)
def test_non_finite_time_rejected(params, t):
    with pytest.raises(ValueError, match="finite"):
        evolve(params, PhasePoint(1.0, 1.0, 1.0, 1.0), t)


@st.composite
def valid_params(draw):
    """SystemParams of any kind, with only the parameters that kind admits."""
    kind = draw(st.sampled_from(list(SystemKind)))
    gravitational = kind in (SystemKind.GQW_BALLISTIC, SystemKind.GQW_FIELD)
    return SystemParams(
        kind=kind,
        mass=draw(st.floats(0.2, 5.0)),
        charge=draw(st.floats(0.0, 3.0)),
        b0=0.0 if kind is SystemKind.GQW_BALLISTIC else draw(st.floats(0.0, 3.0)),
        omega0=draw(st.floats(0.0, 3.0)) if kind is SystemKind.HO_FIELD else 0.0,
        g=draw(st.floats(0.0, 5.0)) if gravitational else 0.0,
    )


_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_TIMES = st.floats(-10.0, 10.0)


@_PROPERTY
@given(valid_params(), _TIMES, _TIMES)
def test_flow_homogeneous_part_composes(params, t, s):
    m_ts, _ = flow_map(params, t + s)
    m_t, _ = flow_map(params, t)
    m_s, _ = flow_map(params, s)
    scale = max(1.0, np.abs(m_t).max() * np.abs(m_s).max())
    assert np.abs(m_ts - m_t @ m_s).max() <= 1e-10 * scale


@_PROPERTY
@given(valid_params(), _TIMES)
def test_flow_map_has_unit_determinant(params, t):
    m, _ = flow_map(params, t)
    assert abs(np.linalg.det(m) - 1.0) <= 1e-12


_POINTS = st.tuples(*[st.floats(-5.0, 5.0)] * 4).map(lambda z: PhasePoint(*z))


@_PROPERTY
@given(valid_params(), _POINTS, _TIMES)
def test_energy_is_conserved(params, z0, t):
    # every term of H is at most (lam^2 + kap^2 + omega + m g) max(1, |z|^2),
    # so rounding in the flow and in H is measured against that size
    zt = evolve(params, z0, t)
    h0, ht = hamiltonian_value(params, z0), hamiltonian_value(params, zt)
    coeff = params.lam ** 2 + params.kappa ** 2 + params.omega + params.mass * params.g
    size = max(1.0, abs(h0), float(np.sum(z0.as_array() ** 2)), float(np.sum(zt.as_array() ** 2)))
    assert abs(ht - h0) <= 1e-13 * coeff * size


@_PROPERTY
@given(valid_params(), _TIMES)
def test_flow_map_drift_is_finite(params, t):
    _, b = flow_map(params, t)
    assert np.all(np.isfinite(b))


@_PROPERTY
@given(st.floats(0.2, 5.0), st.floats(0.0, 1e-6), st.floats(0.0, 5.0), _TIMES)
def test_weak_field_drift_tends_to_ballistic_drop(mass, b0, g, t):
    # the field drift leaves the drop (0, -g t^2/2, 0, -m g t) at first order
    # in omega t: |b_x| <= g omega |t|^3 / 3 and |b_px| <= m g omega t^2 / 2
    field = SystemParams(kind=SystemKind.GQW_FIELD, mass=mass, b0=b0, g=g)
    _, b = flow_map(field, t)
    _, drop = flow_map(SystemParams(kind=SystemKind.GQW_BALLISTIC, mass=mass, g=g), t)
    scale = g * t * t + mass * g * abs(t)
    assert np.abs(b - drop).max() <= (field.omega * abs(t) + 1e-15) * scale


@_PROPERTY
@given(st.sampled_from([SystemKind.FREE_FIELD, SystemKind.GQW_BALLISTIC]),
       st.floats(0.2, 5.0), st.floats(0.0, 5.0), st.floats(-1e3, 1e3))
def test_flow_map_is_the_closed_ballistic_form(kind, mass, g, t):
    # big_omega = omega = 0: M = [[1, t/m], [0, 1]] (x) I and b = (0, -g t^2/2, 0, -m g t),
    # each entry within 1 ulp (the general formulas may give a zero of the other sign)
    g = g if kind is SystemKind.GQW_BALLISTIC else 0.0
    m, b = flow_map(SystemParams(kind=kind, mass=mass, g=g), t)
    want_m = np.kron([[1.0, t / mass], [0.0, 1.0]], np.eye(2))
    want_b = np.array([0.0, -g * t * t / 2, 0.0, -mass * g * t])
    for got, want in ((m, want_m), (b, want_b)):
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_quadratic_map_position_momentum_entry_against_mpmath():
    # sin(big_omega t) / (m big_omega), t / m at big_omega = 0, at 30 digits; the
    # rounding of big_omega t makes the error of order 2^-52 |t| / m, not of the entry
    import mpmath
    rng = np.random.default_rng(28)
    n = 400
    big_omegas = np.where(np.arange(n) % 4 == 0, 0.0, rng.uniform(0.0, 5.0, n))
    masses = rng.uniform(0.2, 5.0, n)
    times = rng.uniform(-1e3, 1e3, n) * 10.0 ** -rng.integers(0, 8, n)
    with mpmath.workdps(30):
        for big_omega, mass, t in zip(big_omegas.tolist(), masses.tolist(), times.tolist()):
            params = (SystemParams(kind=SystemKind.HO_FIELD, mass=mass, omega0=big_omega)
                      if big_omega else SystemParams(kind=SystemKind.FREE_FIELD, mass=mass))
            got = flow_map(params, t)[0][..., 0, 2]
            if big_omega:
                want = mpmath.sin(mpmath.mpf(big_omega) * t) / (mpmath.mpf(mass) * big_omega)
            else:
                want = mpmath.mpf(t) / mass
            assert abs(got - want) <= 4 * 2.0 ** -52 * abs(t) / mass


def test_displacement_against_mpmath_expm():
    # d = z(t) - z0 of ho, free and gqw-b (each also at b0 = 0) and of the printed unit-weight
    # family, against expm of the canonical generator at 40 digits: the rounding of the
    # phases big_omega t and omega t, and of z0 and d themselves, sets the scale
    import mpmath
    rng = np.random.default_rng(31)
    kinds = ["ho", "free", "gqw-b", "unit"]
    for i in range(240):
        kind = kinds[i % 4]
        mass = 1.0 if kind == "unit" else float(rng.uniform(0.2, 5.0))
        b0 = 0.0 if i % 8 < 4 else float(rng.uniform(0.0, 3.0))
        omega0 = float(rng.uniform(0.0, 3.0)) if kind == "ho" else 0.0
        g = float(rng.uniform(0.0, 5.0)) if kind == "gqw-b" else 0.0
        t = float(rng.uniform(-50.0, 50.0))
        z0 = rng.uniform(-1.0, 1.0, 4) * 10.0 ** rng.uniform(-1.0, 5.0)
        omega = b0 / (2.0 * mass)
        big_omega = 1.0 if kind == "unit" else math.hypot(omega, omega0)
        got = _displacement(omega, big_omega, mass, g, t, z0)
        with mpmath.workdps(40):
            gen = flow_generator_mp(mass, 1.0, b0, omega0, g, unit_weights=kind == "unit")
            z = mpmath.matrix([mpmath.mpf(v) for v in z0.tolist()] + [1])
            zt = mpmath.expm(gen * mpmath.mpf(t)) * z
            want = [zt[k] - z[k] for k in range(4)]
        err = max(abs(mpmath.mpf(float(got[k])) - want[k]) for k in range(4))
        size = max(1.0, np.abs(z0).max(), np.abs(got).max())
        assert err <= 4 * 2.0 ** -52 * (1 + abs(big_omega * t) + abs(omega * t)) * size, (kind, i)


def test_far_point_keeps_each_displacement_digit():
    # at |big_omega t| ~ 1e-6 the diagonal cos(big_omega t) cos(omega t) - 1 is ~ -6e-13:
    # formed as that difference it keeps 3 or 4 digits, so d_x of x0 = 1e8 would too
    import mpmath
    params = ho_params(b0=0.5)
    z0 = np.array([1e8, 0.0, 0.0, 0.0])
    got = _displacement(params.omega, params.big_omega, params.mass, 0.0, 1e-6, z0)
    with mpmath.workdps(40):
        gen = flow_generator_mp(1.0, 1.0, 0.5, 1.0, 0.0)
        zt = mpmath.expm(gen * mpmath.mpf(1e-6)) * mpmath.matrix(z0.tolist() + [1])
        want = [float(zt[k] - z0[k]) for k in range(4)]
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
