"""Closed-form phase-space flows of the four planar systems.

The canonical equations of H = lam^2 r^2 + kap^2 p^2 + omega (px y - py x)
+ m g y are linear, so every flow is exact.  In the complex coordinates
zeta = x + i y, pi = px + i py the field rotates both at omega while the
quadratic part oscillates at big_omega = sqrt(omega^2 + omega0^2):

    zeta(t) = e^{-i omega t} [zeta0 cos(big_omega t) + (pi0 / (m big_omega)) sin(big_omega t)]
    pi(t)   = e^{-i omega t} [pi0 cos(big_omega t) - m big_omega zeta0 sin(big_omega t)]

Gravity adds a drift handled by variation of constants, so every flow is one
affine map z(t) = M(t) z0 + b(t) with M symplectic (flow_map).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhasePoint, SystemParams
from .specfun import _unwrap_scalar

__all__ = [
    "TrajectorySolution",
    "flow_map",
    "evolve",
    "evolve_ho",
    "evolve_free",
    "evolve_gqw_ballistic",
    "evolve_gqw_field",
    "canonical_rhs",
    "ode_residual",
    "flow_jacobian",
]


@dataclass(frozen=True)
class TrajectorySolution:
    """A system together with the initial condition it evolves."""

    params: SystemParams
    initial: PhasePoint


def _quadratic_map(omega: float, big_omega: float, mass: float, t) -> np.ndarray:
    """M(t) of the quadratic part, shape t.shape + (4, 4).

    M = W (x) R: the oscillation W at big_omega, with position/momentum
    weight mass * big_omega, acts on the (position, momentum) pair, and the
    field rotation R at omega acts within each plane.  big_omega = 0 is the
    ballistic limit sin(big_omega t) / (mass big_omega) -> t / mass.  Every
    flow takes its times here, so this is where a non-finite time is rejected.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if big_omega > 0:
        c = np.cos(big_omega * t)
        s = np.sin(big_omega * t)
        w = np.array([[c, s / (mass * big_omega)], [-(mass * big_omega) * s, c]])
    else:
        one = np.ones_like(t)
        w = np.array([[one, t / mass], [np.zeros_like(t), one]])
    cw = np.cos(omega * t)
    sw = np.sin(omega * t)
    r = np.array([[cw, sw], [-sw, cw]])
    # time axes last while multiplying, so the inner loops run over time
    m = (w[:, None, :, None] * r[None, :, None, :]).reshape((4, 4) + t.shape)
    return np.moveaxis(m, (0, 1), (-2, -1))


@np.errstate(over="ignore", invalid="ignore")   # callers check the cells are finite
def flow_map(params: SystemParams, t):
    """The exact flow z(t) = M(t) z0 + b(t) of params, vectorized over t.

    M has shape t.shape + (4, 4) and is symplectic; b has shape t.shape + (4,)
    and is the gravitational drift, zero without gravity.  With a field
    (omega > 0) the drift is a uniform motion perpendicular to gravity,
    velocity -g / (2 omega) along x, with the secular momentum loss
    -m g t / 2 in py and oscillatory parts closing at 2 omega; without one it
    is the ballistic drop.
    """
    t = np.asarray(t, dtype=float)
    m = _quadratic_map(params.omega, params.big_omega, params.mass, t)
    b = np.zeros((4,) + t.shape)
    g = params.g
    if g:
        # SystemParams puts gravity only on untrapped systems, so big_omega = omega
        mass = params.mass
        w = params.omega
        if w > 0:
            s2 = np.sin(2.0 * w * t)
            c2 = np.cos(2.0 * w * t)
            b[0] = -g * t / (2.0 * w) + g * s2 / (4.0 * w * w)
            b[1] = -g * (1.0 - c2) / (4.0 * w * w)
            b[2] = -mass * g * (1.0 - c2) / (4.0 * w)
            b[3] = -mass * g * t / 2.0 - mass * g * s2 / (4.0 * w)
        else:
            b[1] = -0.5 * g * t * t
            b[3] = -mass * g * t
    return m, np.moveaxis(b, 0, -1)


def _transport(m: np.ndarray, b, initial: PhasePoint) -> PhasePoint:
    """z = M z0 + b, broadcasting the time shape of M against the shape of
    the initial point's components; rejects a non-finite initial point."""
    z0 = initial.as_array()
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial point must be finite")
    z = np.einsum("...ij,...j->...i", m, z0) + b
    return PhasePoint(*(_unwrap_scalar(z[..., k]) for k in range(4)))


def evolve(sol: TrajectorySolution, t) -> PhasePoint:
    """Phase-space point(s) at time(s) t under the exact flow of sol.params.

    Covers every kind, including the field-free limits: a FREE_FIELD or
    GQW_FIELD system with b0 = 0 moves ballistically.
    """
    return _transport(*flow_map(sol.params, t), sol.initial)


def evolve_ho(sol: TrajectorySolution, t) -> PhasePoint:
    """Trapped charge in a transverse field: rotation at omega times
    oscillation at big_omega.  Requires big_omega > 0."""
    if not sol.params.big_omega > 0:
        raise ValueError("evolve_ho needs big_omega > 0 (some trap or field)")
    return evolve(sol, t)


def evolve_free(sol: TrajectorySolution, t) -> PhasePoint:
    """Free charge in a transverse field; the omega0 -> 0 limit of evolve_ho.

    Rejects omega = 0 (evolve() covers that straight-line limit).
    """
    p = sol.params
    if p.omega0 != 0:
        raise ValueError("evolve_free requires omega0 = 0")
    if not p.omega > 0:
        raise ValueError("evolve_free requires omega > 0; at b0 = 0 motion is ballistic")
    return evolve(sol, t)


def evolve_gqw_ballistic(sol: TrajectorySolution, t) -> PhasePoint:
    """Field-free motion under uniform gravity along -y (g may be 0)."""
    if sol.params.b0 != 0:
        raise ValueError("ballistic flow requires b0 = 0")
    return evolve(sol, t)


def evolve_gqw_field(sol: TrajectorySolution, t) -> PhasePoint:
    """Uniform gravity plus transverse field: cyclotron motion around a
    uniformly drifting center.  Requires omega > 0."""
    p = sol.params
    if p.omega0 != 0:
        raise ValueError("evolve_gqw_field requires omega0 = 0")
    if not p.omega > 0:
        raise ValueError("evolve_gqw_field requires omega > 0; use the ballistic flow at b0 = 0")
    return evolve(sol, t)


def canonical_rhs(params: SystemParams, point: PhasePoint) -> np.ndarray:
    """Right-hand side (dx, dy, dpx, dpy)/dt of the canonical equations."""
    x, y, px, py = (np.asarray(c, dtype=float) for c in point)
    lam2 = params.lam ** 2
    kap2 = params.kappa ** 2
    w = params.omega
    return np.stack(
        np.broadcast_arrays(
            2.0 * kap2 * px + w * y,
            2.0 * kap2 * py - w * x,
            -2.0 * lam2 * x + w * py,
            -2.0 * lam2 * y - w * px - params.mass * params.g,
        ),
        axis=-1,
    )


def ode_residual(sol: TrajectorySolution, t: float, h: float = 1e-5) -> float:
    """Max abs difference between the central-difference derivative of the
    closed-form flow and the canonical right-hand side at time t."""
    up = evolve(sol, t + h).as_array()
    um = evolve(sol, t - h).as_array()
    deriv = (up - um) / (2.0 * h)
    rhs = canonical_rhs(sol.params, evolve(sol, t))
    return float(np.max(np.abs(deriv - rhs)))


def flow_jacobian(sol: TrajectorySolution, t: float, h: float = 1e-6) -> np.ndarray:
    """Jacobian of the time-t flow map with respect to the initial point,
    by central differences.  Exactly symplectic flows give det = 1."""
    base = np.asarray(sol.initial.as_array(), dtype=float)
    jac = np.empty((4, 4))
    for j in range(4):
        up = base.copy()
        um = base.copy()
        up[j] += h
        um[j] -= h
        fp = evolve(TrajectorySolution(sol.params, PhasePoint(*up)), t).as_array()
        fm = evolve(TrajectorySolution(sol.params, PhasePoint(*um)), t).as_array()
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac
