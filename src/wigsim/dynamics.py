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

import math

import numpy as np

from .model import PhasePoint, SystemParams
from .specfun import _unwrap_scalar

__all__ = ["flow_map", "evolve", "canonical_rhs", "ode_residual", "flow_jacobian"]


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


# (x - sin x) / x^2 = x/3! - x^3/5! + ... to x^15/17!, highest power first
_DRIFT_SERIES = [(-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(8, 0, -1)]


def _drift_shape(x):
    """(x - sin x) / x^2, summed as its Taylor series below |x| = 1, where the
    difference cancels (the truncation there is below 1e-16 relative)."""
    small = np.abs(x) < 1.0
    xs = np.where(small, x, 0.0)
    xl = np.where(small, 1.0, x)
    return np.where(small, xs * np.polyval(_DRIFT_SERIES, xs * xs), (xl - np.sin(xl)) / xl / xl)


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
            # no differences that cancel as w t -> 0; sin(w t) / w is t to rounding below 1e-8
            s, c = np.sin(w * t), np.cos(w * t)
            s_w = np.where(np.abs(w * t) < 1e-8, t, s / w)
            b[0] = -g * t * (t * _drift_shape(2.0 * w * t))
            b[1] = -0.5 * g * s_w * s_w
            b[2] = -0.5 * mass * g * s * s_w
            b[3] = -0.5 * mass * g * (t + c * s_w)
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


def evolve(params: SystemParams, initial: PhasePoint, t) -> PhasePoint:
    """Phase-space point(s) at time(s) t under the exact flow of params,
    starting from initial.

    Covers every kind, including the field-free limits: a FREE_FIELD or
    GQW_FIELD system with b0 = 0 moves ballistically.
    """
    return _transport(*flow_map(params, t), initial)


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


def ode_residual(params: SystemParams, initial: PhasePoint, t: float, h: float = 1e-5) -> float:
    """Max abs difference between the central-difference derivative of the
    closed-form flow and the canonical right-hand side at time t."""
    up = evolve(params, initial, t + h).as_array()
    um = evolve(params, initial, t - h).as_array()
    deriv = (up - um) / (2.0 * h)
    rhs = canonical_rhs(params, evolve(params, initial, t))
    return float(np.max(np.abs(deriv - rhs)))


def flow_jacobian(params: SystemParams, initial: PhasePoint, t: float,
                  h: float = 1e-6) -> np.ndarray:
    """Jacobian of the time-t flow map with respect to the initial point,
    by central differences.  Exactly symplectic flows give det = 1."""
    base = np.asarray(initial.as_array(), dtype=float)
    jac = np.empty((4, 4))
    for j in range(4):
        up = base.copy()
        um = base.copy()
        up[j] += h
        um[j] -= h
        fp = evolve(params, PhasePoint(*up), t).as_array()
        fm = evolve(params, PhasePoint(*um), t).as_array()
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac
