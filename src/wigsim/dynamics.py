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

__all__ = ["flow_map", "evolve"]


def _quadratic_map(omega: float, big_omega: float, mass: float, t) -> np.ndarray:
    """M(t) of the quadratic part, shape t.shape + (4, 4).

    M = W (x) R: the oscillation W at big_omega, with position/momentum
    weight mass * big_omega, acts on the (position, momentum) pair, and the
    field rotation R at omega acts within each plane.  sin(big_omega t) / (mass
    big_omega) = t sinc(big_omega t / pi) / mass is t / mass at big_omega = 0.  Every
    flow takes its times here, so this is where a non-finite time is rejected.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    c = np.cos(big_omega * t)
    s = np.sin(big_omega * t)
    w = np.array([[c, t * np.sinc(big_omega * t / math.pi) / mass], [-(mass * big_omega) * s, c]])
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


def flow_map(params: SystemParams, t):
    """The exact flow z(t) = M(t) z0 + b(t) of params, vectorized over t.

    M has shape t.shape + (4, 4) and is symplectic; b has shape t.shape + (4,)
    and is the gravitational drift, zero without gravity.  With a field
    (omega > 0) the drift is a uniform motion perpendicular to gravity,
    velocity -g / (2 omega) along x, with the secular momentum loss
    -m g t / 2 in py and oscillatory parts closing at 2 omega; at omega = 0,
    where sin(omega t) / omega = t sinc(omega t / pi) is t, it is the ballistic drop.
    """
    t = np.asarray(t, dtype=float)
    m = _quadratic_map(params.omega, params.big_omega, params.mass, t)
    b = np.zeros((4,) + t.shape)
    g = params.g
    if g:
        # SystemParams puts gravity only on untrapped systems, so big_omega = omega
        mass = params.mass
        w = params.omega
        # nothing cancels as w t -> 0, and b[0] stays 0 at w = 0 even where g t overflows
        s, c = np.sin(w * t), np.cos(w * t)
        s_w = t * np.sinc(w * t / math.pi)
        b[0] = -g * (t * (t * _drift_shape(2.0 * w * t)))
        b[1] = -0.5 * g * s_w * s_w
        b[2] = -0.5 * mass * g * s * s_w
        b[3] = -0.5 * mass * g * (t + c * s_w)
    return m, np.moveaxis(b, 0, -1)


def _offset(m: np.ndarray, b, omega: float, big_omega: float, t, initial: PhasePoint) -> np.ndarray:
    """d = (M - I) z0 + b, the flow's displacement from z0, with the time shape
    broadcast against the initial point's; rejects a non-finite z0.  M - I is formed
    directly so that a far z0 keeps its displacement: its diagonal cos(big_omega t)
    cos(omega t) - 1 is -2 sin^2(big_omega t/2) cos(omega t) - 2 sin^2(omega t/2)."""
    z0 = initial.as_array()
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial point must be finite")
    t = np.asarray(t, dtype=float)
    k = np.arange(4)
    m = m - np.eye(4)
    m[..., k, k] = (-2.0 * np.sin(0.5 * big_omega * t) ** 2 * np.cos(omega * t)
                    - 2.0 * np.sin(0.5 * omega * t) ** 2)[..., None]
    return np.einsum("...ij,...j->...i", m, z0) + b


def _displacement(params: SystemParams, initial: PhasePoint, t) -> np.ndarray:
    """d = z(t) - z0 under the exact flow of params (see _offset)."""
    return _offset(*flow_map(params, t), params.omega, params.big_omega, t, initial)


def evolve(params: SystemParams, initial: PhasePoint, t) -> PhasePoint:
    """Phase-space point(s) at time(s) t under the exact flow of params,
    starting from initial: z0 + d, with d the displacement fidelity_curve
    measures.  Covers every kind, including the field-free limits: a
    FREE_FIELD or GQW_FIELD system with b0 = 0 moves ballistically."""
    z = initial.as_array() + _displacement(params, initial, t)
    return PhasePoint(*(_unwrap_scalar(z[..., k]) for k in range(4)))
