"""Closed-form phase-space flows of the four planar systems.

The canonical equations of H = lam^2 r^2 + kap^2 p^2 + omega (px y - py x)
+ m g y are linear, so every flow is exact.  In the complex coordinates
zeta = x + i y, pi = px + i py the field rotates both at omega while the
quadratic part oscillates at big_omega = sqrt(omega^2 + omega0^2):

    zeta(t) = e^{-i omega t} [zeta0 cos(big_omega t) + (pi0 / (m big_omega)) sin(big_omega t)]
    pi(t)   = e^{-i omega t} [pi0 cos(big_omega t) - m big_omega zeta0 sin(big_omega t)]

That is z(t) = W R z0: R rotates within each plane, W oscillates each
(position, momentum) pair, and the two commute.  Gravity adds a drift b(t) by
variation of constants.  _displacement applies every flow as
d = z(t) - z0 = (W R - I) z0 + b, entry by entry without forming M = W R:
evolve returns z0 + d, fidelity_curve measures d, and flow_map reads
z(t) = M(t) z0 + b(t) off it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import PhasePoint, SystemParams
from .specfun import _unwrap_scalar

__all__ = ["flow_map", "evolve"]


# (x - sin x) / x^2 = x/3! - x^3/5! + ... to x^15/17!, highest power first
_DRIFT_SERIES = [(-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(8, 0, -1)]


def _drift_shape(x):
    """(x - sin x) / x^2, summed as its Taylor series below |x| = 1, where the
    difference cancels (the truncation there is below 1e-16 relative)."""
    small = np.abs(x) < 1.0
    xs = np.where(small, x, 0.0)
    xl = np.where(small, 1.0, x)
    return np.where(small, xs * np.polyval(_DRIFT_SERIES, xs * xs), (xl - np.sin(xl)) / xl / xl)


def _displacement(omega, big_omega, mass, g, t, z0) -> np.ndarray:
    """d = z(t) - z0 = (M - I) z0 + b for field rotation omega, oscillation big_omega at
    position/momentum weight mass * big_omega and gravity g (untrapped only, so big_omega
    = omega there), shaped as t, big_omega and mass broadcast against z0's leading shape,
    plus (4,); non-finite times or z0 are rejected here.  Each entry of M - I is formed
    before it meets z0, so a far z0 keeps its displacement (cos x - 1 is -2 sin^2(x/2),
    sin(big_omega t) / (mass big_omega) is t sinc(big_omega t / pi) / mass), and a zero
    entry stays 0 against an overflowing term: rotating an overflowed W z0 gives x = nan.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    z0 = np.asarray(z0, dtype=float)
    if not np.isfinite(z0).all():
        raise ValueError("initial point must be finite")
    x, y, px, py = (z0[..., k] for k in range(4))
    wt, bt = omega * t, big_omega * t
    cw, sw = np.cos(wt), np.sin(wt)
    s_t = t * np.sinc(bt / math.pi)
    # each 2 x 2 (position, momentum) block of M - I is a multiple of R, less I on the
    # diagonal blocks: a = cos(big_omega t) cos(omega t) - 1 there, without cancelling
    a = -2.0 * np.sin(0.5 * bt) ** 2 * cw - 2.0 * np.sin(0.5 * wt) ** 2
    e = np.cos(bt) * sw
    s_m, ms = s_t / mass, -(mass * big_omega) * np.sin(bt)
    p, q, r, s = s_m * cw, s_m * sw, ms * cw, ms * sw
    d = [a * x + e * y + p * px + q * py, -e * x + a * y - q * px + p * py,
         r * x + s * y + a * px + e * py, -s * x + r * y - e * px + a * py]
    if g:
        # the drift: uniform motion -g / (2 omega) along x, the secular momentum loss
        # -m g t / 2 in py and parts closing at 2 omega; nothing cancels as omega t -> 0,
        # and x stays put at omega = 0 (the ballistic drop) even where g t overflows
        b = [-g * (t * (t * _drift_shape(2.0 * wt))), -0.5 * g * s_t * s_t,
             -0.5 * mass * g * sw * s_t, -0.5 * mass * g * (t + cw * s_t)]
        d = [dk + bk for dk, bk in zip(d, b)]
    return np.stack(d, axis=-1)


def flow_map(params: SystemParams, t):
    """The exact flow z(t) = M(t) z0 + b(t) of params, vectorized over t.

    M has shape t.shape + (4, 4) and is symplectic: column j is e_j plus the
    displacement of e_j without gravity.  b has shape t.shape + (4,) and is the
    displacement of the origin, the gravitational drift (zero without gravity).
    """
    t = np.asarray(t, dtype=float)
    args = (params.omega, params.big_omega, params.mass)
    m = np.eye(4) + np.swapaxes(_displacement(*args, 0.0, t[..., None], np.eye(4)), -1, -2)
    return m, _displacement(*args, params.g, t, np.zeros(4))


def evolve(params: SystemParams, initial: PhasePoint, t) -> PhasePoint:
    """Phase-space point(s) at time(s) t under the exact flow of params,
    starting from initial: z0 + d, with d the displacement fidelity_curve
    measures.  Covers every kind, including the field-free limits: a
    FREE_FIELD or GQW_FIELD system with b0 = 0 moves ballistically."""
    z0 = initial.as_array()
    z = z0 + _displacement(params.omega, params.big_omega, params.mass, params.g, t, z0)
    return PhasePoint(*(_unwrap_scalar(z[..., k]) for k in range(4)))
