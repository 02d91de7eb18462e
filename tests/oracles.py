"""Independent numerical routes used to pin expected values.

Nothing here reuses the package's closed-form or series implementations:
paper_form_point writes the printed family's trajectory in complex form,
and hamiltonian_value and canonical_rhs state the Hamiltonian and its
canonical equations directly; ode_residual and flow_jacobian difference the
package's evolve, the flow under test, and compare it with them.
flow_generator_mp and hermite_fidelity_mp recompute a fidelity sample in
mpmath from the canonical equations alone.
"""

import math

import numpy as np

from wigsim.dynamics import evolve
from wigsim.model import PhasePoint, SystemParams
from wigsim.specfun import _unwrap_scalar

# Ai(0) and Ai'(0), exact to double precision
AIRY_AT_ZERO = 0.35502805388781723926
AIRY_PRIME_AT_ZERO = -0.25881940379280679840


def hamiltonian_value(params: SystemParams, point: PhasePoint):
    """Evaluate the quadratic Hamiltonian at a phase point.

    Accepts array-valued components and broadcasts.
    """
    x = np.asarray(point.x, dtype=float)
    y = np.asarray(point.y, dtype=float)
    px = np.asarray(point.px, dtype=float)
    py = np.asarray(point.py, dtype=float)
    lam2 = params.lam ** 2
    kap2 = params.kappa ** 2
    val = (
        lam2 * (x * x + y * y)
        + kap2 * (px * px + py * py)
        + params.omega * (px * y - py * x)
        + params.mass * params.g * y
    )
    return _unwrap_scalar(val)


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


def hamiltonian_rhs(params, u, step=1e-6):
    """Canonical right-hand side from central differences of H, with the
    eight shifted points evaluated as one array."""
    shifts = step * np.eye(4)
    h = hamiltonian_value(params, PhasePoint(*np.concatenate([u + shifts, u - shifts]).T))
    grad = (h[:4] - h[4:]) / (2.0 * step)
    # (dH/dpx, dH/dpy, -dH/dx, -dH/dy)
    return np.array([grad[2], grad[3], -grad[0], -grad[1]])


def rk4_evolve(params, u0, t, n_steps=None):
    """Fixed-step RK4 on the finite-difference canonical equations."""
    u = np.asarray(u0, dtype=float).copy()
    if n_steps is None:
        n_steps = max(400, int(1500 * abs(t)))
    h = t / n_steps
    for _ in range(n_steps):
        k1 = hamiltonian_rhs(params, u)
        k2 = hamiltonian_rhs(params, u + 0.5 * h * k1)
        k3 = hamiltonian_rhs(params, u + 0.5 * h * k2)
        k4 = hamiltonian_rhs(params, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def laguerre_series(n, x):
    """Brute-force alternating series with exact binomial coefficients."""
    total = 0.0
    for k in range(n + 1):
        total += (-1.0) ** k * math.comb(n, k) * x ** k / math.factorial(k)
    return total


def airy_ode_values(xs):
    """Ai at the requested points by integrating y'' = x y away from 0.

    RK4 with a fine fixed step; trustworthy on about [-12, 3] (beyond +3 the
    growing companion solution takes over).  Returns values aligned with xs.
    """

    def march(targets):
        # RK4 on (y, y') with y'' = s y, written out on Python floats: the
        # same steps and operation order as the array form
        # k2 = f(s + h/2, y + (h/2) k1), ..., y += (h/6) (k1 + 2 k2 + 2 k3 + k4)
        out = {}
        y0, y1 = AIRY_AT_ZERO, AIRY_PRIME_AT_ZERO
        s = 0.0
        for target in targets:
            span = target - s
            if span != 0.0:
                n = max(200, int(3000 * abs(span)))
                h = span / n
                for _ in range(n):
                    k1a, k1b = y1, s * y0
                    k2a, k2b = y1 + 0.5 * h * k1b, (s + 0.5 * h) * (y0 + 0.5 * h * k1a)
                    k3a, k3b = y1 + 0.5 * h * k2b, (s + 0.5 * h) * (y0 + 0.5 * h * k2a)
                    k4a, k4b = y1 + h * k3b, (s + h) * (y0 + h * k3a)
                    y0, y1 = (y0 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
                              y1 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b))
                    s += h
                s = target
            out[target] = y0
        return out

    xs = [float(x) for x in xs]
    neg = sorted([x for x in xs if x < 0], reverse=True)
    pos = sorted([x for x in xs if x > 0])
    values = {0.0: AIRY_AT_ZERO}
    values.update(march(neg))
    values.update(march(pos))
    return np.array([values[x] for x in xs])


def gaussian_moment(k):
    """integral x^k e^{-x^2} dx over the line (exact)."""
    if k % 2:
        return 0.0
    m = k // 2
    return math.sqrt(math.pi) * math.factorial(2 * m) / (math.factorial(m) * 4.0 ** m)


def nc_modes(hessian, theta, eta, hbar):
    """Normal-mode frequencies |Im eig(P hessian)| of a quadratic Hamiltonian
    under the noncommutative brackets {x, y} = theta/hbar, {px, py} = eta/hbar,
    {x_i, p_j} = delta_ij, in (x, y, px, py) order: sorted, each one twice."""
    a, b = theta / hbar, eta / hbar
    bracket = np.array([[0, a, 1, 0], [-a, 0, 0, 1], [-1, 0, 0, b], [0, -1, -b, 0]], dtype=float)
    return np.sort(np.abs(np.linalg.eigvals(bracket @ hessian).imag))


def fidelity_gaussian_closed(c0: PhasePoint, ct: PhasePoint):
    """F = exp(-|ct - c0|^2 / 2) for two unit-width Gaussians.

    Accepts array-valued components in ct (or c0) and broadcasts.
    """
    d = ct.as_array() - c0.as_array()
    return _unwrap_scalar(np.exp(-0.5 * np.sum(d * d, axis=-1)))


def paper_form_point(omega, t, c0: PhasePoint) -> PhasePoint:
    """Center trajectory of the printed trapped-system fidelity family.

    Rotation at omega composed with unit-frequency oscillation carrying unit
    position/momentum weights (the omega0 = 1 family with the lam/kap ratio
    replaced by 1).  With zeta = x + i y and pi = px + i py:
    zeta(t) = e^{-i omega t} (zeta0 cos t + pi0 sin t),
    pi(t) = e^{-i omega t} (pi0 cos t - zeta0 sin t).
    """
    t = np.asarray(t, dtype=float)
    zeta0, pi0 = complex(c0.x, c0.y), complex(c0.px, c0.py)
    turn = np.exp(-1j * omega * t)
    zeta = turn * (zeta0 * np.cos(t) + pi0 * np.sin(t))
    pi = turn * (pi0 * np.cos(t) - zeta0 * np.sin(t))
    return PhasePoint(*(_unwrap_scalar(v) for v in (zeta.real, zeta.imag, pi.real, pi.imag)))


def flow_generator_mp(mass, charge, b0, omega0, gravity, unit_weights=False):
    """5x5 generator G of the canonical equations as an mpmath matrix:
    d/dt (z, 1) = G (z, 1) with z = (x, y, px, py), omega = q b0 / (2 m),
    2 lam^2 = m (omega^2 + omega0^2) and 2 kap^2 = 1 / m.  unit_weights
    sets 2 lam^2 = 2 kap^2 = 1, the printed omega0 = 1 family."""
    from mpmath import mp, mpf

    m, w = mpf(mass), mpf(charge) * mpf(b0) / (2 * mpf(mass))
    two_lam2 = 1 if unit_weights else m * (w * w + mpf(omega0) ** 2)
    two_kap2 = 1 if unit_weights else 1 / m
    gen = mp.zeros(5, 5)
    gen[0, 1], gen[0, 2] = w, two_kap2
    gen[1, 0], gen[1, 3] = -w, two_kap2
    gen[2, 0], gen[2, 3] = -two_lam2, w
    gen[3, 1], gen[3, 2], gen[3, 4] = -two_lam2, -w, -m * mpf(gravity)
    return gen


def hermite_fidelity_mp(gen, z0, t, order):
    """(closed, quadrature) fidelity of unit Gaussians at z0 and exp(G t)(z0, 1),
    in mpmath at the current precision.  With d the displacement, closed is
    exp(-|d|^2 / 2); quadrature integrates sqrt(W_0 W_t) on the unit
    Gauss-Hermite rule of the given order about z0: (prod_k s_k)^2, capped
    at 1, with s_k = sum_i w_i exp(x_i^2 / 2 - (d_k - x_i)^2 / 2) / sqrt(pi)."""
    from mpmath import mp, mpf

    z = mp.matrix([mpf(v) for v in z0] + [1])
    zt = mp.expm(gen * mpf(t)) * z
    d = [zt[k] - z[k] for k in range(4)]
    nodes, weights = mp.gauss_quadrature(order, "hermite")
    closed = mp.exp(-sum(dk * dk for dk in d) / 2)
    amplitude = mpf(1)
    for dk in d:
        amplitude *= sum(w * mp.exp(x * x / 2 - (dk - x) ** 2 / 2)
                         for x, w in zip(nodes, weights)) / mp.sqrt(mp.pi)
    return closed, min(amplitude * amplitude, mpf(1))
